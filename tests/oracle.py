"""Independent dense linear algebra used as a test oracle.

Deliberately separate from dglift.base_ring: plain dense Gaussian elimination
over Fraction/int scalars, no pivoting strategy, used to cross-check ranks,
homology dimensions, and Ext tables computed by the library.  The product of
tower elements is checked against `symbol_product`, which sorts words of
variable symbols by adjacent swaps.  The Hom
differential is applied to maps with module-element operations, not with the
library's Hom-complex code, and the differential of a tower element is
expanded by the Leibniz rule over its variable powers, not with the library's
memoised monomial differentials.  Envelope elements are checked against
`TensorOracle`, which writes B^o (x)_A B out in its tensor form.
"""

from __future__ import annotations

from math import comb, factorial

from dglift import ChainMap


def dense_rref(field, rows: list[list]) -> tuple[list[list], list[int]]:
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                m = field.neg(rows[i][c])
                rows[i] = [field.add(a, field.mul(m, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_rank(field, rows: list[list]) -> int:
    return len(dense_rref(field, rows)[1])


def leibniz_differential(elem):
    """d(elem) with element operations only: in each term X_1^(m_1)...X_n^(m_n) p
    and for each i with m_i > 0, the factor X_i^(m_i) becomes X_i^(m_i - 1) dX_i
    (times m_i in the ordinary flavor), with the Koszul sign of the factors
    before it."""
    tower = elem.tower
    out = tower.zero()
    for exps, poly in elem.terms.items():
        for i, m in enumerate(exps):
            if not m:
                continue
            piece = tower.from_poly(poly)
            for j, mj in enumerate(exps):
                if j != i:
                    piece = piece * tower.variable_power(j, mj)
                    continue
                factor = tower.variable_power(i, m - 1) * tower.variable_diff(i)
                piece = piece * (factor.scale_int(m) if tower.flavor == "ordinary" else factor)
            prefix = sum(exps[j] * tower.variables[j].degree for j in range(i))
            out = out + (-piece if prefix % 2 else piece)
    return out


def symbol_product(u, v) -> dict:
    """The field coordinates {(variable exps, base exps): scalar} of u·v,
    from words of symbols: each term of u, then each term of v, is written
    as the word of its variables (X_i^(m) one symbol), and the word is
    sorted by adjacent swaps, a swap of two odd symbols flipping the sign.
    Then equal neighbours merge: two odd symbols give zero, two even ones
    X_i^(a) X_i^(b) give binom(a+b, a) X_i^(a+b) in the divided flavor and
    X_i^(a+b) in the ordinary one.  Base coefficients multiply term by term."""
    tower = u.tower
    field = tower.base.field
    odd = [var.degree % 2 == 1 for var in tower.variables]
    divided = tower.flavor == "divided"
    out: dict = {}
    for ea, pa in u.terms.items():
        for eb, pb in v.terms.items():
            word = [[i, m] for i, m in enumerate(ea) if m] + [[i, m] for i, m in enumerate(eb) if m]
            sign = 1
            for end in range(len(word) - 1, 0, -1):
                for k in range(end):
                    if word[k][0] > word[k + 1][0]:
                        if odd[word[k][0]] and odd[word[k + 1][0]]:
                            sign = -sign
                        word[k], word[k + 1] = word[k + 1], word[k]
            coeff, exps, dead = sign, [0] * tower.n, False
            for i, m in word:
                if exps[i]:
                    if odd[i]:
                        dead = True
                    elif divided:
                        coeff *= comb(exps[i] + m, m)
                exps[i] += m
            if dead:
                continue
            scalar = field.of(coeff)
            for ba, ca in pa.terms.items():
                for bb, cb in pb.terms.items():
                    key = (tuple(exps), tuple(a + b for a, b in zip(ba, bb)))
                    s = field.add(out.get(key, field.zero()), field.mul(scalar, field.mul(ca, cb)))
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def hom_differential(phi) -> dict:
    """D(phi)(e_b) = d_L(phi(e_b)) - (-1)^|phi| phi(d_M e_b) for a map phi:
    M -> L, with element operations only, as {b: L-element}."""
    m, l = phi.source, phi.target
    out = {}
    for b in range(len(m.basis)):
        lhs = l.apply_diff(phi.entries.get(b, {}))
        rhs = phi.apply(m.apply_diff(m.basis_elem(b)))
        img = l.add_elem(lhs, rhs) if phi.degree % 2 else l.sub_elem(lhs, rhs)
        if img:
            out[b] = img
    return out


def brute_ext_dim(m, l, i: int, w: int) -> int:
    """dim Ext^i(M, L) at weight w by enumerating every bidegree-homogeneous
    map basis vector and row-reducing dense matrices of the Hom differential,
    which is applied to each basis map with `hom_differential`."""
    field = m.tower.base.field
    d = -i

    def labels(dd):
        out = []
        for alpha, e in enumerate(m.basis):
            for lab in l.slice_labels(e.degree + dd, e.weight + w):
                out.append((alpha, lab))
        return out

    def dmap(alpha, lab, dd):
        return hom_differential(ChainMap(m, l, dd, {alpha: l.label_elem(lab)}))

    def matrix(src, tgt, dd):
        tgt_keys = []
        seen = {}
        for beta, lab in tgt:
            for ckey in l.elem_coords(l.label_elem(lab)):
                k = (beta, ckey)
                if k not in seen:
                    seen[k] = len(tgt_keys)
                    tgt_keys.append(k)
        cols = []
        for alpha, lab in src:
            img = dmap(alpha, lab, dd)
            col = [field.zero()] * len(tgt_keys)
            for beta, elem in img.items():
                for ckey, s in l.elem_coords(elem).items():
                    k = (beta, ckey)
                    if k in seen:
                        col[seen[k]] = s
                    elif s:
                        raise AssertionError("image outside the target slice")
            cols.append(col)
        return [list(row) for row in zip(*cols)] if cols and tgt_keys else []

    src = labels(d)
    if not src:
        return 0
    below = labels(d - 1)
    above = labels(d + 1)
    mat_d = matrix(src, below, d)
    rank_d = dense_rank(field, mat_d) if mat_d else 0
    cycles = len(src) - rank_d
    mat_up = matrix(above, src, d + 1)
    rank_up = dense_rank(field, mat_up) if mat_up else 0
    return cycles - rank_up


class TensorOracle:
    """B^o (x)_A B as sparse maps {L: r}: L the exponents of a monomial in the
    extension variables, r in B, and A the first k variables of B.  The
    product, the differential and the divided powers are stated on this form
    with the arithmetic of B alone, and B's differential is the Leibniz rule
    of `leibniz_differential`, so nothing here goes through the envelope."""

    def __init__(self, tower, k: int):
        self.tower, self.k = tower, k
        self.ext = tower.variables[k:]
        self.ordinary = tower.flavor == "ordinary"

    def mono(self, lex):
        return self.tower.monomial((0,) * self.k + tuple(lex))

    def degree(self, lex) -> int:
        return sum(m * v.degree for m, v in zip(lex, self.ext))

    @staticmethod
    def add(*xs) -> dict:
        out = {}
        for x in xs:
            for lex, r in x.items():
                s = out[lex] + r if lex in out else r
                if s.is_zero():
                    out.pop(lex, None)
                else:
                    out[lex] = s
        return out

    def one(self) -> dict:
        return {(0,) * len(self.ext): self.tower.one()}

    def tensor(self, b1, b2) -> dict:
        """b1^o (x) b2: a term a·L of b1, with a the part over A written
        first, is (-1)^{|a||L|} L·a, and a crosses to the right factor."""
        tower, k = self.tower, self.k
        out = {}
        for exps, poly in b1.terms.items():
            a = tower.monomial(exps[:k] + (0,) * (tower.n - k), poly)
            r = a * b2
            out = self.add(out, {exps[k:]: -r if a.degree() * self.degree(exps[k:]) % 2 else r})
        return out

    def mul(self, x: dict, y: dict) -> dict:
        """(L1^o (x) r1)(L2^o (x) r2) = (-1)^{|L2|(|L1|+|r1|)} (L2 L1)^o (x) r1 r2."""
        out = {}
        for l1, r1 in x.items():
            for h, r1h in r1.split_by_degree().items():
                for l2, r2 in y.items():
                    r = r1h * r2
                    if self.degree(l2) * (self.degree(l1) + h) % 2:
                        r = -r
                    out = self.add(out, self.tensor(self.mono(l2) * self.mono(l1), r))
        return out

    def d(self, x: dict) -> dict:
        """d(L^o (x) r) = d(L)^o (x) r + (-1)^{|L|} L^o (x) d(r)."""
        out = {}
        for lex, r in x.items():
            dr = leibniz_differential(r)
            out = self.add(out, self.tensor(leibniz_differential(self.mono(lex)), r),
                           {lex: -dr if self.degree(lex) % 2 else dr})
        return out

    def pi(self, x: dict):
        out = self.tower.zero()
        for lex, r in x.items():
            out = out + self.mono(lex) * r
        return out

    def xi_power(self, i: int, m: int) -> dict:
        """xi_i^(m) = sum_j (-1)^(m-j) (X_i^(j))^o (x) X_i^(m-j), each term
        times binom(m, j) in the ordinary flavor; zero for m > 1 when X_i is
        odd."""
        if m > 1 and self.ext[i].degree % 2:
            return {}
        out = {}
        for j in range(m + 1):
            lex = tuple(j if t == i else 0 for t in range(len(self.ext)))
            c = (-1) ** (m - j) * (comb(m, j) if self.ordinary else 1)
            out = self.add(out, {lex: self.mono(lex[:i] + (m - j,) + lex[i + 1:]).scale_int(c)})
        return out

    def xi_monomial(self, exps) -> dict:
        out = self.one()
        for i, m in enumerate(exps):
            out = self.mul(out, self.xi_power(i, m))
        return out

    def divided_power(self, x: dict, m: int) -> dict:
        """x^(m) for x of positive even degree: x^m/m! in the ordinary flavor
        over Q; in the divided flavor the sum rule over the single terms
        c·L^o (x) M of x, where (L^o (x) M)^(i) is (L^(i))^o (x) M^i when
        |M| = 0, (L^i)^o (x) M^(i) when L and M hold no odd variable, and 0
        for i > 1 otherwise."""
        tower = self.tower
        if self.ordinary:
            out = self.one()
            for _ in range(m):
                out = self.mul(out, x)
            return {lex: r.scale(tower.base.field.of(1, factorial(m))) for lex, r in out.items()}
        pieces = [(lex, tower.monomial(exps, tower.base.monomial(bex, c)))
                  for lex, r in sorted(x.items()) for exps, poly in sorted(r.terms.items())
                  for bex, c in sorted(poly.terms.items())]

        def piece_power(piece, i):
            lex, r = piece
            if i < 2:
                return self.one() if i == 0 else {lex: r}
            odd = [v.degree % 2 for v in tower.variables]
            (exps,) = r.terms
            if any(m and o for m, o in zip((0,) * self.k + lex, odd)) \
                    or any(m and o for m, o in zip(exps, odd)):
                return {}
            if not r.degree():
                return self.tensor(self.mono(lex).divided_power(i), r.power(i))
            return self.tensor(self.mono(lex).power(i), r.divided_power(i))

        def rule(pieces, m):
            if len(pieces) < 2:
                return piece_power(pieces[0], m) if pieces else {}
            out = {}
            for j in range(m + 1):
                out = self.add(out, self.mul(piece_power(pieces[0], j), rule(pieces[1:], m - j)))
            return out

        return rule(pieces, m)
