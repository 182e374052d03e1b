"""Independent dense linear algebra used as a test oracle.

Deliberately separate from dglift.base_ring: plain dense Gaussian elimination
over Fraction/int scalars, no pivoting strategy, used to cross-check ranks,
homology dimensions, and Ext tables computed by the library.  The product of
tower elements is checked against `symbol_product`, which sorts words of
variable symbols by adjacent swaps, and divided powers against
`divided_power`: each label's power in closed form, by counting the ways to
deal objects into blocks, and the sum rule through `symbol_product`.  The Hom
differential is applied to maps with module-element operations, not with the
library's Hom-complex code, and the differential of a tower element is
expanded by the Leibniz rule over its variable powers, not with the library's
memoised monomial differentials.  Envelope elements are checked against
`TensorOracle`, which writes B^o (x)_A B out in its tensor form.  Whether
pi_N splits is decided by `split_exists`, from the same element operations
and a dense rank, without `dglift.homological`.
"""

from __future__ import annotations

from math import comb, factorial

from dglift.dg_algebra import AlgebraElement
from dglift.dg_module import BidegreeWindow, ChainMap, base_change


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
    for (exps, bex), c in elem.coeffs.items():
        for i, m in enumerate(exps):
            if not m:
                continue
            piece = tower.from_poly(tower.base.monomial(bex, c))
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
    for (ea, ba), ca in u.coeffs.items():
        for (eb, bb), cb in v.coeffs.items():
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
            key = (tuple(exps), tuple(a + b for a, b in zip(ba, bb)))
            s = field.add(out.get(key, field.zero()), field.mul(field.of(coeff), field.mul(ca, cb)))
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def label_power(tower, label, s, j: int, divided: bool) -> dict:
    """(s·X^e x^b)^(j) when `divided`, else (s·X^e x^b)^j, for the label
    (e, b) of an even-degree monomial, as {label: scalar}, in closed form.
    Past j = 1 it is zero when X^e holds an odd variable.  Otherwise it is
    s^j x^(jb) X^(je) times an integer: in the divided flavor each variable
    X_i^(a) of X^e deals j·a objects into j blocks of a, in
    prod_{k=1..j} binom(ka, a) ways when the blocks are told apart and in
    prod_{k=1..j} binom(ka - 1, a - 1) when not, which the first variable
    takes for a divided power; in the ordinary flavor X^e X^e = X^(2e),
    and a divided power divides by j!."""
    field = tower.base.field
    e, b = label
    if j > 1 and any(m and var.degree % 2 for m, var in zip(e, tower.variables)):
        return {}
    count, dealt = 1, not divided
    for a in e:
        if a and tower.flavor == "divided":
            for k in range(1, j + 1):
                count *= comb(k * a, a) if dealt else comb(k * a - 1, a - 1)
            dealt = True
    scalar = field.of(count)
    if divided and tower.flavor == "ordinary":
        scalar = field.mul(scalar, field.of(1, factorial(j)))
    for _ in range(j):
        scalar = field.mul(scalar, s)
    if not scalar:
        return {}
    return {(tuple(j * m for m in e), tuple(j * m for m in b)): scalar}


def divided_power(u, m: int) -> dict:
    """The field coordinates of u^(m) for u of positive even degree, by the
    sum rule (v + w)^(m) = sum_j v^(j) w^(m-j) over the labels of u, each
    label's divided power from `label_power` and the products from
    `symbol_product`."""
    tower = u.tower
    field = tower.base.field
    labels = sorted(u.coeffs.items())

    def rule(i: int, left: int) -> dict:
        (label, s), rest = labels[i], i + 1 < len(labels)
        if not rest:
            return label_power(tower, label, s, left, True)
        out: dict = {}
        for j in range(left + 1):
            head = label_power(tower, label, s, j, True)
            if head:
                for key, c in symbol_product(AlgebraElement(tower, head),
                                             AlgebraElement(tower, rule(i + 1, left - j))).items():
                    c = field.add(out.get(key, field.zero()), c)
                    if c:
                        out[key] = c
                    else:
                        out.pop(key, None)
        return out

    return rule(0, m)


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


def split_exists(n, a_prefix: int = 0) -> bool:
    """Whether pi_N: P = N|_A (x)_A B -> N has a section, in the window that
    the basis of N spans.  The unknowns are the coordinates of rho(e_b) on
    `p.slice_labels(|e_b|, wt e_b)`; D(rho) = 0 is read off
    `hom_differential` of each basis map and pi(rho(e_b)) = e_b off
    `ChainMap.apply`, both coordinatewise, and the system has a solution
    exactly when [A | b] has the dense rank of A."""
    field = n.tower.base.field
    window = BidegreeWindow(n.min_degree(), n.max_degree(), n.max_weight())
    p, pi = base_change(n, window, a_prefix)
    unknowns = [(b, lab) for b, e in enumerate(n.basis)
                for lab in p.slice_labels(e.degree, e.weight)]
    equations: dict = {}
    for j, (b, lab) in enumerate(unknowns):
        image = p.label_elem(lab)
        for c, elem in hom_differential(ChainMap(n, p, 0, {b: image})).items():
            for key, s in p.elem_coords(elem).items():
                equations.setdefault(("chain", c, key), {})[j] = s
        for key, s in n.elem_coords(pi.apply(image)).items():
            equations.setdefault(("pi", b, key), {})[j] = s
    rhs = {("pi", b, key): s for b in range(len(n.basis))
           for key, s in n.elem_coords(n.basis_elem(b)).items()}
    keys = sorted(set(equations) | set(rhs), key=repr)
    a = [[equations.get(k, {}).get(j, field.zero()) for j in range(len(unknowns))]
         for k in keys]
    augmented = [row + [rhs.get(k, field.zero())] for row, k in zip(a, keys)]
    return dense_rank(field, a) == dense_rank(field, augmented)


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
        for (exps, bex), c in b1.coeffs.items():
            a = tower.monomial(exps[:k] + (0,) * (tower.n - k), tower.base.monomial(bex, c))
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
        |M| = 0 and (L^i)^o (x) M^(i) otherwise, each factor from
        `label_power`, which is 0 for i > 1 when it holds an odd variable."""
        tower = self.tower
        if self.ordinary:
            out = self.one()
            for _ in range(m):
                out = self.mul(out, x)
            return {lex: r.scale(tower.base.field.of(1, factorial(m))) for lex, r in out.items()}
        one = tower.base.field.one()
        pieces = [(lex, (exps, bex), c)
                  for lex, r in sorted(x.items()) for (exps, bex), c in sorted(r.coeffs.items())]

        def piece_power(piece, i):
            lex, label, c = piece
            if i == 0:
                return self.one()
            ext = ((0,) * self.k + lex, (0,) * len(tower.base.names))
            divided_ext = not tower.monomial_bidegree(label[0])[0]
            left = label_power(tower, ext, one, i, divided_ext)
            right = label_power(tower, label, c, i, not divided_ext)
            return self.tensor(AlgebraElement(tower, left), AlgebraElement(tower, right))

        def rule(pieces, m):
            if len(pieces) < 2:
                return piece_power(pieces[0], m) if pieces else {}
            out = {}
            for j in range(m + 1):
                out = self.add(out, self.mul(piece_power(pieces[0], j), rule(pieces[1:], m - j)))
            return out

        return rule(pieces, m)
