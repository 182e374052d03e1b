"""The enveloping algebra B^e = B^o (x)_A B of a tower B over a prefix subtower A.

Canonical form: every element is written sum_L L^o (x) r_L where L runs over
monomials in the extension variables and r_L is an arbitrary element of B (all
A-coefficients pushed into the right factor).  The diagonals xi_i and their
(divided) powers give the second basis Mon(Omega) over B^o, which drives the
filtration-level computation and the quotient DG B-modules.
"""

from __future__ import annotations

from math import comb, factorial

from .base_ring import homogeneous, matrix_rank
from .dg_algebra import (ORDINARY, AlgebraElement, TowerAlgebra, add_term, ring_power,
                         sum_divided_power)
from .dg_module import (BasisElement, BidegreeWindow, ModuleError, SemifreeModule,
                        split_over_prefix)
from .render import omega_name


class EnvelopeError(ValueError):
    pass


class EnvelopeAlgebra:
    """B^e for a tower B with the designated prefix A (first a_prefix variables)."""

    def __init__(self, tower: TowerAlgebra, a_prefix: int = 0):
        if not (0 <= a_prefix <= tower.n):
            raise EnvelopeError(f"a_prefix must be in [0, {tower.n}]")
        self.tower = tower
        self.a_prefix = a_prefix
        self.n_ext = tower.n - a_prefix
        self._omega_cache: dict[tuple, EnvelopeElement] = {}

    def signature(self):
        return (self.tower.signature(), self.a_prefix)

    def __eq__(self, other):
        return isinstance(other, EnvelopeAlgebra) and self.signature() == other.signature() \
            and self.tower == other.tower

    def __repr__(self):
        return f"Envelope({self.tower!r}, A=first {self.a_prefix} vars)"

    # --- extension-monomial helpers ----------------------------------------

    def ext_var(self, k: int):
        return self.tower.variables[self.a_prefix + k]

    def _full(self, lexps: tuple) -> tuple:
        return (0,) * self.a_prefix + tuple(lexps)

    def ext_elem(self, lexps: tuple) -> AlgebraElement:
        return self.tower.monomial(self._full(lexps))

    def ext_degree(self, lexps: tuple) -> int:
        return sum(m * self.ext_var(k).degree for k, m in enumerate(lexps))

    def ext_weight(self, lexps: tuple) -> int:
        return sum(m * self.ext_var(k).weight for k, m in enumerate(lexps))

    def ext_monomials(self, max_weight: int, max_degree: int | None = None) -> list[tuple]:
        full = self.tower.gamma_monomials(
            max_weight, max_degree, range(self.a_prefix, self.tower.n)
        )
        return [e[self.a_prefix:] for e in full]

    # --- constructors --------------------------------------------------------

    def zero(self) -> "EnvelopeElement":
        return EnvelopeElement(self, {})

    def one(self) -> "EnvelopeElement":
        return EnvelopeElement(self, {(0,) * self.n_ext: self.tower.one()})

    def include_right(self, b: AlgebraElement) -> "EnvelopeElement":
        """1^o (x) b."""
        if b.is_zero():
            return self.zero()
        return EnvelopeElement(self, {(0,) * self.n_ext: b})

    def from_tensor(self, b1: AlgebraElement, b2: AlgebraElement) -> "EnvelopeElement":
        """Canonicalize b1^o (x) b2 by moving A-parts across the tensor."""
        out: dict = {}
        for lex, a in split_over_prefix(self.tower, b1.terms.items(), self.a_prefix):
            add_term(out, lex, a * b2)
        return EnvelopeElement(self, out)

    def include_left(self, b: AlgebraElement) -> "EnvelopeElement":
        """b^o (x) 1."""
        return self.from_tensor(b, self.tower.one())

    # --- diagonals -------------------------------------------------------------

    def xi(self, k: int) -> "EnvelopeElement":
        """Diagonal of the k-th extension variable: X^o (x) 1 - 1^o (x) X."""
        return self.xi_power(k, 1)

    def xi_power(self, k: int, m: int) -> "EnvelopeElement":
        """xi_k^(m) (divided flavor) resp. xi_k^m (ordinary flavor)."""
        if not (0 <= k < self.n_ext):
            raise EnvelopeError(f"extension variable index {k} out of range")
        if m < 0:
            raise EnvelopeError("negative power of a diagonal")
        if m == 0:
            return self.one()
        var = self.ext_var(k)
        if var.is_odd and m > 1:
            return self.zero()
        tower = self.tower
        abs_k = self.a_prefix + k
        terms: dict = {}
        for j in range(m + 1):
            lexps = tuple(j if i == k else 0 for i in range(self.n_ext))
            right = tower.variable_power(abs_k, m - j)
            c = 1 if (m - j) % 2 == 0 else -1
            if tower.flavor == ORDINARY:
                c *= comb(m, j)
            terms[lexps] = right.scale_int(c)
        return EnvelopeElement(self, terms)

    def omega_monomial(self, exps: tuple) -> "EnvelopeElement":
        """The Mon(Omega) element xi_1^(m_1) ... xi_t^(m_t)."""
        exps = tuple(exps)
        cached = self._omega_cache.get(exps)
        if cached is not None:
            return cached
        out = self.one()
        for k, m in enumerate(exps):
            if m:
                out = out * self.xi_power(k, m)
        self._omega_cache[exps] = out
        return out

    def omega_exponents(self, level: int, max_weight: int) -> list[tuple]:
        """Mon_level(Omega) exponent vectors within the weight bound."""
        out: list[tuple] = []

        def rec(k: int, left: int, wt: int, acc: list[int]):
            if k == self.n_ext:
                if left == 0:
                    out.append(tuple(acc))
                return
            var = self.ext_var(k)
            top = 1 if var.is_odd else left
            for m in range(min(top, left) + 1):
                if wt + m * var.weight > max_weight:
                    break
                acc.append(m)
                rec(k + 1, left - m, wt + m * var.weight, acc)
                acc.pop()

        rec(0, level, 0, [])
        out.sort()
        return out

    def basis_tables(self, window: BidegreeWindow) -> tuple[list, list]:
        """The Mon(Omega) monomials in the window and the exactness check of
        0 -> J -> B^e -> B -> 0 per bidegree slice.

        Returns rows [label, h, w, level] sorted by (h, w, label), and rows
        [h, w, dim B^e, dim J, dim B] for every nonzero slice, where dim J is
        dim B^e minus the rank of pi_B on the slice.
        """
        tower = self.tower
        omega_rows = []
        for level in range(0, window.wmax + 1):
            for exps in self.omega_exponents(level, window.wmax):
                h, w = self.ext_degree(exps), self.ext_weight(exps)
                if window.contains(h, w):
                    omega_rows.append([omega_name(self, exps, "xi_", "·"), h, w, level])
        omega_rows.sort(key=lambda r: (r[1], r[2], r[0]))

        dims = []
        for h in range(window.hmin, window.hmax + 1):
            for w in range(0, window.wmax + 1):
                labels = []
                for lex in self.ext_monomials(w, h if h >= 0 else 0):
                    dl, wl = self.ext_degree(lex), self.ext_weight(lex)
                    for blab in tower.slice_basis(h - dl, w - wl):
                        labels.append((lex, blab))
                dim_be = len(labels)
                dim_b = len(tower.slice_basis(h, w))
                if dim_be == 0 and dim_b == 0:
                    continue
                rows: dict = {}
                for j, (lex, (exps, bex)) in enumerate(labels):
                    r = tower.monomial(exps, tower.base.monomial(bex))
                    img = EnvelopeElement(self, {lex: r}).pi()
                    for key, scalar in img.coordinates().items():
                        rows.setdefault(key, {})[j] = scalar
                rank = matrix_rank(tower.base.field, list(rows.values()))
                dims.append([h, w, dim_be, dim_be - rank, dim_b])
        return omega_rows, dims

    # --- the filtration quotients J^(l)/J^(l+1) ---------------------------------

    def quotient_module(self, level: int, window: BidegreeWindow) -> SemifreeModule:
        """The DG B-module J^(level)/J^(level+1) restricted to the window.

        Semifree basis = Mon_level(Omega) monomials inside the window; the
        differential is the envelope differential reduced mod J^(level+1),
        converted from left B^o-coefficients to the right B-action.
        """
        if level < 0:
            raise EnvelopeError("filtration level must be >= 0")
        tower = self.tower
        cands = []
        for exps in self.omega_exponents(level, window.wmax):
            h = self.ext_degree(exps)
            w = self.ext_weight(exps)
            if window.contains(h, w):
                cands.append((h, exps, w))
        cands.sort()
        pos = {exps: i for i, (_, exps, _) in enumerate(cands)}

        basis = [BasisElement(omega_name(self, exps), h, w) for h, exps, w in cands]
        diff: dict = {}
        for (h, exps, w) in cands:
            d = self.omega_monomial(exps).differential()
            if d.is_zero():
                continue
            coords = d.to_omega().coords
            j = pos[exps]
            for oexps, b in sorted(coords.items()):
                lvl = sum(oexps)
                if lvl < level:
                    raise EnvelopeError(
                        "internal error: differential dropped filtration level"
                    )
                if lvl != level:
                    continue
                i = pos.get(oexps)
                if i is None:
                    raise ModuleError(
                        f"window {window.format()} cuts the differential of "
                        f"{omega_name(self, exps)}"
                    )
                deg_b = b.degree()
                if deg_b is None:
                    raise EnvelopeError("inhomogeneous quotient coefficient")
                sign = -1 if (deg_b * self.ext_degree(oexps)) % 2 else 1
                diff[(i, j)] = b.scale_int(sign)

        module = SemifreeModule(
            tower, basis, diff, complete_hmax=window.hmax, complete_wmax=window.wmax,
        )

        def left_action(b: AlgebraElement, k: int) -> dict:
            # in J^(l)/J^(l+1) the left and right actions agree up to the
            # Koszul flip: b . e_k = (-1)^{|b||e_k|} e_k . b
            out = {}
            for deg_b, part in b.split_by_degree().items():
                sign = -1 if (deg_b * basis[k].degree) % 2 else 1
                add_term(out, k, part.scale_int(sign))
            return out

        module.left_action_fn = left_action
        return module

    def diagonal_ideal_module(self, max_weight: int) -> SemifreeModule:
        """The diagonal ideal J as a semifree DG B-module, complete up to the
        given basis weight.

        Basis = all of Mon_{>=1}(Omega) with monomial weight <= max_weight
        (homological degree is then bounded automatically); the right B-action
        is through the right tensor factor, so the differential and the left
        action are expanded in right coordinates over Mon(Omega).
        """
        tower = self.tower
        cands = []
        for level in range(1, max_weight + 1):
            for exps in self.omega_exponents(level, max_weight):
                h = self.ext_degree(exps)
                w = self.ext_weight(exps)
                cands.append((h, exps, w))
        cands.sort()
        pos = {exps: i for i, (_, exps, _) in enumerate(cands)}

        basis = [BasisElement(omega_name(self, exps), h, w) for h, exps, w in cands]

        def coords_to_elem(e: EnvelopeElement, what: str) -> dict:
            out = {}
            for oexps, c in sorted(e.right_coordinates().items()):
                i = pos.get(oexps)
                if i is None:
                    raise ModuleError(
                        f"ideal weight bound {max_weight} cuts {what}: "
                        f"coordinate at weight {self.ext_weight(oexps)}"
                    )
                out[i] = c
            return out

        diff: dict = {}
        for (h, exps, w) in cands:
            d = self.omega_monomial(exps).differential()
            if d.is_zero():
                continue
            j = pos[exps]
            for i, c in coords_to_elem(d, f"d({omega_name(self, exps)})").items():
                diff[(i, j)] = c

        module = SemifreeModule(
            tower, basis, diff,
            complete_hmax=None, complete_wmax=max_weight,
        )

        def left_action(b: AlgebraElement, k: int) -> dict:
            prod = self.include_left(b) * self.omega_monomial(cands[k][1])
            return coords_to_elem(prod, "a left multiple")

        module.left_action_fn = left_action
        return module


class EnvelopeElement:
    """Element of B^e in canonical form {extension monomial L -> r in B}."""

    __slots__ = ("env", "terms")

    def __init__(self, env: EnvelopeAlgebra, terms: dict):
        self.env = env
        self.terms = terms

    def _check(self, other: "EnvelopeElement"):
        if self.env is not other.env and self.env != other.env:
            raise EnvelopeError("elements of different envelopes")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, EnvelopeElement)
            and self.env.signature() == other.env.signature()
            and self.terms == other.terms
        )

    def __add__(self, other: "EnvelopeElement") -> "EnvelopeElement":
        self._check(other)
        out = dict(self.terms)
        for lex, r in other.terms.items():
            add_term(out, lex, r)
        return EnvelopeElement(self.env, out)

    def __neg__(self) -> "EnvelopeElement":
        return EnvelopeElement(self.env, {l: -r for l, r in self.terms.items()})

    def __sub__(self, other: "EnvelopeElement") -> "EnvelopeElement":
        return self + (-other)

    def scale(self, scalar) -> "EnvelopeElement":
        if not scalar:
            return self.env.zero()
        return EnvelopeElement(self.env, {l: r.scale(scalar) for l, r in self.terms.items()})

    def scale_int(self, n: int) -> "EnvelopeElement":
        return self.scale(self.env.tower.base.field.of(n))

    def __mul__(self, other: "EnvelopeElement") -> "EnvelopeElement":
        """(b1^o (x) b2)(b1'^o (x) b2') = (-1)^{|b1'|(|b1|+|b2|)} (b1' b1)^o (x) b2 b2'."""
        self._check(other)
        env = self.env
        k = env.a_prefix
        out: dict = {}
        for l1, r1 in self.terms.items():
            d1 = env.ext_degree(l1)
            e1 = env.ext_elem(l1)
            for h, r1h in r1.split_by_degree().items():
                for l2, r2 in other.terms.items():
                    d2 = env.ext_degree(l2)
                    left = env.ext_elem(l2) * e1
                    if left.is_zero():
                        continue
                    ((exps, poly),) = left.terms.items()
                    scalar = poly.terms[(0,) * len(env.tower.base.names)]
                    r = r1h * r2
                    if (d2 * (d1 + h)) % 2:
                        r = -r
                    add_term(out, exps[k:], r.scale(scalar))
        return EnvelopeElement(env, out)

    def power(self, m: int) -> "EnvelopeElement":
        return ring_power(self, m, self.env.one(), EnvelopeError)

    # --- DG structure ---------------------------------------------------------

    def differential(self) -> "EnvelopeElement":
        """d(L^o (x) r) = d(L)^o (x) r + (-1)^{|L|} L^o (x) d(r)."""
        env = self.env
        out = env.zero()
        for lex, r in sorted(self.terms.items()):
            dl = env.ext_elem(lex).differential()
            if not dl.is_zero():
                out = out + env.from_tensor(dl, r)
            dr = r.differential()
            if not dr.is_zero():
                if env.ext_degree(lex) % 2:
                    dr = -dr
                out = out + EnvelopeElement(env, {lex: dr})
        return out

    def pi(self) -> AlgebraElement:
        """The multiplication map pi_B: b1^o (x) b2 -> b1 b2."""
        out = self.env.tower.zero()
        for lex, r in sorted(self.terms.items()):
            out = out + self.env.ext_elem(lex) * r
        return out

    # --- grading ----------------------------------------------------------------

    def degrees(self) -> set[int]:
        out = set()
        for lex, r in self.terms.items():
            d = self.env.ext_degree(lex)
            out.update(d + h for h in r.degrees())
        return out

    def degree(self) -> int | None:
        return homogeneous(self.degrees())

    def weights(self) -> set[int]:
        out = set()
        for lex, r in self.terms.items():
            w = self.env.ext_weight(lex)
            out.update(w + v for v in r.weights())
        return out

    def weight(self) -> int | None:
        return homogeneous(self.weights())

    # --- divided powers -----------------------------------------------------------

    def divided_power(self, m: int) -> "EnvelopeElement":
        """Divided power in B^e (well defined by B^e = B^o<xi_1..xi_n>)."""
        if m < 0:
            raise EnvelopeError("negative divided power")
        if m == 0:
            return self.env.one()
        if self.is_zero():
            return self.env.zero()
        if m == 1:
            return EnvelopeElement(self.env, dict(self.terms))
        deg = self.degree()
        if deg is None or deg <= 0 or deg % 2:
            raise EnvelopeError("divided powers need homogeneous positive even degree")
        if self.env.tower.flavor == ORDINARY:
            if not self.env.tower.base.field.is_rational:
                raise EnvelopeError(
                    "ordinary-flavor divided powers u^m/m! need rational coefficients"
                )
            return self.power(m).scale(self.env.tower.base.field.of(1, factorial(m)))
        pieces = []
        for lex, r in sorted(self.terms.items()):
            for h, rh in r.split_by_degree().items():
                pieces.append((lex, h, rh))
        return sum_divided_power(pieces, m, self._piece_power, self.env.zero())

    def _piece_power(self, piece, i: int) -> "EnvelopeElement":
        env = self.env
        lex, h, r = piece
        if i == 0:
            return env.one()
        if i == 1:
            return EnvelopeElement(env, {lex: r})
        dl = env.ext_degree(lex)
        if dl % 2:  # with |L| odd the right part is odd too: power vanishes
            return env.zero()
        lelem = env.ext_elem(lex)
        if not any(lex):
            return env.include_right(r.divided_power(i))
        if h == 0:
            return env.from_tensor(lelem.divided_power(i), r.power(i))
        return env.from_tensor(lelem.power(i), r.divided_power(i))

    # --- the Omega basis -------------------------------------------------------------

    def gamma_coordinates(self) -> dict:
        """Left B^o-coordinates over Mon(Gamma) = {1^o (x) M}: {M -> b} with
        the element equal to sum b^o (x) M."""
        env = self.env
        tower = env.tower
        k = env.a_prefix
        out: dict = {}
        for lex, r in sorted(self.terms.items()):
            lelem = env.ext_elem(lex)
            for exps, poly in r.terms.items():
                aex = exps[:k] + (0,) * (tower.n - k)
                mex = exps[k:]
                add_term(out, mex, lelem * tower.monomial(aex, poly))
        return out

    def to_omega(self) -> "OmegaCoordinates":
        """Unique B^o-coordinates over Mon(Omega), by triangular elimination
        of the highest filtration level first."""
        env = self.env
        coords: dict = {}
        work = self
        while not work.is_zero():
            g = work.gamma_coordinates()
            lmax = max(sum(m) for m in g)
            sub = env.zero()
            for mex in sorted(m for m in g if sum(m) == lmax):
                b = g[mex]
                if lmax % 2:
                    b = -b
                coords[mex] = b
                sub = sub + env.include_left(b) * env.omega_monomial(mex)
            work = work - sub
            if not work.is_zero():
                g2 = work.gamma_coordinates()
                if max(sum(m) for m in g2) >= lmax:
                    raise EnvelopeError("internal error: Omega elimination stalled")
        return OmegaCoordinates(env, coords)

    def filtration_level(self) -> int | None:
        """Largest l with the element in J^(l); None means +infinity (zero)."""
        return self.to_omega().min_level()

    def right_coordinates(self) -> dict:
        """Coordinates over Mon(Omega) with coefficients in the right copy of
        B: the element equals sum omega_hat * (1^o (x) c_omega).

        Works by eliminating the highest left-monomial level first; the
        leading left coefficient of every Omega monomial is +1.
        """
        env = self.env
        coords: dict = {}
        work = self
        while not work.is_zero():
            lmax = max(sum(l) for l in work.terms)
            sub = env.zero()
            for lex in sorted(l for l in work.terms if sum(l) == lmax):
                c = work.terms[lex]
                add_term(coords, lex, c)
                sub = sub + env.omega_monomial(lex) * env.include_right(c)
            work = work - sub
            if not work.is_zero() and max(sum(l) for l in work.terms) >= lmax:
                raise EnvelopeError("internal error: right-coordinate elimination stalled")
        return coords

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lex, r in self.sorted_terms():
            mono = repr(self.env.ext_elem(lex)) if any(lex) else "1"
            bits.append(f"({mono})^o⊗({r!r})")
        return " + ".join(bits)


class OmegaCoordinates:
    """Coordinates over Mon(Omega) with left B^o coefficients."""

    __slots__ = ("env", "coords")

    def __init__(self, env: EnvelopeAlgebra, coords: dict):
        self.env = env
        self.coords = {m: b for m, b in coords.items() if not b.is_zero()}

    def expand(self) -> EnvelopeElement:
        env = self.env
        out = env.zero()
        for mex, b in sorted(self.coords.items()):
            out = out + env.include_left(b) * env.omega_monomial(mex)
        return out

    def min_level(self) -> int | None:
        if not self.coords:
            return None
        return min(sum(m) for m in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, OmegaCoordinates)
            and self.env.signature() == other.env.signature()
            and self.coords == other.coords
        )

    def __repr__(self):
        if not self.coords:
            return "0"
        return " + ".join(f"({b!r})^o·{omega_name(self.env, mex)}"
                          for mex, b in sorted(self.coords.items()))
