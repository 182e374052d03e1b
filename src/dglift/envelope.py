"""The enveloping algebra B^e = B^o (x)_A B of a tower B over a prefix subtower A.

For B = A<X_{k+1}..X_n> the envelope is itself a tower, `algebra` =
B<xi_{k+1}..xi_n>: the variables of B, then one diagonal xi_i per extension
variable, of the degree and weight of X_i, with d(xi_i) = phi(dX_i) - dX_i,
where phi sends X_i to X_i + xi_i and fixes A.  The element L^o (x) r is
phi(L)·r, so B is a prefix of the tower and 1^o (x) b is b itself.  The
diagonal ideal J is (xi), J^(l) is spanned by the xi-monomials of level at
least l, and pi_B keeps the terms without xi.

A term X^a xi^w p of the tower reads as b·xi^w with b = X^a p in B, and as
xi^w·b with the sign (-1)^{|b||w|}; that one reader, `TowerAlgebra.split_at`,
gives the right coordinates, the quotients J^(l)/J^(l+1) and the ideal J as
DG B-modules.
Each change of generators is one `TowerAlgebra.substitute`: phi; the flip
X -> X + xi, xi -> -xi, which exchanges the two factors and so gives the
left Mon(Omega) coordinates; and xi -> X^o - X into B<X^o>, which gives
the tensor form L^o (x) r that reports print.
"""

from __future__ import annotations

from functools import cached_property

from .base_ring import matrix_rank
from .dg_algebra import AlgebraElement, DGVariable, TowerAlgebra
from .dg_module import BidegreeWindow, ModuleError, SemifreeModule
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
        n, ext = tower.n, tower.variables[a_prefix:]
        memo = tower.envelope_memo()
        xis = memo.get(("xi", a_prefix))
        if xis is None:
            # xi_i is adjoined to the tower of the diagonals before it, in
            # which phi(dX_i) is computed; dX_i holds no X_j with j >= i
            algebra = TowerAlgebra(tower.base, tower.flavor, tower.variables)
            for v in ext:
                dx = tower.gen(v.name).differential()
                target = algebra.substitute(dx, self._phi(algebra)) - algebra.embed(dx)
                xi = DGVariable(f"ξ({v.name})", v.degree, v.weight,
                                tuple(sorted(target.coeffs.items())) or None)
                algebra = TowerAlgebra(tower.base, tower.flavor, algebra.variables + (xi,))
            xis = memo["xi", a_prefix] = tuple((xi.name, xi.degree, xi.weight, xi.target or ())
                                               for xi in algebra.variables[n:])
        self.algebra = TowerAlgebra(tower.base, tower.flavor, tower.variables + tuple(
            DGVariable(name, degree, weight, target or None) for name, degree, weight, target in xis))

    # the images of the three changes of generators, made on first use,
    # since the quotient modules, which `lift` builds, read none of them

    @cached_property
    def _phi_images(self) -> list[AlgebraElement]:
        return self._phi(self.algebra)

    @cached_property
    def _flip_images(self) -> list[AlgebraElement]:
        algebra = self.algebra
        return self._phi_images + [-algebra.variable_power(j, 1)
                                   for j in range(self.tower.n, algebra.n)]

    @cached_property
    def _opposite(self) -> TowerAlgebra:
        # B<X^o> only holds the tensor form, so its X^o need no differential
        tower = self.tower
        return TowerAlgebra(tower.base, tower.flavor, tower.variables + tuple(
            DGVariable(v.name + "^o", v.degree, v.weight, None)
            for v in tower.variables[self.a_prefix:]))

    @cached_property
    def _tensor_images(self) -> list[AlgebraElement]:
        n, opposite = self.tower.n, self._opposite
        xo = [opposite.variable_power(j, 1) for j in range(opposite.n)]
        return xo[:n] + [xo[j] - xo[j - n + self.a_prefix] for j in range(n, len(xo))]

    def _phi(self, algebra: TowerAlgebra) -> list[AlgebraElement]:
        """The images X_i + xi_i of phi in a tower of the diagonals of the
        first extension variables, X_i where xi_i is not there yet."""
        n, k = self.tower.n, self.a_prefix
        images = [algebra.variable_power(i, 1) for i in range(n)]
        for j in range(n, algebra.n):
            images[j - n + k] = images[j - n + k] + algebra.variable_power(j, 1)
        return images

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

    def ext_elem(self, lexps: tuple) -> AlgebraElement:
        return self.tower.monomial((0,) * self.a_prefix + tuple(lexps))

    def ext_degree(self, lexps: tuple) -> int:
        return sum(m * self.ext_var(k).degree for k, m in enumerate(lexps))

    def ext_weight(self, lexps: tuple) -> int:
        return sum(m * self.ext_var(k).weight for k, m in enumerate(lexps))

    def ext_monomials(self, max_weight: int, max_degree: int | None = None) -> list[tuple]:
        full = self.tower.gamma_monomials(
            max_weight, max_degree, range(self.a_prefix, self.tower.n)
        )
        return [e[self.a_prefix:] for e in full]

    def _suffixes(self, t: AlgebraElement, right: bool) -> dict:
        """{w: b in B} with t = sum b·S^w, or with `right`, t = sum S^w·b:
        S^w is the monomial in the variables after those of B (the diagonals,
        or the X^o of the tensor form); `TowerAlgebra.split_at` reads it."""
        return t.tower.split_at(t, self.tower.n, self.tower, right)

    # --- constructors --------------------------------------------------------

    def zero(self) -> "EnvelopeElement":
        return EnvelopeElement(self, self.algebra.zero())

    def one(self) -> "EnvelopeElement":
        return EnvelopeElement(self, self.algebra.one())

    def include_right(self, b: AlgebraElement) -> "EnvelopeElement":
        """1^o (x) b."""
        return EnvelopeElement(self, self.algebra.embed(b))

    def from_tensor(self, b1: AlgebraElement, b2: AlgebraElement) -> "EnvelopeElement":
        """b1^o (x) b2, which is phi(b1)·b2."""
        return EnvelopeElement(
            self, self.algebra.substitute(b1, self._phi_images) * self.algebra.embed(b2))

    def include_left(self, b: AlgebraElement) -> "EnvelopeElement":
        """b^o (x) 1."""
        return EnvelopeElement(self, self.algebra.substitute(b, self._phi_images))

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
        return EnvelopeElement(self, self.algebra.variable_power(self.tower.n + k, m))

    def _omega(self, exps: tuple) -> AlgebraElement:
        return self.algebra.monomial((0,) * self.tower.n + tuple(exps))

    def omega_monomial(self, exps: tuple) -> "EnvelopeElement":
        """The Mon(Omega) element xi_1^(m_1) ... xi_t^(m_t)."""
        return EnvelopeElement(self, self._omega(exps))

    def omega_exponents(self, level: int, max_weight: int) -> list[tuple]:
        """Mon_level(Omega) exponent vectors within the weight bound."""
        return [e for e in self.ext_monomials(max_weight) if sum(e) == level]

    def basis_tables(self, window: BidegreeWindow) -> tuple[list, list]:
        """The Mon(Omega) monomials in the window and the exactness check of
        0 -> J -> B^e -> B -> 0 per bidegree slice.

        Returns rows [label, h, w, level] sorted by (h, w, label), and rows
        [h, w, dim B^e, dim J, dim B] for every nonzero slice, where dim J is
        dim B^e minus the rank of pi_B on the slice.
        """
        tower = self.tower
        omega_rows = []
        for exps in self.ext_monomials(window.wmax):
            h, w = self.ext_degree(exps), self.ext_weight(exps)
            if window.contains(h, w):
                omega_rows.append([omega_name(self, exps, "xi_", "·"), h, w, sum(exps)])
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
                    # pi_B(L^o (x) r) = L·r
                    img = self.ext_elem(lex) * tower.monomial(exps, tower.base.monomial(bex))
                    for key, scalar in img.coeffs.items():
                        rows.setdefault(key, {})[j] = scalar
                rank = matrix_rank(tower.base.field, list(rows.values()))
                dims.append([h, w, dim_be, dim_be - rank, dim_b])
        return omega_rows, dims

    # --- the filtration quotients J^(l)/J^(l+1) and the ideal J ----------------

    def quotient_module(self, level: int, window: BidegreeWindow) -> SemifreeModule:
        """The DG B-module J^(level)/J^(level+1) restricted to the window.

        Semifree basis = Mon_level(Omega) monomials inside the window; the
        differential of a basis monomial is the level-`level` part of its
        differential in the envelope tower, read by `_omega_terms`.  The
        basis and the term maps of the differential are computed once per
        prefix, level and window, and kept on the tower.  The left action is
        the right one up to the Koszul flip: b·e_k = e_k·b.koszul(|e_k|).
        """
        if level < 0:
            raise EnvelopeError("filtration level must be >= 0")
        memo = self.tower.envelope_memo()
        key = ("quotient", self.a_prefix, level, window.hmin, window.hmax, window.wmax)
        data = memo.get(key)
        if data is None:
            data = memo[key] = self._quotient_terms(level, window)
        basis, diff = data
        degrees = [degree for _, degree, _ in basis]
        # d^2 = 0 holds in the envelope tower, so the module is not validated
        return SemifreeModule.from_terms(
            self.tower, basis, diff, complete_hmax=window.hmax, complete_wmax=window.wmax,
            left_action_fn=lambda b, k: {k: b.koszul(degrees[k])})

    def _quotient_terms(self, level: int, window: BidegreeWindow) -> tuple[tuple, dict]:
        """`_omega_terms` of J^(level)/J^(level+1) on the Mon_level(Omega)
        monomials inside the window."""
        cands = [(self.ext_degree(exps), exps, self.ext_weight(exps))
                 for exps in self.omega_exponents(level, window.wmax)]
        return self._omega_terms(sorted(c for c in cands if window.contains(c[0], c[2])),
                                 level, f"window {window.format()}")

    def _omega_terms(self, cands: list, level: int | None, bound: str) -> tuple[tuple, dict]:
        """Basis (name, degree, weight) and differential {(i, j): term map
        over B} of the module on the sorted (degree, exps, weight) candidates:
        the level-`level` part of d(xi^w) in right coordinates, all of it when
        `level` is None; `bound` names the truncation in a cut error."""
        pos = {exps: i for i, (_, exps, _) in enumerate(cands)}
        diff: dict = {}
        for j, (_, exps, _) in enumerate(cands):
            d = self.algebra.monomial_diff((0,) * self.tower.n + exps)
            for oexps, c in sorted(self._suffixes(d, True).items()):
                if level is not None and sum(oexps) != level:
                    continue
                i = pos.get(oexps)
                if i is None:
                    raise ModuleError(
                        f"{bound} cuts the differential of {omega_name(self, exps)}")
                diff[(i, j)] = c.coeffs
        return tuple((omega_name(self, exps), h, w) for h, exps, w in cands), diff

    def diagonal_ideal_module(self, max_weight: int) -> SemifreeModule:
        """The diagonal ideal J as a semifree DG B-module, complete up to the
        given basis weight.

        Basis = all of Mon_{>=1}(Omega) with monomial weight <= max_weight
        (homological degree is then bounded automatically); the right B-action
        is through the right tensor factor, so the differential
        (`_omega_terms`) and the left action are read in right coordinates.
        """
        cands = sorted((self.ext_degree(exps), exps, self.ext_weight(exps))
                       for exps in self.ext_monomials(max_weight) if any(exps))
        basis, diff = self._omega_terms(cands, None, f"ideal weight bound {max_weight}")
        pos = {exps: i for i, (_, exps, _) in enumerate(cands)}

        def left_action(b: AlgebraElement, k: int) -> dict:
            prod = self.algebra.substitute(b, self._phi_images) * self._omega(cands[k][1])
            out = {}
            for oexps, c in sorted(self._suffixes(prod, True).items()):
                i = pos.get(oexps)
                if i is None:
                    raise ModuleError(
                        f"ideal weight bound {max_weight} cuts a left multiple: "
                        f"coordinate at weight {self.ext_weight(oexps)}"
                    )
                out[i] = c
            return out

        # d^2 = 0 holds in the envelope tower, so the module is not validated
        return SemifreeModule.from_terms(self.tower, basis, diff, complete_wmax=max_weight,
                                         left_action_fn=left_action)


class EnvelopeElement:
    """Element of B^e, held as an element of the envelope tower B<xi>."""

    __slots__ = ("env", "elem")

    def __init__(self, env: EnvelopeAlgebra, elem: AlgebraElement):
        self.env = env
        self.elem = elem

    def is_zero(self) -> bool:
        return self.elem.is_zero()

    def __eq__(self, other):
        return isinstance(other, EnvelopeElement) and self.elem == other.elem

    def __add__(self, other: "EnvelopeElement") -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem + other.elem)

    def __neg__(self) -> "EnvelopeElement":
        return EnvelopeElement(self.env, -self.elem)

    def __sub__(self, other: "EnvelopeElement") -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem - other.elem)

    def scale(self, scalar) -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem.scale(scalar))

    def scale_int(self, n: int) -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem.scale_int(n))

    def __mul__(self, other: "EnvelopeElement") -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem * other.elem)

    def power(self, m: int) -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem.power(m))

    def differential(self) -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem.differential())

    def divided_power(self, m: int) -> "EnvelopeElement":
        return EnvelopeElement(self.env, self.elem.divided_power(m))

    def degree(self) -> int | None:
        return self.elem.degree()

    def weight(self) -> int | None:
        return self.elem.weight()

    def pi(self) -> AlgebraElement:
        """The multiplication map pi_B: b1^o (x) b2 -> b1 b2, which sets xi to 0."""
        return self.env._suffixes(self.elem, False).get((0,) * self.env.n_ext,
                                                         self.env.tower.zero())

    # --- the Omega basis -------------------------------------------------------------

    def to_omega(self) -> "OmegaCoordinates":
        """Unique B^o-coordinates over Mon(Omega): the flip sends b^o·xi^(w)
        to (-1)^{|w|} b·xi^(w), |w| being the level."""
        env = self.env
        flipped = env.algebra.substitute(self.elem, env._flip_images)
        return OmegaCoordinates(env, {w: -b if sum(w) % 2 else b
                                      for w, b in env._suffixes(flipped, False).items()})

    def filtration_level(self) -> int | None:
        """Largest l with the element in J^(l); None means +infinity (zero)."""
        return min((sum(w) for w in self.env._suffixes(self.elem, False)), default=None)

    def right_coordinates(self) -> dict:
        """Coordinates over Mon(Omega) with coefficients in the right copy of
        B: the element equals sum omega_hat * (1^o (x) c_omega)."""
        return self.env._suffixes(self.elem, True)

    def sorted_terms(self):
        """The tensor form: sorted pairs (L, r) with the element sum L^o (x) r."""
        env = self.env
        tensor = env._opposite.substitute(self.elem, env._tensor_images)
        return sorted(env._suffixes(tensor, True).items())

    def __repr__(self):
        if self.is_zero():
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
