"""Towers A<X_1..X_n> / A[X_1..X_n] over a weighted polynomial base ring.

Elements are sparse maps from exponent vectors over the adjoined variables to
base-ring polynomials, written in canonical order X_1^(m_1)...X_n^(m_n) with
the coefficient on the right.  All Koszul signs come from counting
transpositions of odd-degree symbols during that sorting; exponents of
odd-degree variables never exceed 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb, factorial
import random

from .base_ring import BasePoly, PolyRing, homogeneous, matrix_rank, nullspace_basis, remainder
from .render import monomial_text

DIVIDED = "divided"
ORDINARY = "ordinary"


class TowerError(ValueError):
    pass


@dataclass(frozen=True)
class DGVariable:
    """An adjoined variable: name, homological degree, weight, differential target.

    The target is stored as a raw term map over the tower stage *before* this
    variable (exponent tuples of length = stage index); None means dX = 0.
    """

    name: str
    degree: int
    weight: int
    target: tuple | None  # tuple of (exps, BasePoly) pairs, or None

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class TowerAlgebra:
    """A base polynomial ring with an ordered list of adjoined DG variables.

    The constructor performs only structural checks; `adjoin` is the validated
    path that also checks the cycle condition on differential targets.  A
    tower never changes, so it memoises its monomial products, monomial
    differentials, slice bases, slice echelons, slice kernels and slice
    ranks.  A tower built by `adjoin` links to its parent and inherits from
    it: a monomial without the new variable keeps its differential, padded
    with a zero, and a slice is the parent's slices with powers of the new
    variable appended, so only what holds the new variable is computed.
    The link runs from child to parent only, so a chain of towers is in no
    reference cycle.
    """

    _parent: "TowerAlgebra | None" = None  # set by `adjoin` only

    def __init__(self, base: PolyRing, flavor: str = DIVIDED,
                 variables: tuple[DGVariable, ...] = ()):
        if flavor not in (DIVIDED, ORDINARY):
            raise TowerError(f"unknown flavor {flavor!r}")
        self.base = base
        self.flavor = flavor
        self.variables = tuple(variables)
        self._odd = tuple(v.is_odd for v in self.variables)
        self._degrees = tuple(v.degree for v in self.variables)
        self._weights = tuple(v.weight for v in self.variables)
        # the memos hold term maps, not elements, so that a tower is in no
        # reference cycle and is freed as soon as it is dropped
        self._diff_cache: dict[int, dict] = {}
        self._products: dict[tuple, tuple] = {}
        self._mono_diffs: dict[tuple, dict] = {}
        self._slices: dict[tuple[int, int], tuple] = {}
        self._slice_ranks: dict[tuple[int, int], tuple[int, int]] = {}
        self._echelons: dict[tuple[int, int], list[tuple]] = {}
        self._kernels: dict[tuple[int, int], list[dict]] = {}
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names) or set(names) & set(base.names):
            raise TowerError("variable names must be fresh and distinct")

    @property
    def n(self) -> int:
        return len(self.variables)

    def signature(self):
        return (
            self.base,
            self.flavor,
            tuple((v.name, v.degree, v.weight) for v in self.variables),
        )

    def __eq__(self, other):
        return (
            isinstance(other, TowerAlgebra)
            and self.signature() == other.signature()
            and tuple(v.target for v in self.variables)
            == tuple(v.target for v in other.variables)
        )

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        brackets = "<>" if self.flavor == DIVIDED else "[]"
        vars_ = ",".join(v.name for v in self.variables)
        return f"{self.base!r}{brackets[0]}{vars_}{brackets[1]}"

    # --- element constructors -------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.from_poly(self.base.one())

    def from_poly(self, p: BasePoly) -> "AlgebraElement":
        if p.is_zero():
            return self.zero()
        return AlgebraElement(self, {(0,) * self.n: p})

    def constant(self, scalar) -> "AlgebraElement":
        return self.from_poly(self.base.constant(scalar))

    def gen(self, name: str) -> "AlgebraElement":
        """The element for a base variable or an adjoined variable."""
        if name in self.base.names:
            return self.from_poly(self.base.var(name))
        for i, v in enumerate(self.variables):
            if v.name == name:
                return self.monomial(self._unit_exps(i))
        raise TowerError(f"unknown generator {name!r}")

    def _unit_exps(self, i: int, m: int = 1) -> tuple[int, ...]:
        return tuple(m if j == i else 0 for j in range(self.n))

    def monomial(self, exps: tuple[int, ...], coeff: BasePoly | None = None) -> "AlgebraElement":
        exps = tuple(exps)
        if len(exps) != self.n:
            raise TowerError("exponent vector has wrong length")
        for i, m in enumerate(exps):
            if m < 0 or (self._odd[i] and m > 1):
                raise TowerError(f"invalid exponent {m} for {self.variables[i].name}")
        if coeff is None:
            coeff = self.base.one()
        if coeff.is_zero():
            return self.zero()
        return AlgebraElement(self, {exps: coeff})

    def variable_power(self, i: int, m: int) -> "AlgebraElement":
        """X_i^(m) (divided flavor) resp. X_i^m (ordinary flavor) as an element."""
        if m == 0:
            return self.one()
        if self._odd[i] and m > 1:
            return self.zero()
        return self.monomial(self._unit_exps(i, m))

    def variable_diff(self, i: int) -> "AlgebraElement":
        """d(X_i) embedded into this tower."""
        terms = self._diff_cache.get(i)
        if terms is None:
            pad = (0,) * (self.n - i)
            terms = {exps + pad: poly for exps, poly in self.variables[i].target or ()}
            self._diff_cache[i] = terms
        return AlgebraElement(self, terms)

    def monomial_diff(self, exps: tuple[int, ...]) -> "AlgebraElement":
        """d of the monomial X^exps with coefficient 1, by the Leibniz rule;
        computed once per exponent vector.  Callers must not mutate it.  A
        tower built by `adjoin` reads a monomial without its last variable
        off its parent, padded with a zero."""
        terms = self._mono_diffs.get(exps)
        if terms is not None:
            return AlgebraElement(self, terms)
        if self._parent is not None and not exps[-1]:
            terms = {e + (0,): p for e, p in self._parent.monomial_diff(exps[:-1]).terms.items()}
            self._mono_diffs[exps] = terms
            return AlgebraElement(self, terms)
        field = self.base.field
        terms = {}
        prefix_deg = 0
        for i, m in enumerate(exps):
            if m:
                t = self.variable_diff(i)
                k = field.of(m if self.flavor == ORDINARY else 1)
                if t.terms and k:
                    # ±k X^head · dX_i · X^tail, head holding X_i^(m-1)
                    head = exps[:i] + (m - 1,) + (0,) * (self.n - i - 1)
                    tail = (0,) * (i + 1) + exps[i + 1:]
                    k = self.base.constant(field.neg(k) if prefix_deg % 2 else k)
                    piece = self.monomial_times(head, self.monomial_times(tail, t, right=True), k)
                    for e, p in piece.terms.items():
                        add_term(terms, e, p)
                prefix_deg += m * self._degrees[i]
        self._mono_diffs[exps] = terms
        return AlgebraElement(self, terms)

    def monomial_product(self, ea: tuple, eb: tuple) -> tuple:
        """X^ea · X^eb as (exps, c): c is the field scalar, an int, of the
        Koszul sign of the odd variables of eb passing those of ea and, in
        the divided flavor, of the binomials binom(a+b, a) of the even
        variables they share.  (None, 0) when an odd variable meets itself;
        c is also 0 when a binomial vanishes in the field.  Computed once
        per pair; the memo holds tuples and ints only."""
        key = (ea, eb)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        odd, divided = self._odd, self.flavor == DIVIDED
        sign, coeff, seen = 0, 1, 0  # seen: odd variables of eb so far
        for i, (a, b) in enumerate(zip(ea, eb)):
            if odd[i]:
                if a and b:
                    hit = self._products[key] = (None, 0)
                    return hit
                if a:
                    sign += seen
                if b:
                    seen += 1
            elif divided and a and b:
                coeff *= comb(a + b, a)
        hit = (tuple([a + b for a, b in zip(ea, eb)]),
               self.base.field.of(-coeff if sign % 2 else coeff))
        self._products[key] = hit
        return hit

    def monomial_times(self, exps: tuple, u: "AlgebraElement", coeff: BasePoly | None = None,
                       right: bool = False) -> "AlgebraElement":
        """X^exps·c·u, or u·X^exps·c with `right`, for a nonzero one-term
        base polynomial c (1 when None): each term of u moves to one monomial
        product, so no two terms collide and no sum is formed."""
        product = self.monomial_product
        out = {}
        for e, p in u.terms.items():
            key, c = product(e, exps) if right else product(exps, e)
            if c:
                if coeff is not None:
                    p = p * coeff
                out[key] = p if c == 1 else p.scale(c)
        return AlgebraElement(self, out)

    # --- structure -------------------------------------------------------

    def term_bidegree(self, exps, base_exps) -> tuple[int, int]:
        h = sum(m * d for m, d in zip(exps, self._degrees))
        w = sum(m * w for m, w in zip(exps, self._weights)) + self.base.term_weight(base_exps)
        return h, w

    def monomial_bidegree(self, exps) -> tuple[int, int]:
        h = sum(m * d for m, d in zip(exps, self._degrees))
        w = sum(m * w for m, w in zip(exps, self._weights))
        return h, w

    def gamma_monomials(self, max_weight: int, max_degree: int | None = None,
                        indices: range | None = None) -> list[tuple[int, ...]]:
        """Exponent vectors over the given variable range, weight-bounded."""
        if indices is None:
            indices = range(self.n)
        # (exps, weight, degree) of the vectors so far, one variable at a time;
        # a loop, not a recursive closure, which would be a reference cycle
        # holding the tower
        partial = [((0,) * self.n, 0, 0)]
        for i in indices:
            wi, di = self._weights[i], self._degrees[i]
            top = 1 if self._odd[i] else max_weight // wi
            grown = []
            for exps, wt, deg in partial:
                for m in range(top + 1):
                    if wt + m * wi > max_weight:
                        break
                    if max_degree is not None and deg + m * di > max_degree:
                        break
                    grown.append((exps[:i] + (m,) + exps[i + 1:], wt + m * wi, deg + m * di))
            partial = grown
        return sorted(exps for exps, _, _ in partial)

    def slice_basis(self, hdeg: int, weight: int) -> tuple[tuple[tuple, tuple], ...]:
        """Field basis of the (hdeg, weight) bidegree piece: (var exps, base
        exps), sorted; computed once per slice.  A tower built by `adjoin`
        takes the union over m >= 0 of its parent's (hdeg - m*d, weight - m*t)
        slices with m appended, d and t being the last variable's degree and
        weight (m <= 1 when it is odd)."""
        if hdeg < 0 or weight < 0:
            return ()
        key = (hdeg, weight)
        cached = self._slices.get(key)
        if cached is not None:
            return cached
        out = []
        if self._parent is not None:
            last = self.variables[-1]
            for m in range(2 if last.is_odd else min(hdeg // last.degree, weight // last.weight) + 1):
                out += [(exps + (m,), bex) for exps, bex in
                        self._parent.slice_basis(hdeg - m * last.degree, weight - m * last.weight)]
        else:
            for exps in self.gamma_monomials(weight, hdeg):
                h, w = self.monomial_bidegree(exps)
                if h != hdeg or w > weight:
                    continue
                for bex in self.base.monomials_of_weight(weight - w):
                    out.append((exps, bex))
        out.sort()
        self._slices[key] = tuple(out)
        return self._slices[key]

    def slice_images(self, hdeg: int, weight: int) -> list[dict]:
        """Field coordinates of d of each (hdeg, weight) basis vector X^e x^b,
        in basis order: the columns of d on the slice."""
        return self._images(self.slice_basis(hdeg, weight))

    def _images(self, basis) -> list[dict]:
        # d(X^e x^b) is d(X^e) with every base exponent shifted by b
        return [{(exps, tuple(a + b for a, b in zip(bex, shift))): scalar
                 for exps, poly in self.monomial_diff(mono).terms.items()
                 for bex, scalar in poly.terms.items()}
                for mono, shift in basis]

    def slice_echelon(self, hdeg: int, weight: int) -> list[tuple]:
        """(pivot column, row) pairs spanning the columns of d on the slice,
        as `matrix_rank` leaves them; computed once per slice.  A tower built
        by `adjoin` pads its parent's rows, reduces only the columns of the
        basis vectors that hold the last variable against them, and ranks
        what is left."""
        key = (hdeg, weight)
        cached = self._echelons.get(key)
        if cached is not None:
            return cached
        field = self.base.field
        if self._parent is None:
            cached = []
            matrix_rank(field, self.slice_images(hdeg, weight), cached)
        else:
            cached = [((col[0] + (0,), col[1]), {(e + (0,), b): v for (e, b), v in row.items()})
                      for col, row in self._parent.slice_echelon(hdeg, weight)]
            new = self._images([b for b in self.slice_basis(hdeg, weight) if b[0][-1]])
            rest = [r for r in (remainder(field, cached, col) for col in new) if r]
            if rest:
                matrix_rank(field, rest, cached)
        self._echelons[key] = cached
        return cached

    def slice_kernel(self, hdeg: int, weight: int) -> list[dict]:
        """A basis of the kernel of d on the (hdeg, weight) slice, as
        {basis vector: scalar} maps in the order of `nullspace_basis`;
        computed once per slice.  The last variable of a tower built by
        `adjoin` enters neither the slice nor its image below its own degree
        or weight, so there the parent's kernel is read, padded with a zero."""
        key = (hdeg, weight)
        cached = self._kernels.get(key)
        if cached is None:
            parent = self._parent
            if parent is not None and (hdeg < self._degrees[-1] or weight < self._weights[-1]):
                cached = [{(e + (0,), b): v for (e, b), v in vec.items()}
                          for vec in parent.slice_kernel(hdeg, weight)]
            else:
                basis = self.slice_basis(hdeg, weight)
                rows: dict = {}
                for j, image in enumerate(self.slice_images(hdeg, weight)):
                    for k, scalar in image.items():
                        rows.setdefault(k, {})[j] = scalar
                cached = [{basis[j]: v for j, v in vec.items()} for vec in
                          nullspace_basis(self.base.field, [rows[k] for k in sorted(rows)], len(basis))]
            self._kernels[key] = cached
        return cached

    def slice_rank(self, hdeg: int, weight: int) -> tuple[int, int]:
        """(dim, rank d) of the (hdeg, weight) slice, computed once; the
        columns are ranked as rows, since row rank equals column rank.  The
        last variable of a tower built by `adjoin` cannot enter a slice below
        its own degree or weight, so there the parent's answer is read."""
        key = (hdeg, weight)
        cached = self._slice_ranks.get(key)
        if cached is None:
            parent = self._parent
            if parent is not None and (hdeg < self._degrees[-1] or weight < self._weights[-1]):
                cached = parent.slice_rank(hdeg, weight)
            else:
                cached = (len(self.slice_basis(hdeg, weight)), len(self.slice_echelon(hdeg, weight)))
            self._slice_ranks[key] = cached
        return cached

    def adjoin(self, name: str, degree: int, weight: int,
               target: "AlgebraElement | None" = None) -> "TowerAlgebra":
        """Adjoin a variable killing the given cycle; the validated path."""
        if degree < 1:
            raise TowerError(f"variable degree must be >= 1, got {degree}")
        if weight < 1:
            raise TowerError(f"variable weight must be >= 1, got {weight}")
        if self.variables and degree < self.variables[-1].degree:
            raise TowerError("variable degrees must be weakly increasing")
        raw = None
        if target is not None and not target.is_zero():
            if target.tower is not self and target.tower != self:
                raise TowerError("differential target must live in the current tower")
            if target.degree() != degree - 1:
                raise TowerError(
                    f"target of {name} must be homogeneous of degree {degree - 1}"
                )
            if target.weight() != weight:
                raise TowerError(f"target of {name} must have weight {weight}")
            if not target.differential().is_zero():
                raise TowerError(f"target of {name} is not a cycle")
            raw = tuple(sorted(target.terms.items()))
        var = DGVariable(name=name, degree=degree, weight=weight, target=raw)
        child = TowerAlgebra(self.base, self.flavor, self.variables + (var,))
        child._parent = self
        return child

    def substitute(self, elem: "AlgebraElement", images) -> "AlgebraElement":
        """The image of `elem` under the algebra map into this tower that
        sends variable i of elem's tower to images[i] and keeps the base
        coefficients; X_i^(m) goes to images[i]^(m) (images[i]^m in the
        ordinary flavor).  Each image has its variable's degree, so the
        Koszul signs are kept.  This is the one change of generators."""
        power = AlgebraElement.divided_power if self.flavor == DIVIDED else AlgebraElement.power
        out: dict = {}
        for exps, poly in sorted(elem.terms.items()):
            term = self.from_poly(poly)
            for i, m in enumerate(exps):
                if m:
                    term = term * power(images[i], m)
            for e, p in term.terms.items():
                add_term(out, e, p)
        return AlgebraElement(self, out)

    def embed(self, elem: "AlgebraElement") -> "AlgebraElement":
        """Embed an element of a prefix tower into this tower."""
        src = elem.tower
        if src.base != self.base or src.flavor != self.flavor:
            raise TowerError("incompatible towers")
        if src.variables != self.variables[: src.n]:
            raise TowerError("not a prefix of this tower")
        pad = self.n - src.n
        return AlgebraElement(self, {e + (0,) * pad: p for e, p in elem.terms.items()})


class AlgebraElement:
    """Sparse element of a tower: variable exponent vector -> base polynomial."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower: TowerAlgebra, terms: dict):
        self.tower = tower
        self.terms = terms

    def _check(self, other: "AlgebraElement"):
        if self.tower is not other.tower and self.tower != other.tower:
            raise TowerError("elements of different towers")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.tower.signature() == other.tower.signature()
            and self.terms == other.terms
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for exps, p in other.terms.items():
            add_term(out, exps, p)
        return AlgebraElement(self.tower, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.tower, {e: -p for e, p in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Graded-commutative product: the Koszul signs and divided binomials
        of each pair of monomials are read off `TowerAlgebra.monomial_product`."""
        self._check(other)
        tower = self.tower
        memo, product = tower._products, tower.monomial_product
        out: dict = {}
        for ea, pa in self.terms.items():
            for eb, pb in other.terms.items():
                exps, c = memo.get((ea, eb)) or product(ea, eb)
                if c:
                    p = pa * pb
                    add_term(out, exps, p if c == 1 else p.scale(c))
        return AlgebraElement(tower, out)

    def scale(self, scalar) -> "AlgebraElement":
        if not scalar:
            return self.tower.zero()
        return AlgebraElement(self.tower, {e: p.scale(scalar) for e, p in self.terms.items()})

    def scale_int(self, n: int) -> "AlgebraElement":
        return self.scale(self.tower.base.field.of(n))

    def power(self, m: int) -> "AlgebraElement":
        if m < 0:
            raise TowerError("negative power")
        out = self.tower.one()
        for _ in range(m):
            out = out * self
        return out

    # --- grading ----------------------------------------------------------

    def degrees(self) -> set[int]:
        t = self.tower
        return {sum(m * d for m, d in zip(e, t._degrees)) for e in self.terms}

    def degree(self) -> int | None:
        """Homological degree if homogeneous (zero counts as any degree)."""
        return homogeneous(self.degrees())

    def weights(self) -> set[int]:
        t = self.tower
        out = set()
        for e, p in self.terms.items():
            wv = sum(m * w for m, w in zip(e, t._weights))
            out.update(wv + pw for pw in p.weights())
        return out

    def weight(self) -> int | None:
        return homogeneous(self.weights())

    def split_by_degree(self) -> dict[int, "AlgebraElement"]:
        t = self.tower
        out: dict[int, dict] = {}
        for e, p in self.terms.items():
            h = sum(m * d for m, d in zip(e, t._degrees))
            out.setdefault(h, {})[e] = p
        return {h: AlgebraElement(t, terms) for h, terms in sorted(out.items())}

    # --- differential structure --------------------------------------------

    def differential(self) -> "AlgebraElement":
        """Leibniz differential; base-ring coefficients are constants (d = 0),
        so d(X^e p) = d(X^e) p."""
        tower = self.tower
        out: dict = {}
        for exps, poly in sorted(self.terms.items()):
            for e, q in tower.monomial_diff(exps).terms.items():
                add_term(out, e, q * poly)
        return AlgebraElement(tower, out)

    # --- divided powers ------------------------------------------------------

    def divided_power(self, m: int) -> "AlgebraElement":
        """u^(m) for homogeneous u of positive even degree.

        Divided-flavor towers expand by the sum/product/composition rules with
        X^(i) as base case; ordinary-flavor towers use u^m/m!, which needs
        rational coefficients.
        """
        if m < 0:
            raise TowerError("negative divided power")
        if m == 0:
            return self.tower.one()
        if self.is_zero():
            return self.tower.zero()
        if m == 1:
            return AlgebraElement(self.tower, dict(self.terms))
        deg = self.degree()
        if deg is None or deg <= 0 or deg % 2:
            raise TowerError("divided powers need homogeneous positive even degree")
        if self.tower.flavor == ORDINARY:
            if not self.tower.base.field.is_rational:
                raise TowerError(
                    "ordinary-flavor divided powers u^m/m! need rational coefficients"
                )
            return self.power(m).scale(self.tower.base.field.of(1, factorial(m)))
        return self._sum_divided_power(sorted(self.terms.items()), m)

    def _sum_divided_power(self, terms: list, m: int) -> "AlgebraElement":
        """(t_1 + ... + t_k)^(m) for a nonempty list of terms, by the sum rule
        (u + v)^(m) = sum_j u^(j) v^(m-j)."""
        if len(terms) == 1:
            return self._term_power(terms[0], m)
        head, rest = terms[0], terms[1:]
        out = self.tower.zero()
        for j in range(m + 1):
            a = self._term_power(head, j)
            if not a.is_zero():
                out = out + a * self._sum_divided_power(rest, m - j)
        return out

    def _term_power(self, term, i: int) -> "AlgebraElement":
        """(M*c)^(i) = c^i * M^(i) for a single monomial term."""
        tower = self.tower
        exps, poly = term
        if i == 0:
            return tower.one()
        if i == 1:
            return AlgebraElement(tower, {exps: poly})
        if any(m and tower._odd[k] for k, m in enumerate(exps)):
            return tower.zero()  # any odd factor kills higher divided powers
        coeff = poly
        for _ in range(i - 1):
            coeff = coeff * poly
        # M = F_1...F_k: repeatedly apply (v w)^(i) = v^i w^(i), so M^(i) =
        # F_1^i...F_(k-1)^i F_k^(i), where (X^(m))^i = (mi)!/(m!)^i X^(mi)
        # and (X^(m))^(i) is that divided by i!
        c = 1
        for m in exps:
            if m:
                c *= factorial(m * i) // factorial(m) ** i
        power = AlgebraElement(tower, {tuple([m * i for m in exps]): coeff})
        return power.scale_int(c // factorial(i))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def coordinates(self) -> dict:
        """Field coordinates: (variable exps, base exps) -> scalar."""
        return {(exps, bex): scalar for exps, poly in self.terms.items()
                for bex, scalar in poly.terms.items()}

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [v.name for v in self.tower.variables]
        divided = self.tower.flavor == DIVIDED
        bits = []
        for exps, p in self.sorted_terms():
            mono = monomial_text(names, exps, divided, "*")
            bits.append(f"({p!r})*{mono}" if mono else f"({p!r})")
        return " + ".join(bits)


def add_term(out: dict, key, value) -> None:
    """Add a ring element into a sparse map in place; a key whose sum is
    zero is dropped, so no sparse map of ring elements holds a zero."""
    prev = out.get(key)
    if prev is not None:
        value = prev + value
    if value.is_zero():
        out.pop(key, None)
    else:
        out[key] = value


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


@dataclass
class LawResult:
    law: str
    cases: int
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        d = {"law": self.law, "cases": self.cases, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class AxiomReport:
    seed: int
    weight_bound: int
    laws: list[LawResult] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(l.passed for l in self.laws)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "weight_bound": self.weight_bound,
            "passed": self.ok,
            "laws": [l.to_dict() for l in self.laws],
        }


class _Sampler:
    """Seeded generator of homogeneous elements of a tower."""

    def __init__(self, tower: TowerAlgebra, weight_bound: int, rng: random.Random):
        self.tower = tower
        self.rng = rng
        self.slices: list[tuple[int, int]] = []
        degree_bound = weight_bound + max(
            (v.degree for v in tower.variables), default=0
        )
        for exps in tower.gamma_monomials(weight_bound, degree_bound):
            h, w = tower.monomial_bidegree(exps)
            for extra in range(weight_bound - w + 1):
                if (h, w + extra) not in self.slices:
                    self.slices.append((h, w + extra))
        self.slices.sort()

    def scalar(self):
        field = self.tower.base.field
        if field.is_rational:
            return field.of(self.rng.randrange(-4, 5), self.rng.randrange(1, 4))
        return field.of(self.rng.randrange(field.p))

    def homogeneous(self, hdeg: int | None = None, even: bool = False,
                    positive: bool = False) -> AlgebraElement:
        cand = self.slices
        if hdeg is not None:
            cand = [s for s in cand if s[0] == hdeg]
        if even:
            cand = [s for s in cand if s[0] % 2 == 0]
        if positive:
            cand = [s for s in cand if s[0] > 0]
        if not cand:
            return self.tower.zero()
        h, w = self.rng.choice(cand)
        basis = self.tower.slice_basis(h, w)
        out = self.tower.zero()
        for _ in range(min(3, len(basis))):
            exps, bex = self.rng.choice(basis)
            mono = self.tower.monomial(exps, self.tower.base.monomial(bex, self.scalar()))
            out = out + mono
        return out


def check_axioms(tower: TowerAlgebra, sample_budget: int = 200, *,
                 weight_bound: int = 6, seed: int = 0) -> AxiomReport:
    """Verify the DG and divided-power laws on exhaustive windowed monomials
    plus seeded random homogeneous samples.

    Binary laws run over all pairs of windowed monomials (base coefficients
    enter either law linearly, so the monomial pairs plus the random multi-term
    samples cover the general case).  Failures are reported with a witness, not
    raised.
    """
    rng = random.Random(seed)
    report = AxiomReport(seed=seed, weight_bound=weight_bound)
    sampler = _Sampler(tower, weight_bound, rng)
    divided_ok = tower.flavor == DIVIDED or tower.base.field.is_rational

    monos = []
    degree_bound = weight_bound + max((v.degree for v in tower.variables), default=0)
    for exps in tower.gamma_monomials(weight_bound, degree_bound):
        h, w = tower.monomial_bidegree(exps)
        for extra in range(weight_bound - w + 1):
            for bex in tower.base.monomials_of_weight(extra):
                monos.append(tower.monomial(exps, tower.base.monomial(bex)))
    gammas = [tower.monomial(e) for e in tower.gamma_monomials(weight_bound, degree_bound)]

    n_random = max(1, sample_budget // 8)

    # each case yields True, or the witness of its failure: `ok or f"..."`
    # builds the witness text only when the law fails
    def law(name, cases):
        count, witness = 0, None
        for result in cases:
            count += 1
            if result is not True:
                witness = result
                break
        report.laws.append(
            LawResult(law=name, cases=count, passed=witness is None, witness=witness)
        )

    def dd_cases():
        pool = monos + [sampler.homogeneous() for _ in range(n_random)]
        for u in pool:
            d2 = u.differential().differential()
            yield d2.is_zero() or f"d(d({u!r})) = {d2!r}"

    law("d_squared_zero", dd_cases())

    def leibniz_cases():
        pairs = [(u, v) for u in gammas for v in gammas]
        for _ in range(n_random):
            pairs.append((sampler.homogeneous(), sampler.homogeneous()))
        for u, v in pairs:
            du = u.degree()
            if du is None:
                continue
            lhs = (u * v).differential()
            rhs = u.differential() * v + (u * v.differential()).scale_int(
                -1 if du % 2 else 1
            )
            yield lhs == rhs or f"Leibniz fails for u={u!r}, v={v!r}"

    law("leibniz", leibniz_cases())

    def comm_cases():
        pairs = [(u, v) for u in gammas for v in gammas]
        for _ in range(n_random):
            pairs.append((sampler.homogeneous(), sampler.homogeneous()))
        for u, v in pairs:
            du, dv = u.degree(), v.degree()
            if du is None or dv is None:
                continue
            rhs = (v * u).scale_int(-1 if (du * dv) % 2 else 1)
            yield u * v == rhs or f"commutativity fails for u={u!r}, v={v!r}"

    law("graded_commutativity", comm_cases())

    def odd_square_cases():
        pool = [u for u in monos if (u.degree() or 0) % 2 == 1]
        for _ in range(n_random):
            u = sampler.homogeneous()
            if (u.degree() or 0) % 2 == 1:
                pool.append(u)
        for u in pool:
            sq = u * u
            yield sq.is_zero() or f"odd square ({u!r})^2 = {sq!r}"

    law("odd_squares_vanish", odd_square_cases())

    def weight_cases():
        pool = monos + [sampler.homogeneous() for _ in range(n_random)]
        for u in pool:
            ws = u.weights()
            dw = u.differential().weights()
            yield dw <= ws or f"d changed weight of {u!r}"

    law("differential_preserves_weight", weight_cases())

    if divided_ok:
        def evens(count):
            out = []
            for _ in range(count):
                u = sampler.homogeneous(even=True, positive=True)
                if not u.is_zero():
                    out.append(u)
            return out

        def dp_unit_cases():
            for u in evens(n_random):
                yield u.divided_power(0) == tower.one() and u.divided_power(1) == u or \
                    f"u^(0)/u^(1) fail for {u!r}"

        law("dp_zeroth_and_first", dp_unit_cases())

        def dp_product_cases():
            for u in evens(n_random):
                for i, j in ((1, 1), (1, 2), (2, 2)):
                    lhs = u.divided_power(i) * u.divided_power(j)
                    rhs = u.divided_power(i + j).scale_int(comb(i + j, i))
                    yield lhs == rhs or f"u^({i})u^({j}) fails for {u!r}"

        law("dp_product_rule", dp_product_cases())

        def dp_sum_cases():
            for u in evens(n_random // 2):
                v = sampler.homogeneous(hdeg=u.degree(), even=True, positive=True)
                for i in (2, 3):
                    lhs = (u + v).divided_power(i)
                    rhs = tower.zero()
                    for j in range(i + 1):
                        rhs = rhs + u.divided_power(j) * v.divided_power(i - j)
                    yield lhs == rhs or f"(u+v)^({i}) fails for u={u!r}, v={v!r}"

        law("dp_sum_rule", dp_sum_cases())

        def dp_scalar_cases():
            for u in evens(n_random):
                c = sampler.scalar()
                for i in (2, 3):
                    lhs = u.scale(c).divided_power(i)
                    rhs = u.divided_power(i).scale(
                        tower.base.field.mul(c, c) if i == 2
                        else tower.base.field.mul(tower.base.field.mul(c, c), c)
                    )
                    yield lhs == rhs or f"(cu)^({i}) fails for {u!r}"

        law("dp_scalar_rule", dp_scalar_cases())

        def dp_composition_cases():
            for u in evens(n_random // 2):
                for i, j in ((2, 2), (2, 3), (3, 2)):
                    lhs = u.divided_power(i).divided_power(j)
                    c = factorial(i * j) // (factorial(j) * factorial(i) ** j)
                    rhs = u.divided_power(i * j).scale_int(c)
                    yield lhs == rhs or f"(u^({i}))^({j}) fails for {u!r}"

        law("dp_composition_rule", dp_composition_cases())

        def dp_diff_cases():
            for u in evens(n_random):
                for m in (2, 3):
                    lhs = u.divided_power(m).differential()
                    rhs = u.divided_power(m - 1) * u.differential()
                    yield lhs == rhs or f"d(u^({m})) fails for {u!r}"

        law("dp_differential", dp_diff_cases())

    if tower.flavor == ORDINARY and tower.base.field.is_rational:
        def dp_ordinary_cases():
            for _ in range(n_random):
                u = sampler.homogeneous(even=True, positive=True)
                if u.is_zero():
                    continue
                for m in (2, 3):
                    yield u.divided_power(m).scale_int(factorial(m)) == u.power(m) or \
                        f"m! u^(m) != u^m for {u!r}"

        law("ordinary_power_consistency", dp_ordinary_cases())

    return report
