"""Towers A<X_1..X_n> / A[X_1..X_n] over a weighted polynomial base ring.

Elements are sparse maps from the labels (exps, bex) of the field basis, an
exponent vector over the adjoined variables and one over the base ring, to
nonzero scalars: the labels of `slice_basis`.  A label stands for the monomial
written in canonical order X_1^(m_1)...X_n^(m_n) with the base monomial on
the right.  All Koszul signs come from counting transpositions of odd-degree
symbols during that sorting; exponents of odd-degree variables never exceed 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from functools import wraps
from math import comb, factorial
import random

from .base_ring import (BasePoly, PolyRing, _axpy, homogeneous, matrix_rank, nullspace_basis,
                        remainder, splitting)
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
    target: tuple | None  # tuple of ((exps, bex), scalar) pairs, or None

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


def per_slice(above: int | None = None):
    """Keep a method's value once per (hdeg, weight) slice, in
    `self._memo[method name]`.  With `above=k`, a tower built by `adjoin`
    takes its parent's value, the very object, wherever
    `_inherits(hdeg + k, weight)` holds: the slices up to k above, which the
    value is read off, are then the parent's in the same positions."""
    def decorate(method):
        name = method.__name__

        @wraps(method)
        def memoised(self, hdeg: int, weight: int):
            memo = self._memo[name]
            value = memo.get((hdeg, weight))
            if value is None:
                if above is not None and self._inherits(hdeg + above, weight):
                    value = getattr(self._parent, name)(hdeg, weight)
                else:
                    value = method(self, hdeg, weight)
                memo[hdeg, weight] = value
            return value
        return memoised
    return decorate


class TowerAlgebra:
    """A base polynomial ring with an ordered list of adjoined DG variables.

    The constructor performs only structural checks; `adjoin` is the validated
    path that also checks the cycle condition on differential targets.  A
    tower never changes, so it memoises its monomial products, monomial
    differentials, the `per_slice` methods (slice bases, indices, columns,
    echelons and kernels, keyed by position in `slice_basis`, and the
    boundary record and contraction of each slice) and the plain data of its
    envelopes, each built on first use only; a slice's rank is the length of
    its echelon, and `slice_dim` reads its dimension on the ancestor whose
    slice it is.  A tower built by `adjoin` links to its parent and inherits
    from it: a monomial without the new variable keeps its differential,
    padded with a zero, a slice is the parent's slices with powers of the new
    variable appended, and the echelon, kernel, boundary record and
    contraction are the parent's where `per_slice` says so; elsewhere an
    echelon starts from the rows of the nearest ancestor that holds it and is
    kept only on the tower that asked for it.  The link runs from child to
    parent only, so a chain of towers is in no reference cycle.
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
        # method name -> {(hdeg, weight): value}, filled by `per_slice`
        self._memo: defaultdict[str, dict] = defaultdict(dict)
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
        return self.constant(self.base.field.one())

    def from_poly(self, p: BasePoly) -> "AlgebraElement":
        return self.monomial((0,) * self.n, p)

    def constant(self, scalar) -> "AlgebraElement":
        if not scalar:
            return self.zero()
        return AlgebraElement(self, {((0,) * self.n, (0,) * len(self.base.names)): scalar})

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
            return AlgebraElement(self, {(exps, (0,) * len(self.base.names)): self.base.field.one()})
        if coeff.ring is not self.base and coeff.ring != self.base:
            raise TowerError(f"coefficient over {coeff.ring!r}, not over {self.base!r}")
        return AlgebraElement(self, {(exps, bex): s for bex, s in coeff.terms.items()})

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
            terms = {(e + pad, b): s for (e, b), s in self.variables[i].target or ()}
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
            terms = {(e + (0,), b): s
                     for (e, b), s in self._parent.monomial_diff(exps[:-1]).coeffs.items()}
            self._mono_diffs[exps] = terms
            return AlgebraElement(self, terms)
        field, base_one = self.base.field, (0,) * len(self.base.names)
        terms = {}
        prefix_deg = 0
        for i, m in enumerate(exps):
            if m:
                t = self.variable_diff(i)
                k = field.of(m if self.flavor == ORDINARY else 1)
                if t.coeffs and k:
                    # ±k X^head · dX_i · X^tail, head holding X_i^(m-1)
                    head = exps[:i] + (m - 1,) + (0,) * (self.n - i - 1)
                    tail = (0,) * (i + 1) + exps[i + 1:]
                    piece = self.monomial_times((head, base_one), self.monomial_times((tail, base_one), t, right=True))
                    _axpy(field, terms, piece.coeffs, field.neg(k) if prefix_deg % 2 else k)
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

    def monomial_times(self, label: tuple, u: "AlgebraElement", right: bool = False) -> "AlgebraElement":
        """X^e x^b·u, or u·X^e x^b with `right`, for the label (e, b) of a
        basis monomial: each term of u moves to one label, its Koszul sign
        and divided binomial read off the monomial product memo, so no two
        terms collide and no sum is formed."""
        exps, shift = label
        memo, product, mul = self._products, self.monomial_product, self.base.field.mul
        moved = any(shift)
        out = {}
        for (e, b), s in u.coeffs.items():
            key = (e, exps) if right else (exps, e)
            prod, c = memo.get(key) or product(*key)
            if c:
                if moved:
                    b = tuple([x + y for x, y in zip(b, shift)])
                out[prod, b] = s if c == 1 else mul(s, c)
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

    @per_slice()
    def slice_basis(self, hdeg: int, weight: int) -> tuple[tuple[tuple, tuple], ...]:
        """Field basis of the (hdeg, weight) bidegree piece: (var exps, base
        exps), sorted.  A tower built by `adjoin` takes the union over m >= 0
        of its parent's (hdeg - m*d, weight - m*t) slices with m appended, d
        and t being the last variable's degree and weight (m <= 1 when it is
        odd)."""
        if hdeg < 0 or weight < 0:
            return ()
        out = []
        if self._parent is not None:
            last = self.variables[-1]
            blocks = 0
            for m in range(2 if last.is_odd else min(hdeg // last.degree, weight // last.weight) + 1):
                block = self._parent.slice_basis(hdeg - m * last.degree, weight - m * last.weight)
                out += [(exps + (m,), bex) for exps, bex in block]
                blocks += bool(block)
            # each block is its parent's sorted slice, and appending m keeps
            # its order; only a merge of blocks needs sorting
            if blocks > 1:
                out.sort()
        else:
            # sorted: exponents in order, then base exponents in order
            for exps in self.gamma_monomials(weight, hdeg):
                h, w = self.monomial_bidegree(exps)
                if h != hdeg or w > weight:
                    continue
                for bex in self.base.monomials_of_weight(weight - w):
                    out.append((exps, bex))
        return tuple(out)

    @per_slice()
    def slice_index(self, hdeg: int, weight: int) -> dict:
        """The position of each (hdeg, weight) basis vector in `slice_basis`."""
        return {b: j for j, b in enumerate(self.slice_basis(hdeg, weight))}

    @per_slice()
    def slice_columns(self, hdeg: int, weight: int) -> list[dict]:
        """The columns of d on the (hdeg, weight) slice: d of each basis
        vector, in basis order, as a {position: scalar} map over the basis
        of the (hdeg - 1, weight) slice; kept for the Hom assembly, which
        reads them again."""
        return self._images(self.slice_basis(hdeg, weight), hdeg, weight)

    def _images(self, basis, hdeg: int, weight: int) -> list[dict]:
        # d(X^e x^b) is d(X^e) with every base exponent shifted by b
        index = self.slice_index(hdeg - 1, weight)
        return [{index[exps, tuple([a + b for a, b in zip(bex, shift)])]: scalar
                 for (exps, bex), scalar in self.monomial_diff(mono).coeffs.items()}
                for mono, shift in basis]

    def _inherits(self, hdeg: int, weight: int) -> bool:
        """Whether the last variable of a tower built by `adjoin` enters
        neither the (hdeg, weight) slice nor the one below: both are then the
        parent's in the same positions, and so are echelon and kernel."""
        return self._parent is not None and (hdeg < self._degrees[-1] or weight < self._weights[-1])

    def slice_dim(self, hdeg: int, weight: int) -> int:
        """len(slice_basis(hdeg, weight)), read on the nearest ancestor whose
        slice it is, so that no padded copy of that slice is built here."""
        tower = self
        while tower._inherits(hdeg, weight):
            tower = tower._parent
        return len(tower.slice_basis(hdeg, weight))

    @per_slice(above=0)
    def slice_echelon(self, hdeg: int, weight: int) -> list[tuple]:
        """(pivot position, row) pairs spanning the columns of d on the
        slice, as `matrix_rank` leaves them, kept on this tower only: the
        rows of the nearest ancestor that holds it (none past the root) move
        to this tower's positions, and the columns of the basis vectors that
        hold a variable past that ancestor's (every non-zero column when none
        holds it) are reduced against them in one batch and ranked."""
        if not self.slice_basis(hdeg - 1, weight):
            return []
        field, anc, key = self.base.field, self._parent, (hdeg, weight)
        while anc is not None and key not in anc._memo["slice_echelon"]:
            anc = anc._parent
        k, rows = (0, []) if anc is None else (anc.n, anc._memo["slice_echelon"][key])
        # the ancestor's basis vectors, zeros appended, in their order
        up = [j for j, (e, _) in enumerate(self.slice_basis(hdeg - 1, weight)) if not any(e[k:])]
        echelon = [(up[col], {up[c]: v for c, v in row.items()}) for col, row in rows]
        new = self._images([b for b in self.slice_basis(hdeg, weight) if any(b[0][k:])],
                           hdeg, weight)
        rest = [r for r in (remainder(field, echelon, col) for col in new) if r]
        if rest:
            matrix_rank(field, rest, echelon)
        return echelon

    @per_slice(above=0)
    def slice_kernel(self, hdeg: int, weight: int) -> list[tuple]:
        """A basis of the kernel of d on the (hdeg, weight) slice, as the
        (free position, {position: scalar}) pairs of `nullspace_basis` over
        `slice_basis`, the one elimination of the slice that Tate and Ext
        both read, from columns that are not kept."""
        rows: dict = {}
        basis = self.slice_basis(hdeg, weight)
        for j, image in enumerate(self._images(basis, hdeg, weight)):
            for k, scalar in image.items():
                rows.setdefault(k, {})[j] = scalar
        return nullspace_basis(self.base.field, [rows[k] for k in sorted(rows)], len(basis))

    def envelope_memo(self) -> dict:
        """The memo `envelope.EnvelopeAlgebra` keeps on this tower: the
        diagonal variables per prefix and the quotients J^(l)/J^(l+1) per
        prefix, level and window, as plain data (tuples, dicts, ints,
        scalars and strings), so that it holds no element, tower or
        envelope and every envelope of the tower stays freed with its last
        reference."""
        return self._memo["envelope"]

    # --- the contraction of a slice onto its homology ----------------------

    @per_slice(above=1)
    def _boundary_record(self, hdeg: int, weight: int) -> tuple:
        """(homology, echelon, preimages) of the (hdeg, weight) slice.  A cycle is fixed by its entries at the free positions of
        `slice_kernel`, and d is injective on C, the span of the pivot basis
        vectors, so the columns of d above at its kernel's pivots span the
        boundaries: `splitting` them on the free positions here gives their
        echelon and each row's preimage in C above, and the homology is the
        kernel at the free positions that are no pivot of the echelon."""
        kernel, echelon, pre = self.slice_kernel(hdeg, weight), [], {}
        if kernel:
            free, above = dict(kernel), dict(self.slice_kernel(hdeg + 1, weight))
            basis = self.slice_basis(hdeg + 1, weight)
            pivots = [j for j in range(len(basis)) if j not in above]
            columns = self._images([basis[j] for j in pivots], hdeg + 1, weight)
            echelon, pre = splitting(self.base.field, [
                {r: s for r, s in col.items() if r in free} for col in columns])
            pre = {q: {pivots[c]: s for c, s in combo.items()} for q, combo in pre.items()}
        return [(f, vec) for f, vec in kernel if f not in pre], echelon, pre

    def slice_homology(self, hdeg: int, weight: int) -> list[tuple]:
        """A basis of the homology of the (hdeg, weight) slice: (free
        position, kernel vector) pairs of `slice_kernel`."""
        return self._boundary_record(hdeg, weight)[0]

    @per_slice(above=1)
    def slice_contraction(self, hdeg: int, weight: int) -> list[tuple]:
        """(p(v), h(v)) for each basis vector v of the (hdeg, weight) slice,
        in basis order, of a strong deformation retraction (i, p, h) of the
        tower onto its homology, i sending the vector named f in
        `slice_homology` to its kernel vector: p(v) is {f: scalar}, h(v) is
        {position in the (hdeg + 1, weight) slice: scalar}, i p - 1 = d h +
        h d, and p i = 1, h h = h i = p h = 0.  p and h vanish on the pivot
        basis vectors; at a free position f, {f: 1} is reduced against the
        boundary echelon, p is what is left and h minus the preimage of what
        was taken away."""
        _, echelon, pre = self._boundary_record(hdeg, weight)
        field, free, out = self.base.field, dict(self.slice_kernel(hdeg, weight)), []
        for j in range(self.slice_dim(hdeg, weight)):
            combo, h = {}, {}
            p = remainder(field, echelon, {j: field.one()}, combo) if j in free else {}
            for q, m in combo.items():
                _axpy(field, h, pre[q], field.neg(m))
            out.append((p, h))
        return out

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
            raw = tuple(sorted(target.coeffs.items()))
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
        field, out = self.base.field, {}
        for exps, poly in elem.terms.items():
            term = self.from_poly(poly)
            for i, m in enumerate(exps):
                if m:
                    term = term * power(images[i], m)
            _axpy(field, out, term.coeffs, field.one())
        return AlgebraElement(self, out)

    def embed(self, elem: "AlgebraElement") -> "AlgebraElement":
        """Embed an element of a prefix tower into this tower."""
        src = elem.tower
        if src.base != self.base or src.flavor != self.flavor:
            raise TowerError("incompatible towers")
        if src.variables != self.variables[: src.n]:
            raise TowerError("not a prefix of this tower")
        pad = self.n - src.n
        return AlgebraElement(self, {(e + (0,) * pad, b): s for (e, b), s in elem.coeffs.items()})

    def split_at(self, elem: "AlgebraElement", k: int, into: "TowerAlgebra",
                 right: bool = False) -> dict:
        """{w: c} with elem = sum c·S^w, or with `right`, elem = sum S^w·c:
        S^w is the monomial of exponents w in the variables after the first
        k, and a term X^a S^w x^b is c·S^w with c = X^a x^b, which is
        (-1)^{|c||w|} S^w·c.  Each c lies in `into`, a tower whose first k
        variables are this one's, its exponents padded with zeros."""
        degrees, neg = self._degrees, self.base.field.neg
        pad = (0,) * (into.n - k)
        out: dict = {}
        for (exps, bex), s in elem.coeffs.items():
            w = exps[k:]
            if right and (sum(m * d for m, d in zip(exps, degrees[:k]))
                          * sum(m * d for m, d in zip(w, degrees[k:]))) % 2:
                s = neg(s)
            out.setdefault(w, {})[exps[:k] + pad, bex] = s
        return {w: AlgebraElement(into, coeffs) for w, coeffs in out.items()}


class AlgebraElement:
    """Sparse element of a tower: basis label (exps, bex) -> nonzero scalar."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: TowerAlgebra, coeffs: dict):
        self.tower = tower
        self.coeffs = coeffs

    def _check(self, other: "AlgebraElement"):
        if self.tower is not other.tower and self.tower != other.tower:
            raise TowerError("elements of different towers")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.tower.signature() == other.tower.signature()
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        field = self.tower.base.field
        out = dict(self.coeffs)
        _axpy(field, out, other.coeffs, field.one())
        return AlgebraElement(self.tower, out)

    def __neg__(self) -> "AlgebraElement":
        neg = self.tower.base.field.neg
        return AlgebraElement(self.tower, {k: neg(s) for k, s in self.coeffs.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Graded-commutative product: the sum over the terms c·X^e x^b of
        the factor with fewer terms of c·(X^e x^b·other), or c·(self·X^e x^b),
        whose Koszul signs and divided binomials `TowerAlgebra.monomial_times`
        reads off the monomial product memo."""
        self._check(other)
        tower = self.tower
        field = tower.base.field
        right = len(other.coeffs) < len(self.coeffs)
        shorter, u = (other, self) if right else (self, other)
        out: dict = {}
        for label, c in shorter.coeffs.items():
            row = tower.monomial_times(label, u, right).coeffs
            if out or c != 1:
                _axpy(field, out, row, c)
            else:
                out = row  # a fresh map: 0 + 1·row needs no sum
        return AlgebraElement(tower, out)

    def scale(self, scalar) -> "AlgebraElement":
        if not scalar:
            return self.tower.zero()
        mul = self.tower.base.field.mul
        return AlgebraElement(self.tower, {k: mul(s, scalar) for k, s in self.coeffs.items()})

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
        degrees = self.tower._degrees
        return {sum(m * d for m, d in zip(e, degrees)) for e in {e for e, _ in self.coeffs}}

    def degree(self) -> int | None:
        """Homological degree if homogeneous (zero counts as any degree)."""
        return homogeneous(self.degrees())

    def weights(self) -> set[int]:
        t = self.tower
        return {sum(m * w for m, w in zip(e, t._weights)) + t.base.term_weight(b) for e, b in self.coeffs}

    def weight(self) -> int | None:
        return homogeneous(self.weights())

    def split_by_degree(self) -> dict[int, "AlgebraElement"]:
        t = self.tower
        out: dict[int, dict] = {}
        for (e, b), s in self.coeffs.items():
            out.setdefault(t.monomial_bidegree(e)[0], {})[e, b] = s
        return {h: AlgebraElement(t, coeffs) for h, coeffs in sorted(out.items())}

    def koszul(self, d: int) -> "AlgebraElement":
        """The b' with b·e = e·b' for every e of degree d: b itself when d is
        even, else b with its odd-degree part negated."""
        if not d % 2:
            return self
        t, neg = self.tower, self.tower.base.field.neg
        return AlgebraElement(t, {(e, b): neg(s) if t.monomial_bidegree(e)[0] % 2 else s
                                  for (e, b), s in self.coeffs.items()})

    # --- differential structure --------------------------------------------

    def differential(self) -> "AlgebraElement":
        """Leibniz differential; base-ring coefficients are constants (d = 0),
        so d(X^e x^b) = x^b·d(X^e)."""
        tower = self.tower
        field, zero = tower.base.field, (0,) * tower.n
        out: dict = {}
        for (exps, bex), c in sorted(self.coeffs.items()):
            _axpy(field, out, tower.monomial_times((zero, bex), tower.monomial_diff(exps)).coeffs, c)
        return AlgebraElement(tower, out)

    # --- divided powers ------------------------------------------------------

    def divided_power(self, m: int) -> "AlgebraElement":
        """u^(m) for homogeneous u of positive even degree.

        Divided-flavor towers expand by the sum/product/composition rules with
        X^(i) as base case, the sum rule running over the tower monomials of
        u; ordinary-flavor towers use u^m/m!, which needs rational
        coefficients.
        """
        if m < 0:
            raise TowerError("negative divided power")
        if m == 0:
            return self.tower.one()
        if self.is_zero():
            return self.tower.zero()
        if m == 1:
            return AlgebraElement(self.tower, dict(self.coeffs))
        deg = self.degree()
        if deg is None or deg <= 0 or deg % 2:
            raise TowerError("divided powers need homogeneous positive even degree")
        if self.tower.flavor == ORDINARY:
            if not self.tower.base.field.is_rational:
                raise TowerError(
                    "ordinary-flavor divided powers u^m/m! need rational coefficients"
                )
            return self.power(m).scale(self.tower.base.field.of(1, factorial(m)))
        return self._sum_divided_power(list(self.terms.items()), m)

    def _sum_divided_power(self, terms: list, m: int) -> "AlgebraElement":
        """(t_1 + ... + t_k)^(m) for a nonempty list of (tower monomial, base
        coefficient) terms, by the sum rule (u + v)^(m) = sum_j u^(j) v^(m-j)."""
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
        """(c·M)^(i) = c^i·M^(i) for a tower monomial M with its base
        coefficient c; c^i comes from the product of elements."""
        tower = self.tower
        exps, poly = term
        if i == 0:
            return tower.one()
        if i == 1:
            return AlgebraElement(tower, {(exps, b): s for b, s in poly.terms.items()})
        if any(m and tower._odd[k] for k, m in enumerate(exps)):
            return tower.zero()  # any odd factor kills higher divided powers
        # M = F_1...F_k: repeatedly apply (v w)^(i) = v^i w^(i), so M^(i) =
        # F_1^i...F_(k-1)^i F_k^(i), where (X^(m))^i = (mi)!/(m!)^i X^(mi)
        # and (X^(m))^(i) is that divided by i!
        c = 1
        for m in exps:
            if m:
                c *= factorial(m * i) // factorial(m) ** i
        field = tower.base.field
        c = field.of(c // factorial(i))
        if not c:
            return tower.zero()
        coeff = base = AlgebraElement(tower, {((0,) * tower.n, b): s for b, s in poly.terms.items()})
        for _ in range(i - 1):
            coeff = coeff * base
        power, mul = tuple([m * i for m in exps]), field.mul
        return AlgebraElement(tower, {(power, b): mul(s, c) for (_, b), s in coeff.coeffs.items()})

    @property
    def terms(self) -> dict:
        """{exps: BasePoly}: the terms grouped by tower monomial, in sorted
        order, each with its base coefficient; built on each read, for the
        readers that go monomial by monomial: display, divided powers and
        the change of generators."""
        base, out = self.tower.base, {}
        for (exps, bex), s in sorted(self.coeffs.items()):
            poly = out.get(exps)
            if poly is None:
                poly = out[exps] = BasePoly(base, {})
            poly.terms[bex] = s
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = [v.name for v in self.tower.variables]
        divided = self.tower.flavor == DIVIDED
        bits = []
        for exps, p in self.terms.items():
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
    """The axiom window of a tower, walked once: its windowed monomials
    `monos`, the tower monomials `gammas` among them and the slices they
    meet; and a seeded generator of homogeneous elements on those slices."""

    def __init__(self, tower: TowerAlgebra, weight_bound: int, rng: random.Random):
        self.tower = tower
        self.rng = rng
        self.monos: list[AlgebraElement] = []
        self.gammas: list[AlgebraElement] = []
        slices: set[tuple[int, int]] = set()
        degree_bound = weight_bound + max((v.degree for v in tower.variables), default=0)
        for exps in tower.gamma_monomials(weight_bound, degree_bound):
            h, w = tower.monomial_bidegree(exps)
            self.gammas.append(tower.monomial(exps))
            for extra in range(weight_bound - w + 1):
                slices.add((h, w + extra))
                for bex in tower.base.monomials_of_weight(extra):
                    self.monos.append(tower.monomial(exps, tower.base.monomial(bex)))
        self.slices = sorted(slices)
        # (hdeg, even, positive) -> the slices `homogeneous` draws from
        self._candidates: dict[tuple, list[tuple[int, int]]] = {}

    def scalar(self):
        field = self.tower.base.field
        if field.is_rational:
            return field.of(self.rng.randrange(-4, 5), self.rng.randrange(1, 4))
        return field.of(self.rng.randrange(field.p))

    def homogeneous(self, hdeg: int | None = None, even: bool = False,
                    positive: bool = False) -> AlgebraElement:
        key = (hdeg, even, positive)
        cand = self._candidates.get(key)
        if cand is None:
            cand = self._candidates[key] = [
                (h, w) for h, w in self.slices
                if (hdeg is None or h == hdeg) and not (even and h % 2) and not (positive and h <= 0)]
        tower = self.tower
        if not cand:
            return tower.zero()
        h, w = self.rng.choice(cand)
        basis, field = tower.slice_basis(h, w), tower.base.field
        out: dict = {}
        for _ in range(min(3, len(basis))):
            exps, bex = self.rng.choice(basis)
            c = self.scalar()
            if c:
                _axpy(field, out, {(exps, bex): c}, field.one())
        return AlgebraElement(tower, out)


def check_axioms(tower: TowerAlgebra, sample_budget: int | None = None, *,
                 weight_bound: int | None = None, seed: int = 0) -> AxiomReport:
    """Verify the DG and divided-power laws on exhaustive windowed monomials
    plus seeded random homogeneous samples: a budget of 200 and a weight
    bound of 6 where None is given.

    Binary laws run over all pairs of windowed monomials (base coefficients
    enter either law linearly, so the monomial pairs plus the random multi-term
    samples cover the general case).  Failures are reported with a witness, not
    raised.
    """
    sample_budget = 200 if sample_budget is None else sample_budget
    weight_bound = 6 if weight_bound is None else weight_bound
    rng = random.Random(seed)
    report = AxiomReport(seed=seed, weight_bound=weight_bound)
    sampler = _Sampler(tower, weight_bound, rng)
    divided_ok = tower.flavor == DIVIDED or tower.base.field.is_rational
    monos, gammas = sampler.monos, sampler.gammas
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
