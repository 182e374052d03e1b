"""Exact coefficient fields, weighted polynomial rings, and exact linear solving.

Everything downstream (homology ranks, Ext tables, splitting certificates)
depends on this layer being exact: scalars are ints, or `fractions.Fraction`
where a rational is not integral, over Q, and machine ints in [0, p) over a
prime field, never floats.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction

from .render import monomial_text


def _is_prime(p: int) -> bool:
    # deterministic Miller-Rabin on the first 12 primes: exact for p below
    # 318 665 857 834 031 151 167 461, so `Field` admits only p < 2^64
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def homogeneous(grades: set[int]) -> int | None:
    """The one grade of an element from the set of its terms' grades: 0 for
    the zero element, which is homogeneous of any grade; None when there are
    several."""
    if len(grades) > 1:
        return None
    return next(iter(grades), 0)


def _integral(q: Fraction):
    """q as an int when its denominator is 1."""
    return q.numerator if q.denominator == 1 else q


def _rational(numer, denom=1):
    if denom == 1 and type(numer) is int:
        return numer
    return _integral(Fraction(numer, denom))


def _rational_inverse(a):
    if not a:
        raise ZeroDivisionError("inverse of zero")
    return _integral(1 / Fraction(a))


class Field:
    """The rationals (p is None) or the prime field F_p.

    Scalars are raw values.  Over F_p they are ints in [0, p).  Over Q an
    integral scalar is an int: `of(n)`, `zero()` and `one()` give ints, and
    only `of(n, d)`, `inv` and `div` make a `Fraction`, giving an int when
    the denominator is 1.  A sum or product may leave an integral Fraction,
    which equals the int, hashes as it and prints as it.  The operations
    are bound once per field in the constructor, so none of them asks which
    field it is in.
    """

    def __init__(self, p: int | None = None):
        if p is not None and p >= 1 << 64:
            raise ValueError(f"modulus {p} must be below 2^64")
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        if p is None:
            self.add, self.mul, self.neg = operator.add, operator.mul, operator.neg
            self.of, self.inv = _rational, _rational_inverse
            self.div = lambda a, b: _integral(Fraction(a) * _rational_inverse(b))
            return
        self.add = lambda a, b: (a + b) % p
        self.mul = lambda a, b: a * b % p
        self.neg = lambda a: -a % p

        def of(numer, denom=1):
            """Build a scalar from integers."""
            if denom % p == 0:
                raise ZeroDivisionError(f"denominator {denom} is 0 mod {p}")
            return numer * pow(denom, -1, p) % p

        def inv(a):
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, p)

        self.of, self.inv = of, inv
        self.div = lambda a, b: a * inv(b) % p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self):
        return 0

    def one(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


class PolyRing:
    """Descriptor of F[x_1..x_k] with a strictly positive weight per variable."""

    def __init__(self, field: Field, names: tuple[str, ...], weights: tuple[int, ...]):
        if len(names) != len(weights):
            raise ValueError("one weight per variable required")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name, w in zip(names, weights):
            if not (isinstance(w, int) and w > 0):
                raise ValueError(f"weight of {name} must be a positive integer, got {w}")
        self.field = field
        self.names = tuple(names)
        self.weights = tuple(weights)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.field, self.names, self.weights))

    def __repr__(self):
        field = repr(self.field)
        if not self.names:
            return field
        vars_ = ",".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"{field}[{vars_}]"

    # --- element constructors ------------------------------------------

    def zero(self) -> "BasePoly":
        return BasePoly(self, {})

    def one(self) -> "BasePoly":
        return self.constant(self.field.one())

    def constant(self, scalar) -> "BasePoly":
        if not scalar:
            return self.zero()
        return BasePoly(self, {(0,) * len(self.names): scalar})

    def var(self, name: str) -> "BasePoly":
        i = self.names.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return BasePoly(self, {exps: self.field.one()})

    def monomial(self, exps: tuple[int, ...], scalar=None) -> "BasePoly":
        if scalar is None:
            scalar = self.field.one()
        if not scalar:
            return self.zero()
        return BasePoly(self, {tuple(exps): scalar})

    # --- enumeration ----------------------------------------------------

    def term_weight(self, exps: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def monomials_of_weight(self, w: int) -> list[tuple[int, ...]]:
        """All exponent vectors of weight exactly w, lexicographically sorted."""
        if w < 0:
            return []
        # (exps, weight left) one variable at a time; a loop, not a recursive
        # closure, which would be a reference cycle holding the ring
        partial = [((), w)]
        for wi in self.weights:
            partial = [(exps + (e,), left - e * wi)
                       for exps, left in partial for e in range(left // wi + 1)]
        return sorted(exps for exps, left in partial if left == 0)


class BasePoly:
    """Sparse polynomial of the base ring: exponent vector -> nonzero field
    scalar.  The value in which base polynomials enter a tower (`from_poly`,
    `monomial`, the generators of `tate_resolution`) and are printed.  It
    has no arithmetic loop of its own: its sums and products, for building
    polynomials by hand, are those of the tower with no variables."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BasePoly) and self.ring == other.ring and self.terms == other.terms

    def _via_tower(self, op, *args) -> "BasePoly":
        from .dg_algebra import TowerAlgebra  # the layer above holds the one product

        tower = TowerAlgebra(self.ring)
        out = op(tower.from_poly(self), *[tower.from_poly(a) for a in args])
        return BasePoly(self.ring, {bex: s for (_, bex), s in out.coeffs.items()})

    def __add__(self, other: "BasePoly") -> "BasePoly":
        return self._via_tower(operator.add, other)

    def __neg__(self) -> "BasePoly":
        return self._via_tower(operator.neg)

    def __sub__(self, other: "BasePoly") -> "BasePoly":
        return self._via_tower(operator.sub, other)

    def __mul__(self, other: "BasePoly") -> "BasePoly":
        return self._via_tower(operator.mul, other)

    def scale(self, scalar) -> "BasePoly":
        return self._via_tower(lambda u: u.scale(scalar))

    def scale_int(self, n: int) -> "BasePoly":
        return self.scale(self.ring.field.of(n))

    def weights(self) -> set[int]:
        tw = self.ring.term_weight
        return {tw(e) for e in self.terms}

    def weight(self) -> int | None:
        """Weight if homogeneous (zero counts as homogeneous of any weight)."""
        return homogeneous(self.weights())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            mono = monomial_text(self.ring.names, exps, False, "*")
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Exact linear solving
# ---------------------------------------------------------------------------


@dataclass
class LinearSystem:
    """A x = b over a field; rows are sparse {col: scalar} maps."""

    field: Field
    rows: list[dict]
    rhs: list
    ncols: int

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise ValueError("one right-hand side entry per row required")
        for r in self.rows:
            for c in r:
                if not (0 <= c < self.ncols):
                    raise ValueError(f"column {c} out of range")


@dataclass
class LinearSolution:
    solution: list


@dataclass
class Infeasible:
    """Certificate: the given combination of input rows reduces to 0 = value."""

    combo: dict  # original row index -> multiplier
    value: object  # nonzero scalar

    def verify(self, system: LinearSystem) -> bool:
        field = system.field
        acc: dict = {}
        rhs = field.zero()
        for i, m in self.combo.items():
            if m:
                _axpy(field, acc, system.rows[i], m)
            rhs = field.add(rhs, field.mul(m, system.rhs[i]))
        return not acc and rhs == self.value and bool(self.value)


def _axpy(field: Field, dst: dict, src: dict, m, index: dict | None = None, j: int = 0):
    """dst += m·src on sparse {col: scalar} maps, storing no zero, since `src`
    may hold explicit zeros; with m = 1, as in every sum of tower elements,
    the entries of src are added as they are.  Given a col -> rows `index`,
    keeps row j's entries in it."""
    add, mul, unit = field.add, field.mul, m == 1
    for c, v in src.items():
        mv = v if unit else mul(m, v)
        old = dst.get(c)
        if old is None:
            if mv:
                dst[c] = mv
                if index is not None:
                    index.setdefault(c, set()).add(j)
            continue
        s = add(old, mv)
        if s:
            dst[c] = s
        else:
            del dst[c]
            if index is not None:
                index[c].discard(j)


def _reduce(field: Field, rows: list[dict], rhs: list, track: bool, rank_only: bool = False):
    """Sparse Gauss-Jordan elimination with Markowitz-style pivoting.

    The pivot row is the sparsest unused row (then the lowest index); its
    pivot column is the one with the fewest occurrences among unused rows, the
    pivot row included (then the lowest column).  Runs are reproducible and
    fill stays small.  A column -> unused-rows index gives each column's count
    as the size of its set and lists the rows to eliminate from; a lazy heap
    of (length, row) entries, skipped when stale, gives the next pivot row.
    A pivot row is scaled only when its pivot is not 1, and its right-hand
    side is carried to other rows only when it is not 0.

    With `rank_only`, rows that already hold a pivot are not updated (nor are
    `rhs` and witnesses): the pivot choice never reads them, so the pivots are
    those of the full reduction.
    """
    add, mul, neg = field.add, field.mul, field.neg
    work = [{c: v for c, v in r.items() if v} for r in rows]
    vals = None if rank_only else list(rhs)
    combos = [{i: field.one()} for i in range(len(rows))] if track else None
    used = [False] * len(work)
    pivots: dict = {}  # col -> row index
    live: dict = {}  # col -> unused rows holding it
    done: dict = {}  # col -> pivot rows holding it (full reduction only)
    for i, r in enumerate(work):
        for c in r:
            live.setdefault(c, set()).add(i)
    heap = [(len(r), i) for i, r in enumerate(work) if r]
    heapq.heapify(heap)

    while heap:
        n, i = heapq.heappop(heap)
        row = work[i]
        if used[i] or len(row) != n:
            continue
        col = min(row, key=lambda c: (len(live[c]), c)) if n > 1 else next(iter(row))
        if row[col] != 1:
            inv = field.inv(row[col])
            row = work[i] = {c: mul(v, inv) for c, v in row.items()}
            if not rank_only:
                vals[i] = mul(vals[i], inv)
                if track:
                    combos[i] = {k: mul(v, inv) for k, v in combos[i].items()}
        used[i] = True
        pivots[col] = i
        for c in row:
            live[c].discard(i)
            if not rank_only:
                done.setdefault(c, set()).add(i)
        targets = list(live[col])
        if not rank_only:
            targets += [j for j in done[col] if j != i]
        for j in targets:
            dst = work[j]
            m = neg(dst[col])
            before = len(dst)
            _axpy(field, dst, row, m, done if used[j] else live, j)
            if not used[j] and dst and len(dst) != before:
                heapq.heappush(heap, (len(dst), j))
            if not rank_only:
                if vals[i]:
                    vals[j] = add(vals[j], mul(m, vals[i]))
                if track:
                    _axpy(field, combos[j], combos[i], m)

    return work, vals, combos, used, pivots


def solve_linear(system: LinearSystem):
    """Exact solve: one solution, or an Infeasible witness."""
    field = system.field
    work, vals, combos, used, pivots = _reduce(field, system.rows, system.rhs, True)

    for i in range(len(work)):
        if not used[i] and vals[i]:
            return Infeasible(combo=combos[i], value=vals[i])

    solution = [field.zero()] * system.ncols
    for col, i in pivots.items():
        solution[col] = vals[i]
    return LinearSolution(solution)


def matrix_rank(field: Field, rows: list[dict], echelon: list | None = None) -> int:
    """Rank of the rows: `_reduce`'s rank-only pass.  Given a list `echelon`,
    appends (pivot column, pivot row) pairs to it in pivot order: each row is
    1 at its pivot column and 0 at the pivot columns of the rows before it,
    and the rows span the input rows."""
    work, _, _, _, pivots = _reduce(field, rows, None, False, rank_only=True)
    if echelon is not None:
        echelon.extend((col, work[i]) for col, i in pivots.items())
    return len(pivots)


def remainder(field: Field, echelon: list, vec: dict, combo: dict | None = None) -> dict:
    """`vec` reduced by the (pivot column, row) pairs of an echelon, in
    their order, each row 1 at its pivot and 0 at the pivots before it, as
    `matrix_rank`, `splitting` and `nullspace_basis` leave them: one pass
    leaves `vec` empty exactly when it lies in the span of the rows.  Given
    a dict `combo`, records in it the multiple of each row, keyed by its
    pivot, that was taken away, so that vec = remainder + sum combo[pivot]·row."""
    out = {c: v for c, v in vec.items() if v}
    for col, row in echelon:
        m = out.get(col)
        if m is not None:
            _axpy(field, out, row, field.neg(m))
            if combo is not None:
                combo[col] = m
    return out


def splitting(field: Field, columns: list[dict]) -> tuple[list, dict]:
    """A linear map given by its columns, split by `_reduce` with witnesses:
    (echelon, preimages).  The echelon is (pivot, row) pairs of the image in
    reduced form, each row 1 at its pivot and 0 at every other pivot; the
    preimage of a row, keyed by its pivot, is the combination of the
    columns that gives it, {column: scalar}."""
    work, _, combos, _, pivots = _reduce(field, columns, [field.zero()] * len(columns), True)
    return ([(col, work[i]) for col, i in pivots.items()],
            {col: combos[i] for col, i in pivots.items()})


def nullspace_basis(field: Field, rows: list[dict], ncols: int) -> list[tuple]:
    """Kernel basis as (free column, {col: scalar}) pairs, in column order:
    1 at the free column, 0 at the other free ones, and minus the reduced
    pivot rows' entries of that column at their pivots; an echelon."""
    work, _, _, _, pivots = _reduce(field, rows, [field.zero()] * len(rows), False)
    kernel = {c: {c: field.one()} for c in range(ncols) if c not in pivots}
    for col, i in pivots.items():
        for c, v in work[i].items():
            if c != col:
                kernel[c][col] = field.neg(v)
    return list(kernel.items())
