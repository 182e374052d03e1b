"""Property tests of the sparse elimination kernel in dglift.base_ring.

Random sparse systems over Q, F_5 and F_32003, with dependent rows mixed in,
and ultra-sparse ones of at most two entries a row, like the Hom slices, are
checked against the dense oracle in tests/oracle.py and against a plain
re-statement of the pivot rule: the sparsest unused row (then the lowest
index), and in it the column with the fewest occurrences among unused rows
(then the lowest column).  Keeping that rule keeps the `rho` and witness
certificates in the golden reports byte-identical.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from dglift import Field, Infeasible, LinearSolution, LinearSystem, solve_linear
from dglift.base_ring import _reduce, matrix_rank, nullspace_basis, remainder
from oracle import dense_rank

FIELDS = {p: Field(p) for p in (None, 5, 32003)}

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def systems(draw):
    """(field, sparse rows, rhs, ncols): a few random sparse rows, then rows
    that are combinations of earlier ones, shuffled together; both may hold
    explicit zero entries."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS, key=str)))]
    ncols = draw(st.integers(1, 12))
    scalars = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=5))
        rows.append({c: field.of(draw(scalars)) for c in sorted(cols)})
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        acc: dict = {}
        for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            m = field.of(draw(scalars))
            for c, v in r.items():
                acc[c] = field.add(acc.get(c, field.zero()), field.mul(m, v))
        rows.insert(draw(st.integers(0, len(rows))), acc)
    rhs = [field.of(draw(scalars)) for _ in rows]
    return field, rows, rhs, ncols


@st.composite
def ultra_sparse(draw):
    """(field, rows, ncols): rows of 0-2 entries, as the Hom slices are,
    drawn from few columns so that columns repeat, with explicit zeros,
    copies of earlier rows and sums of two earlier rows mixed in."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS, key=str)))]
    ncols = draw(st.integers(1, 8))
    scalars = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("fresh", "fresh", "copy", "sum") if rows else ("fresh",)))
        if kind == "fresh":
            cols = draw(st.lists(st.integers(0, ncols - 1), max_size=2))
            rows.append({c: field.of(draw(scalars)) for c in cols})
        elif kind == "copy":
            m = field.of(draw(st.sampled_from((-2, -1, 1, 3))))
            rows.append({c: field.mul(m, v) for c, v in draw(st.sampled_from(rows)).items()})
        else:
            acc: dict = {}
            for r in (draw(st.sampled_from(rows)), draw(st.sampled_from(rows))):
                for c, v in r.items():
                    acc[c] = field.add(acc.get(c, field.zero()), v)
            rows.append(acc)
    return field, rows, ncols


def dense(rows, ncols, field):
    return [[r.get(c, field.zero()) for c in range(ncols)] for r in rows]


def reference_kernel(field, rows, ncols):
    """(f, dense kernel vector) pairs from the reference reduction: one per
    free column f, in increasing order, with 1 at f and minus each reduced
    pivot row's entry in column f at that row's pivot column."""
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    work, _, _, _, pivots = reference_reduce(field, rows, [field.zero()] * len(rows), False)
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for col, i in pivots.items():
            if work[i].get(f):
                vec[col] = field.neg(work[i][f])
        kernel.append((f, vec))
    return kernel


def apply(field, row: dict, vec: list):
    acc = field.zero()
    for c, v in row.items():
        acc = field.add(acc, field.mul(v, vec[c]))
    return acc


def transpose(rows):
    cols: dict = {}
    for i, r in enumerate(rows):
        for c, v in r.items():
            cols.setdefault(c, {})[i] = v
    return [cols[c] for c in sorted(cols)]


def reference_reduce(field, rows, rhs, track, chosen=None):
    """The pivot rule by rescanning every row for each pivot, with full
    Gauss-Jordan updates.  Given a list `chosen`, appends (row, pivot value)
    for each pivot row as it is chosen, before it is scaled."""
    work = [dict(r) for r in rows]
    vals = list(rhs)
    combos = [{i: field.one()} for i in range(len(rows))] if track else None
    used = [False] * len(work)
    pivots: dict = {}

    def axpy(dst, src, m):
        for c, v in src.items():
            s = field.add(dst.get(c, field.zero()), field.mul(m, v))
            if s:
                dst[c] = s
            else:
                dst.pop(c, None)

    while True:
        live = [i for i, r in enumerate(work) if r and not used[i]]
        if not live:
            break
        i = min(live, key=lambda j: (len(work[j]), j))
        col = min(work[i], key=lambda c: (sum(c in work[j] for j in live), c))
        if chosen is not None:
            chosen.append((i, work[i][col]))
        inv = field.inv(work[i][col])
        work[i] = {c: field.mul(v, inv) for c, v in work[i].items()}
        vals[i] = field.mul(vals[i], inv)
        if track:
            combos[i] = {k: field.mul(v, inv) for k, v in combos[i].items()}
        for j, r in enumerate(work):
            if j != i and col in r:
                m = field.neg(r[col])
                axpy(r, work[i], m)
                vals[j] = field.add(vals[j], field.mul(m, vals[i]))
                if track:
                    axpy(combos[j], combos[i], m)
        pivots[col] = i
        used[i] = True
    return work, vals, combos, used, pivots


@SETTINGS
@given(systems())
def test_rank_matches_dense_oracle_and_transpose(case):
    field, rows, _, ncols = case
    rank = matrix_rank(field, rows)
    assert rank == (dense_rank(field, dense(rows, ncols, field)) if rows else 0)
    assert rank == matrix_rank(field, transpose(rows))


@SETTINGS
@given(ultra_sparse())
def test_rank_of_ultra_sparse_rows(case):
    # rows shaped like the Hom slices, the E1 columns and the envelope ranks,
    # whose columns repeat and whose rows are copies and sums of each other;
    # matrix_rank leaves the input rows as they were
    field, rows, ncols = case
    before = [dict(r) for r in rows]
    rank = matrix_rank(field, rows)
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in before]
    assert rank == (dense_rank(field, dense(rows, ncols, field)) if rows else 0)
    assert rank == matrix_rank(field, transpose(rows))


@SETTINGS
@given(st.one_of(ultra_sparse(), systems().map(lambda case: (case[0], case[1], case[3]))))
def test_echelon_contract(case):
    # the contract remainder and slice_echelon read: one row per pivot, in
    # _reduce's pivot order, each 1 at its pivot and 0 at the pivots of the
    # rows before it, and every input row reduces to nothing
    field, rows, _ = case
    echelon: list = []
    rank = matrix_rank(field, rows, echelon)
    assert len(echelon) == rank
    for k, (col, row) in enumerate(echelon):
        assert row[col] == field.one()
        assert all(v for v in row.values())
        assert not any(earlier in row for earlier, _ in echelon[:k])
    assert not any(remainder(field, echelon, row) for row in rows)


@SETTINGS
@given(systems())
def test_nullspace_is_a_kernel_basis(case):
    field, rows, _, ncols = case
    pairs = nullspace_basis(field, rows, ncols)
    null = dense([vec for _, vec in pairs], ncols, field)
    assert len(null) == ncols - matrix_rank(field, rows)
    for vec in null:
        assert all(apply(field, r, vec) == field.zero() for r in rows)
    # each vector is 1 at its free column and 0 at the other free columns:
    # an echelon that `remainder` reads
    free = [f for f, _ in pairs]
    for f, vec in zip(free, null):
        assert [vec[g] for g in free] == [field.one() if g == f else field.zero() for g in free]
    if null:
        assert dense_rank(field, null) == len(null)
    assert list(zip(free, null)) == reference_kernel(field, rows, ncols)


@SETTINGS
@given(st.integers(1, 8), st.lists(st.lists(st.integers(-9, 9), min_size=8, max_size=8),
                                   max_size=8), st.sampled_from((2, 3, 5, 7)))
def test_rank_over_q_bounds_rank_mod_p(ncols, matrix, p):
    # an integer matrix's rank can only drop on reduction mod p: a nonzero
    # minor mod p is nonzero over Q
    q, fp = FIELDS[None], Field(p)
    rank_q = matrix_rank(q, [{c: q.of(v) for c, v in enumerate(r[:ncols]) if v} for r in matrix])
    rank_p = matrix_rank(fp, [{c: fp.of(v) for c, v in enumerate(r[:ncols]) if v % p}
                              for r in matrix])
    assert rank_q >= rank_p
    assert rank_q == (dense_rank(q, [[q.of(v) for v in r[:ncols]] for r in matrix])
                      if matrix else 0)


@SETTINGS
@given(systems(), st.booleans())
def test_solve_agrees_with_dense_oracle(case, consistent):
    field, rows, rhs, ncols = case
    if consistent:
        x = [field.of(c - 2) for c in range(ncols)]
        rhs = [apply(field, r, x) for r in rows]
    system = LinearSystem(field, rows, rhs, ncols)
    res = solve_linear(system)
    augmented = [row + [b] for row, b in zip(dense(rows, ncols, field), rhs)]
    feasible = not rows or dense_rank(field, augmented) == dense_rank(
        field, dense(rows, ncols, field))
    if feasible:
        assert isinstance(res, LinearSolution)
        assert [apply(field, r, res.solution) for r in rows] == rhs
    else:
        assert isinstance(res, Infeasible)
        assert res.verify(system)


def _unit_pivot_rows(field, rows):
    """The rows with each pivot row scaled by the inverse of its pivot as the
    reference chooses it.  An update adds multiples of pivot rows, which are
    scaled already, so a scaled row stays scaled and the pivot order stays
    that of `rows`: every pivot is 1 when it is chosen."""
    chosen: list = []
    reference_reduce(field, rows, [field.zero()] * len(rows), False, chosen)
    unit = [dict(r) for r in rows]
    for i, pivot in chosen:
        inv = field.inv(pivot)
        unit[i] = {c: field.mul(v, inv) for c, v in unit[i].items()}
    chosen.clear()
    reference_reduce(field, unit, [field.zero()] * len(unit), False, chosen)
    assert all(pivot == 1 for _, pivot in chosen)
    return unit


def test_pivot_rule_matches_reference():
    # a seeded sweep rather than a hypothesis test: rows that fill in and must
    # still be chosen later occur in under 1% of small systems.  Each system
    # is also run with every pivot 1 when it is chosen, and with a zero
    # right-hand side, as the chain rows of the split system are, so the
    # steps _reduce skips there (scaling a pivot row, carrying a zero
    # right-hand side) are held to the reference's full updates as well
    rng = random.Random(5)
    for k in range(3000):
        field = FIELDS[(None, 5, 32003)[k % 3]]
        ncols = rng.randrange(1, 13)
        rows = []
        for _ in range(rng.randrange(1, 12)):
            if rows and rng.random() < 0.2:
                acc: dict = {}
                for r in rng.sample(rows, min(len(rows), 2)):
                    m = field.of(rng.randrange(-3, 4))
                    for c, v in r.items():
                        acc[c] = field.add(acc.get(c, field.zero()), field.mul(m, v))
                rows.append({c: v for c, v in acc.items() if v})
            else:
                cols = rng.sample(range(ncols), min(ncols, rng.randrange(6)))
                rows.append({c: field.of(rng.choice((-3, -2, -1, 1, 2, 3))) for c in cols})
        rhs = [field.of(rng.randrange(-3, 4)) for _ in rows]
        zeros = [field.zero()] * len(rows)
        unit = _unit_pivot_rows(field, rows)
        for system in ((rows, rhs), (unit, rhs), (rows, zeros), (unit, zeros)):
            for track in (False, True):
                assert _reduce(field, *system, track) == reference_reduce(field, *system, track)
        _, _, _, used, pivots = reference_reduce(field, rows, rhs, False)
        assert _reduce(field, rows, None, False, rank_only=True)[3:] == (used, pivots)
        echelon: list = []
        matrix_rank(field, rows, echelon)
        assert [col for col, _ in echelon] == list(pivots)
        assert [(f, dense([vec], ncols, field)[0])
                for f, vec in nullspace_basis(field, rows, ncols)] == reference_kernel(
            field, rows, ncols)


def test_explicit_zero_entries():
    q = FIELDS[None]
    system = LinearSystem(q, [{0: q.of(0), 1: q.of(1)}], [q.of(1)], 2)
    res = solve_linear(system)
    assert isinstance(res, LinearSolution) and res.solution == [q.of(0), q.of(1)]
    assert matrix_rank(q, [{0: q.of(0)}]) == 0


def test_infeasible_verify_with_a_zero_multiplier_over_explicit_zeros():
    # a certificate may name a row with multiplier 0, and input rows may
    # hold explicit zeros; neither leaves an entry in the combined row
    for field in (Field(), Field(5)):
        one, zero = field.one(), field.zero()
        system = LinearSystem(field, [{0: one, 1: zero}, {0: one}, {1: zero, 2: field.of(3)}],
                              [one, zero, field.of(2)], 3)
        combo = {0: one, 1: field.neg(one), 2: zero}
        assert Infeasible(combo=combo, value=one).verify(system)
        # a forged value, or the value 0, is refused
        assert not Infeasible(combo=combo, value=field.of(2)).verify(system)
        assert not Infeasible(combo=combo, value=zero).verify(system)
        # so is a combination that leaves a column
        assert not Infeasible(combo={0: one, 2: one}, value=field.of(3)).verify(system)
