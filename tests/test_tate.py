import gc
import random
import weakref

import pytest

from dglift import (
    Field,
    PolyRing,
    TateError,
    TowerAlgebra,
    check_axioms,
    homology_dims,
    homology_rep,
    tate_resolution,
    tate_step,
)

from dglift import dg_algebra
from dglift.base_ring import nullspace_basis
from oracle import dense_rank, leibniz_differential
from test_tate_snapshot import cases


@pytest.fixture
def ring_x(QQ):
    return PolyRing(QQ, ("x",), (1,))


def _brute_homology(tower, hdeg, w):
    """Independent dense computation of dim H_hdeg at one weight."""
    field = tower.base.field
    basis0 = tower.slice_basis(hdeg, w)
    if not basis0:
        return 0
    col = {lab: j for j, lab in enumerate(basis0)}

    def dmatrix(src_basis, tgt_col):
        keys = []
        seen = {}
        cols = []
        for exps, bex in src_basis:
            mono = tower.monomial(exps, tower.base.monomial(bex))
            img = leibniz_differential(mono)
            coords = {}
            for e2, p in img.terms.items():
                for b2, s in p.terms.items():
                    coords[(e2, b2)] = s
            cols.append(coords)
            for k in coords:
                if k not in seen:
                    seen[k] = len(keys)
                    keys.append(k)
        mat = [[field.zero()] * len(cols) for _ in keys]
        for j, coords in enumerate(cols):
            for k, s in coords.items():
                mat[seen[k]][j] = s
        return mat

    down = dmatrix(basis0, None)
    rank_down = dense_rank(field, down) if down else 0
    up_basis = tower.slice_basis(hdeg + 1, w)
    up = dmatrix(up_basis, None)
    rank_up = dense_rank(field, up) if up else 0
    return len(basis0) - rank_down - rank_up


def _coords(tower, hdeg, w, elem) -> list:
    """Dense coordinates of elem in the (hdeg, w) slice basis."""
    field = tower.base.field
    col = {lab: j for j, lab in enumerate(tower.slice_basis(hdeg, w))}
    vec = [field.zero()] * len(col)
    for key, scalar in elem.coordinates().items():
        vec[col[key]] = scalar
    return vec


def _boundaries(tower, hdeg, w) -> list[list]:
    return [_coords(tower, hdeg, w, leibniz_differential(tower.monomial(exps, tower.base.monomial(bex))))
            for exps, bex in tower.slice_basis(hdeg + 1, w)]


@pytest.mark.parametrize("p", [None, 3])
def test_homology_dims_match_brute_force_on_a_tate_tower(p):
    ring = PolyRing(Field(p), ("x", "y", "z"), (1, 1, 1))
    x, y, z = (ring.var(n) for n in "xyz")
    tower = tate_resolution(ring, [x * x, x * y, y * z], 3, 5).tower
    for hdeg in range(4):
        table = homology_dims(tower, hdeg, 5)
        for w in range(6):
            assert table.dim(w) == _brute_homology(tower, hdeg, w), (hdeg, w)


@pytest.mark.parametrize("p", [None, 3])
def test_homology_rep_is_a_cycle_and_not_a_boundary(p):
    # the Koszul complex on (x^2, xy, yz): H_1 and H_2 are nonzero
    ring = PolyRing(Field(p), ("x", "y", "z"), (1, 1, 1))
    x, y, z = (ring.var(n) for n in "xyz")
    t = TowerAlgebra(ring, "divided")
    for name, g in (("X1", x * x), ("X2", x * y), ("X3", y * z)):
        t = t.adjoin(name, 1, 2, t.from_poly(g))
    field = ring.field
    seen = 0
    for hdeg in (1, 2):
        table = homology_dims(t, hdeg, 6)
        for w in range(7):
            rep = homology_rep(t, hdeg, w)
            if not table.dim(w):
                assert rep is None
                continue
            seen += 1
            assert leibniz_differential(rep).is_zero()
            bound = _boundaries(t, hdeg, w)
            rank = dense_rank(field, bound)
            assert dense_rank(field, bound + [_coords(t, hdeg, w, rep)]) == rank + 1
    assert seen >= 2


def test_koszul_on_regular_element(ring_x):
    t0 = TowerAlgebra(ring_x, "divided")
    t = t0.adjoin("X", 1, 1, t0.gen("x"))
    h0 = homology_dims(t, 0, 3)
    assert [h0.dim(w) for w in range(4)] == [1, 0, 0, 0]
    assert homology_dims(t, 1, 3).total() == 0
    for w in range(4):
        assert h0.dim(w) == _brute_homology(t, 0, w)


def test_h1_contains_syzygy_class(ring_xy, QQ):
    t = TowerAlgebra(ring_xy, "divided")
    x, y = ring_xy.var("x"), ring_xy.var("y")
    t = t.adjoin("X1", 1, 2, t.from_poly(x * x))
    t = t.adjoin("X2", 1, 2, t.from_poly(x * y))
    table = homology_dims(t, 1, 3)
    assert table.dim(3) == 1
    rep = homology_rep(t, 1, 3)
    assert leibniz_differential(rep).is_zero()
    expect = t.gen("X1") * t.from_poly(y) - t.gen("X2") * t.from_poly(x)
    # the representative spans the same line as y X1 - x X2
    rc = {k: s for e, p in rep.terms.items() for k, s in [((e, b), s) for b, s in p.terms.items()]}
    ec = {k: s for e, p in expect.terms.items() for k, s in [((e, b), s) for b, s in p.terms.items()]}
    assert set(rc) == set(ec)
    keys = sorted(rc)
    k0 = keys[0]
    for k in keys:
        assert QQ.mul(rc[k], ec[k0]) == QQ.mul(rc[k0], ec[k])
    for w in range(4):
        assert table.dim(w) == _brute_homology(t, 1, w)


def test_tate_step_requires_lower_vanishing(ring_xy):
    # Koszul on (x^2, xy) has H_1 != 0 at weight 3: degree-2 step must refuse
    x, y = ring_xy.var("x"), ring_xy.var("y")
    t = TowerAlgebra(ring_xy, "divided")
    t = t.adjoin("X1", 1, 2, t.from_poly(x * x))
    t = t.adjoin("X2", 1, 2, t.from_poly(x * y))
    with pytest.raises(TateError, match="H_1"):
        tate_step(t, 2, 6)


def test_tate_complete_intersection(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    res = tate_resolution(ring_xy, [x * x, y * y * y], 4, 10)
    assert [(v.degree, v.weight) for v in res.tower.variables] == [(1, 2), (1, 3)]
    assert res.h0.dim(0) == 1


def test_tate_non_ci_adjoins_degree_two_variable(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    res = tate_resolution(ring_xy, [x * x, x * y], 3, 8)
    degs = [v.degree for v in res.tower.variables]
    assert degs == [1, 1, 2, 3]
    t = res.tower
    d3 = t.variable_diff(2)
    expect = t.gen("X1") * t.from_poly(y) - t.gen("X2") * t.from_poly(x)
    assert d3 == expect or d3 == -expect
    assert homology_dims(t, 1, 8).total() == 0
    assert homology_dims(t, 2, 8).total() == 0


def test_tate_h0_is_quotient_ring(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    res = tate_resolution(ring_xy, [x * x, x * y], 3, 6)
    # monomial basis of Q[x,y]/(x^2, xy): 1; x, y; y^2; y^3; ...
    assert [res.h0.dim(w) for w in range(7)] == [1, 2, 1, 1, 1, 1, 1]


def test_tate_output_satisfies_axioms(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    res = tate_resolution(ring_xy, [x * x, x * y], 3, 6)
    report = check_axioms(res.tower, 150, weight_bound=5, seed=2)
    assert report.ok


def test_tate_rejects_inhomogeneous_generator(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    with pytest.raises(TateError, match="homogeneous"):
        tate_resolution(ring_xy, [x * x + y], 2, 4)


def test_tate_rejects_constant_generator(ring_xy):
    # refused before the tower sees a variable of weight 0
    x = ring_xy.var("x")
    with pytest.raises(TateError, match="ideal generators must have positive weight"):
        tate_resolution(ring_xy, [x * x, ring_xy.constant(ring_xy.field.of(2))], 2, 4)


def test_towers_of_a_resolution_are_freed_without_the_cycle_collector(ring_xy):
    # each tower links to the one it was adjoined to and its memos hold term
    # maps, so no tower of the chain is in a reference cycle: with the cycle
    # collector off, all of them die with the last reference to the result
    x, y = ring_xy.var("x"), ring_xy.var("y")
    gc.disable()
    try:
        res = tate_resolution(ring_xy, [x * x, x * y], 3, 6)
        towers = [res.tower]
        while towers[-1].variables:
            towers.append(towers[-1]._parent)
        refs = [weakref.ref(t) for t in towers]
        assert towers[-1]._parent is None and len(refs) == len(res.tower.variables) + 1 > 3
        del res, towers
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_homology_rep_reads_the_kernel_memo_of_the_first_tower(monkeypatch):
    # a degree-(hdeg+1) variable enters neither the (hdeg, w) slice nor its
    # image, so every tower of one tate_step reads the first tower's kernel:
    # one elimination per distinct slice, (1, 3) and (2, 4), for the 11
    # homology_rep calls
    ring = PolyRing(Field(), ("x", "y", "z", "u"), (1, 1, 1, 1))
    x, y, z, u = (ring.var(n) for n in "xyzu")
    calls = []

    def counted(field, rows, ncols):
        calls.append(ncols)
        return nullspace_basis(field, rows, ncols)

    monkeypatch.setattr(dg_algebra, "nullspace_basis", counted)
    res = tate_resolution(ring, [x * y, y * z, z * u, u * x], 3, 7)
    monkeypatch.undo()
    assert len(calls) == 2
    tower, h0 = reference_tate_resolution(ring, [x * y, y * z, z * u, u * x], 3, 7, "divided")
    assert ([(v.name, v.degree, v.weight, v.target) for v in res.tower.variables]
            == [(v.name, v.degree, v.weight, v.target) for v in tower.variables])
    assert res.h0.dims == h0.dims


def _fresh(tower, counter):
    used = set(tower.base.names) | {v.name for v in tower.variables}
    while True:
        counter += 1
        if f"X{counter}" not in used:
            return f"X{counter}", counter


def reference_tate_resolution(ring, gens, hbound, wbound, flavor):
    """Tate's construction with the full-recompute loop: after each adjunction
    the homology of every weight is computed again on the new tower, then the
    lowest weight with a class gets a variable killing `homology_rep`.  Each
    tower is rebuilt through the constructor, so it inherits no memo from the
    tower before it and shares none with the code under test."""
    tower = TowerAlgebra(ring, flavor)

    def adjoin(name, degree, weight, target):
        return TowerAlgebra(ring, flavor, tower.adjoin(name, degree, weight, target).variables)

    counter = 0
    for g in gens:
        name, counter = _fresh(tower, counter)
        tower = adjoin(name, 1, g.weight(), tower.from_poly(g))
    for hdeg in range(1, hbound):
        counter = len(tower.variables)
        while True:
            table = homology_dims(tower, hdeg, wbound)
            if not table.total():
                break
            w = min(w for w, d in table.dims.items() if d)
            name, counter = _fresh(tower, counter)
            tower = adjoin(name, hdeg + 1, w, homology_rep(tower, hdeg, w))
    return tower, homology_dims(tower, 0, wbound)


def _quadric_cases():
    """Seeded ideals of 2-4 monomial or binomial quadrics in 3-4 weight-1
    variables, over Q and F_32003, with weight bound 5 or 6: the shapes of the
    benchmark's Tate workload."""
    rng = random.Random(7)
    for k in range(20):
        field = Field(None if k % 2 else 32003)
        nv = 3 + k % 4 // 2
        ring = PolyRing(field, ("x", "y", "z", "u")[:nv], (1,) * nv)
        xs = [ring.var(n) for n in ring.names]
        quads = [a * b for i, a in enumerate(xs) for b in xs[i:]]
        gens = []
        while len(gens) < 2 + k % 3:
            g = rng.choice(quads)
            if rng.random() < 0.5:
                g = g + rng.choice(quads).scale_int(rng.choice((1, -1, 2, -3)))
            if not g.is_zero() and g not in gens:
                gens.append(g)
        yield f"quadrics-{k}", ring, gens, 5 + k % 2, "divided", 3


@pytest.mark.parametrize("key, ring, gens, wbound, flavor, hbound",
                         [*cases(), *_quadric_cases()],
                         ids=[c[0] for c in [*cases(), *_quadric_cases()]])
def test_incremental_tate_matches_the_full_recompute(key, ring, gens, wbound, flavor, hbound):
    res = tate_resolution(ring, gens, hbound, wbound, flavor)
    tower, h0 = reference_tate_resolution(ring, gens, hbound, wbound, flavor)
    assert ([(v.name, v.degree, v.weight, v.target) for v in res.tower.variables]
            == [(v.name, v.degree, v.weight, v.target) for v in tower.variables])
    assert res.h0.dims == h0.dims
