"""Ext through the E1 page of the semifree filtration.

The tower contracts each slice onto its homology (`slice_contraction`), and
`HomComplex` ranks D_H = p delta sum_k (h delta)^k i on E1 instead of the
whole Hom matrix.  These tests hold that route to the whole matrix, ranked
by the dense oracle: the contraction laws on tower slices, D_H o D_H = 0,
and the homology dimensions, on the acceptance towers and on random
semifree pairs in both flavors over Q and F_5; and the generators that delta
can lead a block to, against the closure of the differentials."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dglift import (
    BidegreeWindow,
    EnvelopeAlgebra,
    Field,
    HomComplex,
    PolyRing,
    TowerAlgebra,
    base_change,
    ext_dims,
    make_semifree,
    tate_resolution,
    tensor_bimodule,
)
from dglift.base_ring import _axpy

from oracle import dense_rank
from test_homological import cross_check_modules, labelled_columns, oracle_hom_complexes


def acceptance_towers(flavor, p):
    """Q[x,y]<X1,X2,Y> with dY = X1 y - X2 x, its Koszul prefix
    Q[x,y]<X1,X2>, Q<X> with |X| = 2 and dX = 0, and Q[x,y]<X1,X2,Z> with
    |Z| = 2 and dZ = 0, the towers of the lift benchmark, in the given flavor
    over Q or F_p."""
    field = Field(p)
    koszul = TowerAlgebra(PolyRing(field, ("x", "y"), (1, 1)), flavor)
    koszul = koszul.adjoin("X1", 1, 1, koszul.gen("x"))
    koszul = koszul.adjoin("X2", 1, 1, koszul.gen("y"))
    g = koszul.gen
    mixed = koszul.adjoin("Y", 2, 2, g("X1") * g("y") - g("X2") * g("x"))
    even = TowerAlgebra(PolyRing(field, (), ()), flavor).adjoin("X", 2, 1, None)
    return [mixed, koszul, even, koszul.adjoin("Z", 2, 1, None)]


def _apply(field, cols, vec):
    out: dict = {}
    for j, s in vec.items():
        _axpy(field, out, cols[j], s)
    return out


def _dense(field, cols, nrows):
    return [[col.get(r, field.zero()) for col in cols] for r in range(nrows)]


def dense_homology_dim(hom, d, w):
    """dim H_d in weight w from the whole matrix of D, ranked densely."""
    field = hom.m.tower.base.field

    def rank(dd):
        cols, nrows = hom.matrix_columns(dd, w), hom.dim(dd - 1, w)
        return dense_rank(field, _dense(field, cols, nrows)) if cols and nrows else 0

    return hom.dim(d, w) - rank(d) - rank(d + 1)


def perturbed_columns(hom, d, w):
    """D_H = p delta sum_k (h delta)^k i on the E1 vectors of the (d, w)
    slice, with delta read off the whole matrix of D: each column of
    `matrix_columns` less its entries in its own block, the blocks and tower
    positions read off the labels."""
    field, tower, l = hom.m.tower.base.field, hom.l.tower, hom.l
    labels, below = hom.slice_labels(d, w), hom.slice_labels(d - 1, w)
    at = {label: pos for pos, label in enumerate(labels)}
    at_below = {label: pos for pos, label in enumerate(below)}
    delta = [{r: s for r, s in col.items() if below[r][0] != alpha or below[r][1][0] != i}
             for (alpha, (i, _, _)), col in zip(labels, hom.matrix_columns(d, w))]
    cols = []
    for _, x in hom.e1_vectors(d, w):
        col: dict = {}
        while x:
            nxt: dict = {}
            for r, s in _apply(field, delta, x).items():
                beta, (j, exps, bex) = below[r]
                k, v = tower.term_bidegree(exps, bex)
                p, h = tower.slice_contraction(k, v)[tower.slice_index(k, v)[exps, bex]]
                basis, up = tower.slice_basis(k, v), tower.slice_basis(k + 1, v)
                _axpy(field, col, {at_below[beta, (j, *basis[t])]: c for t, c in p.items()}, s)
                sign = field.neg(s) if l.basis[j].degree % 2 else s
                _axpy(field, nxt, {at[beta, (j, *up[q])]: c for q, c in h.items()}, sign)
            x = nxt
        cols.append(col)
    return cols


def check_e1(hom, degrees, weights, dense_limit=None):
    """D_H against the perturbation series on the whole matrix,
    D_H o D_H = 0, and H(E1, D_H) against the dense homology of the whole
    matrix (where the three slices it reads hold at most `dense_limit`
    maps), on every (d, w) slice; returns how many D_H o D_H compositions
    had a nonzero first factor."""
    field = hom.m.tower.base.field
    nonzero = 0
    for w in weights:
        for d in degrees:
            vectors = hom.e1_vectors(d, w)
            assert hom.e1_dim(d, w) == len(vectors)
            assert hom.e1_columns(d, w) == perturbed_columns(hom, d, w), (d, w)
            # D_H is ranked only where delta leads a block of E1 to one below
            assert hom._reaches(d, w) or not any(hom.e1_columns(d, w)), (d, w)
            if dense_limit is None or sum(hom.dim(d + k, w) for k in (-1, 0, 1)) <= dense_limit:
                assert hom.homology_dim(d, w) == dense_homology_dim(hom, d, w), (d, w)
            below = {pos: k for k, (pos, _) in enumerate(hom.e1_vectors(d - 1, w))}
            second = hom.e1_columns(d - 1, w)
            for col in hom.e1_columns(d, w):
                assert set(col) <= set(below), (d, w)
                assert not _apply(field, second, {below[pos]: s for pos, s in col.items()})
                nonzero += bool(col)
    return nonzero


def tate_tower(flavor, p):
    """The last tower of Tate's resolution of (xy, yz, zu, ux) in
    F[x,y,z,u], hbound 3 and weight bound 5, over Q or F_p: Tate has filled
    the kernel memos of its chain, and a child reads its parent's boundary
    record wherever the last variable enters neither slice."""
    ring = PolyRing(Field(p), ("x", "y", "z", "u"), (1, 1, 1, 1))
    x, y, z, u = (ring.var(n) for n in "xyzu")
    return tate_resolution(ring, [x * y, y * z, z * u, u * x], 3, 5, flavor).tower


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_slice_contraction_is_a_strong_deformation_retraction(flavor, p):
    # i p - 1 = d h + h d, p i = 1 and h h = h i = p h = 0 on every slice,
    # the homology has the dimension the dense ranks give, and each
    # representative is a cycle
    inherited = 0
    for tower in acceptance_towers(flavor, p) + [tate_tower(flavor, p)]:
        field = tower.base.field
        one, neg = field.one(), field.neg
        for w in range(0, 5):
            for k in range(0, 6):
                d_k, d_up = tower.slice_columns(k, w), tower.slice_columns(k + 1, w)
                reps = tower.slice_homology(k, w)
                here = tower.slice_contraction(k, w)
                up = tower.slice_contraction(k + 1, w)
                down = tower.slice_contraction(k - 1, w) if k else []

                def p(vec):
                    return _apply(field, [pv for pv, _ in here], vec)

                def h(vec, maps=here):
                    return _apply(field, [hv for _, hv in maps], vec)

                n = len(tower.slice_basis(k, w))
                ranks = [dense_rank(field, _dense(field, cols, rows)) if cols and rows else 0
                         for cols, rows in ((d_k, len(tower.slice_basis(k - 1, w))), (d_up, n))]
                assert len(reps) == n - sum(ranks), (tower, k, w)
                for pivot, rep in reps:
                    assert not _apply(field, d_k, rep)
                    assert p(rep) == {pivot: one}
                    assert not h(rep)
                for j in range(n):
                    hv = h({j: one})
                    # i p (v) - v against d h (v) + h d (v)
                    lhs: dict = {}
                    for pivot, s in p({j: one}).items():
                        _axpy(field, lhs, dict(reps)[pivot], s)
                    _axpy(field, lhs, {j: one}, neg(one))
                    rhs = _apply(field, d_up, hv)
                    if down:
                        _axpy(field, rhs, h(d_k[j], down), one)
                    assert lhs == rhs, (tower, k, w, j)
                    assert not h(hv, up)
                    assert not _apply(field, [pv for pv, _ in up], hv)
                if tower._inherits(k + 1, w):
                    assert tower._boundary_record(k, w) is tower._parent._boundary_record(k, w)
                    inherited += bool(reps)
    assert inherited


def test_ext_matches_the_dense_rank_of_the_whole_matrix():
    # the cross-check modules of the acceptance towers, against themselves
    # and against N (x) J^(l)/J^(l+1), l = 1, 2, over Q and F_5
    compositions = 0
    for case, hom in oracle_hom_complexes():
        compositions += check_e1(hom, range(-4, 2), range(-2, 5))
    assert compositions


@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_ext_tables_match_the_dense_rank(p):
    for name, n in cross_check_modules(Field(p)).items():
        window = BidegreeWindow(0, n.max_degree() - n.min_degree() + 1, n.max_weight())
        table = ext_dims(n, n, (0, 3), window)
        hom = HomComplex(n, n)
        for i in range(0, 4):
            for w in range(table.weight_range[0], table.weight_range[1] + 1):
                assert table.dim(i, w) == dense_homology_dim(hom, -i, w), (name, i, w)


def lift_shaped(tower, rng, nblocks):
    """A module of free generators and cones d f = e·z, z a cycle: a base
    polynomial, a cycle such as a multiple of an even variable with dZ = 0,
    or a boundary d(u), as the lift benchmark draws them; None when a draw
    fails."""
    field = tower.base.field
    gens, diffs = [], {}

    def element(h, w, nterms):
        basis = tower.slice_basis(h, w)
        if not basis:
            return None
        out = tower.zero()
        for exps, bex in rng.sample(basis, min(len(basis), nterms)):
            c = field.of(rng.choice((1, -1, 2, 3)))
            out = out + tower.monomial(exps, tower.base.monomial(bex, c))
        return out

    for k in range(nblocks):
        d0, w0 = rng.choice((0, 1)), rng.choice((0, 1, 2))
        gens.append((f"e{k}", d0, w0))
        if rng.random() < 0.3:
            continue
        zh, zw = rng.choice((0, 1, 2)), rng.choice((1, 2))
        if zh and rng.random() < 0.5:
            u = element(zh + 1, zw, 2)
            z = None if u is None else u.differential()
        else:
            z = element(zh, zw, 2)
        if z is None or z.is_zero() or not z.differential().is_zero():
            return None
        gens.append((f"f{k}", d0 + zh + 1, w0 + zw))
        diffs[(f"e{k}", f"f{k}")] = z
    return make_semifree(tower, gens, diffs)


def _draw(rng, tower, n, kind):
    """n itself, another lift-shaped module, n (x) J^(1)/J^(2), or the base
    change of n, whose differentials hold many entries."""
    if kind == 0:
        return n
    if kind == 1:
        out = None
        while out is None:
            out = lift_shaped(tower, rng, 2)
        return out
    height = n.max_degree() - n.min_degree() + 1
    if kind == 2:
        q = EnvelopeAlgebra(tower, 0).quotient_module(1, BidegreeWindow(0, height, 2))
        return tensor_bimodule(n, q)
    window = BidegreeWindow(n.min_degree(), n.min_degree() + height, n.max_weight() + 1)
    return base_change(n, window)[0]


def closure(n, steps):
    """The generators each of 0..n-1 reaches by steps, itself included, as
    a bitmask per generator."""
    out = []
    for start in range(n):
        seen, todo = {start}, [start]
        while todo:
            for nxt in steps.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        out.append(sum(1 << g for g in seen))
    return out


def check_reach(hom):
    """`_reach_m` is the closure of d_M upward in a (dM[a, b] leads a to b),
    `_reach_l` that of d_L downward in i (dL[j, i] leads i to j)."""
    up, down = {}, {}
    for a, b in hom.m.diff:
        up.setdefault(a, set()).add(b)
    for j, i in hom.l.diff:
        down.setdefault(i, set()).add(j)
    assert hom._reach_m == closure(len(hom.m.basis), up)
    assert hom._reach_l == closure(len(hom.l.basis), down)


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
def test_reach_is_the_closure_of_the_differentials(flavor):
    # d e1 = e0·z, d e2 = e1·z over Q[x,y]<X1,X2>, z = X1 y - X2 x, so z·z =
    # 0 and dM[0, 2] = 0: e0 reaches e2 only through e1, where one step of
    # the differential and its closure differ
    tower = acceptance_towers(flavor, None)[1]
    z = tower.gen("X1") * tower.gen("y") - tower.gen("X2") * tower.gen("x")
    chain = make_semifree(tower, [("e0", 0, 0), ("e1", 2, 2), ("e2", 4, 4)],
                          {("e0", "e1"): z, ("e1", "e2"): z})
    assert [e.name for e in chain.basis] == ["e0", "e1", "e2"] and (0, 2) not in chain.diff
    hom = HomComplex(chain, chain)
    check_reach(hom)
    assert hom._reach_m[0] == hom._reach_l[2] == 0b111


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       source=st.integers(0, 3), target=st.integers(0, 3))
def test_e1_route_on_random_semifree_pairs(flavor, p, which, seed, source, target):
    # M and L drawn from a random lift-shaped module N over an acceptance
    # tower: N, another such module, N (x) J^(1)/J^(2) or the base change of N
    rng = random.Random(seed)
    tower = acceptance_towers(flavor, p)[which]
    n = None
    while n is None:
        n = lift_shaped(tower, rng, rng.choice((1, 2)))
    m, l = _draw(rng, tower, n, source), _draw(rng, tower, n, target)
    hom = HomComplex(m, l)
    check_reach(hom)
    check_e1(hom, range(-3, 2), range(-2, 4), dense_limit=150)
    # the E1 table against the tower homology of every block, empty slices
    # included, and the E1 vectors in (alpha, i) order; the slices are read
    # top down and then bottom up, each time by a new complex, so that its
    # grid grows at once and then slice by slice
    slices = [(d, w) for w in range(-2, 4) for d in range(-3, 2)]
    for order in (slices[::-1], slices):
        fresh = HomComplex(m, l)
        for d, w in order:
            homology = [[tower.slice_homology(e.degree + d - f.degree, e.weight + w - f.weight)
                         for f in l.basis] for e in m.basis]
            assert fresh.e1_dim(d, w) == sum(len(h) for row in homology for h in row), (d, w)
            labels = fresh.slice_labels(d, w)
            blocks = [(labels[pos][0], labels[pos][1][0]) for pos, _ in fresh.e1_vectors(d, w)]
            assert blocks == [(alpha, i) for alpha, row in enumerate(homology)
                              for i, h in enumerate(row) for _ in h], (d, w)
    # the whole matrix, which shares delta with the transfer, against the
    # element oracle, column by column
    for w in range(-2, 4):
        for d in range(-3, 2):
            if hom.dim(d, w) + hom.dim(d - 1, w) <= 150:
                for lab, col, want in labelled_columns(hom, d, w):
                    assert col == want, (d, w, lab)


@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_ext_tables_against_the_quotients_match_the_dense_rank(p):
    # Ext(N, N (x) J^(l)/J^(l+1)), l = 1, 2, of the cross-check modules, in
    # the windows of the lift benchmark: ext_dims reads only the slices the
    # E1 table holds, and every other cell must be zero in the whole matrix
    for name, n in cross_check_modules(Field(p)).items():
        height = n.max_degree() - n.min_degree() + 1
        wmin = min(e.weight for e in n.basis)
        window = BidegreeWindow(0, height, n.max_weight())
        env = EnvelopeAlgebra(n.tower, 0)
        for level in (1, 2):
            q = env.quotient_module(level, BidegreeWindow(0, height, 2 * (n.max_weight() - wmin)))
            l = tensor_bimodule(n, q)
            table = ext_dims(n, l, (0, height), window)
            hom = HomComplex(n, l)
            for i in range(0, height + 1):
                for w in range(table.weight_range[0], table.weight_range[1] + 1):
                    assert table.dim(i, w) == dense_homology_dim(hom, -i, w), (name, level, i, w)


def massey_chain(flavor, p, kappa):
    """M = e0, e1, e2 with d e1 = e0·ab, d e2 = e1·a + e0·kappa·ua over the
    exterior tower k<a, b, u>, |a| = |b| = 1, |u| = 3 and du = ab, and L
    free on one generator of degree 1.  ab = du is a boundary, ab·a = 0 and
    u·a is a cycle that is not a boundary, so the class [1] of the block
    (e0, v) has D_H = p delta h delta i [1] = ±[ua] in the block (e2, v),
    a term with k = 1 (a Massey product), plus the first-order kappa·[ua];
    the sign of h is that of the odd generator v."""
    t = TowerAlgebra(PolyRing(Field(p), (), ()), flavor)
    t = t.adjoin("a", 1, 1, None).adjoin("b", 1, 1, None)
    t = t.adjoin("u", 3, 2, t.gen("a") * t.gen("b"))
    a, b, u = t.gen("a"), t.gen("b"), t.gen("u")
    m = make_semifree(t, [("e0", 0, 0), ("e1", 3, 2), ("e2", 5, 3)],
                      {("e0", "e1"): a * b, ("e1", "e2"): a,
                       ("e0", "e2"): (u * a).scale_int(kappa)})
    return m, make_semifree(t, [("v", 1, 0)], {})


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_second_order_terms_of_d_h_change_ext(flavor, p):
    # with kappa = 0 the k = 1 term alone moves [1] off the cycles; with
    # kappa = -1 it cancels the first-order term, so [1] is a cycle and
    # [ua] is not a boundary: a series truncated after its first term, or
    # an h delta without the sign of d0, changes Ext^0 and Ext^-1 in
    # weight 0 both times
    window = BidegreeWindow(0, 8, 4)
    want = {0: (1, 0), -1: (2, 1), 1: (1, 0)}  # kappa: (Ext^0, Ext^-1) in weight 0
    for kappa, (ext0, ext_minus1) in want.items():
        m, l = massey_chain(flavor, p, kappa)
        table = ext_dims(m, l, (-2, 6), window)
        hom = HomComplex(m, l)
        assert (table.dim(0, 0), table.dim(-1, 0)) == (ext0, ext_minus1), kappa
        for i in range(-2, 7):
            for w in range(table.weight_range[0], table.weight_range[1] + 1):
                assert table.dim(i, w) == dense_homology_dim(hom, -i, w), (kappa, i, w)
        # the column of [1], a map of degree |v| = 1, against the
        # first-order truncation p delta i
        ((_, one),) = hom.e1_vectors(1, 0)
        (col,) = hom.e1_columns(1, 0)
        first: dict = {}
        for pos, s in one.items():
            _axpy(m.tower.base.field, first, hom._transfer(1, 0, pos)[0], s)
        assert col != first and (col == {}) == (kappa == -1), kappa
        assert [col] == perturbed_columns(hom, 1, 0)


def test_ext_dims_asks_for_homology_only_where_e1_is_not_empty(monkeypatch):
    asked = []
    real = HomComplex.homology_dim
    monkeypatch.setattr(HomComplex, "homology_dim",
                        lambda self, d, w: asked.append((self, d, w)) or real(self, d, w))
    for p in (None, 5):
        for name, n in cross_check_modules(Field(p)).items():
            window = BidegreeWindow(0, n.max_degree() - n.min_degree() + 1, n.max_weight())
            ext_dims(n, n, (0, 3), window)
    assert asked and all(hom._e1.get((d, w)) for hom, d, w in asked)
