import random

import pytest

from dglift import (
    BidegreeWindow,
    ChainMap,
    EnvelopeAlgebra,
    Field,
    HomComplex,
    HomologicalError,
    Infeasible,
    PolyRing,
    TowerAlgebra,
    base_change,
    build_split_system,
    ext_dims,
    free_module,
    make_semifree,
    naive_lift_check,
    null_homotopy,
    tensor_bimodule,
)
from dglift.base_ring import nullspace_basis

from oracle import brute_ext_dim, hom_differential


@pytest.fixture
def negative_control(even_tower):
    return make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                         {("e", "f"): even_tower.gen("X")})


def test_hom_of_free_rank_one_is_the_module(even_tower):
    b = free_module(even_tower, "u")
    hom = HomComplex(b, b)
    for d in range(0, 5):
        for w in range(0, 4):
            assert hom.dim(d, w) == b.dimension(d, w)


def test_hom_complex_window_slices(even_tower):
    b = free_module(even_tower, "u")
    hom = HomComplex(b, b)
    win = BidegreeWindow(0, 4, 3)
    for d in range(win.hmin, win.hmax + 1):
        for w in range(0, win.wmax + 1):
            dim = hom.dim(d, w)
            assert dim == b.dimension(d, w)
            cols = hom.matrix_columns(d, w)
            assert len(cols) == dim == len(hom.slice_labels(d, w))
            # dX = 0 here, so every matrix column is zero
            assert not any(cols)


def cross_check_modules(field):
    """The negative control, the rigid Koszul module and the mixed-tower cone
    over the given field."""
    even = TowerAlgebra(PolyRing(field, (), ()), "divided").adjoin("X", 2, 1, None)
    koszul = TowerAlgebra(PolyRing(field, ("x", "y"), (1, 1)), "divided")
    koszul = koszul.adjoin("X1", 1, 1, koszul.gen("x"))
    koszul = koszul.adjoin("X2", 1, 1, koszul.gen("y"))
    z = koszul.gen("X1") * koszul.gen("y") - koszul.gen("X2") * koszul.gen("x")
    mixed = koszul.adjoin("Y", 2, 2, z)
    return {
        "negative-control": make_semifree(even, [("e", 0, 0), ("f", 3, 1)],
                                          {("e", "f"): even.gen("X")}),
        "rigid-koszul": make_semifree(koszul, [("e", 0, 0), ("g", 1, 1), ("h", 2, 1)],
                                      {("g", "h"): koszul.one()}),
        "mixed-cone": make_semifree(mixed, [("e", 0, 0), ("f", 2, 2)],
                                    {("e", "f"): mixed.variable_diff(2)}),
    }


def oracle_hom_complexes():
    """Hom(N, N) for the cross-check modules over Q and F_5, and Hom(N, L) with
    L = N (x) J^(l)/J^(l+1), l = 1, 2, windowed as the lift benchmark does:
    the one case where L has many differential entries."""
    for p in (None, 5):
        for name, n in cross_check_modules(Field(p)).items():
            yield f"{name} over {Field(p)!r}", HomComplex(n, n)
            wmin = min(e.weight for e in n.basis)
            window = BidegreeWindow(0, n.max_degree() - n.min_degree() + 1,
                                    2 * (n.max_weight() - wmin))
            env = EnvelopeAlgebra(n.tower, 0)
            for level in (1, 2):
                l = tensor_bimodule(n, env.quotient_module(level, window))
                yield f"{name} (x) J^({level}) over {Field(p)!r}", HomComplex(n, l)


def labelled_columns(hom, d, w):
    """The columns of `matrix_columns(d, w)`, each row position read as its
    label in the (d - 1, w) slice, with the element oracle's column of each
    basis map: [(label, column, the oracle's column)]."""
    m, l = hom.m, hom.l
    below = hom.slice_labels(d - 1, w)
    assert len(below) == hom.dim(d - 1, w)
    out = []
    for (alpha, lab), positions in zip(hom.slice_labels(d, w), hom.matrix_columns(d, w)):
        want = hom_differential(ChainMap(m, l, d, {alpha: l.label_elem(lab)}))
        out.append(((alpha, lab), {below[r]: s for r, s in positions.items()},
                    {(beta, k): s for beta, elem in want.items()
                     for k, s in l.elem_coords(elem).items()}))
    return out


def test_hom_differential_squares_to_zero():
    # the first D from matrix_columns against the element oracle, column by
    # column; the second D with element operations only
    for case, hom in oracle_hom_complexes():
        m, l = hom.m, hom.l
        nonzero = 0
        for d in range(-3, 5):
            for w in range(-2, 5):
                for lab, col, want in labelled_columns(hom, d, w):
                    assert col == want, (case, d, w, lab)
                    img: dict = {}
                    for (beta, k), s in col.items():
                        img[beta] = l.add_elem(img.get(beta, {}),
                                               l.scale_elem(l.label_elem(k), s))
                    assert not hom_differential(ChainMap(m, l, d - 1, img)), (case, d, w, lab)
                    nonzero += bool(col)
        assert nonzero, case


def test_hom_rows_are_keyed_by_position_in_slice_order():
    # rows() is the plain transpose of matrix_columns, keyed by row position
    # in ascending order; the labels of the (d - 1, w) slice are sorted, so
    # position order is label order, which equation_labels and null_homotopy
    # rely on when they build a row's label
    for case, hom in oracle_hom_complexes():
        for d in range(-1, 3):
            for w in range(-1, 3):
                rows = hom.rows(d, w)
                below = hom.slice_labels(d - 1, w)
                assert all(isinstance(r, int) for r in rows), (case, d, w)
                assert list(rows) == sorted(rows), (case, d, w)
                assert all(0 <= r < hom.dim(d - 1, w) for r in rows), (case, d, w)
                assert below == sorted(below), (case, d, w)
                transposed: dict = {}
                for j, col in enumerate(hom.matrix_columns(d, w)):
                    for r, s in col.items():
                        transposed.setdefault(r, {})[j] = s
                assert rows == transposed, (case, d, w)


@pytest.mark.parametrize("name", ["negative-control", "rigid-koszul", "mixed-cone"])
@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_hom_rows_agree_with_chain_maps(p, name):
    # the matrix route (kernel of D's rows, assembled by chain_map) against the
    # element route (ChainMap.is_chain_map)
    n = cross_check_modules(Field(p))[name]
    field = n.tower.base.field
    hom = HomComplex(n, n)
    kernel_vectors = nonzero_columns = 0
    for d in (-1, 0, 1):
        for w in range(-2, 3):
            labels = hom.slice_labels(d, w)
            kernel = nullspace_basis(field, list(hom.rows(d, w).values()), len(labels))
            for _, vec in kernel:
                solution = [vec.get(j, field.zero()) for j in range(len(labels))]
                assert hom.chain_map(d, labels, solution).is_chain_map()
            for lab, col in zip(labels, hom.matrix_columns(d, w)):
                basis_map = hom.chain_map(d, [lab], [field.one()])
                assert basis_map.is_chain_map() == (not col)
                nonzero_columns += bool(col)
            kernel_vectors += len(kernel)
    assert kernel_vectors and nonzero_columns


def test_identity_is_a_cycle(negative_control):
    f = ChainMap.identity(negative_control)
    assert f.is_chain_map()


def test_ext_of_free_module(even_tower):
    b = free_module(even_tower, "u")
    table = ext_dims(b, b, (0, 4), BidegreeWindow(0, 4, 4))
    assert table.total(0) == 1
    for i in range(1, 5):
        assert table.total(i) == 0


def test_ext_negative_control_profile(negative_control):
    win = BidegreeWindow(0, 3, 1)
    table = ext_dims(negative_control, negative_control, (0, 3), win)
    assert table.total(0) >= 1       # the identity class
    assert table.total(1) == 0
    assert table.total(2) == 0
    assert table.total(3) == 1       # the obstruction class f -> e


def test_ext_matches_brute_oracle(negative_control):
    win = BidegreeWindow(0, 3, 1)
    table = ext_dims(negative_control, negative_control, (0, 3), win)
    for i in range(0, 4):
        for w in range(table.weight_range[0], table.weight_range[1] + 1):
            assert table.dim(i, w) == brute_ext_dim(negative_control, negative_control, i, w)


def test_ext_shift_compatibility(koszul_xy):
    n = make_semifree(
        koszul_xy, [("e", 0, 0), ("g", 1, 1), ("h", 2, 1)],
        {("g", "h"): koszul_xy.one()},
    )
    win = BidegreeWindow(0, 4, 5)
    up = ext_dims(n, n.shift(1), (0, 2), win)
    flat = ext_dims(n, n, (1, 3), win)
    for i in (0, 1, 2):
        assert up.total(i) == flat.total(i + 1)


def test_ext_window_refusal(even_tower, negative_control):
    win = BidegreeWindow(0, 3, 1)
    p, _ = base_change(negative_control, win, 0)
    with pytest.raises(HomologicalError, match="window too small"):
        ext_dims(negative_control, p, (-6, -6), BidegreeWindow(0, 12, 12))


def test_null_homotopy_zero_map(negative_control):
    f = ChainMap(negative_control, negative_control, 0, {})
    h = null_homotopy(f)
    assert isinstance(h, ChainMap)
    assert not h.entries


def test_null_homotopy_of_boundary(negative_control):
    n = negative_control
    rng = random.Random(1)
    # random degree-1 graded map g, f = dg + gd is null-homotopic by construction
    entries = {}
    for alpha, e in enumerate(n.basis):
        img = {}
        for i, exps, bex in n.slice_labels(e.degree + 1, e.weight):
            if rng.random() < 0.7:
                img[i] = n.tower.monomial(exps, n.tower.base.monomial(bex))
        if img:
            entries[alpha] = img
    g = ChainMap(n, n, 1, entries)
    f_entries = {}
    for beta in range(len(n.basis)):
        v = n.apply_diff(g.entries.get(beta, {}))
        v = n.add_elem(v, g.apply(n.apply_diff(n.basis_elem(beta))))
        if v:
            f_entries[beta] = v
    f = ChainMap(n, n, 0, f_entries)
    assert f.is_chain_map()
    h = null_homotopy(f)
    assert isinstance(h, ChainMap)
    # verify f = dh + hd exactly
    for beta in range(len(n.basis)):
        lhs = f.entries.get(beta, {})
        rhs = n.apply_diff(h.entries.get(beta, {}))
        rhs = n.add_elem(rhs, h.apply(n.apply_diff(n.basis_elem(beta))))
        assert n.elem_eq(lhs, rhs)


def test_null_homotopy_of_identity_fails(negative_control):
    h = null_homotopy(ChainMap.identity(negative_control))
    assert isinstance(h, Infeasible)


@pytest.fixture
def cone_control(even_tower):
    # the negative control with `a`, d a = e, added: Hom(N, N) has non-empty
    # slices in degrees 1 to 3, so a boundary D(g) need not be zero
    return make_semifree(even_tower, [("e", 0, 0), ("a", 1, 0), ("f", 3, 1)],
                         {("e", "a"): even_tower.one(), ("e", "f"): even_tower.gen("X")})


@pytest.mark.parametrize("deg,shift", [(1, 0), (2, 1), (3, 1)])
def test_null_homotopy_of_a_nonzero_boundary(cone_control, deg, shift):
    # f = D(g) for g of bidegree (deg, shift) with every coordinate nonzero;
    # the h solved for must satisfy f = D(h), and f spans several weights of
    # rows of D and coordinates of f
    n = cone_control
    rng = random.Random(deg)
    entries = {}
    for alpha, e in enumerate(n.basis):
        img: dict = {}
        for lab in n.slice_labels(e.degree + deg, e.weight + shift):
            img = n.add_elem(img, n.scale_elem(n.label_elem(lab), rng.randint(1, 3)))
        if img:
            entries[alpha] = img
    f = ChainMap(n, n, deg - 1, hom_differential(ChainMap(n, n, deg, entries)))
    assert f.entries and f.is_chain_map()
    h = null_homotopy(f)
    assert isinstance(h, ChainMap) and h.entries
    assert ChainMap(n, n, deg - 1, hom_differential(h)) == f


def test_null_homotopy_witness_of_a_cycle_that_bounds_nothing(cone_control, monkeypatch):
    # f - X a is a cycle of N that bounds nothing, so the identity is not
    # null-homotopic; the system is pinned equation by equation, in the
    # order of (weight, row position), and so is the witness, which takes
    # two equations of D, at e -> e and at f -> X e, and the coordinate of f
    # at f -> f, an equation with no row of D, is left unused
    import dglift.homological as homological

    systems = []
    solve = homological.solve_linear
    monkeypatch.setattr(homological, "solve_linear",
                        lambda system: systems.append(system) or solve(system))
    res = null_homotopy(ChainMap.identity(cone_control))
    assert isinstance(res, Infeasible)
    [system] = systems
    assert system.rows == [{0: 1}, {0: 1}, {0: 1}, {}]
    assert system.rhs == [1, 1, 0, 1]
    assert (res.combo, res.value) == ({0: -1, 2: 1}, -1)
    assert res.verify(system)


def test_chain_map_rejects_inhomogeneous_entries(negative_control):
    from dglift import ModuleError

    n = negative_control
    with pytest.raises(ModuleError, match="homogeneous"):
        ChainMap(n, n, 0, {1: {0: n.tower.gen("X")}})


def test_null_homotopy_requires_chain_map(even_tower):
    # two generators in the same bidegree; swapping them is degree-0 but not a
    # chain map when only one has a differential
    n = make_semifree(
        even_tower,
        [("e", 0, 0), ("e2", 0, 0), ("f", 3, 1)],
        {("e", "f"): even_tower.gen("X")},
    )
    swap = ChainMap(n, n, 0, {0: n.basis_elem(1), 1: n.basis_elem(0), 2: n.basis_elem(2)})
    assert not swap.is_chain_map()
    with pytest.raises(HomologicalError, match="chain map"):
        null_homotopy(swap)


def test_naive_lift_free_module(even_tower):
    b = free_module(even_tower, "u")
    res = naive_lift_check(b)
    assert res.split
    img = res.rho.entries[0]
    assert res.module.elem_eq(img, res.module.basis_elem(0))
    assert res.module.basis[0].name == "u⊗1"


def test_naive_lift_negative_control(negative_control):
    res = naive_lift_check(negative_control)
    assert res.status == "OBSTRUCTED"
    w = res.witness
    system, unknowns, labels, *_ = build_split_system(negative_control)
    inf = Infeasible(combo=w.combo, value=w.value)
    assert inf.verify(system)
    assert any("chain condition" in eq for eq in w.equations)


def test_naive_lift_answer_stable_under_window_growth(negative_control, even_tower, koszul_xy):
    res_small = naive_lift_check(negative_control)
    res_big = naive_lift_check(
        negative_control, window=BidegreeWindow(0, 6, 3)
    )
    assert res_small.status == res_big.status == "OBSTRUCTED"

    n3 = make_semifree(even_tower, [("e", 0, 0)], {})
    assert naive_lift_check(n3).split
    assert naive_lift_check(n3, window=BidegreeWindow(0, 5, 4)).split

    rigid = make_semifree(
        koszul_xy, [("e", 0, 0), ("g", 1, 1), ("h", 2, 1)],
        {("g", "h"): koszul_xy.one()},
    )
    assert naive_lift_check(rigid).split
    assert naive_lift_check(rigid, window=BidegreeWindow(0, 5, 4)).split


def test_naive_lift_split_idempotent(koszul_xy):
    n = make_semifree(
        koszul_xy, [("e", 0, 0), ("g", 1, 1), ("h", 2, 1)],
        {("g", "h"): koszul_xy.one()},
    )
    res = naive_lift_check(n)
    assert res.split
    assert res.rho.is_chain_map()
    rho_pi = res.rho.compose(res.pi)
    assert rho_pi.compose(rho_pi) == rho_pi
    # pi rho = id
    assert res.pi.compose(res.rho) == ChainMap.identity(n)


def test_naive_lift_splits_nonrigid_module(mixed_tower):
    # z = X1 y - X2 x is a boundary in the mixed tower, so N = {e, f: df = ez}
    # is isomorphic to B + a shifted twist of B: it splits even though the
    # rigidity hypothesis fails (Ext^2(N,N) != 0), showing the solver works on
    # the splitting system itself rather than on the sufficient Ext condition
    z = mixed_tower.variable_diff(2)
    n = make_semifree(mixed_tower, [("e", 0, 0), ("f", 2, 2)],
                      {("e", "f"): z})
    table = ext_dims(n, n, (1, 2), BidegreeWindow(0, 4, 4))
    assert table.total(2) >= 1
    res = naive_lift_check(n)
    assert res.split
    assert res.rho.is_chain_map()
    for beta in range(len(n.basis)):
        assert n.elem_eq(res.pi.apply(res.rho.entries[beta]), n.basis_elem(beta))


def test_naive_lift_respects_a_prefix(mixed_tower):
    # over A = B the map pi_N is the identity: always split
    n = make_semifree(mixed_tower, [("e", 0, 0), ("f", 2, 2)],
                      {("e", "f"): mixed_tower.variable_diff(2)})
    res = naive_lift_check(n, a_prefix=mixed_tower.n)
    assert res.split


def test_naive_lift_mid_prefix_split(mixed_tower):
    # A = Q[x,y]<X1,X2>, B = A<Y>: df = e z with z = dY = -d(X1 X2) and
    # X1 X2 in A, so a change of basis over A trivializes the module
    z = mixed_tower.variable_diff(2)
    n = make_semifree(mixed_tower, [("e", 0, 0), ("f", 2, 2)], {("e", "f"): z})
    res = naive_lift_check(n, a_prefix=2)
    assert res.split
    assert res.rho.is_chain_map()


def test_naive_lift_mid_prefix_obstructed(mixed_tower):
    # df = e w with w = Y + X1 X2 a nontrivial homology class of B = A<Y>:
    # rho(f) = f (x) 1 is forced and the chain condition fails
    w = mixed_tower.gen("Y") + mixed_tower.gen("X1") * mixed_tower.gen("X2")
    assert w.differential().is_zero()
    n = make_semifree(mixed_tower, [("e", 0, 0), ("f", 3, 2)], {("e", "f"): w})
    res = naive_lift_check(n, a_prefix=2)
    assert res.status == "OBSTRUCTED"
    system, *_ = build_split_system(n, a_prefix=2)
    assert Infeasible(combo=res.witness.combo, value=res.witness.value).verify(system)
    # over A = base ring the same module is also obstructed
    res0 = naive_lift_check(n, a_prefix=0)
    assert res0.status == "OBSTRUCTED"


def test_weight_zero_projection_of_a_splitting_splits(even_tower):
    # homogeneous-splitting lemma: the weight-0 part of any splitting is again
    # a splitting, because pi_N and the differentials are weight-homogeneous
    n = make_semifree(even_tower, [("u", 0, 0), ("v", 2, 2)], {})
    res = naive_lift_check(n)
    assert res.split
    p, pi, rho = res.module, res.pi, res.rho
    pos = {b.name: i for i, b in enumerate(p.basis)}

    # kappa = (u (x) X) - (u (x) 1)·X is a degree-2 weight-1 cycle in ker pi
    kappa = p.sub_elem(
        p.basis_elem(pos["u⊗X"]),
        p.mul_elem(p.basis_elem(pos["u⊗1"]), even_tower.gen("X")),
    )
    assert not p.apply_diff(kappa)
    assert n.elem_eq(pi.apply(kappa), {})

    entries = dict(rho.entries)
    entries[1] = p.add_elem(entries[1], kappa)  # perturb rho(v) off weight 2
    rho_prime = ChainMap(n, p, 0, entries)
    assert rho_prime.is_chain_map()
    for beta in range(len(n.basis)):
        assert n.elem_eq(pi.apply(rho_prime.entries[beta]), n.basis_elem(beta))

    # project each image back to the generator's weight
    proj_entries = {}
    for beta, e in enumerate(n.basis):
        out = {}
        for i, c in rho_prime.entries[beta].items():
            want = e.weight - p.basis[i].weight
            keep = c.tower.zero()
            for (exps, bex), s in c.coeffs.items():
                if c.tower.term_bidegree(exps, bex)[1] == want:
                    keep = keep + c.tower.monomial(exps, c.tower.base.monomial(bex, s))
            if not keep.is_zero():
                out[i] = keep
        proj_entries[beta] = out
    rho0 = ChainMap(n, p, 0, proj_entries)
    assert rho0.entries != rho_prime.entries
    assert rho0.is_chain_map()
    for beta in range(len(n.basis)):
        assert n.elem_eq(pi.apply(rho0.entries[beta]), n.basis_elem(beta))


def test_obstruction_visible_in_ext_against_ideal(negative_control, even_tower):
    env = EnvelopeAlgebra(even_tower, 0)
    j = env.diagonal_ideal_module(6)
    nj = tensor_bimodule(negative_control, j, BidegreeWindow(0, 9, 5))
    table = ext_dims(negative_control, nj, (1, 1), BidegreeWindow(0, 3, 1))
    assert table.total(1) >= 1
