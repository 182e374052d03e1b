import pytest

from dglift import (
    BidegreeWindow,
    EnvelopeAlgebra,
    ModuleError,
    PolyRing,
    TowerAlgebra,
    base_change,
    direct_sum,
    free_module,
    make_semifree,
    tensor_bimodule,
)
from dglift.render import monomial_text


@pytest.fixture
def koszul_x(QQ):
    ring = PolyRing(QQ, ("x",), (1,))
    t = TowerAlgebra(ring, "divided")
    return t.adjoin("X", 1, 1, t.gen("x"))


def test_make_semifree_accepts(koszul_x):
    n = make_semifree(
        koszul_x,
        [("e", 0, 0), ("f", 1, 1)],
        {("e", "f"): koszul_x.from_poly(koszul_x.base.var("x"))},
    )
    assert len(n.basis) == 2


def test_make_semifree_rejects_order_violation(koszul_x):
    with pytest.raises(ModuleError, match="lower-triangular"):
        make_semifree(
            koszul_x,
            [("e", 2, 1), ("f", 1, 1)],
            {("f", "e"): koszul_x.from_poly(koszul_x.base.var("x")).scale_int(0) + koszul_x.one()},
        )


def test_make_semifree_rejects_d_squared(koszul_x):
    # df = e X forces d^2 f = -e x != 0
    with pytest.raises(ModuleError, match="d\\^2"):
        make_semifree(
            koszul_x,
            [("e", 0, 0), ("f", 2, 1)],
            {("e", "f"): koszul_x.gen("X")},
        )


def test_make_semifree_rejects_bidegree_mismatch(koszul_x):
    with pytest.raises(ModuleError, match="degree"):
        make_semifree(
            koszul_x,
            [("e", 0, 0), ("f", 3, 1)],
            {("e", "f"): koszul_x.from_poly(koszul_x.base.var("x"))},
        )


def test_shift_involution(even_tower):
    n = make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): even_tower.gen("X")})
    assert n.shift(1).shift(-1).diff == n.diff
    assert n.shift(2).diff == n.diff
    assert [b.degree for b in n.shift(1).basis] == [1, 4]
    assert n.shift(1).diff[(0, 1)] == -n.diff[(0, 1)]


def test_direct_sum_blocks(koszul_x):
    b1 = free_module(koszul_x, "u")
    b2 = free_module(koszul_x, "v", degree=1, weight=1)
    s = direct_sum(b1, b2)
    assert len(s.basis) == 2
    assert not s.diff
    for h in range(3):
        for w in range(3):
            assert s.dimension(h, w) == b1.dimension(h, w) + b2.dimension(h, w)


def test_direct_sum_projection_inclusion_identity(even_tower):
    from dglift import ChainMap

    n = make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): even_tower.gen("X")})
    m = make_semifree(even_tower, [("g", 1, 1)], {})
    s = direct_sum(n, m)
    off = len(n.basis)
    incl = ChainMap(n, s, 0, {i: s.basis_elem(i) for i in range(len(n.basis))})
    proj = ChainMap(s, n, 0, {i: n.basis_elem(i) for i in range(len(n.basis))})
    assert incl.is_chain_map() and proj.is_chain_map()
    assert proj.compose(incl) == ChainMap.identity(n)
    incl2 = ChainMap(m, s, 0, {i: s.basis_elem(i + off) for i in range(len(m.basis))})
    proj2 = ChainMap(s, m, 0, {i + off: m.basis_elem(i) for i in range(len(m.basis))})
    assert proj2.compose(incl2) == ChainMap.identity(m)


def test_base_change_of_free_matches_envelope(even_tower):
    # N = B: the base change is B^e and pi_N is pi_B
    n = free_module(even_tower, "u")
    win = BidegreeWindow(0, 8, 4)
    p, pi = base_change(n, win, 0)
    env = EnvelopeAlgebra(even_tower, 0)
    for h in range(0, 9):
        for w in range(0, 5):
            dim_be = 0
            for lex in env.ext_monomials(w):
                dl, wl = env.ext_degree(lex), env.ext_weight(lex)
                dim_be += len(even_tower.slice_basis(h - dl, w - wl))
            assert p.dimension(h, w) == dim_be
    assert pi.is_chain_map()


def test_base_change_pi_on_generators(mixed_tower):
    n = make_semifree(mixed_tower, [("e", 0, 0), ("f", 2, 2)],
                      {("e", "f"): mixed_tower.variable_diff(2)})
    win = BidegreeWindow(0, 3, 3)
    p, pi = base_change(n, win, 0)
    for idx, b in enumerate(p.basis):
        if b.name.endswith("⊗1"):
            img = pi.apply(p.basis_elem(idx))
            alpha = 0 if b.name.startswith("e") else 1
            assert n.elem_eq(img, n.basis_elem(alpha))


def test_base_change_degree_slice_example(even_tower):
    n = make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): even_tower.gen("X")})
    p, pi = base_change(n, BidegreeWindow(0, 3, 1), 0)
    slice3 = p.slice_labels(3, 1)
    assert len(slice3) == 1
    idx, exps, bex = slice3[0]
    assert p.basis[idx].name == "f⊗1"


def test_base_change_refuses_small_window(even_tower):
    n = make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): even_tower.gen("X")})
    with pytest.raises(ModuleError, match="does not contain"):
        base_change(n, BidegreeWindow(0, 2, 1), 0)


def test_base_change_surjective_and_exact(mixed_tower):
    from dglift.base_ring import matrix_rank

    field = mixed_tower.base.field
    n = make_semifree(mixed_tower, [("e", 0, 0), ("f", 2, 2)],
                      {("e", "f"): mixed_tower.variable_diff(2)})
    win = BidegreeWindow(0, 4, 4)
    p, pi = base_change(n, win, 0)
    assert pi.is_chain_map()
    for h in range(win.hmin, win.hmax + 1):
        for w in range(0, win.wmax + 1):
            labels = p.slice_labels(h, w)
            rows = {}
            for j, lab in enumerate(labels):
                for key, s in n.elem_coords(pi.apply(p.label_elem(lab))).items():
                    rows.setdefault(key, {})[j] = s
            rank = matrix_rank(field, list(rows.values()))
            assert rank == n.dimension(h, w)
            assert (len(labels) - rank) + n.dimension(h, w) == p.dimension(h, w)


def test_tensor_with_level_zero_quotient_is_identity(even_tower):
    env = EnvelopeAlgebra(even_tower, 0)
    n = make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): even_tower.gen("X")})
    q0 = env.quotient_module(0, BidegreeWindow(0, 6, 6))
    t = tensor_bimodule(n, q0)
    assert [(b.degree, b.weight) for b in t.basis] == [(b.degree, b.weight) for b in n.basis]
    assert set(t.diff) == set(n.diff)
    for k, v in n.diff.items():
        assert t.diff[k] == v


def test_tensor_free_with_quotient_is_quotient(even_tower):
    env = EnvelopeAlgebra(even_tower, 0)
    b = free_module(even_tower, "u")
    q = env.quotient_module(1, BidegreeWindow(0, 8, 4))
    t = tensor_bimodule(b, q)
    assert [(x.degree, x.weight) for x in t.basis] == [(x.degree, x.weight) for x in q.basis]
    assert set(t.diff) == set(q.diff)


def test_tensor_rank_product(mixed_tower):
    env = EnvelopeAlgebra(mixed_tower, 0)
    n = make_semifree(mixed_tower, [("e", 0, 0), ("f", 2, 2)],
                      {("e", "f"): mixed_tower.variable_diff(2)})
    q = env.quotient_module(1, BidegreeWindow(0, 8, 6))
    t = tensor_bimodule(n, q)
    assert len(t.basis) == len(n.basis) * len(q.basis)
    counts = {}
    for e in n.basis:
        for f in q.basis:
            key = (e.degree + f.degree, e.weight + f.weight)
            counts[key] = counts.get(key, 0) + 1
    got = {}
    for b in t.basis:
        got[(b.degree, b.weight)] = got.get((b.degree, b.weight), 0) + 1
    assert got == counts


def test_kernel_dimension_counting_formula(even_tower):
    # ker pi_N dims agree with the Mon_{>=1}(Omega) counting formula and with
    # the tensor module N (x) J
    from dglift.base_ring import matrix_rank

    env = EnvelopeAlgebra(even_tower, 0)
    field = even_tower.base.field
    n = make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): even_tower.gen("X")})
    win = BidegreeWindow(0, 5, 4)
    p, pi = base_change(n, win, 0)
    j = env.diagonal_ideal_module(6)
    nj = tensor_bimodule(n, j, BidegreeWindow(0, 10, 6))
    for h in range(0, 6):
        for w in range(0, 5):
            labels = p.slice_labels(h, w)
            rows = {}
            for col, lab in enumerate(labels):
                for key, s in n.elem_coords(pi.apply(p.label_elem(lab))).items():
                    rows.setdefault(key, {})[col] = s
            ker = len(labels) - matrix_rank(field, list(rows.values()))
            # counting formula over Omega monomials of level >= 1
            count = 0
            for level in range(1, w + 1):
                for oexps in env.omega_exponents(level, w):
                    dh = env.ext_degree(oexps)
                    dw = env.ext_weight(oexps)
                    count += n.dimension(h - dh, w - dw)
            assert ker == count
            if nj.is_complete(h, w):
                assert ker == nj.dimension(h, w)


def test_tensor_requires_bimodule(even_tower):
    n = free_module(even_tower, "u")
    with pytest.raises(ModuleError, match="left action"):
        tensor_bimodule(n, n)


def test_tensor_with_ideal_module(even_tower):
    env = EnvelopeAlgebra(even_tower, 0)
    j = env.diagonal_ideal_module(5)
    n = make_semifree(even_tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): even_tower.gen("X")})
    t = tensor_bimodule(n, j, BidegreeWindow(0, 9, 5))
    # d(f (x) xi) = (e X) (x) xi = e (x) (X·xi) = e (x) (xi X + 2 xi^(2))
    names = {b.name: i for i, b in enumerate(t.basis)}
    j_entry = t.diff[(names["e⊗ξ_X"], names["f⊗ξ_X"])]
    assert j_entry == even_tower.gen("X")
    sq_entry = t.diff[(names["e⊗ξ_X^(2)"], names["f⊗ξ_X"])]
    assert sq_entry == even_tower.one().scale_int(2)


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_modules_built_from_validated_ones_pass_validation(monkeypatch, flavor, p):
    # base_change, tensor_bimodule and the envelope's quotient and ideal
    # modules are built from validated modules and skip _validate; the check
    # runs here instead, on lift-shaped modules over the acceptance towers
    import random

    from dglift import SemifreeModule
    from test_ext_e1 import acceptance_towers, lift_shaped

    rng = random.Random(19)
    calls = []
    validate = SemifreeModule._validate
    built = []
    for tower in acceptance_towers(flavor, p):
        modules = [n for n in (lift_shaped(tower, rng, k) for k in (1, 2, 2, 3)) if n]
        monkeypatch.setattr(SemifreeModule, "_validate", lambda self: calls.append(self))
        for n in modules:
            height = n.max_degree() - n.min_degree() + 1
            window = BidegreeWindow(n.min_degree(), n.max_degree() + 1, n.max_weight() + 1)
            for a_prefix in range(tower.n + 1):
                built.append(base_change(n, window, a_prefix)[0])
            env = EnvelopeAlgebra(tower, 0)
            for level in (1, 2):
                q = env.quotient_module(level, BidegreeWindow(0, height, 3))
                built += [q, tensor_bimodule(n, q)]
            j = env.diagonal_ideal_module(3)
            built += [j, tensor_bimodule(n, j, BidegreeWindow(0, n.max_degree() + 2, 2))]
        monkeypatch.undo()
    assert not calls and len(built) > 40
    for module in built:
        validate(module)


def _element_route_base_change(n, window, a_prefix):
    """P = N|_A (x)_A B and pi by module-element operations, as plain data:
    the basis e_alpha (x) g sorted by (degree, alpha, g), and d(e_alpha (x)
    g) as n.apply_diff({alpha: g}), read by `split_at` over the extension
    monomials."""
    tower = n.tower
    ext = range(a_prefix, tower.n)
    pairs = []
    for alpha, e in enumerate(n.basis):
        for full in tower.gamma_monomials(window.wmax - e.weight, window.hmax - e.degree, ext):
            h, w = tower.monomial_bidegree(full)
            pairs.append((e.degree + h, e.weight + w, alpha, full[a_prefix:]))
    pairs.sort(key=lambda t: (t[0], t[2], t[3]))
    names = [v.name for v in tower.variables[a_prefix:]]
    basis = [(f"{n.basis[alpha].name}⊗{monomial_text(names, g, tower.flavor == 'divided', '', '1')}",
              h, w) for h, w, alpha, g in pairs]
    pos = {(alpha, g): idx for idx, (_, _, alpha, g) in enumerate(pairs)}
    diff, pi = {}, {}
    for (alpha, g), idx in pos.items():
        elem = tower.monomial((0,) * a_prefix + g)
        for gamma, c in n.apply_diff({alpha: elem}).items():
            for g2, a in tower.split_at(c, a_prefix, tower, right=True).items():
                diff[pos[gamma, g2], idx] = a.coeffs
        pi[idx] = {alpha: elem.coeffs}
    return basis, diff, pi


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_base_change_by_monomial_shifts_matches_the_element_route(flavor, p):
    # P's differential shifts each entry dN[a, alpha] by the monomial g and
    # reads dg off the tower's memo; the element route applies N's
    # differential to e_alpha·g
    import random

    from test_ext_e1 import acceptance_towers, lift_shaped

    rng = random.Random(26)
    checked = 0
    for tower in acceptance_towers(flavor, p):
        modules = [n for n in (lift_shaped(tower, rng, k) for k in (1, 2, 2, 3, 3)) if n]
        assert modules
        for n in modules:
            window = BidegreeWindow(n.min_degree(), n.max_degree() + 1, n.max_weight() + 1)
            for a_prefix in range(tower.n + 1):
                p_mod, pi = base_change(n, window, a_prefix)
                basis, diff, pi_want = _element_route_base_change(n, window, a_prefix)
                assert [(e.name, e.degree, e.weight) for e in p_mod.basis] == basis
                assert {k: v.coeffs for k, v in p_mod.diff.items()} == diff
                assert {i: {a: c.coeffs for a, c in img.items()}
                        for i, img in pi.entries.items()} == pi_want
                checked += bool(diff)
    assert checked > 10
