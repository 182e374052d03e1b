import gc
import random
import weakref
from math import comb

import pytest

from dglift import BidegreeWindow, EnvelopeAlgebra, PolyRing, TowerAlgebra
from dglift.base_ring import matrix_rank


@pytest.fixture
def env_even(even_tower):
    return EnvelopeAlgebra(even_tower, 0)


@pytest.fixture
def env_koszul(koszul_xy):
    return EnvelopeAlgebra(koszul_xy, 0)


@pytest.fixture
def env_mixed(mixed_tower):
    return EnvelopeAlgebra(mixed_tower, 0)


def _random_envelope(env, rng, max_wt=4):
    tower = env.tower
    out = env.zero()
    for _ in range(3):
        lex = rng.choice(env.ext_monomials(rng.randrange(max_wt + 1)))
        exps = rng.choice(tower.gamma_monomials(rng.randrange(max_wt + 1)))
        bex = rng.choice(tower.base.monomials_of_weight(rng.randrange(2))) \
            if tower.base.names else ()
        c = tower.base.field.of(rng.randrange(-3, 4))
        r = tower.monomial(exps, tower.base.monomial(bex, c))
        out = out + env.from_tensor(env.ext_elem(lex), r)
    return out


# --- multiplication ---------------------------------------------------------


def test_mul_odd_sign_rule(env_koszul, koszul_xy):
    X = koszul_xy.gen("X1")
    lhs = env_koszul.include_right(X) * env_koszul.include_left(X)
    assert lhs == -env_koszul.from_tensor(X, X)


def test_mul_unit(env_mixed):
    rng = random.Random(0)
    for _ in range(10):
        e = _random_envelope(env_mixed, rng)
        assert env_mixed.one() * e == e
        assert e * env_mixed.one() == e


def test_mul_xi_divided(env_even):
    xi = env_even.xi(0)
    assert xi * env_even.xi_power(0, 2) == env_even.xi_power(0, 3).scale_int(3)
    assert env_even.xi_power(0, 2) == xi.divided_power(2)


def test_mul_associative_random(env_mixed):
    rng = random.Random(2)
    for _ in range(8):
        a, b, c = (_random_envelope(env_mixed, rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_graded_commutative_random(env_mixed):
    rng = random.Random(3)
    for _ in range(12):
        a, b = _random_envelope(env_mixed, rng, 3), _random_envelope(env_mixed, rng, 3)
        for da, pa in _split(a).items():
            for db, pb in _split(b).items():
                sign = -1 if (da * db) % 2 else 1
                assert pa * pb == (pb * pa).scale_int(sign)


def _split(e):
    out = {}
    for lex, r in e.sorted_terms():
        for h, rh in r.split_by_degree().items():
            d = e.env.ext_degree(lex) + h
            piece = e.env.from_tensor(e.env.ext_elem(lex), rh)
            out[d] = out.get(d, e.env.zero()) + piece
    return out


# --- differential ------------------------------------------------------------


def test_diff_of_tensor(koszul_xy, env_koszul):
    X, x = koszul_xy.gen("X1"), koszul_xy.from_poly(koszul_xy.base.var("x"))
    e = env_koszul.from_tensor(X, X)
    expect = env_koszul.from_tensor(x, X) - env_koszul.from_tensor(X, x)
    assert e.differential() == expect


def test_diff_xi_zero_when_target_in_base(env_koszul):
    assert env_koszul.xi(0).differential().is_zero()
    assert env_koszul.xi(1).differential().is_zero()


def test_diff_xi_of_even_variable(env_mixed, mixed_tower):
    x = mixed_tower.from_poly(mixed_tower.base.var("x"))
    y = mixed_tower.from_poly(mixed_tower.base.var("y"))
    d = env_mixed.xi(2).differential()
    expect = env_mixed.xi(0) * env_mixed.include_right(y) \
        - env_mixed.xi(1) * env_mixed.include_right(x)
    assert d == expect
    assert d.differential().is_zero()


def test_diff_squares_to_zero_random(env_mixed):
    rng = random.Random(4)
    for _ in range(15):
        e = _random_envelope(env_mixed, rng)
        assert e.differential().differential().is_zero()


def test_envelope_leibniz_random(env_mixed):
    rng = random.Random(14)
    for _ in range(12):
        a = _random_envelope(env_mixed, rng, 3)
        b = _random_envelope(env_mixed, rng, 3)
        for da, pa in _split(a).items():
            lhs = (pa * b).differential()
            rhs = pa.differential() * b + (pa * b.differential()).scale_int(
                -1 if da % 2 else 1
            )
            assert lhs == rhs


def test_to_omega_is_left_linear(env_mixed, mixed_tower):
    rng = random.Random(15)
    for _ in range(10):
        e = _random_envelope(env_mixed, rng, 3)
        exps = rng.choice(mixed_tower.gamma_monomials(3))
        b = mixed_tower.monomial(exps)
        lhs = (env_mixed.include_left(b) * e).to_omega().coords
        rhs = {}
        for mex, c in e.to_omega().coords.items():
            p = b * c
            if not p.is_zero():
                rhs[mex] = p
        assert lhs == rhs


# --- pi_B ---------------------------------------------------------------------


def test_pi_even_divided(env_even, even_tower):
    X = even_tower.gen("X")
    assert env_even.from_tensor(X, X).pi() == X.divided_power(2).scale_int(2)


def test_pi_kills_diagonals(env_mixed):
    for k in range(3):
        assert env_mixed.xi(k).pi().is_zero()


def test_pi_multiplicative_random(env_mixed):
    rng = random.Random(5)
    for _ in range(12):
        a, b = _random_envelope(env_mixed, rng, 3), _random_envelope(env_mixed, rng, 3)
        assert (a * b).pi() == a.pi() * b.pi()


def test_pi_chain_map_random(env_mixed):
    rng = random.Random(6)
    for _ in range(12):
        a = _random_envelope(env_mixed, rng)
        assert a.differential().pi() == a.pi().differential()


def test_pi_preserves_divided_powers(env_mixed):
    rng = random.Random(7)
    count = 0
    while count < 25:
        e = _random_envelope(env_mixed, rng, 3)
        parts = {d: p for d, p in _split(e).items() if d > 0 and d % 2 == 0}
        if not parts:
            continue
        d = sorted(parts)[0]
        u = parts[d]
        for i in (2, 3):
            assert u.divided_power(i).pi() == u.pi().divided_power(i)
        count += 1


# --- xi powers ----------------------------------------------------------------


def test_xi_power_formula(env_even, even_tower):
    X = even_tower.gen("X")
    expect = (
        env_even.include_left(X.divided_power(2))
        - env_even.from_tensor(X, X)
        + env_even.include_right(X.divided_power(2))
    )
    assert env_even.xi_power(0, 2) == expect
    assert env_even.xi_power(0, 0) == env_even.one()


def test_xi_square_odd(env_koszul):
    assert env_koszul.xi_power(0, 2).is_zero()
    xi = env_koszul.xi(0)
    assert (xi * xi).is_zero()


def test_xi_power_ordinary(QQ):
    ring = PolyRing(QQ, (), ())
    t = TowerAlgebra(ring, "ordinary").adjoin("X", 2, 1, None)
    env = EnvelopeAlgebra(t, 0)
    X = t.gen("X")
    m = 3
    expect = env.zero()
    for j in range(m + 1):
        sign = (-1) ** (m - j) * comb(m, j)
        expect = expect + env.from_tensor(X.power(j), X.power(m - j)).scale_int(sign)
    assert env.xi(0).power(m) == expect
    assert env.xi_power(0, m) == expect


# --- Omega coordinates -----------------------------------------------------------


def test_omega_of_right_generator(env_even, even_tower):
    X = even_tower.gen("X")
    coords = env_even.include_right(X).to_omega().coords
    assert coords == {(0,): X, (1,): -even_tower.one()}


def test_omega_of_right_divided_square(env_even, even_tower):
    X = even_tower.gen("X")
    coords = env_even.include_right(X.divided_power(2)).to_omega().coords
    assert coords == {(0,): X.divided_power(2), (1,): -X, (2,): even_tower.one()}


def test_omega_of_left_elements(env_mixed, mixed_tower):
    rng = random.Random(8)
    for _ in range(10):
        exps = rng.choice(mixed_tower.gamma_monomials(4))
        b = mixed_tower.monomial(exps)
        coords = env_mixed.include_left(b).to_omega().coords
        zero_key = (0,) * env_mixed.n_ext
        assert set(coords) == {zero_key}
        assert coords[zero_key] == b


def test_omega_round_trip_basis(env_mixed, mixed_tower):
    for lex in env_mixed.ext_monomials(6):
        e = env_mixed.include_right(mixed_tower.monomial((0, 0, 0)) * env_mixed.ext_elem(lex))
        assert e.to_omega().expand() == e


def test_omega_round_trip_random(env_mixed):
    rng = random.Random(9)
    for _ in range(15):
        e = _random_envelope(env_mixed, rng)
        assert e.to_omega().expand() == e


def test_right_coordinates_round_trip(env_mixed):
    rng = random.Random(10)
    for _ in range(15):
        e = _random_envelope(env_mixed, rng)
        back = env_mixed.zero()
        for oexps, c in e.right_coordinates().items():
            back = back + env_mixed.omega_monomial(oexps) * env_mixed.include_right(c)
        assert back == e


# --- filtration ------------------------------------------------------------------


def test_filtration_examples(env_koszul, env_even, even_tower):
    assert (env_koszul.xi(0) * env_koszul.xi(1)).filtration_level() == 2
    assert env_koszul.one().filtration_level() == 0
    X = even_tower.gen("X")
    e = env_even.xi(0) * env_even.include_right(X)
    coords = e.to_omega().coords
    assert coords == {(1,): X, (2,): -even_tower.one().scale_int(2)}
    assert e.filtration_level() == 1


def test_kernel_elements_have_positive_level(env_mixed):
    rng = random.Random(11)
    found = 0
    while found < 30:
        e = _random_envelope(env_mixed, rng)
        k = e - env_mixed.include_right(e.pi())
        if k.is_zero():
            continue
        assert k.pi().is_zero()
        assert k.filtration_level() >= 1
        found += 1


def test_level_superadditive(env_mixed):
    env = env_mixed
    monos = []
    for level in range(0, 4):
        monos += [env.omega_monomial(e) for e in env.omega_exponents(level, 5)]
    for a in monos:
        la = a.filtration_level()
        da = a.differential()
        if not da.is_zero():
            assert da.filtration_level() >= la
        for b in monos:
            p = a * b
            if p.is_zero():
                continue
            assert p.filtration_level() >= la + b.filtration_level()


def test_d_xi_lands_in_earlier_subenvelope(env_mixed):
    for i in range(env_mixed.n_ext):
        d = env_mixed.xi(i).differential()
        assert d.differential().is_zero()
        for oexps in d.to_omega().coords:
            assert all(m == 0 for m in oexps[i:])


def test_combinatorial_identity():
    for m in range(2, 13):
        s = sum((-1) ** (m - j) * comb(m, j) for j in range(1, m))
        assert s == -1 - (-1) ** m


# --- quotient modules ---------------------------------------------------------------


def test_quotient_bases_single_even_variable(env_even):
    win = BidegreeWindow(0, 10, 6)
    q1 = env_even.quotient_module(1, win)
    q2 = env_even.quotient_module(2, win)
    assert [b.name for b in q1.basis] == ["ξ_X"]
    assert [b.name for b in q2.basis] == ["ξ_X^(2)"]
    assert not q1.diff and not q2.diff


def test_quotient_level_zero_is_free_rank_one(env_even):
    q0 = env_even.quotient_module(0, BidegreeWindow(0, 4, 4))
    assert len(q0.basis) == 1 and q0.basis[0].degree == 0


def test_quotient_empty_window_returns_empty_module(env_even):
    q = env_even.quotient_module(3, BidegreeWindow(0, 2, 1))
    assert not q.basis and not q.diff


def test_quotient_inf_degree(env_mixed):
    for level in (1, 2, 3):
        q = env_mixed.quotient_module(level, BidegreeWindow(0, 10, 8))
        for b in q.basis:
            assert b.degree >= level


def test_quotient_basis_is_windowed_mon_level(env_mixed):
    win = BidegreeWindow(0, 6, 5)
    q = env_mixed.quotient_module(2, win)
    expect = []
    for exps in env_mixed.omega_exponents(2, win.wmax):
        h, w = env_mixed.ext_degree(exps), env_mixed.ext_weight(exps)
        if win.contains(h, w):
            expect.append((h, w))
    assert sorted((b.degree, b.weight) for b in q.basis) == sorted(expect)


def test_quotient_differential_consistency(env_mixed):
    # the induced differential of J^(l)/J^(l+1) agrees with the right-coordinate
    # expansion of d in the ideal module, reduced to level l
    win = BidegreeWindow(0, 10, 6)
    q = env_mixed.quotient_module(1, win)
    j = env_mixed.diagonal_ideal_module(6)
    jpos = {b.name: i for i, b in enumerate(j.basis)}
    qpos = {b.name: i for i, b in enumerate(q.basis)}
    for (a, b), entry in q.diff.items():
        ja, jb = jpos[q.basis[a].name], jpos[q.basis[b].name]
        assert j.diff.get((ja, jb)) == entry


def test_exactness_dimensions(env_mixed, mixed_tower):
    # dim J + dim B = dim B^e per windowed bidegree, J dims via kernel ranks
    field = mixed_tower.base.field
    for h in range(0, 5):
        for w in range(0, 5):
            labels = []
            for lex in env_mixed.ext_monomials(w):
                dl, wl = env_mixed.ext_degree(lex), env_mixed.ext_weight(lex)
                for exps, bex in mixed_tower.slice_basis(h - dl, w - wl):
                    labels.append((lex, exps, bex))
            dim_be = len(labels)
            dim_b = len(mixed_tower.slice_basis(h, w))
            rows = {}
            for col, (lex, exps, bex) in enumerate(labels):
                r = mixed_tower.monomial(exps, mixed_tower.base.monomial(bex))
                img = env_mixed.from_tensor(env_mixed.ext_elem(lex), r).pi()
                for key, scalar in img.coeffs.items():
                    rows.setdefault(key, {})[col] = scalar
            rank = matrix_rank(field, list(rows.values()))
            assert rank == dim_b
            assert (dim_be - rank) + dim_b == dim_be


def test_divided_powers_in_envelope_axioms(env_even):
    xi = env_even.xi(0)
    for i, j in ((1, 1), (1, 2), (2, 2)):
        assert xi.divided_power(i) * xi.divided_power(j) == \
            xi.divided_power(i + j).scale_int(comb(i + j, i))


def test_nontrivial_a_prefix(mixed_tower):
    # A = Q[x,y]<X1,X2>, B = A<Y>: one extension variable
    env = EnvelopeAlgebra(mixed_tower, 2)
    assert env.n_ext == 1
    xi = env.xi(0)
    assert xi.pi().is_zero()
    # A-coefficients slide through the tensor
    a = mixed_tower.gen("X1")
    left = env.include_left(a)
    right = env.include_right(a)
    assert left == right
    d = xi.differential()
    # dY = X1 y - X2 x lies in A, so both tensor legs agree and d(xi) = 0
    assert d.is_zero()
    q = env.quotient_module(1, BidegreeWindow(0, 8, 6))
    assert [b.name for b in q.basis] == ["ξ_Y"]
    q3 = env.quotient_module(3, BidegreeWindow(0, 8, 6))
    assert [b.name for b in q3.basis] == ["ξ_Y^(3)"]


def test_envelope_is_freed_without_the_cycle_collector(mixed_tower):
    # the envelope holds its towers and the images of its substitutions, and
    # none of them refers back to it
    gc.disable()
    try:
        env = EnvelopeAlgebra(mixed_tower, 1)
        q = env.quotient_module(1, BidegreeWindow(0, 4, 4))
        refs = [weakref.ref(env), weakref.ref(env.algebra)]
        assert env.xi(1).differential().to_omega().coords
        del env, q
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_towers_and_envelope_used_by_ext_and_lift_are_freed_without_the_cycle_collector(QQ):
    # ext_dims and naive_lift_check memoise the contraction of tower slices
    # onto their homology on the tower itself, in maps of scalars: no
    # module-level cache keeps a tower alive and nothing refers back to a
    # tower or the envelope, so all of them die with their last reference
    from dglift import ext_dims, make_semifree, naive_lift_check, tensor_bimodule

    gc.disable()
    try:
        base = TowerAlgebra(PolyRing(QQ, (), ()), "divided")
        tower = base.adjoin("X", 2, 1, None)
        env = EnvelopeAlgebra(tower, 0)
        n = make_semifree(tower, [("e", 0, 0), ("f", 3, 1)], {("e", "f"): tower.gen("X")})
        u = make_semifree(env.algebra, [("u", 0, 0), ("v", 3, 1)],
                          {("u", "v"): env.algebra.gen("X")})
        nq = tensor_bimodule(n, env.quotient_module(1, BidegreeWindow(0, 4, 2)))
        window = BidegreeWindow(0, 4, 1)
        tables = [ext_dims(n, n, (0, 3), window), ext_dims(n, nq, (0, 3), window),
                  ext_dims(u, u, (0, 3), window)]
        result = naive_lift_check(n)
        assert result.status == "OBSTRUCTED" and all(table.dims for table in tables)
        assert tower._memo["slice_contraction"] and env.algebra._memo["slice_contraction"]
        refs = [weakref.ref(x) for x in (base, tower, env, env.algebra)]
        del base, tower, env, n, u, nq, tables, result
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _quotient_data(q):
    return ([(b.name, b.degree, b.weight) for b in q.basis],
            {k: v.coeffs for k, v in q.diff.items()}, q.complete_hmax, q.complete_wmax)


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_a_second_envelope_reads_what_a_fresh_tower_computes(monkeypatch, flavor, p):
    # the diagonals and the quotients J^(l)/J^(l+1) are kept on the tower:
    # a second envelope of the tower reads them, and gets the variables and
    # the modules that the envelope of a fresh, equal tower computes
    from test_ext_e1 import acceptance_towers

    windows = [BidegreeWindow(0, 4, 4), BidegreeWindow(-1, 3, 2)]
    towers = acceptance_towers(flavor, p)
    for which, tower in enumerate(towers):
        for a_prefix in range(tower.n + 1):
            first = EnvelopeAlgebra(tower, a_prefix)
            built = [first.quotient_module(level, window) for level in (0, 1, 2)
                     for window in windows]
            fresh = EnvelopeAlgebra(acceptance_towers(flavor, p)[which], a_prefix)
            computed = [fresh.quotient_module(level, window) for level in (0, 1, 2)
                        for window in windows]
            calls = []
            real = EnvelopeAlgebra._quotient_terms
            monkeypatch.setattr(EnvelopeAlgebra, "_quotient_terms",
                                lambda self, *args: calls.append(args) or real(self, *args))
            second = EnvelopeAlgebra(tower, a_prefix)
            read = [second.quotient_module(level, window) for level in (0, 1, 2)
                    for window in windows]
            monkeypatch.undo()
            assert not calls
            assert second.algebra == first.algebra == fresh.algebra
            assert second.algebra.variables == fresh.algebra.variables
            for q, r, c in zip(built, read, computed):
                assert _quotient_data(r) == _quotient_data(c) == _quotient_data(q)
                assert r.tower is tower and c.tower is not tower
                b = tower.gen(tower.variables[0].name)
                for k, e in enumerate(r.basis):
                    assert r.left_action_fn(b, k) == {k: b.koszul(e.degree)}


def test_the_envelope_memo_holds_plain_data_only(mixed_tower):
    # no element, tower, envelope or module: only tuples, dicts, ints,
    # scalars and strings, so the memo keeps nothing alive but itself
    from fractions import Fraction

    for a_prefix in (0, 2):
        env = EnvelopeAlgebra(mixed_tower, a_prefix)
        for level in (0, 1, 2):
            assert env.quotient_module(level, BidegreeWindow(0, 6, 5)).basis
    memo = mixed_tower.envelope_memo()
    assert {key[0] for key in memo} == {"xi", "quotient"}
    seen, todo = set(), [memo]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert type(obj) in (tuple, dict, int, Fraction, str), type(obj)
        if type(obj) is not Fraction:  # its referents are two ints and its class
            todo.extend(gc.get_referents(obj))
    assert len(seen) > 100
