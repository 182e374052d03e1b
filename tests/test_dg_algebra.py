import operator
import random
from functools import reduce
from math import comb, factorial

import pytest
from hypothesis import Phase, given, settings, strategies as st

from dglift import (
    DGVariable,
    EnvelopeAlgebra,
    Field,
    PolyRing,
    TowerAlgebra,
    TowerError,
    check_axioms,
    make_semifree,
)

from dglift.base_ring import remainder
from oracle import leibniz_differential, symbol_product


def test_divided_product_rule(even_tower):
    X = even_tower.gen("X")
    assert X.divided_power(2) * X.divided_power(3) == X.divided_power(5).scale_int(10)
    assert X.divided_power(2) * X.divided_power(2) == X.divided_power(4).scale_int(6)


def test_odd_anticommute(koszul_xy):
    x1, x2 = koszul_xy.gen("X1"), koszul_xy.gen("X2")
    assert x2 * x1 == -(x1 * x2)
    assert (x1 * x1).is_zero()


def test_koszul_differential(QQ):
    ring = PolyRing(QQ, ("x",), (1,))
    t = TowerAlgebra(ring, "divided").adjoin("X", 1, 1, TowerAlgebra(ring, "divided").gen("x"))
    X, x = t.gen("X"), t.from_poly(ring.var("x"))
    b = t.from_poly(ring.var("x"))  # any coefficient
    # d(X b) = x b - X d(b); base coefficients are cycles
    assert (X * b).differential() == x * b
    assert t.one().differential().is_zero()


def test_divided_power_differential(mixed_tower):
    Y = mixed_tower.gen("Y")
    z = mixed_tower.variable_diff(2)
    assert Y.divided_power(2).differential() == Y * z
    assert Y.divided_power(3).differential() == Y.divided_power(2) * z


def test_divided_power_sum_rule(mixed_tower, even_tower):
    X = even_tower.gen("X")
    # need two distinct even generators: use a second even variable
    t = even_tower.adjoin("Z", 2, 1, None)
    X, Z = t.gen("X"), t.gen("Z")
    lhs = (X + Z).divided_power(2)
    assert lhs == X.divided_power(2) + X * Z + Z.divided_power(2)


def test_divided_power_unit_and_scalar(mixed_tower):
    Y = mixed_tower.gen("Y")
    u = Y + Y.scale_int(2)  # 3Y
    assert u.divided_power(1) == u
    assert u.divided_power(0) == mixed_tower.one()
    x = mixed_tower.from_poly(mixed_tower.base.var("x"))
    # (x Y)^(2) = x^2 Y^(2): degree-0 even coefficient
    assert (x * Y).divided_power(2) == x * x * Y.divided_power(2)


def test_divided_power_composition(even_tower):
    X = even_tower.gen("X")
    c = factorial(6) // (factorial(3) * factorial(2) ** 3)
    assert X.divided_power(2).divided_power(3) == X.divided_power(6).scale_int(c)


def test_adjoin_koszul(QQ):
    ring = PolyRing(QQ, ("x",), (1,))
    t0 = TowerAlgebra(ring, "divided")
    t1 = t0.adjoin("X", 1, 1, t0.gen("x"))
    assert t1.n == 1 and t1.variables[0].degree == 1


def test_adjoin_rejects_non_cycle(QQ):
    ring = PolyRing(QQ, ("x",), (1,))
    t0 = TowerAlgebra(ring, "divided")
    t1 = t0.adjoin("X", 1, 1, t0.gen("x"))
    with pytest.raises(TowerError, match="not a cycle"):
        t1.adjoin("Y", 2, 1, t1.gen("X"))


def test_adjoin_rejects_degree_disorder(koszul_xy):
    z = koszul_xy.gen("X1") * koszul_xy.gen("y") - koszul_xy.gen("X2") * koszul_xy.gen("x")
    t = koszul_xy.adjoin("Y", 2, 2, z)
    with pytest.raises(TowerError, match="weakly increasing"):
        t.adjoin("W", 1, 1, t.from_poly(t.base.var("x")))


def test_adjoin_rejects_bidegree_mismatch(koszul_xy):
    z = koszul_xy.gen("X1") * koszul_xy.gen("y") - koszul_xy.gen("X2") * koszul_xy.gen("x")
    with pytest.raises(TowerError, match="degree"):
        koszul_xy.adjoin("Y", 3, 2, z)
    with pytest.raises(TowerError, match="weight"):
        koszul_xy.adjoin("Y", 2, 3, z)


def test_embedding_of_prefix(mixed_tower, koszul_xy):
    u = koszul_xy.gen("X1") * koszul_xy.gen("x")
    v = mixed_tower.embed(u)
    assert v.degree() == 1 and v.weight() == 2


def test_leibniz_exhaustive(mixed_tower):
    monos = [mixed_tower.monomial(e) for e in mixed_tower.gamma_monomials(6, 8)]
    for u in monos:
        assert u.differential().differential().is_zero()
        du = u.degree()
        for v in monos:
            lhs = (u * v).differential()
            rhs = u.differential() * v + (u * v.differential()).scale_int(
                -1 if du % 2 else 1
            )
            assert lhs == rhs
            dv = v.degree()
            assert u * v == (v * u).scale_int(-1 if (du * dv) % 2 else 1)


def test_weight_homogeneity(mixed_tower):
    rng = random.Random(5)
    base = mixed_tower.base
    for _ in range(30):
        exps = rng.choice(mixed_tower.gamma_monomials(5, 6))
        bex = rng.choice(base.monomials_of_weight(rng.randrange(3)))
        u = mixed_tower.monomial(exps, base.monomial(bex))
        h, w = mixed_tower.term_bidegree(exps, bex)
        assert u.weight() == w
        du = u.differential()
        if not du.is_zero():
            assert du.weight() == w and du.degree() == h - 1


def test_ordinary_vs_divided_over_Q(QQ):
    ring = PolyRing(QQ, ("x",), (1,))
    t = TowerAlgebra(ring, "ordinary").adjoin("X", 1, 1, TowerAlgebra(ring, "ordinary").gen("x"))
    t = t.adjoin("Y", 2, 1, None)
    Y = t.gen("Y")
    for m in (2, 3, 4):
        assert Y.divided_power(m).scale_int(factorial(m)) == Y.power(m)
    assert Y.power(3).differential().is_zero()


def test_ordinary_divided_power_needs_rationals(F5):
    ring = PolyRing(F5, ("x",), (1,))
    t = TowerAlgebra(ring, "ordinary").adjoin("Y", 2, 1, None)
    with pytest.raises(TowerError, match="rational"):
        t.gen("Y").divided_power(2)


def test_divided_flavor_over_F5(F5):
    ring = PolyRing(F5, ("x",), (1,))
    t = TowerAlgebra(ring, "divided").adjoin("Y", 2, 1, None)
    Y = t.gen("Y")
    # binomial coefficients reduce mod 5: Y^(1) Y^(4) = 5 Y^(5) = 0
    assert (Y * Y.divided_power(4)).is_zero()
    assert Y.divided_power(2) * Y.divided_power(3) == Y.divided_power(5).scale_int(comb(5, 2))


def test_check_axioms_pass(mixed_tower):
    report = check_axioms(mixed_tower, 200, weight_bound=5, seed=3)
    assert report.ok
    assert {"d_squared_zero", "leibniz", "graded_commutativity"} <= {l.law for l in report.laws}


def test_check_axioms_detects_corruption(koszul_xy, ring_xy):
    bad_target = tuple(sorted((koszul_xy.gen("X1") * koszul_xy.gen("x")).terms.items()))
    bad = TowerAlgebra(
        ring_xy, "divided",
        koszul_xy.variables + (DGVariable("W", 2, 2, bad_target),),
    )
    report = check_axioms(bad, 100, weight_bound=4, seed=3)
    assert not report.ok
    failed = {l.law for l in report.laws if not l.passed}
    assert "d_squared_zero" in failed
    witness = next(l.witness for l in report.laws if not l.passed)
    assert witness
    # the whole report, witness text included; a law stops at its first failure
    passing = [("leibniz", 93), ("graded_commutativity", 93), ("odd_squares_vanish", 29),
               ("differential_preserves_weight", 67), ("dp_zeroth_and_first", 11),
               ("dp_product_rule", 36), ("dp_sum_rule", 10), ("dp_scalar_rule", 24),
               ("dp_composition_rule", 15), ("dp_differential", 24)]
    assert report.to_dict() == {
        "laws": [{"law": "d_squared_zero", "cases": 16, "passed": False,
                  "witness": "d(d((1)*W)) = (1*x^2)"}]
        + [{"law": law, "cases": cases, "passed": True} for law, cases in passing],
        "passed": False,
        "seed": 3,
        "weight_bound": 4,
    }


def test_check_axioms_seed_reproducible(mixed_tower):
    a = check_axioms(mixed_tower, 100, weight_bound=4, seed=9)
    b = check_axioms(mixed_tower, 100, weight_bound=4, seed=9)
    assert a.to_dict() == b.to_dict()


def _oracle_towers(flavor, p):
    """The acceptance tower Q[x,y]<X1,X2,Y> (dY = X1 y - X2 x) and the Tate
    tower of (x^2, xy) to degree 3, in the given flavor over Q or F_p."""
    ring = PolyRing(Field(p), ("x", "y"), (1, 1))
    x, y = ring.var("x"), ring.var("y")
    towers = []
    for dx1, dx2, wt, last in ((x, y, 1, ("Y", 2, 2)), (x * x, x * y, 2, ("X3", 2, 3))):
        t = TowerAlgebra(ring, flavor)
        t = t.adjoin("X1", 1, wt, t.from_poly(dx1))
        t = t.adjoin("X2", 1, wt, t.from_poly(dx2))
        g = t.gen
        towers.append(t.adjoin(*last, g("X1") * g("y") - g("X2") * g("x")))
    g = towers[1].gen
    towers[1] = towers[1].adjoin("X4", 3, 4, g("X3") * g("x") + g("X1") * g("X2"))
    return towers


@pytest.fixture(scope="module")
def warmed():
    """The same towers, per (flavor, p), after check_axioms has filled their memos."""
    out = {}
    for flavor in ("divided", "ordinary"):
        for p in (None, 5):
            out[(flavor, p)] = _oracle_towers(flavor, p)
            for tower in out[(flavor, p)]:
                check_axioms(tower, 40, weight_bound=5, seed=1)
    return out


def _element(tower, terms):
    field, base = tower.base.field, tower.base
    monos = tower.gamma_monomials(6, 8)
    out = tower.zero()
    for i, bw, bi, c in terms:
        bases = base.monomials_of_weight(bw)
        mono = base.monomial(bases[bi % len(bases)], field.of(c))
        out = out + tower.monomial(monos[i % len(monos)], mono)
    return out


TERMS = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 2), st.integers(0, 5),
                           st.sampled_from((-3, -2, -1, 1, 2, 3))), min_size=1, max_size=4)


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 1), terms=TERMS)
def test_differential_matches_leibniz_oracle(warmed, flavor, p, which, terms):
    # on a fresh tower, then on one whose memo check_axioms has warmed: a
    # caller that mutates a memoised differential or basis shows up there
    fresh = _element(_oracle_towers(flavor, p)[which], terms)
    assert fresh.differential() == leibniz_differential(fresh)
    warm = _element(warmed[(flavor, p)][which], terms)
    assert warm.differential() == leibniz_differential(warm) == fresh.differential()


def _assert_sparse(terms: dict):
    """No value of a sparse map is zero, at any depth: ring elements hold
    nonzero ring elements, base polynomials nonzero scalars."""
    for value in terms.values():
        if hasattr(value, "terms"):
            assert value.terms, terms
            _assert_sparse(value.terms)
        else:
            assert value, terms


@pytest.mark.parametrize("p", [None, 5])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(a=TERMS, b=TERMS, a_prefix=st.integers(0, 1))
def test_sums_products_and_differentials_hold_no_zero(p, a, b, a_prefix):
    # sums of ring elements go through add_term, which drops a key whose sum
    # is zero; the cases force cancellations
    tower = _oracle_towers("divided", p)[0]
    u, v = _element(tower, a), _element(tower, b)
    odd = tower.zero()
    for h, part in u.split_by_degree().items():
        if h % 2:
            odd = odd + part
    five = reduce(operator.add, [u] * 5)
    assert five.is_zero() == (p == 5 or u.is_zero())
    elems = [u + (-u), five, odd * odd, u * v, v * u + u * v, (u * v).differential(),
             u.differential() + v.differential()]
    assert elems[0].is_zero() and elems[2].is_zero()

    env = EnvelopeAlgebra(tower, a_prefix)
    xi = env.xi(0)  # X1 or X2, both odd
    e = env.from_tensor(u, v) + env.include_right(v) + xi
    envs = [e + (-e), e * e, e * xi + xi * e, xi * xi, e.differential(),
            env.from_tensor(odd, odd), reduce(operator.add, [e] * 5)]
    assert envs[0].is_zero() and envs[3].is_zero()
    assert envs[6].is_zero() == (p == 5 or e.is_zero())

    m = make_semifree(tower, [("a", 0, 0), ("b", 1, 1)], {("a", "b"): tower.gen("x")})
    x = {i: c for i, c in enumerate((u, v)) if not c.is_zero()}
    mods = [m.add_elem(x, m.neg_elem(x)), reduce(m.add_elem, [x] * 5),
            m.mul_elem({0: odd, 1: u}, odd), m.apply_diff(x), m.apply_diff(m.apply_diff(x))]
    assert not mods[0] and not mods[4] and (not mods[1]) == (p == 5 or not x)
    for elem in elems:
        _assert_sparse(elem.terms)
    for elem in envs:
        _assert_sparse(dict(elem.sorted_terms()))
    for elem in mods:
        _assert_sparse(elem)


def _chain(flavor, p, which, z):
    """Every tower of an adjoin chain, root first: one of the two oracle
    towers, then, when `z` is "even" or "odd", a weight-1 variable Z with
    dZ = 0 of the lowest such degree the chain allows (the Z of the lift
    workload is even)."""
    tower = _oracle_towers(flavor, p)[which]
    chain = [tower]
    while chain[-1].variables:
        chain.append(chain[-1]._parent)
    chain.reverse()
    if z:
        top = tower.variables[-1].degree
        degree = top + (top % 2 != (z == "odd"))
        chain.append(tower.adjoin("Z", degree, 1))
    return chain


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5])
@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("z", [None, "even", "odd"])
# without the explain phase, which re-runs a failing case many times over, a
# broken inheritance is reported in about a second per case instead of 25 s
@settings(max_examples=2, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(seed=st.integers(0, 2**32 - 1))
def test_adjoined_towers_inherit_what_a_fresh_tower_computes(flavor, p, which, z, seed):
    # a tower built by adjoin reads its parent's memos; the same tower built
    # by the constructor has none and computes everything itself.  Queries
    # come in a random order, so a child is often asked before its parent.
    chain = _chain(flavor, p, which, z)
    assert z is None or chain[-1].variables[-1].target is None
    fresh = [TowerAlgebra(t.base, t.flavor, t.variables) for t in chain]
    queries = [(kind, k, h, w) for kind in ("basis", "rank", "diff", "echelon")
               for k in range(len(chain)) for h in range(5) for w in range(6)]
    random.Random(seed).shuffle(queries)
    field = chain[0].base.field
    for kind, k, h, w in queries:
        tower, ref = chain[k], fresh[k]
        if kind == "basis":
            assert tower.slice_basis(h, w) == ref.slice_basis(h, w)
        elif kind == "rank":
            assert tower.slice_rank(h, w) == ref.slice_rank(h, w)
        elif kind == "diff":
            for exps, _ in ref.slice_basis(h, w):
                assert tower.monomial_diff(exps).terms == ref.monomial_diff(exps).terms
        else:
            echelon = tower.slice_echelon(h, w)
            assert len(echelon) == ref.slice_rank(h, w)[1]
            assert not any(remainder(field, echelon, col) for col in ref.slice_images(h, w))


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 1), z=st.sampled_from((None, "even", "odd")),
       a=TERMS, b=TERMS)
def test_products_match_the_symbol_oracle(flavor, p, which, z, a, b):
    # every tower of an adjoin chain, the mixed tower Q[x,y]<X1,X2,Y> among
    # them, and each product twice, so that a memoised product is read back
    for tower in _chain(flavor, p, which, z):
        u, v = _element(tower, a), _element(tower, b)
        for left, right in ((u, v), (v, u), (u, u), (u, v)):
            assert (left * right).coordinates() == symbol_product(left, right)
