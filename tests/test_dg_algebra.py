import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from dglift import (
    DGVariable,
    Field,
    PolyRing,
    TowerAlgebra,
    TowerError,
    check_axioms,
)

from oracle import leibniz_differential


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
