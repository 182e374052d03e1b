"""The ordinary (polynomial-extension) lane: the envelope, filtration, and
splitting machinery must work with ordinary powers exactly as with divided
ones, and the two flavors must agree over Q after rescaling by factorials."""

import pytest

from dglift import (
    BidegreeWindow,
    EnvelopeAlgebra,
    Field,
    PolyRing,
    TowerAlgebra,
    ext_dims,
    make_semifree,
    naive_lift_check,
    tensor_bimodule,
)


@pytest.fixture
def ordinary_mixed(QQ):
    ring = PolyRing(QQ, ("x", "y"), (1, 1))
    t = TowerAlgebra(ring, "ordinary")
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    t = t.adjoin("X2", 1, 1, t.gen("y"))
    z = t.gen("X1") * t.gen("y") - t.gen("X2") * t.gen("x")
    return t.adjoin("Y", 2, 2, z)


@pytest.fixture
def ordinary_even(QQ):
    ring = PolyRing(QQ, (), ())
    return TowerAlgebra(ring, "ordinary").adjoin("Y", 2, 1, None)


def test_ordinary_xi_diff(ordinary_mixed):
    env = EnvelopeAlgebra(ordinary_mixed, 0)
    x = ordinary_mixed.from_poly(ordinary_mixed.base.var("x"))
    y = ordinary_mixed.from_poly(ordinary_mixed.base.var("y"))
    d = env.xi(2).differential()
    assert d == env.xi(0) * env.include_right(y) - env.xi(1) * env.include_right(x)


def test_ordinary_omega_round_trip(ordinary_mixed):
    env = EnvelopeAlgebra(ordinary_mixed, 0)
    for lex in env.ext_monomials(8):
        e = env.from_tensor(env.ext_elem(lex), ordinary_mixed.one())
        assert e.to_omega().expand() == e
        back = env.zero()
        for oexps, c in e.right_coordinates().items():
            back = back + env.omega_monomial(oexps) * env.include_right(c)
        assert back == e


def test_ordinary_xi_products_have_no_binomials(ordinary_even):
    env = EnvelopeAlgebra(ordinary_even, 0)
    xi = env.xi(0)
    assert xi * env.xi_power(0, 2) == env.xi_power(0, 3)
    assert env.xi_power(0, 2) == xi.power(2)


def test_flavor_rescaling_over_Q(QQ, even_tower, ordinary_even):
    # under X^(k) = X^k/k!, the ordinary xi^m equals m!·xi^(m): the scalar on
    # the (j, m-j) split is (-1)^{m-j} binom(m, j) vs (-1)^{m-j}
    from math import comb

    env_d = EnvelopeAlgebra(even_tower, 0)
    env_o = EnvelopeAlgebra(ordinary_even, 0)
    for m in (2, 3, 4):
        div = dict(env_d.xi_power(0, m).sorted_terms())
        ordv = dict(env_o.xi_power(0, m).sorted_terms())
        assert sorted(div) == sorted(ordv)

        def only_scalar(elem):
            ((_, scalar),) = elem.coeffs.items()
            return scalar

        for lex in div:
            j = lex[0]
            assert only_scalar(ordv[lex]) == only_scalar(div[lex]) * comb(m, j)


def test_ordinary_quotient_modules(ordinary_mixed):
    env = EnvelopeAlgebra(ordinary_mixed, 0)
    win = BidegreeWindow(0, 8, 6)
    q1 = env.quotient_module(1, win)
    assert sorted(b.name for b in q1.basis) == ["ξ_X1", "ξ_X2", "ξ_Y"]
    # d(xi_Y) = xi_X1 y - xi_X2 x survives in J/J^(2)
    pos = {b.name: i for i, b in enumerate(q1.basis)}
    y = ordinary_mixed.from_poly(ordinary_mixed.base.var("y"))
    x = ordinary_mixed.from_poly(ordinary_mixed.base.var("x"))
    assert q1.diff[(pos["ξ_X1"], pos["ξ_Y"])] == y
    assert q1.diff[(pos["ξ_X2"], pos["ξ_Y"])] == -x
    q2 = env.quotient_module(2, win)
    assert all(b.degree >= 2 for b in q2.basis)


def test_ordinary_negative_control(ordinary_even):
    n = make_semifree(ordinary_even, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): ordinary_even.gen("Y")})
    res = naive_lift_check(n)
    assert res.status == "OBSTRUCTED"
    env = EnvelopeAlgebra(ordinary_even, 0)
    j = env.diagonal_ideal_module(6)
    nj = tensor_bimodule(n, j, BidegreeWindow(0, 9, 5))
    assert ext_dims(n, nj, (1, 1), BidegreeWindow(0, 3, 1)).total(1) >= 1


def test_ordinary_split_case(ordinary_mixed):
    n = make_semifree(ordinary_mixed, [("e", 0, 0), ("f", 2, 2)],
                      {("e", "f"): ordinary_mixed.variable_diff(2)})
    res = naive_lift_check(n)
    assert res.split
    assert res.rho.is_chain_map()


def test_f5_negative_control():
    field = Field(5)
    ring = PolyRing(field, (), ())
    tower = TowerAlgebra(ring, "divided").adjoin("X", 2, 1, None)
    n = make_semifree(tower, [("e", 0, 0), ("f", 3, 1)],
                      {("e", "f"): tower.gen("X")})
    res = naive_lift_check(n)
    assert res.status == "OBSTRUCTED"
    from dglift import Infeasible, build_split_system

    system, *_ = build_split_system(n)
    assert Infeasible(combo=res.witness.combo, value=res.witness.value).verify(system)


def test_f5_split_and_ext():
    field = Field(5)
    ring = PolyRing(field, ("x", "y"), (1, 1))
    t = TowerAlgebra(ring, "divided")
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    t = t.adjoin("X2", 1, 1, t.gen("y"))
    n = make_semifree(t, [("e", 0, 0), ("g", 1, 1), ("h", 2, 1)],
                      {("g", "h"): t.one()})
    win = BidegreeWindow(0, 4, 5)
    table = ext_dims(n, n, (1, 3), win)
    assert all(table.total(i) == 0 for i in (1, 2, 3))
    res = naive_lift_check(n)
    assert res.split


def test_f5_omega_round_trip():
    field = Field(5)
    ring = PolyRing(field, ("x",), (1,))
    t = TowerAlgebra(ring, "divided")
    t = t.adjoin("X", 1, 1, t.gen("x"))
    t = t.adjoin("Y", 2, 1, None)
    env = EnvelopeAlgebra(t, 0)
    for lex in env.ext_monomials(7):
        e = env.from_tensor(env.ext_elem(lex), t.one())
        assert e.to_omega().expand() == e
    # binomial collapse mod 5: xi xi^(4) = 5 xi^(5) = 0
    assert (env.xi(1) * env.xi_power(1, 4)).is_zero()
