import gc
import random
from fractions import Fraction

import pytest

from dglift import (Field, Infeasible, LinearSolution, LinearSystem, PolyRing, TowerAlgebra,
                    solve_linear)
from dglift.base_ring import matrix_rank, nullspace_basis


def test_binomial_identity(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_exact_rationals(QQ):
    assert QQ.add(QQ.of(1, 2), QQ.of(1, 3)) == Fraction(5, 6)


def test_modular_product(F5):
    assert F5.mul(F5.of(3), F5.of(4)) == 2


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        Field(6)


def test_graded_components(ring_xy, QQ):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    p = x * x + x * y + x
    assert p.graded_component(2) == x * x + x * y
    assert ring_xy.constant(QQ.of(7)).graded_component(0) == ring_xy.constant(QQ.of(7))
    assert (x * x).graded_component(3).is_zero()


def test_graded_partition(ring_xy):
    rng = random.Random(11)
    for _ in range(20):
        p = ring_xy.zero()
        for _ in range(5):
            exps = (rng.randrange(4), rng.randrange(4))
            p = p + ring_xy.monomial(exps, ring_xy.field.of(rng.randrange(-3, 4)))
        total = ring_xy.zero()
        for w in sorted(p.weights()):
            total = total + p.graded_component(w)
        assert total == p


def test_ring_laws_random():
    rng = random.Random(7)
    field = Field()
    ring = PolyRing(field, tuple(f"x{i}" for i in range(8)), (1,) * 8)

    def rand_poly():
        p = ring.zero()
        for _ in range(rng.randrange(1, 5)):
            exps = [0] * 8
            for _ in range(rng.randrange(7)):  # degree <= 6
                exps[rng.randrange(8)] += 1
            p = p + ring.monomial(tuple(exps), field.of(rng.randrange(-5, 6)))
        return p

    for _ in range(25):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def _system(field, rows, rhs, ncols):
    srows = [{j: field.of(v) for j, v in enumerate(r) if v} for r in rows]
    return LinearSystem(field, srows, [field.of(b) for b in rhs], ncols)


def test_solve_unique(QQ):
    sys = _system(QQ, [[1, 1], [0, 1]], [2, 1], 2)
    res = solve_linear(sys)
    assert isinstance(res, LinearSolution)
    assert res.solution == [QQ.of(1), QQ.of(1)]
    assert nullspace_basis(QQ, sys.rows, sys.ncols) == []


def test_solve_infeasible_witness(QQ):
    sys = _system(QQ, [[0]], [1], 1)
    res = solve_linear(sys)
    assert isinstance(res, Infeasible)
    assert res.verify(sys)


def test_nullspace_of_row(QQ):
    null = nullspace_basis(QQ, [{0: QQ.of(1), 1: QQ.of(1)}], 2)
    assert len(null) == 1
    v = null[0]
    assert QQ.add(v.get(0, QQ.zero()), v.get(1, QQ.zero())) == QQ.zero()
    assert any(v.values())


@pytest.mark.parametrize("p", [None, 5])
def test_solution_reverifies(p):
    field = Field(p)
    rng = random.Random(3 if p else 4)
    for _ in range(20):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [
            {j: field.of(rng.randrange(-3, 4)) for j in range(nc) if rng.random() < 0.6}
            for _ in range(nr)
        ]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        x = [field.of(rng.randrange(-3, 4)) for _ in range(nc)]
        rhs = []
        for r in rows:
            acc = field.zero()
            for j, v in r.items():
                acc = field.add(acc, field.mul(v, x[j]))
            rhs.append(acc)
        sys = LinearSystem(field, rows, rhs, nc)
        res = solve_linear(sys)
        assert isinstance(res, LinearSolution)
        for r, b in zip(rows, rhs):
            acc = field.zero()
            for j, v in r.items():
                acc = field.add(acc, field.mul(v, res.solution[j]))
            assert acc == b
        for vec in nullspace_basis(field, rows, nc):
            for r in rows:
                acc = field.zero()
                for j, v in r.items():
                    acc = field.add(acc, field.mul(v, vec.get(j, field.zero())))
                assert acc == field.zero()


def test_deterministic_elimination(QQ):
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    a = solve_linear(_system(QQ, rows, [1, 0, 1], 3))
    b = solve_linear(_system(QQ, rows, [1, 0, 1], 3))
    na = nullspace_basis(QQ, _system(QQ, rows, [0, 0, 0], 3).rows, 3)
    nb = nullspace_basis(QQ, _system(QQ, rows, [0, 0, 0], 3).rows, 3)
    assert a.solution == b.solution
    assert [list(v.items()) for v in na] == [list(v.items()) for v in nb]


def _exact(x) -> bool:
    return type(x) in (int, Fraction)


def test_rational_scalars_stay_fractions():
    # a non-integral Q scalar is a Fraction; Fraction(1, 2) == 0.5, so the
    # types are checked, not just the values
    q = Field()
    assert q.inv(2) == Fraction(1, 2) and type(q.inv(2)) is Fraction
    assert q.div(1, 3) == Fraction(1, 3) and type(q.div(1, 3)) is Fraction
    res = solve_linear(LinearSystem(q, [{0: 2}], [1], 1))
    assert res.solution == [Fraction(1, 2)]
    assert all(type(x) is Fraction for x in res.solution)
    null = nullspace_basis(q, [{0: 2, 1: 1}], 2)
    assert null == [{0: Fraction(-1, 2), 1: Fraction(1)}]
    assert type(null[0][0]) is Fraction


def test_rational_scalars_are_ints_or_fractions_never_floats():
    q = Field()
    # an integral scalar is an int, also when a quotient makes it
    assert [type(x) for x in (q.of(3), q.zero(), q.one(), q.of(4, 2), q.inv(-1),
                              q.inv(Fraction(1, 3)), q.div(6, 3))] == [int] * 7
    assert (q.of(4, 2), q.inv(-1), q.inv(Fraction(1, 3)), q.div(6, 3)) == (2, -1, 3, 2)
    null = nullspace_basis(q, [{0: 2, 1: 1}], 2)
    assert type(null[0][1]) is int
    assert all(_exact(x) for v in null for x in v.values())
    res = solve_linear(LinearSystem(q, [{0: 2, 1: 1}, {1: 3}], [1, 6], 2))
    assert res.solution == [Fraction(-1, 2), 2]
    assert all(_exact(x) for x in res.solution)


def test_integer_elements_of_a_divided_tower_keep_int_scalars():
    # products, differentials and divided powers of elements with integer
    # coefficients make no Fraction and no float over Q
    ring = PolyRing(Field(), ("x", "y"), (1, 1))
    t = TowerAlgebra(ring, "divided")
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    t = t.adjoin("X2", 1, 1, t.gen("y"))
    t = t.adjoin("Y", 2, 2, t.gen("X1") * t.gen("y") - t.gen("X2") * t.gen("x"))
    t = t.adjoin("Z", 2, 1)
    g = t.gen
    pool = [g("x") - g("y").scale_int(2), g("X1") * g("y").scale_int(3) + g("X2"),
            g("Y").scale_int(-2) + g("Z") * g("Z") * g("x"), g("Z").scale_int(5) + g("X1") * g("X2"),
            g("Y") * g("Z") - g("X1") * g("X2") * g("x").scale_int(4)]
    walked = []
    for u in pool:
        walked.append(u.differential())
        if u.degree() and u.degree() % 2 == 0:
            walked += [u.divided_power(m) for m in (2, 3, 4)]
            walked.append(u.divided_power(3).differential())
        for v in pool:
            walked += [u * v, (u * v).differential()]
    scalars = [s for u in pool + walked for poly in u.terms.values() for s in poly.terms.values()]
    assert len(scalars) > 100
    assert all(type(s) is int for s in scalars), {type(s) for s in scalars}


def test_rank(QQ):
    rows = [{0: QQ.of(1), 1: QQ.of(2)}, {0: QQ.of(2), 1: QQ.of(4)}]
    assert matrix_rank(QQ, rows) == 1


def test_monomials_of_weight_leave_nothing_for_the_cycle_collector(QQ):
    # a recursive closure per call would be a reference cycle holding the
    # ring and the result until the cycle collector runs
    ring = PolyRing(QQ, ("a", "b", "c", "d"), (1, 1, 2, 1))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert len(ring.monomials_of_weight(3)) == 13
        assert gc.collect() == 0
    finally:
        gc.enable()
