"""Closed-form identities of the envelope calculus, checked literally, plus
error-path coverage for the validated constructors."""

import pytest

from dglift import (
    BidegreeWindow,
    EnvelopeAlgebra,
    EnvelopeError,
    Field,
    PolyRing,
    TowerAlgebra,
    TowerError,
    base_change,
    ext_dims,
    free_module,
    make_semifree,
    naive_lift_check,
    parse_session,
    ParseError,
)
from dglift.homological import HomologicalError


def test_xi_multiplication_raises_exponent_with_prefix_sign(mixed_tower):
    """xi_i · xi^(m) picks up (m_i + 1) and the Koszul sign over the prefix."""
    env = EnvelopeAlgebra(mixed_tower, 0)
    degs = [env.ext_var(k).degree for k in range(env.n_ext)]
    for exps in env.omega_exponents(2, 5) + env.omega_exponents(3, 6):
        mono = env.omega_monomial(exps)
        for i in range(env.n_ext):
            if env.ext_var(i).is_odd and exps[i]:
                assert (env.xi(i) * mono).is_zero()
                continue
            raised = list(exps)
            raised[i] += 1
            prefix = sum(exps[j] * degs[j] for j in range(i))
            sign = -1 if (degs[i] * prefix) % 2 else 1
            expect = env.omega_monomial(tuple(raised)).scale_int(sign * (exps[i] + 1))
            assert env.xi(i) * mono == expect


def test_left_right_congruence_modulo_j(even_tower, mixed_tower):
    """(X^(m))^o (x) 1 and 1^o (x) X^(m) agree modulo the diagonal ideal."""
    for tower in (even_tower, mixed_tower):
        env = EnvelopeAlgebra(tower, 0)
        for lex in env.ext_monomials(6):
            if not any(lex):
                continue
            b = env.ext_elem(lex)
            diff = env.include_left(b) - env.include_right(b)
            if diff.is_zero():
                continue
            assert diff.pi().is_zero()
            assert diff.filtration_level() >= 1


def test_pi_n_is_pi_b_for_the_free_module(even_tower):
    """Under (u·g) (x) b <-> g^o (x) b the epimorphism pi_N becomes pi_B."""
    env = EnvelopeAlgebra(even_tower, 0)
    n = free_module(even_tower, "u")
    p, pi = base_change(n, BidegreeWindow(0, 8, 4), 0)
    for idx, b in enumerate(p.basis):
        for exps, bex in even_tower.slice_basis(2, 1):
            c = even_tower.monomial(exps, even_tower.base.monomial(bex))
            img = pi.apply(p.mul_elem(p.basis_elem(idx), c))
            # reconstruct the corresponding envelope element g^o (x) c
            gex = None
            for lex in env.ext_monomials(b.weight):
                if env.ext_degree(lex) == b.degree and env.ext_weight(lex) == b.weight:
                    gex = lex
                    break
            assert gex is not None
            via_pi_b = env.from_tensor(env.ext_elem(gex), c).pi()
            assert n.elem_eq(img, {0: via_pi_b})


def test_xi_power_index_range(even_tower):
    env = EnvelopeAlgebra(even_tower, 0)
    with pytest.raises(EnvelopeError, match="out of range"):
        env.xi_power(1, 1)
    with pytest.raises(EnvelopeError, match="negative"):
        env.xi_power(0, -1)


def test_quotient_level_validation(even_tower):
    env = EnvelopeAlgebra(even_tower, 0)
    with pytest.raises(EnvelopeError, match=">= 0"):
        env.quotient_module(-1, BidegreeWindow(0, 4, 4))


def test_adjoin_bounds(QQ):
    ring = PolyRing(QQ, ("x",), (1,))
    t = TowerAlgebra(ring, "divided")
    with pytest.raises(TowerError, match="degree"):
        t.adjoin("X", 0, 1, None)
    with pytest.raises(TowerError, match="weight"):
        t.adjoin("X", 1, 0, None)
    with pytest.raises(TowerError, match="fresh"):
        t.adjoin("x", 1, 1, None)


def test_poly_ring_validation(QQ):
    with pytest.raises(ValueError, match="duplicate"):
        PolyRing(QQ, ("x", "x"), (1, 1))
    with pytest.raises(ValueError, match="positive"):
        PolyRing(QQ, ("x",), (0,))


def test_ext_empty_range(even_tower):
    b = free_module(even_tower, "u")
    with pytest.raises(HomologicalError, match="empty"):
        ext_dims(b, b, (2, 1), BidegreeWindow(0, 2, 2))


def test_naive_lift_empty_module(even_tower):
    n = make_semifree(even_tower, [], {})
    res = naive_lift_check(n)
    assert res.split
    assert not res.rho.entries


def test_session_duplicate_module_name():
    text = (
        "field Q\nbase x:1\ntower divided\n"
        "module N\ngen e deg 0 wt 0\n"
        "module N\ngen f deg 0 wt 0\n"
    )
    with pytest.raises(ParseError, match="bad module name"):
        parse_session(text)


def test_session_tate_rejects_tower_variables():
    text = (
        "field Q\nbase x:1\ntower divided\nvar X deg 1 wt 1 d x\n"
        "run tate X hbound 2 wbound 4\n"
    )
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_session(text)


def test_divided_power_rejects_odd(koszul_xy):
    u = koszul_xy.gen("X1")
    with pytest.raises(TowerError, match="even"):
        u.divided_power(2)
    v = koszul_xy.gen("X1") + koszul_xy.one()  # inhomogeneous
    with pytest.raises(TowerError, match="homogeneous"):
        v.divided_power(2)
