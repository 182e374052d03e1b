"""Envelope elements against the tensor-form reference `oracle.TensorOracle`.

Random elements of B^o (x)_A B are built through `from_tensor` and compared
with the reference on sums, products, the differential, divided powers, the
powers of the diagonals, both Mon(Omega) coordinate systems, the filtration
level, pi_B and the tensor form itself.  The tower Q[x,y]<X1,X2,Y,Z> has two
odd and two even variables; it is taken over Q and F_5 in both flavors, with
A the base ring and with A = Q[x,y]<X1>.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dglift import EnvelopeAlgebra, Field, PolyRing, TowerAlgebra
from oracle import TensorOracle

@pytest.fixture(scope="module")
def envs():
    """The envelope and its reference per case, built once, so that later
    examples meet the memos that earlier ones filled."""
    return {}


def _env(envs, flavor, p, k):
    key = (flavor, p, k)
    if key not in envs:
        ring = PolyRing(Field(p), ("x", "y"), (1, 1))
        t = TowerAlgebra(ring, flavor)
        t = t.adjoin("X1", 1, 1, t.gen("x"))
        t = t.adjoin("X2", 1, 1, t.gen("y"))
        t = t.adjoin("Y", 2, 2, t.gen("X1") * t.gen("y") - t.gen("X2") * t.gen("x"))
        t = t.adjoin("Z", 2, 1)
        envs[key] = EnvelopeAlgebra(t, k), TensorOracle(t, k)
    return envs[key]


TERM = st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 1),
                 st.integers(0, 2), st.sampled_from((-2, -1, 1, 2, 3)))
TERMS = st.lists(TERM, min_size=1, max_size=3)


def _pair(env, ref, terms, degree=None):
    """The same element as an envelope element and as a reference map: a sum
    of L^o (x) r over extension monomials L and single-term r in B, all of
    the given degree if there is one."""
    tower = env.tower
    pairs = [(lex, mono) for lex in env.ext_monomials(3) for mono in tower.gamma_monomials(3, 4)
             if degree is None or ref.degree(lex) + tower.monomial_bidegree(mono)[0] == degree]
    e, x = env.zero(), {}
    for li, mi, bw, bi, c in terms:
        lex, mono = pairs[(li * 100 + mi) % len(pairs)]
        bexs = tower.base.monomials_of_weight(bw)
        r = tower.monomial(mono,
                           tower.base.monomial(bexs[bi % len(bexs)], tower.base.field.of(c)))
        e = e + env.from_tensor(env.ext_elem(lex), r)
        x = ref.add(x, {lex: r})
    return e, x


CASES = pytest.mark.parametrize("flavor,p,k", [
    (flavor, p, k) for flavor in ("divided", "ordinary") for p in (None, 5) for k in (0, 1)])
SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def form(e) -> dict:
    return dict(e.sorted_terms())


@CASES
@SETTINGS
@given(a=TERMS, b=TERMS, u=TERMS, v=TERMS)
def test_ring_operations_match_the_tensor_form(envs, flavor, p, k, a, b, u, v):
    env, ref = _env(envs, flavor, p, k)
    (e1, x1), (e2, x2) = _pair(env, ref, a), _pair(env, ref, b)
    assert form(e1) == x1 and form(e2) == x2
    assert form(e1 + e2) == ref.add(x1, x2)
    assert form(e1 - e2.scale_int(2)) == ref.add(x1, {l: r.scale_int(-2) for l, r in x2.items()})
    assert form(e1 * e2) == ref.mul(x1, x2)
    assert form(e1.differential()) == ref.d(x1)
    assert e1.pi() == ref.pi(x1)
    # b1^o (x) b2 with b1 holding variables of A
    b1 = _pair(env, ref, u)[0].pi()
    b2 = _pair(env, ref, v)[0].pi()
    assert form(env.from_tensor(b1, b2)) == ref.tensor(b1, b2)
    assert form(env.include_left(b1)) == ref.tensor(b1, b2.tower.one())


@CASES
@SETTINGS
@given(a=TERMS, i=st.integers(0, 3), m=st.integers(0, 3))
def test_diagonal_powers_match_the_tensor_form(envs, flavor, p, k, a, i, m):
    env, ref = _env(envs, flavor, p, k)
    i %= env.n_ext
    e, x = _pair(env, ref, a)
    xi = env.xi_power(i, m)
    assert form(xi) == ref.xi_power(i, m)
    assert form(xi * e) == ref.mul(ref.xi_power(i, m), x)
    assert form(e * env.xi(i)) == ref.mul(x, ref.xi_power(i, 1))


@CASES
@SETTINGS
@given(a=TERMS, b=TERMS)
def test_coordinates_and_level_match_the_tensor_form(envs, flavor, p, k, a, b):
    env, ref = _env(envs, flavor, p, k)
    e1, x1 = _pair(env, ref, a)
    e = e1 * _pair(env, ref, b)[0] + e1
    x = form(e)
    # left coordinates: x = sum b^o·xi^(w); right ones: x = sum xi^(w)·(1 (x) c)
    left = e.to_omega().coords
    right = e.right_coordinates()
    for coords in (left, right):
        assert all(not c.is_zero() and c.tower is env.tower for c in coords.values())
    assert ref.add(*(ref.mul(ref.tensor(c, env.tower.one()), ref.xi_monomial(w))
                     for w, c in left.items())) == x
    assert ref.add(*(ref.mul(ref.xi_monomial(w), {(0,) * env.n_ext: c})
                     for w, c in right.items())) == x
    level = min((sum(w) for w in left), default=None)
    assert e.filtration_level() == level == min((sum(w) for w in right), default=None)
    assert (e - env.include_right(e.pi())).filtration_level() in (None, *range(1, 20))


@CASES
@SETTINGS
@given(a=st.lists(TERM, min_size=1, max_size=4),
       h=st.sampled_from((2, 4)), m=st.integers(2, 3))
def test_divided_powers_match_the_tensor_form(envs, flavor, p, k, a, h, m):
    env, ref = _env(envs, flavor, p, k)
    e, x = _pair(env, ref, a, h)
    if flavor == "ordinary" and p is not None and not e.is_zero():
        with pytest.raises(ValueError, match="need rational coefficients"):
            e.divided_power(m)
    else:
        assert form(e.divided_power(m)) == ref.divided_power(x, m)
