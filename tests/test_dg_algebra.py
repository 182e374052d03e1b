import operator
import random
from functools import reduce
from math import comb, factorial

import pytest
from hypothesis import Phase, given, settings, strategies as st

from dglift import (
    AlgebraElement,
    DGVariable,
    EnvelopeAlgebra,
    Field,
    PolyRing,
    TowerAlgebra,
    TowerError,
    check_axioms,
    make_semifree,
)

from dglift.base_ring import matrix_rank, remainder
from dglift.dg_algebra import AxiomReport, LawResult
from dglift.tate import homology_dim
from oracle import divided_power as oracle_divided_power, leibniz_differential, symbol_product


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


def test_coefficients_from_another_base_ring_are_refused(koszul_xy):
    # a base polynomial's exponent vectors are only labels of the ring it
    # belongs to, so a coefficient over another ring is refused, not read
    other = PolyRing(Field(5), ("x", "y"), (1, 1))
    with pytest.raises(TowerError, match="coefficient over"):
        koszul_xy.monomial((1, 0), other.var("x"))
    with pytest.raises(TowerError, match="coefficient over"):
        koszul_xy.from_poly(other.one())


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


def test_elements_of_towers_with_different_differentials_differ(QQ):
    # Q[x]<X | dX = x> and Q[x]<X | dX = 2x> share a signature, not a
    # differential: their generators cannot be added, so they are not equal
    base = TowerAlgebra(PolyRing(QQ, ("x",), (1,)), "divided")
    a = base.adjoin("X", 1, 1, base.gen("x")).gen("X")
    b = base.adjoin("X", 1, 1, base.gen("x").scale_int(2)).gen("X")
    assert a.tower.signature() == b.tower.signature() and a.coeffs == b.coeffs
    assert a != b and a.differential() != b.differential()
    with pytest.raises(TowerError, match="different towers"):
        a + b
    same = base.adjoin("X", 1, 1, base.gen("x")).gen("X")
    assert a == same and (a - same).is_zero()


def _acceptance_towers(flavor, p):
    """The towers of the acceptance suite, in the given flavor over Q or
    F_p: k<X> with |X| = 2, k[x,y]<X1,X2> and k[x,y]<X1,X2,Y>."""
    field = Field(p)
    even = TowerAlgebra(PolyRing(field, (), ()), flavor).adjoin("X", 2, 1, None)
    t = TowerAlgebra(PolyRing(field, ("x", "y"), (1, 1)), flavor)
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    koszul = t.adjoin("X2", 1, 1, t.gen("y"))
    g = koszul.gen
    return even, koszul, koszul.adjoin("Y", 2, 2, g("X1") * g("y") - g("X2") * g("x"))


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5, 32003])
def test_divided_powers_match_the_label_oracle(flavor, p):
    # random homogeneous even elements of up to four labels on one slice,
    # against the oracle's closed form per label and sum rule through the
    # symbol product, over F_5 too, where the multinomials may vanish; and
    # m!·u^(m) = u^m wherever m! is a unit (p > m), which the ordinary
    # flavor, refusing F_p, asks for as u^m/m!
    rng = random.Random(f"divided-power-sweep-{flavor}-{p}")
    for tower in _acceptance_towers(flavor, p):
        field = tower.base.field
        slices = [(h, w) for h in (2, 4) for w in range(1, 7) if tower.slice_basis(h, w)]
        for _ in range(25):
            basis = tower.slice_basis(*rng.choice(slices))
            labels = rng.sample(basis, min(4, len(basis)))
            u = AlgebraElement(tower, {label: field.of(rng.choice((-3, -2, -1, 1, 2, 5)))
                                       for label in labels})
            m = rng.randrange(2, 6)
            if flavor == "ordinary" and p is not None:
                with pytest.raises(TowerError, match="rational"):
                    u.divided_power(m)
                continue
            assert u.divided_power(m).coeffs == oracle_divided_power(u, m)
            if p is None or m < p:
                assert u.divided_power(m).scale_int(factorial(m)) == u.power(m)


def test_check_axioms_pass(mixed_tower):
    report = check_axioms(mixed_tower, 200, weight_bound=5, seed=3)
    assert report.ok
    assert {"d_squared_zero", "leibniz", "graded_commutativity"} <= {l.law for l in report.laws}


def test_check_axioms_detects_corruption(koszul_xy, ring_xy):
    bad_target = tuple(sorted((koszul_xy.gen("X1") * koszul_xy.gen("x")).coeffs.items()))
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
    assert report == AxiomReport(seed=3, weight_bound=4, laws=[
        LawResult("d_squared_zero", 16, False, "d(d((1)*W)) = (1*x^2)"),
        *(LawResult(law, cases, True) for law, cases in passing),
    ])


def test_check_axioms_seed_reproducible(mixed_tower):
    a = check_axioms(mixed_tower, 100, weight_bound=4, seed=9)
    b = check_axioms(mixed_tower, 100, weight_bound=4, seed=9)
    assert a == b


def test_a_failing_report_keeps_its_draw_order(mixed_tower, monkeypatch):
    # u^(3) answered by the true u^(2): every law past the sixth fails early,
    # and each pool draws only what the cases it reached needed, so the
    # samples of later laws, and their witnesses, stay where they were
    true_power = AlgebraElement.divided_power
    monkeypatch.setattr(AlgebraElement, "divided_power",
                        lambda u, m: true_power(u, 2 if m == 3 else m))
    report = check_axioms(mixed_tower, 100, weight_bound=4, seed=3)
    passing = [("d_squared_zero", 67), ("leibniz", 93), ("graded_commutativity", 93),
               ("odd_squares_vanish", 29), ("differential_preserves_weight", 67),
               ("dp_zeroth_and_first", 11)]
    failing = [
        ("dp_product_rule", 5, "u^(1)u^(2) fails for (4/3)*Y^(2) + (1/2)*X1*X2*Y"),
        ("dp_sum_rule", 2, "(u+v)^(3) fails for u=(-2*x^2)*Y + (-1*y^2 + -1*x*y)*X1*X2, "
                           "v=(-2*y + -7/3*x)*X1*X2"),
        ("dp_scalar_rule", 2, "(cu)^(3) fails for (-1)*Y^(2) + (1)*X1*X2*Y"),
        ("dp_composition_rule", 2, "(u^(2))^(3) fails for (1*y)*Y + (3/2*y + 3/2*x)*X1*X2"),
        ("dp_differential", 2, "d(u^(3)) fails for (-1*y^2 + 2*x^2)*Y + (-1*y^2)*X1*X2"),
    ]
    assert report == AxiomReport(seed=3, weight_bound=4, laws=[
        *(LawResult(law, cases, True) for law, cases in passing),
        *(LawResult(law, cases, False, witness) for law, cases, witness in failing),
    ])


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
    """No value of a sparse map is zero, at any depth: maps of ring elements
    hold nonzero ring elements, and the coordinates of a tower element are
    nonzero scalars."""
    for value in terms.values():
        if hasattr(value, "coeffs"):
            assert value.coeffs, terms
            _assert_sparse(value.coeffs)
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
        _assert_sparse(elem.coeffs)
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
    queries = [(kind, k, h, w) for kind in ("basis", "rank", "diff", "echelon", "kernel")
               for k in range(len(chain)) for h in range(5) for w in range(6)]
    random.Random(seed).shuffle(queries)
    field = chain[0].base.field
    for kind, k, h, w in queries:
        tower, ref = chain[k], fresh[k]
        if kind == "basis":
            basis = tower.slice_basis(h, w)
            assert basis == ref.slice_basis(h, w) == tuple(sorted(basis))
            assert tower.slice_dim(h, w) == len(basis)
        elif kind == "rank":
            # the homology Tate reads, from the ranks of two echelons
            assert homology_dim(tower, h, w) == homology_dim(ref, h, w)
        elif kind == "diff":
            for exps, _ in ref.slice_basis(h, w):
                assert tower.monomial_diff(exps).coeffs == ref.monomial_diff(exps).coeffs
        elif kind == "echelon":
            echelon = tower.slice_echelon(h, w)
            assert len(echelon) == matrix_rank(field, ref.slice_columns(h, w))
            assert not any(remainder(field, echelon, col) for col in ref.slice_columns(h, w))
            # below the last variable's degree or weight the parent's list is
            # read as it is, with no copy
            if tower._inherits(h, w):
                assert echelon is chain[k - 1].slice_echelon(h, w)
        else:
            kernel = tower.slice_kernel(h, w)
            assert kernel == ref.slice_kernel(h, w)
            if tower._inherits(h, w):
                assert kernel is chain[k - 1].slice_kernel(h, w)


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5])
@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("z", [None, "even", "odd"])
def test_towers_asked_from_the_top_down_match_a_fresh_tower(flavor, p, which, z):
    # the last tower of a chain is asked for every echelon before any of its
    # ancestors, so where it does not inherit its walk reaches the root and
    # reduces every column in one batch; the ancestors, asked after it from
    # the top down, hold only what an inherited slice left on them
    chain = _chain(flavor, p, which, z)
    field = chain[0].base.field
    slices = [(h, w) for h in range(5) for w in range(6)]
    for k in reversed(range(len(chain))):
        tower = chain[k]
        ref = TowerAlgebra(tower.base, tower.flavor, tower.variables)
        echelons = {s: tower.slice_echelon(*s) for s in slices}
        for (h, w), echelon in echelons.items():
            assert homology_dim(tower, h, w) == homology_dim(ref, h, w)
            assert len(echelon) == matrix_rank(field, ref.slice_columns(h, w))
            assert not any(remainder(field, echelon, col) for col in ref.slice_columns(h, w))
            assert tower.slice_kernel(h, w) == ref.slice_kernel(h, w)
            if tower._inherits(h, w):
                assert echelon is chain[k - 1].slice_echelon(h, w)


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
            assert (left * right).coeffs == symbol_product(left, right)


@pytest.mark.parametrize("p", [None, 5])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 1), w=st.integers(4, 5), m=st.integers(2, 4),
       picks=st.lists(st.integers(0, 99), min_size=1, max_size=2),
       scalars=st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=12, max_size=12))
def test_divided_powers_match_iterated_symbol_products(p, which, w, m, picks, scalars):
    # m!·u^(m) = u^m for u of degree 2 on one or two tower monomials, the
    # first with a base coefficient of several terms: the sum rule runs over
    # tower monomials and raises each base coefficient to the i-th power,
    # while u^m comes from iterating the symbol oracle (4! is a unit mod 5)
    tower = _oracle_towers("divided", p)[which]
    field = tower.base.field
    groups: dict = {}
    for exps, bex in tower.slice_basis(2, w):
        groups.setdefault(exps, []).append(bex)
    several = sorted(exps for exps, bexs in groups.items() if len(bexs) > 1)
    chosen = {several[picks[0] % len(several)]}
    chosen |= {sorted(groups)[k % len(groups)] for k in picks[1:]}
    labels = [(exps, bex) for exps in sorted(chosen) for bex in groups[exps]]
    u = AlgebraElement(tower, {label: field.of(c) for label, c in zip(labels, scalars)})
    power = u
    for _ in range(m - 1):
        power = AlgebraElement(tower, symbol_product(power, u))
    assert u.divided_power(m).scale_int(factorial(m)) == power


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
@pytest.mark.parametrize("p", [None, 5])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(envelope=st.booleans(), a_prefix=st.integers(0, 3), a=TERMS, b=TERMS)
def test_suffix_split_and_koszul_flip_rebuild_the_element(flavor, p, envelope, a_prefix, a, b):
    # the one suffix split and the one Koszul flip, on the acceptance tower
    # Q[x,y]<X1,X2,Y> or on its envelope over the first a_prefix variables:
    # u = sum c·S^w = sum S^w·c for every k, and u·v = v·u.koszul(|v|)
    base = _oracle_towers(flavor, p)[0]
    tower = EnvelopeAlgebra(base, a_prefix).algebra if envelope else base
    u, v = _element(tower, a), _element(tower, b)
    for k in range(tower.n + 1):
        for right in (False, True):
            rebuilt = tower.zero()
            for w, c in tower.split_at(u, k, tower, right).items():
                assert c.tower is tower and all(not any(e[k:]) for e, _ in c.coeffs)
                s = tower.monomial((0,) * k + w)
                rebuilt = rebuilt + (s * c if right else c * s)
            assert rebuilt == u, (k, right)
    if envelope:
        # into B itself, as the envelope reads its coordinates
        parts = tower.split_at(u, base.n, base, True)
        assert all(c.tower is base for c in parts.values())
        assert sum((tower.monomial((0,) * base.n + w) * tower.embed(c)
                    for w, c in parts.items()), tower.zero()) == u
    for h, part in v.split_by_degree().items():
        assert u * part == part * u.koszul(h), h
