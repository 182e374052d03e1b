"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance here is exact equality of exact scalars; runtime targets are
asserted with the wall-clock budgets stated alongside each criterion.
"""

import json
import pathlib
import random
import time

import pytest

from dglift import (
    BasisElement,
    BidegreeWindow,
    DGVariable,
    EnvelopeAlgebra,
    Field,
    Infeasible,
    PolyRing,
    SemifreeModule,
    TowerAlgebra,
    base_change,
    build_split_system,
    check_axioms,
    direct_sum,
    ext_dims,
    free_module,
    homology_dims,
    make_semifree,
    naive_lift_check,
    tate_resolution,
    tensor_bimodule,
)
from dglift.base_ring import matrix_rank
from dglift.cli import main

from oracle import brute_ext_dim

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def _mixed_tower(field):
    ring = PolyRing(field, ("x", "y"), (1, 1))
    t = TowerAlgebra(ring, "divided")
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    t = t.adjoin("X2", 1, 1, t.gen("y"))
    z = t.gen("X1") * t.gen("y") - t.gen("X2") * t.gen("x")
    return t.adjoin("Y", 2, 2, z)


def _ordinary_tower(field):
    ring = PolyRing(field, ("x", "y"), (1, 1))
    t = TowerAlgebra(ring, "ordinary")
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    t = t.adjoin("X2", 1, 1, t.gen("y"))
    z = t.gen("X1") * t.gen("y") - t.gen("X2") * t.gen("x")
    return t.adjoin("Y", 2, 2, z)


def _koszul_xy(field):
    ring = PolyRing(field, ("x", "y"), (1, 1))
    t = TowerAlgebra(ring, "divided")
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    return t.adjoin("X2", 1, 1, t.gen("y"))


def _even_tower(field):
    ring = PolyRing(field, (), ())
    return TowerAlgebra(ring, "divided").adjoin("X", 2, 1, None)


def _negative_control(tower):
    return make_semifree(tower, [("e", 0, 0), ("f", 3, 1)],
                         {("e", "f"): tower.gen("X")})


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


def test_criterion_1_axiom_suite():
    start = time.time()
    towers = [
        _mixed_tower(Field()),
        _mixed_tower(Field(5)),
        _ordinary_tower(Field()),
        _ordinary_tower(Field(5)),
    ]
    for tower in towers:
        report = check_axioms(tower, 1000, weight_bound=8, seed=42)
        assert report.ok, [l.law for l in report.laws if not l.passed]
    # injected corruptions are detected
    for field in (Field(), Field(5)):
        good = _koszul_xy(field)
        bad_target = tuple(sorted((good.gen("X1") * good.gen("x")).coeffs.items()))
        bad = TowerAlgebra(good.base, "divided",
                           good.variables + (DGVariable("W", 2, 2, bad_target),))
        report = check_axioms(bad, 300, weight_bound=5, seed=42)
        assert not report.ok
        assert any(l.law == "d_squared_zero" and not l.passed for l in report.laws)
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"\n[PASS] criterion 1: axiom suite on 4 towers + corruption detection "
          f"({elapsed:.1f}s < 30s)")


def test_criterion_2_pi_kernel_roundtrip():
    start = time.time()
    rng = random.Random(1002)
    towers = [_even_tower(Field()), _koszul_xy(Field()), _mixed_tower(Field())]
    envs = [EnvelopeAlgebra(t, 0) for t in towers]
    env3 = envs[2]

    # pi_B preserves divided powers, i <= 3, on 200 random even elements
    done = 0
    while done < 200:
        e = _random_envelope(env3, rng, 3)
        parts = {}
        for lex, r in e.sorted_terms():
            for h, rh in r.split_by_degree().items():
                d = env3.ext_degree(lex) + h
                parts[d] = parts.get(d, env3.zero()) + env3.from_tensor(env3.ext_elem(lex), rh)
        evens = [p for d, p in parts.items() if d > 0 and d % 2 == 0 and not p.is_zero()]
        if not evens:
            continue
        u = evens[0]
        for i in (2, 3):
            assert u.divided_power(i).pi() == u.pi().divided_power(i)
        done += 1

    # 200 random kernel elements have filtration level >= 1
    done = 0
    while done < 200:
        env = envs[done % 3]
        e = _random_envelope(env, rng, 3)
        k = e - env.include_right(e.pi())
        if k.is_zero():
            continue
        assert k.pi().is_zero()
        assert k.filtration_level() >= 1
        done += 1

    # Gamma <-> Omega round trip on every windowed basis element, wt <= 10
    count = 0
    for env in envs:
        for lex in env.ext_monomials(10):
            e = env.from_tensor(env.ext_elem(lex), env.tower.one())
            assert e.to_omega().expand() == e
            count += 1
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\n[PASS] criterion 2: pi preserves powers (200), kernel levels (200), "
          f"round trip on {count} basis elements ({elapsed:.1f}s < 60s)")


def test_criterion_3_filtration_structure():
    start = time.time()
    env = EnvelopeAlgebra(_mixed_tower(Field()), 0)

    # d(xi_i) is a cycle supported on earlier diagonals
    for i in range(env.n_ext):
        d = env.xi(i).differential()
        assert d.differential().is_zero()
        for oexps in d.to_omega().coords:
            assert all(m == 0 for m in oexps[i:])

    # level superadditivity and d-level on all windowed Omega-basis products
    monos = []
    for level in range(0, 4):
        monos += [(env.omega_monomial(e), level) for e in env.omega_exponents(level, 5)]
    for a, la in monos:
        da = a.differential()
        if not da.is_zero():
            assert da.filtration_level() >= la
        for b, lb in monos:
            p = a * b
            if not p.is_zero():
                assert p.filtration_level() >= la + lb

    # quotient bases = windowed Mon_l(Omega) with inf degree >= l
    win = BidegreeWindow(0, 8, 6)
    for level in (1, 2, 3):
        q = env.quotient_module(level, win)
        expect = sorted(
            (env.ext_degree(e), env.ext_weight(e))
            for e in env.omega_exponents(level, win.wmax)
            if win.contains(env.ext_degree(e), env.ext_weight(e))
        )
        assert sorted((b.degree, b.weight) for b in q.basis) == expect
        assert all(b.degree >= level for b in q.basis)
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"\n[PASS] criterion 3: diagonal cycles, level superadditivity, "
          f"quotient bases ({elapsed:.1f}s < 30s)")


def _benchmark_modules():
    f = Field()
    even = _even_tower(f)
    koszul = _koszul_xy(f)
    mixed = _mixed_tower(f)
    mods = [
        ("B", free_module(even, "u"), 0),
        ("negative-control", _negative_control(even), 0),
        ("rigid-3", make_semifree(koszul, [("e", 0, 0), ("g", 1, 1), ("h", 2, 1)],
                                  {("g", "h"): koszul.one()}), 0),
        ("twisted", make_semifree(mixed, [("e", 0, 0), ("f", 2, 2)],
                                  {("e", "f"): mixed.variable_diff(2)}), 0),
        ("sum-shift", direct_sum(free_module(koszul, "u"),
                                 free_module(koszul, "v", degree=2, weight=2)), 0),
    ]
    return mods


def test_criterion_4_ses_exactness():
    for name, n, a_prefix in _benchmark_modules():
        field = n.tower.base.field
        win = BidegreeWindow(n.min_degree(), n.max_degree() + 2, n.max_weight() + 2)
        p, pi = base_change(n, win, a_prefix)
        assert pi.is_chain_map()
        for h in range(win.hmin, win.hmax + 1):
            for w in range(0, win.wmax + 1):
                labels = p.slice_labels(h, w)
                rows = {}
                for j, lab in enumerate(labels):
                    for key, s in n.elem_coords(pi.apply(p.label_elem(lab))).items():
                        rows.setdefault(key, {})[j] = s
                rank = matrix_rank(field, list(rows.values()))
                ker = len(labels) - rank
                assert rank == n.dimension(h, w)
                assert ker + n.dimension(h, w) == p.dimension(h, w)
    print("\n[PASS] criterion 4: dim ker pi_N + dim N = dim(N|_A (x) B) per "
          "bidegree on 5 benchmark modules")


def _rigid_trio():
    koszul = _koszul_xy(Field())
    n1 = free_module(koszul, "u")
    n2 = direct_sum(free_module(koszul, "u"),
                    SemifreeModule(koszul, [BasisElement("v", 0, 2)], {}))
    n3 = make_semifree(koszul, [("e", 0, 0), ("g", 1, 1), ("h", 2, 1)],
                       {("g", "h"): koszul.one()})
    return koszul, [("B", n1), ("B+B(wt2)", n2), ("B+cone", n3)]


def lift_decided_modules():
    """The modules whose naive lift criteria 5 and 6 decide: the Ext-rigid
    trio, which splits, and the negative control, which is obstructed."""
    _, trio = _rigid_trio()
    return trio + [("negative control", _negative_control(_even_tower(Field())))]


def test_criterion_5_main_theorem_desk_scale():
    start = time.time()
    koszul, trio = _rigid_trio()
    for name, n in trio:
        win = BidegreeWindow(0, max(2, n.max_degree()) + 2, n.max_weight() + 4)
        height = win.hmax - win.hmin
        table = ext_dims(n, n, (1, height), win)
        assert table.is_zero_for(1, height), f"{name} is not Ext-rigid"
        res = naive_lift_check(n)
        assert res.split, f"{name} did not split"
        # independent symbolic re-verification
        assert res.rho.is_chain_map()
        p = res.module
        for beta in range(len(n.basis)):
            img = res.pi.apply(res.rho.entries.get(beta, {}))
            assert n.elem_eq(img, n.basis_elem(beta))
            lhs = p.apply_diff(res.rho.entries.get(beta, {}))
            rhs = res.rho.apply(n.apply_diff(n.basis_elem(beta)))
            assert p.elem_eq(lhs, rhs)
    elapsed = time.time() - start
    assert elapsed < 120
    print(f"\n[PASS] criterion 5: three Ext-rigid modules over Q[x,y]<X1,X2> "
          f"split with verified rho ({elapsed:.1f}s < 120s)")


def test_criterion_6_negative_control():
    even = _even_tower(Field())
    n = _negative_control(even)
    res = naive_lift_check(n)
    assert res.status == "OBSTRUCTED"
    system, *_ = build_split_system(n)
    assert Infeasible(combo=res.witness.combo, value=res.witness.value).verify(system)

    # the splitting criterion's obstruction group Ext^1(N, N (x) J) is nonzero
    env = EnvelopeAlgebra(even, 0)
    j = env.diagonal_ideal_module(6)
    nj = tensor_bimodule(n, j, BidegreeWindow(0, 9, 5))
    win = BidegreeWindow(0, 3, 1)
    table = ext_dims(n, nj, (1, 1), win)
    assert table.total(1) >= 1

    # self-Ext profile, cross-checked against the independent dense oracle:
    # Ext^1(N,N) = 0 while Ext^3(N,N) != 0, so the rigidity hypothesis fails
    tbl = ext_dims(n, n, (1, 3), win)
    for i in range(1, 4):
        for w in range(tbl.weight_range[0], tbl.weight_range[1] + 1):
            assert tbl.dim(i, w) == brute_ext_dim(n, n, i, w)
    assert tbl.total(1) == 0
    assert tbl.total(3) == 1
    print("\n[PASS] criterion 6: OBSTRUCTED with re-verified witness; "
          "Ext^1(N, N(x)J) != 0 and Ext^3(N,N) != 0 (oracle-checked)")


def test_criterion_7_ext_vanishing_against_quotients():
    koszul, trio = _rigid_trio()
    env = EnvelopeAlgebra(koszul, 0)
    height = 3
    for name, n in trio:
        for level in (1, 2, 3):
            q = env.quotient_module(level, BidegreeWindow(0, 10, 8))
            nq = tensor_bimodule(n, q)
            table = ext_dims(n, nq, (0, height), BidegreeWindow(0, 4, 5))
            assert all(table.total(i) == 0 for i in range(0, height + 1)), \
                f"{name} level {level}"
    print("\n[PASS] criterion 7: Ext^i(N, N (x) J^(l)/J^(l+1)) = 0 for "
          "0 <= i <= 3, l in {1,2,3}, all three split modules")


def _random_small_instance(rng):
    field = Field()
    pool = []
    ring0 = PolyRing(field, (), ())
    pool.append(TowerAlgebra(ring0, "divided").adjoin("X", 2, 1, None))
    ring1 = PolyRing(field, ("x",), (1,))
    t1 = TowerAlgebra(ring1, "divided")
    pool.append(t1.adjoin("X", 1, 1, t1.gen("x")))
    pool.append(_koszul_xy(field))
    tower = rng.choice(pool)

    def random_cycle(h, wmax):
        w = rng.randrange(1, wmax + 1)
        basis = tower.slice_basis(h, w)
        if not basis:
            return None, None
        out = tower.zero()
        for exps, bex in basis:
            if rng.random() < 0.6:
                c = field.of(rng.randrange(-2, 3))
                out = out + tower.monomial(exps, tower.base.monomial(bex, c))
        if out.is_zero() or not out.differential().is_zero():
            return None, None
        return out, w

    blocks = []
    for _ in range(rng.randrange(1, 3)):
        if rng.random() < 0.4:
            d0 = rng.randrange(0, 2)
            blocks.append(([(f"a{len(blocks)}", d0, rng.randrange(0, 3))], {}))
            continue
        h = rng.randrange(0, 3)
        z, w = random_cycle(h, 4)
        if z is None:
            blocks.append(([(f"a{len(blocks)}", 0, 0)], {}))
            continue
        base_wt = rng.randrange(0, 2)
        e_name, f_name = f"e{len(blocks)}", f"f{len(blocks)}"
        gens = [(e_name, 0, base_wt), (f_name, h + 1, base_wt + w)]
        blocks.append((gens, {(e_name, f_name): z}))
    gens = []
    diffs = {}
    for g, d in blocks:
        offset = len(gens)
        gens += g
        for (a, b), v in d.items():
            diffs[(a, b)] = v
    n = make_semifree(tower, gens, diffs)
    return tower, n


def test_criterion_8_ext_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    for _ in range(20):
        tower, n = _random_small_instance(rng)
        assert len(n.basis) <= 4 and tower.n <= 2
        win = BidegreeWindow(n.min_degree(), n.max_degree() + 2, min(6, n.max_weight() + 3))
        table = ext_dims(n, n, (0, 2), win)
        for i in range(0, 3):
            for w in range(table.weight_range[0], table.weight_range[1] + 1):
                assert table.dim(i, w) == brute_ext_dim(n, n, i, w), (i, w, n)
                checked += 1
    print(f"\n[PASS] criterion 8: ext_dims matches the brute-force enumerator "
          f"on 20 random instances ({checked} (i,w) cells)")


def test_criterion_9_tate():
    start = time.time()
    field = Field()
    ring = PolyRing(field, ("x", "y"), (1, 1))
    x, y = ring.var("x"), ring.var("y")

    ci = tate_resolution(ring, [x * x, y * y * y], 4, 10)
    assert len(ci.tower.variables) == 2
    assert [(v.degree, v.weight) for v in ci.tower.variables] == [(1, 2), (1, 3)]

    res = tate_resolution(ring, [x * x, x * y], 3, 8)
    t = res.tower
    deg2 = [i for i, v in enumerate(t.variables) if v.degree == 2]
    assert len(deg2) == 1
    d = t.variable_diff(deg2[0])
    expect = t.gen("X1") * t.from_poly(y) - t.gen("X2") * t.from_poly(x)
    assert d == expect or d == -expect
    assert homology_dims(t, 1, 8).total() == 0
    assert homology_dims(t, 2, 8).total() == 0
    elapsed = time.time() - start
    assert elapsed < 120
    print(f"\n[PASS] criterion 9: Tate resolutions (complete intersection: 2 vars; "
          f"(x^2,xy): one degree-2 variable, H1=H2=0) ({elapsed:.1f}s < 120s)")


def test_criterion_10_cli_goldens(tmp_path):
    for name, code in (("split", 0), ("obstructed", 10), ("error", 1)):
        session = GOLDENS / f"{name}.session"
        outs = []
        for k in (1, 2):
            out = tmp_path / f"{name}{k}.json"
            assert main([str(session), "--report", str(out)]) == code
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == (GOLDENS / f"{name}.json").read_bytes()
        json.loads(outs[0])  # well-formed
    print("\n[PASS] criterion 10: byte-identical golden reports, exit codes 0/10/1")
