"""The splitting system against the element route.

`build_split_system` reads pi off tower monomials, pi(e_a (x) g · X^e x^b)
= e_a·(g · X^e x^b), by position.  These tests hold its pi rows to the
element route (`ChainMap.apply`, `label_elem`, `elem_coords`) unknown by
unknown, and hold the verdict of `naive_lift_check` to `oracle.split_exists`,
which builds the whole system from element operations and ranks it densely,
so that a fault in assembling the system cannot pass as OBSTRUCTED with a
valid witness; and they hold the verdict in the minimal window to the one in
a larger window."""

import pathlib
import random

import pytest

from dglift import (BidegreeWindow, Field, PolyRing, TowerAlgebra, build_split_system,
                    make_semifree, naive_lift_check)
from dglift.homological import minimal_window
from dglift.session import parse_session

from oracle import split_exists
from test_acceptance import lift_decided_modules
from test_ext_e1 import acceptance_towers, lift_shaped

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def golden_modules(flavor):
    """The modules of the split and obstructed golden sessions, over their
    towers in the given flavor."""
    for name in ("split", "obstructed"):
        text = (GOLDENS / f"{name}.session").read_text(encoding="utf-8")
        session = parse_session(text.replace("tower divided", f"tower {flavor}"))
        for module in session.modules:
            yield f"{name}:{module}", session.modules[module]


def mixed_modules(flavor):
    """Lift-shaped modules over Q[x,y]<X1,X2,Y>, dY = X1 y - X2 x, over Q
    and F_5, and the cone on d(Y^2), where pi meets Y·Y = 2 Y^(2) in the
    divided flavor."""
    for p in (None, 5):
        tower = acceptance_towers(flavor, p)[0]
        yield f"cone on d(Y^2) over {Field(p)!r}", make_semifree(
            tower, [("e", 0, 0), ("f", 4, 4)], {("e", "f"): tower.variable_power(2, 2).differential()})
        rng = random.Random(f"mixed-{flavor}-{p}")
        found = 0
        while found < 4:
            n = lift_shaped(tower, rng, 2)
            if n is not None:
                found += 1
                yield f"mixed over {Field(p)!r} #{found}", n


def lift_round(flavor="divided"):
    """One derandomized round of modules shaped like the lift benchmark's:
    2-4 blocks, each free or a cone d f = e·z on a cycle z, over Q[x]<X>,
    Q[x,y]<X1,X2>, Q[x,y]<X1,X2,Y> and Q[x,y]<X1,X2,Z> with dZ = 0, over Q
    and F_32003, two modules per cell; the draws do not depend on the
    flavor."""
    for p in (None, 32003):
        field = Field(p)
        kx = TowerAlgebra(PolyRing(field, ("x",), (1,)), flavor)
        kx = kx.adjoin("X", 1, 1, kx.gen("x"))
        mixed, kxy, _, even = acceptance_towers(flavor, p)
        for key, tower in (("kx", kx), ("kxy", kxy), ("mixed", mixed), ("even", even)):
            for nblocks in (2, 3, 4):
                rng = random.Random(f"lift-round-{p}-{key}-{nblocks}")
                found = 0
                while found < 2:
                    n = lift_shaped(tower, rng, nblocks)
                    if n is not None:
                        found += 1
                        yield f"{key} over {field!r}, {nblocks} blocks #{found}", n


def element_pi_rows(n, unknowns, p, pi):
    """{(beta, label in N): {unknown: scalar}}: pi applied to each unknown's
    basis map with module-element operations."""
    rows: dict = {}
    for j, (beta, lab) in enumerate(unknowns):
        for nlab, s in n.elem_coords(pi.apply(p.label_elem(lab))).items():
            rows.setdefault((beta, nlab), {})[j] = s
    return rows


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
def test_positional_pi_rows_match_the_element_route(flavor):
    cases = [(name, n, 0) for name, n in golden_modules(flavor)]
    cases += [(name, n, a_prefix) for name, n in mixed_modules(flavor) for a_prefix in (0, 1, 2)]
    one = None
    for name, n, a_prefix in cases:
        system, unknowns, keys, p, pi, _, _ = build_split_system(n, a_prefix)
        want = element_pi_rows(n, unknowns, p, pi)
        got = {key[1:]: row for key, row in zip(keys, system.rows) if key[0] == "pi"}
        assert set(want) <= set(got), (name, a_prefix)
        for key, row in got.items():
            assert row == want.get(key, {}), (name, a_prefix, key)
        one = n.tower.base.field.one()
        for key, b in zip(keys, system.rhs):
            if key[0] == "pi":
                _, beta, nlab = key
                assert b == (one if nlab[0] == beta and not any(nlab[1]) and not any(nlab[2])
                             else n.tower.base.field.zero()), (name, a_prefix, nlab)
    assert one is not None


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
def test_split_oracle_agrees_on_the_goldens(flavor):
    verdicts = {}
    for name, n in golden_modules(flavor):
        verdicts[name] = naive_lift_check(n).split
        assert split_exists(n) == verdicts[name], name
    # the golden reports' verdicts
    assert verdicts == {"split:B1": True, "split:N": True, "obstructed:N": False}


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
def test_split_oracle_agrees_on_the_mixed_tower(flavor):
    for name, n in mixed_modules(flavor):
        for a_prefix in (0, 1, 2):
            assert split_exists(n, a_prefix) == naive_lift_check(n, a_prefix).split, \
                (name, a_prefix)


def test_split_oracle_agrees_on_a_lift_round():
    counts = {True: 0, False: 0}
    for name, n in lift_round():
        split = naive_lift_check(n).split
        assert split_exists(n) == split, name
        counts[split] += 1
    assert sum(counts.values()) == 48
    assert counts[True] and counts[False], counts


def test_split_oracle_agrees_on_the_acceptance_modules():
    # the modules criteria 5 and 6 decide, over every prefix A of the tower
    verdicts = {}
    for name, n in lift_decided_modules():
        for a_prefix in range(n.tower.n + 1):
            verdicts[name, a_prefix] = naive_lift_check(n, a_prefix).split
            assert split_exists(n, a_prefix) == verdicts[name, a_prefix], (name, a_prefix)
    assert verdicts["B", 0] and not verdicts["negative control", 0]


@pytest.mark.parametrize("flavor", ["divided", "ordinary"])
def test_verdict_holds_past_the_minimal_window(flavor):
    # one more homological degree and two more weights change no verdict
    cases = list(golden_modules(flavor)) + list(lift_round(flavor))
    counts = {True: 0, False: 0}
    for name, n in cases:
        low = minimal_window(n)
        wide = BidegreeWindow(low.hmin, low.hmax + 1, low.wmax + 2)
        status = naive_lift_check(n).status
        assert naive_lift_check(n, 0, wide).status == status, name
        counts[status == "SPLIT"] += 1
    assert counts[True] and counts[False], counts


@pytest.mark.parametrize("bad,message", [("zero", "non-section"),
                                         ("off-kernel", "non-chain map")])
def test_split_refuses_a_solution_that_fails_its_re_check(monkeypatch, bad, message):
    # naive_lift_check re-verifies the solver's rho before it reports SPLIT:
    # the zero solution is no section of pi, and the true solution plus a
    # kernel vector of the pi rows whose image under D is nonzero is a
    # section that is no chain map
    import dglift.homological as homological
    from dglift.base_ring import LinearSolution, nullspace_basis, solve_linear

    n = dict(golden_modules("divided"))["split:N"]
    system, unknowns, keys, *_, hom = build_split_system(n)
    field = n.tower.base.field
    solution = solve_linear(system).solution
    if bad == "zero":
        solution = [field.zero()] * len(unknowns)
    else:
        pi_rows = [row for key, row in zip(keys, system.rows) if key[0] == "pi"]
        kernel = [[v.get(j, field.zero()) for j in range(len(unknowns))]
                  for _, v in nullspace_basis(field, pi_rows, len(unknowns))]
        vec = next(v for v in kernel if not hom.chain_map(0, unknowns, v).is_chain_map())
        solution = list(map(field.add, solution, vec))
    monkeypatch.setattr(homological, "solve_linear", lambda _: LinearSolution(solution))
    with pytest.raises(homological.HomologicalError, match=f"returned a {message}; refusing"):
        naive_lift_check(n)
