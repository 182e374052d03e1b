"""Snapshot of Tate resolutions: the name, degree and weight of every adjoined
variable, its differential as `render_element` writes it, and the h0 dims;
and the reports of the first 40 distinct sessions of the benchmark's seed-1
`resolve` deck, `result` and `certificates`, run through `dglift.cli.main`.

The representative `tate_step` kills is chosen by the elimination kernel, so
any change to how cycles and boundaries are reduced shows up here first.
`python tests/test_tate_snapshot.py` rewrites tests/snapshots/tate.json from
the current code, and `python tests/test_tate_snapshot.py deck` rewrites
tests/tate_deck.json; review the diff before committing either.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import pytest

from dglift import Field, PolyRing, tate_resolution
from dglift.cli import main
from dglift.render import render_element

from bench_decks import bench_workloads

TESTS = pathlib.Path(__file__).resolve().parent
SNAPSHOT = TESTS / "snapshots" / "tate.json"
DECK = TESTS / "tate_deck.json"
DECK_SESSIONS = 40


def ideals():
    """(name, ring, generators, weight bound) of every snapshot ideal."""
    q = Field()
    r2 = PolyRing(q, ("x", "y"), (1, 1))
    x, y = r2.var("x"), r2.var("y")
    yield "x2_xy", r2, [x * x, x * y], 8
    yield "x2_y3", r2, [x * x, y * y * y], 6
    r4 = PolyRing(q, ("x", "y", "z", "u"), (1, 1, 1, 1))
    x, y, z, u = (r4.var(n) for n in "xyzu")
    yield "xy_yz_zu_ux", r4, [x * y, y * z, z * u, u * x], 5
    r3 = PolyRing(Field(7), ("x", "y", "z"), (1, 1, 1))
    x, y, z = (r3.var(n) for n in "xyz")
    yield "binomial_f7", r3, [x * x - y * z, x * y - z * z, y * y - x * z], 5


def cases():
    for name, ring, gens, wbound in ideals():
        for flavor in ("divided", "ordinary"):
            for hbound in (3, 4):
                yield f"{name}-{flavor}-{hbound}", ring, gens, wbound, flavor, hbound


def snapshot(ring, gens, wbound, flavor, hbound) -> dict:
    res = tate_resolution(ring, gens, hbound, wbound, flavor)
    tower = res.tower
    return {
        "vars": [[v.name, v.degree, v.weight, render_element(tower.variable_diff(i))]
                 for i, v in enumerate(tower.variables)],
        "h0": [res.h0.dim(w) for w in range(wbound + 1)],
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key, ring, gens, wbound, flavor, hbound",
                         list(cases()), ids=[c[0] for c in cases()])
def test_tate_snapshot(expected, key, ring, gens, wbound, flavor, hbound):
    assert snapshot(ring, gens, wbound, flavor, hbound) == expected[key]


def deck_sessions() -> list[str]:
    """The first `DECK_SESSIONS` distinct session texts of the seed-1
    `resolve` deck of the benchmark, in deck order."""
    workloads, dg = bench_workloads()
    deck, _, _ = workloads["resolve"]().generate(dg, 1)
    return list(dict.fromkeys(inp.spec["text"] for inp in deck))[:DECK_SESSIONS]


def deck_report(text: str, tmp: pathlib.Path) -> dict:
    """`result` and `certificates` of the one report of a `resolve` session."""
    session, report = tmp / "deck.session", tmp / "deck.json"
    session.write_text(text, encoding="utf-8")
    assert main([str(session), "--report", str(report)]) == 0
    (entry,) = json.loads(report.read_text(encoding="utf-8"))["reports"]
    return {"result": entry["result"], "certificates": entry["certificates"]}


def test_bench_resolve_deck_keeps_its_reports(tmp_path, capsys):
    # the variables Tate adjoins on quadrics in 3-4 variables over Q and F_p,
    # beyond the hand-picked ideals above: a kernel basis with other free
    # columns kills other representatives and changes these reports
    expected = json.loads(DECK.read_text(encoding="utf-8"))
    assert deck_sessions() == [case["session"] for case in expected]
    for case in expected:
        got = deck_report(case["session"], tmp_path)
        assert got == {"result": case["result"], "certificates": case["certificates"]}, \
            case["session"]


def _write_deck() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = [{"session": text, **deck_report(text, pathlib.Path(tmp))}
                 for text in deck_sessions()]
    DECK.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def _write() -> None:
    lines = []
    for key, *args in cases():
        snap = snapshot(*args)
        rows = ",\n".join(f"   {json.dumps(v, ensure_ascii=False)}" for v in snap["vars"])
        lines.append(f' "{key}": {{\n  "vars": [\n{rows}\n  ],\n'
                     f'  "h0": {json.dumps(snap["h0"])}\n }}')
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _write_deck() if sys.argv[1:] == ["deck"] else _write()
