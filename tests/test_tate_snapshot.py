"""Snapshot of Tate resolutions: the name, degree and weight of every adjoined
variable, its differential as `render_element` writes it, and the h0 dims.

The representative `tate_step` kills is chosen by the elimination kernel, so
any change to how cycles and boundaries are reduced shows up here first.
`python tests/test_tate_snapshot.py` rewrites tests/snapshots/tate.json from
the current code; review the diff before committing it.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from dglift import Field, PolyRing, tate_resolution
from dglift.render import render_element

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "snapshots" / "tate.json"


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
    _write()
