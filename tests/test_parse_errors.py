"""Snapshot of parse results: one-line probes placed in the declarations of
tests/goldens/split.session (its lines before the first `run`).

A probe goes right after the last declaration that starts with the same word,
and replaces it when that word is `field`, `base` or `tower`; any other probe
goes at the end. For each probe the snapshot records `"ok"` or
`[line, col, message]` of the ParseError, and every probe must end in one of
the two: no other exception may escape the parser.

A huge exponent or keyword bound is refused where it is read
(`session.EXPONENT_LIMIT`, `session.MOST`, and `session.WINDOW_LIMIT` for
the ends of an `ext` i range), so `run eval x^99999999999999999999`, `run
tate x^2 hbound 3 wbound 100000` and `run ext N N -100000..0 0:2:2` are
probes.

`python tests/test_parse_errors.py` rewrites tests/snapshots/parse_errors.json
from the current code; review the diff before committing it.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from dglift.session import ParseError, parse_session

HERE = pathlib.Path(__file__).resolve().parent
SNAPSHOT = HERE / "snapshots" / "parse_errors.json"

PROBES = [
    # field, base, tower
    "field Q",
    "field F 5",
    "field F",
    "field F 4",
    "field F 318665857834031151167461",
    "field R",
    "field",
    "field Q extra",
    "field F 5 7",
    "base x:1 y:1",
    "base x:1 y",
    "base x:1 y:",
    "base x y:1",
    "base x:-1 y:1",
    "base x:1 x:1",
    "base over:1",
    "base x:1 y:1 :",
    "tower ordinary",
    "tower",
    "tower cubic",
    "tower divided extra",
    # var
    "var Z deg 1 wt 1",
    "var Z wt 1 deg 1 d y",
    "var Z deg 1",
    "var Z deg 1 wt 1 d y deg 3",
    "var Z deg 1 wt 1 d y wt 2",
    "var Z deg 1 wt 1 d",
    "var Z deg 1 wt 1 deg 2",
    "var Z deg 1 wt 1 d X1",
    "var Z deg 1001 wt 1",
    "var Zo deg 1 wt 1",
    "var xi_Z deg 2 wt 1",
    "var Z deg x wt 1",
    "var Z deg 1 wt 1 foo",
    "var Z deg 1 wt 1 d y,",
    "var Z deg 1 wt 1 d y)",
    "var Z deg 1 wt 1 d (y",
    "var Z deg -1 wt 1",
    "var Z 1",
    "var Z d y deg 1 wt 1",
    "var X1 deg 1 wt 1",
    # module, gen, d
    "module M",
    "module N",
    "module over",
    "gen k deg 1 wt 1",
    "gen k deg 1 wt 1 deg",
    "gen k deg 1",
    "gen k deg 1 wt 1 wt 2",
    "gen k deg 1 wt 1 d",
    "gen k deg 0 wt 1001",
    "gen k deg -1001 wt 0",
    "gen k deg a wt 1",
    "gen k deg 1 wt 1 foo 2",
    "gen k 1 2",
    "gen g deg 1 wt 1",
    "gen x deg 0 wt 1",
    "gen X1 deg 0 wt 1",
    "gen over deg 0 wt 0",
    "gen",
    "d g = e·(x)",
    "d g = e x, e",
    "d g = 0 e",
    "d g = 0 e, e",
    "d h = g·(1)",
    "d g = x",
    "d g e·(x)",
    "d q = e",
    "d g =",
    "d g = e·(x) e",
    "d g = e + x",
    "d g = e·(x) junk",
    "d g = e·(x) / 2",
    "d e = g",
    "d g = e·(x y)",
    "d g = e·(X1)",
    # run: the command word
    "run",
    "run frobnicate",
    "run naive",
    "run naive - 3",
    # run eval
    "run eval X1 X2 + X2 X1",
    "run eval x, y",
    "run eval x)",
    "run eval x over 0",
    "run eval",
    "run eval x +",
    "run eval x + over 0",
    "run eval ((x)",
    "run eval x^y",
    "run eval x^-1",
    "run eval x^(y)",
    "run eval x^99999999999999999999",
    "run eval x^",
    "run eval 2/3 x",
    "run eval 1/0",
    "run eval x / y",
    "run eval z",
    "run eval run",
    "run eval e",
    # run check-axioms
    "run check-axioms budget 60 wbound 4",
    "run check-axioms",
    "run check-axioms foo budget 3",
    "run check-axioms budget",
    "run check-axioms budget 3 budget 4",
    "run check-axioms over 1",
    "run check-axioms budget -3",
    "run check-axioms wbound -2",
    "run check-axioms budget 0 wbound 0",
    "run check-axioms budget 40000 wbound 1000",
    "run check-axioms budget 40001",
    "run check-axioms budget 100000000 wbound 100000",
    # run ext
    "run ext B1 B1 0..3 0:3:3",
    "run ext N N 0..2",
    "run ext N N 0..2 0:2:3 extra",
    "run ext N M 0..2",
    "run ext N N 0 2",
    "run ext N N 0..",
    "run ext N N 0..2 0:2",
    "run ext N N 0..2 2:0:3",
    "run ext N",
    "run ext N N 0..2 over 0",
    "run ext N N -1..2 0:2:3",
    "run ext N N -100000..0 0:2:2",
    "run ext N N 0..3000000 0:2:2",
    "run ext N N -1000..1000 0:2:2",
    "run ext N N 0..1001 0:2:2",
    "run ext N N 3..1 0:2:2",
    "run ext N N 2..2 0:2:2",
    # run naive-lift
    "run naive-lift N over 0",
    "run naive-lift N",
    "run naive-lift N junk over 0",
    "run naive-lift N over 0 over 1",
    "run naive-lift N over 3",
    "run naive-lift M over 0",
    "run naive-lift N over",
    "run naive-lift over 0",
    # run omega, filtration-level, envelope-basis
    "run omega (X1o - X1)·(X2o - X2) over 0",
    "run omega X1 hbound 3",
    "run omega X1o + xi_X2 over 1",
    "run omega xi_X1 over 1",
    "run omega x over 0",
    "run omega X1 + over 0",
    "run omega X1) over 0",
    "run omega",
    "run filtration-level xi_X1 xi_X2 over 0",
    "run filtration-level xo - x",
    "run filtration-level xi_X1 over 0 over 1",
    "run envelope-basis 0:2:2 over 0",
    "run envelope-basis 0:2:2 zzz over 0",
    "run envelope-basis",
    "run envelope-basis over 0",
    "run envelope-basis 0:2: over 0",
    "run envelope-basis 0:2:2 over 5",
    # run tate
    "run tate x^2, x y hbound 3 wbound 8",
    "run tate x^2 hbound 3 wbound 4,",
    "run tate x^2 hbound 3",
    "run tate x^2 hbound 3 wbound 4 hbound 5",
    "run tate x^2 hbound 3 wbound 4 over 1",
    "run tate X1 hbound 2 wbound 3",
    "run tate hbound 2 wbound 3",
    "run tate x^2,, y hbound 2 wbound 3",
    "run tate x + y^2 hbound 2 wbound 3",
    "run tate x - x hbound 2 wbound 3",
    "run tate x^2 + hbound 2 wbound 3",
    "run tate x^2) hbound 2 wbound 3",
    "run tate x^2 hbound -1 wbound 3",
    "run tate x^2 hbound 0 wbound 3",
    "run tate x^2 hbound 1000 wbound 1000",
    "run tate x^2 hbound 3 wbound 100000",
    "run tate x^2 hbound 100000 wbound 4",
    "run tate 1 hbound 2 wbound 3",
    "run tate x^2, 2 hbound 2 wbound 3",
]


def session_text(probe: str) -> str:
    header = []
    for raw in (HERE / "goldens" / "split.session").read_text(encoding="utf-8").splitlines():
        if raw.startswith("run"):
            break
        header.append(raw)
    word = probe.split()[0]
    at = max((i for i, raw in enumerate(header) if raw.split()[:1] == [word]),
             default=None)
    if at is None:
        header.append(probe)
    elif word in ("field", "base", "tower"):
        header[at] = probe
    else:
        header.insert(at + 1, probe)
    return "\n".join(header) + "\n"


def outcome(probe: str):
    try:
        parse_session(session_text(probe))
    except ParseError as exc:
        return [exc.line, exc.col, exc.message]
    return "ok"


@pytest.fixture(scope="module")
def expected():
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_probes_are_the_snapshot_keys(expected):
    assert list(expected) == PROBES


@pytest.mark.parametrize("probe", PROBES)
def test_parse_outcome(expected, probe):
    assert outcome(probe) == expected[probe]


def _write() -> None:
    rows = ",\n".join(f" {json.dumps(p, ensure_ascii=False)}: "
                      f"{json.dumps(outcome(p), ensure_ascii=False)}" for p in PROBES)
    SNAPSHOT.write_text("{\n" + rows + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _write()
