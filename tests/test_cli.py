import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from dglift import BasePoly, Field, PolyRing, TowerAlgebra, cli
from dglift.cli import main
from dglift.render import render_element, render_poly
from dglift.session import BUDGET_LIMIT, EXPONENT_LIMIT, WINDOW_LIMIT, parse_window

from bench_decks import bench_workloads

GOLDENS = pathlib.Path(__file__).parent / "goldens"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name,code", [
    ("split", 0),
    ("obstructed", 10),
    ("error", 1),
])
def test_golden_reports_and_exit_codes(tmp_path, capsys, name, code):
    session = GOLDENS / f"{name}.session"
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert main([str(session), "--report", str(out1)]) == code
    assert main([str(session), "--report", str(out2)]) == code
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2, "reports differ between runs"
    expected = (GOLDENS / f"{name}.json").read_bytes()
    assert b1 == expected, "report drifted from the committed golden file"


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_golden_reports_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    # string hashing changes set and dict orders between interpreters; a
    # report that read such an order would differ from its golden under
    # some seed
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    for name, code in (("split", 0), ("obstructed", 10), ("error", 1)):
        out = tmp_path / f"{name}.json"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from dglift.cli import main; "
             "sys.exit(main(sys.argv[1:]))", str(GOLDENS / f"{name}.session"),
             "--report", str(out)],
            env=env, capture_output=True, timeout=120)
        assert run.returncode == code, run.stderr.decode()
        assert out.read_bytes() == (GOLDENS / f"{name}.json").read_bytes(), name


def test_report_structure(tmp_path):
    out = tmp_path / "r.json"
    main([str(GOLDENS / "split.session"), "--report", str(out)])
    doc = json.loads(out.read_text())
    assert doc["version"] and doc["seed"] == 0
    for rep in doc["reports"]:
        assert set(rep) == {
            "command", "window", "result", "tables", "certificates",
            "seed", "version",
        }


def test_seed_recorded(tmp_path):
    out = tmp_path / "r.json"
    main([str(GOLDENS / "split.session"), "--seed", "7", "--report", str(out)])
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7
    assert all(rep["seed"] == 7 for rep in doc["reports"])


def test_human_output_mentions_status(capsys):
    code = main([str(GOLDENS / "obstructed.session")])
    captured = capsys.readouterr()
    assert code == 10
    assert "OBSTRUCTED" in captured.out


def test_missing_file_errors(capsys):
    assert main(["/nonexistent.session"]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_error_exit_and_position(tmp_path, capsys):
    bad = tmp_path / "bad.session"
    bad.write_text("field Q\nbase x:1\ntower divided\nrun eval q\n")
    assert main([str(bad)]) == 1
    err = capsys.readouterr().err
    assert "4:" in err and "unknown identifier" in err


def test_modular_field_session_end_to_end(tmp_path):
    session = tmp_path / "f5.session"
    session.write_text(
        "field F 5\nbase x:1\ntower divided\n"
        "run tate x^2 hbound 2 wbound 4\n"
        "run check-axioms budget 40 wbound 3\n"
    )
    out = tmp_path / "r.json"
    assert main([str(session), "--report", str(out)]) == 0
    doc = json.loads(out.read_text())
    tate_rep = doc["reports"][0]
    assert tate_rep["result"]["variables"] == [["X1", 1, 2]]
    assert doc["reports"][1]["result"]["status"] == "ok"


def test_default_window_flag(tmp_path):
    session = tmp_path / "w.session"
    session.write_text(
        "field Q\nbase x:1\ntower divided\nvar X deg 1 wt 1 d x\n"
        "module N\ngen e deg 0 wt 0\nrun ext N N 0..1\n"
    )
    out = tmp_path / "r.json"
    assert main([str(session), "--window", "0:2:2", "--report", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["window"] == "0:2:2"
    # without a window anywhere the command errors
    assert main([str(session)]) == 1


@pytest.mark.parametrize("expr", [
    "(" * 2000 + "x" + ")" * 2000,
    "-" * 2000 + "x",
], ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_positioned_error(tmp_path, capsys, expr):
    session = tmp_path / "deep.session"
    session.write_text(f"field Q\nbase x:1\nrun eval {expr}\n")
    out = tmp_path / "r.json"
    assert main([str(session), "--report", str(out)]) == 1
    assert "nested deeper than" in capsys.readouterr().err
    error = json.loads(out.read_text())["error"]
    # the first token past the nesting limit, on the `run eval` line
    assert (error["line"], error["col"]) == (3, len("run eval ") + 101)


def test_nesting_below_the_limit_evaluates(tmp_path):
    session = tmp_path / "nested.session"
    session.write_text("field Q\nbase x:1\nrun eval " + "(" * 99 + "-x" + ")" * 99 + "\n")
    out = tmp_path / "r.json"
    assert main([str(session), "--report", str(out)]) == 0
    assert json.loads(out.read_text())["reports"][0]["result"]["value"] == "-x"


@pytest.mark.parametrize("command,col,message", [
    ("run check-axioms budget -3", 25, "budget must be >= 0"),
    ("run check-axioms wbound -2", 25, "wbound must be >= 0"),
    ("run tate x^2 hbound -1 wbound 3", 21, "hbound must be >= 1"),
])
def test_negative_command_bounds_are_refused(tmp_path, command, col, message):
    # refused where the number is read, before any command runs
    session = tmp_path / "bound.session"
    session.write_text(f"field Q\nbase x:1\ntower divided\nvar X deg 1 wt 1 d x\n{command}\n")
    out = tmp_path / "r.json"
    assert main([str(session), "--report", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["error"] == {"line": 5, "col": col, "message": message}
    assert doc["reports"] == []


def test_check_axioms_budget_zero_is_not_the_default(tmp_path):
    # budget 0 draws the minimum of one random sample, like budget 1; it used
    # to fall back to the default budget of 200
    session = tmp_path / "budget.session"
    session.write_text(
        "field Q\nbase x:1\ntower divided\nvar X deg 1 wt 1 d x\n"
        "run check-axioms budget 0 wbound 2\n"
        "run check-axioms budget 1 wbound 2\n"
        "run check-axioms wbound 2\n"
    )
    out = tmp_path / "r.json"
    assert main([str(session), "--report", str(out)]) == 0
    zero, one, default = (rep["tables"]["laws"] for rep in json.loads(out.read_text())["reports"])
    assert zero == one != default


def test_check_axioms_without_wbound_reads_the_window_or_the_default(tmp_path, capsys):
    # the session's wbound, else the wmax of --window, else check_axioms'
    # own default of 6; the report's window and the human line read the
    # bound that was used
    session = tmp_path / "bound.session"
    session.write_text("field Q\nbase x:1\ntower divided\nvar X deg 1 wt 1 d x\n"
                       "run check-axioms budget 1\n")
    out = tmp_path / "r.json"
    seen = []
    for extra in ([], ["--window", "0:3:2"]):
        assert main([str(session), "--report", str(out), *extra]) == 0
        (rep,) = json.loads(out.read_text())["reports"]
        seen.append((rep["window"], capsys.readouterr().out.split("wbound ")[1]))
    assert seen == [("0:7:6", "6)\n"), ("0:3:2", "2)\n")]


REAL_NAIVE_LIFT = cli.naive_lift_check


def _witness(tmp_path, monkeypatch, scalar):
    """The naive-lift report of the obstructed golden, with every scalar of
    the witness (value and combination) replaced by `scalar`."""
    def patched(*args, **kwargs):
        res = REAL_NAIVE_LIFT(*args, **kwargs)
        res.witness.value = scalar
        res.witness.combo = {k: scalar for k in res.witness.combo}
        return res

    monkeypatch.setattr(cli, "naive_lift_check", patched)
    out = tmp_path / "witness.json"
    assert main([str(GOLDENS / "obstructed.session"), "--report", str(out)]) == 10
    text = out.read_text()
    witness = next(rep["certificates"]["witness"] for rep in json.loads(text)["reports"]
                   if "witness" in rep["certificates"])
    return text, witness


@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2])
def test_integral_scalars_print_the_same_as_int_and_as_fraction(tmp_path, monkeypatch, n):
    # over Q an integral scalar is an int, or an integral Fraction that a sum
    # or product left: every output must spell both the same way
    ring = PolyRing(Field(), ("x",), (1,))
    tower = TowerAlgebra(ring, "divided").adjoin("X", 2, 1)
    for bex in ((0,), (1,)):
        as_int, as_frac = BasePoly(ring, {bex: n}), BasePoly(ring, {bex: Fraction(n, 1)})
        assert render_poly(as_int) == render_poly(as_frac)
        assert render_element(tower.monomial((1,), as_int)) \
            == render_element(tower.monomial((1,), as_frac))
        assert render_element(tower.from_poly(as_int)) == render_element(tower.from_poly(as_frac))
    text, witness = _witness(tmp_path, monkeypatch, n)
    assert (text, witness) == _witness(tmp_path, monkeypatch, Fraction(n, 1))
    assert witness["value"] == str(n) and set(witness["combo"].values()) == {str(n)}


def test_a_half_prints_as_a_slash(tmp_path, monkeypatch):
    ring = PolyRing(Field(), ("x",), (1,))
    half = Fraction(1, 2)
    assert render_poly(BasePoly(ring, {(0,): half})) == "1/2"
    assert render_poly(BasePoly(ring, {(1,): half})) == "1/2·x"
    tower = TowerAlgebra(ring, "divided").adjoin("X", 2, 1)
    assert render_element(tower.monomial((1,), BasePoly(ring, {(0,): half}))) == "1/2·X"
    _, witness = _witness(tmp_path, monkeypatch, half)
    assert witness["value"] == "1/2" and set(witness["combo"].values()) == {"1/2"}


SPLIT_DECLARATIONS = "".join((GOLDENS / "split.session").read_text(encoding="utf-8")
                             .splitlines(keepends=True)[:13])


def assert_refused_at_the_number(tmp_path, capsys, command, col, message):
    """`command`, appended to the declarations of the split golden, is
    refused at line 14, column `col`, within a second and before any
    command runs."""
    session = tmp_path / "huge.session"
    session.write_text(SPLIT_DECLARATIONS + command + "\n", encoding="utf-8")
    out = tmp_path / "r.json"
    start = time.perf_counter()
    assert main([str(session), "--report", str(out)]) == 1
    assert time.perf_counter() - start < 1
    assert message in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["error"] == {"line": 14, "col": col, "message": message}
    assert doc["reports"] == []


@pytest.mark.parametrize("command,col,what", [
    ("run ext N N 0..2 0:100000:100000", 20, "window hmax"),
    ("run envelope-basis 0:100000:100000 over 0", 22, "window hmax"),
    ("run envelope-basis 0:3:1001 over 0", 24, "window wmax"),
    ("run ext N N 0..2 -1001:2:3", 18, "window hmin"),
    # the i range of `ext` bounds the Hom slices it reads, as a window does
    ("run ext N N -100000..0 0:2:2", 13, "i range start"),
    ("run ext N N 0..3000000 0:2:2", 16, "i range end"),
])
def test_huge_windows_are_refused_at_the_number(tmp_path, capsys, command, col, what):
    assert_refused_at_the_number(tmp_path, capsys, command, col,
                                 f"{what} must lie within -{WINDOW_LIMIT}..{WINDOW_LIMIT}")


@pytest.mark.parametrize("command,col", [
    ("run eval x^99999999999999999999", 12),
    (f"run eval X1 y^({EXPONENT_LIMIT + 1})", 16),
])
def test_huge_exponents_are_refused_at_the_number(tmp_path, capsys, command, col):
    # a power multiplies as many times as its exponent says
    assert_refused_at_the_number(tmp_path, capsys, command, col,
                                 f"exponent must be at most {EXPONENT_LIMIT}")


@pytest.mark.parametrize("command,col,message", [
    ("run tate x^2 hbound 3 wbound 100000", 30, f"wbound must lie within 0..{WINDOW_LIMIT}"),
    ("run tate x^2 hbound 100000 wbound 4", 21, f"hbound must lie within 1..{WINDOW_LIMIT}"),
    ("run check-axioms budget 100000000 wbound 100000", 25,
     f"budget must lie within 0..{BUDGET_LIMIT}"),
    (f"run check-axioms wbound {WINDOW_LIMIT + 1}", 25,
     f"wbound must lie within 0..{WINDOW_LIMIT}"),
])
def test_huge_keyword_bounds_are_refused_at_the_number(tmp_path, capsys, command, col,
                                                        message):
    # `hbound` and `wbound` bound the slices a command reads, as a window
    # does, and `budget` the elements an axiom check samples
    assert_refused_at_the_number(tmp_path, capsys, command, col, message)


def test_an_exponent_at_the_limit_runs(tmp_path, capsys):
    session = tmp_path / "power.session"
    session.write_text(SPLIT_DECLARATIONS + f"run eval x^{EXPONENT_LIMIT}\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert main([str(session), "--report", str(out)]) == 0
    assert json.loads(out.read_text())["reports"][0]["result"]["value"] == f"x^{EXPONENT_LIMIT}"


def test_the_window_flag_is_read_as_a_session_window(tmp_path, capsys):
    # its errors are positioned on line 0 and written to the error report
    session = tmp_path / "w.session"
    session.write_text(SPLIT_DECLARATIONS + "run ext N N 0..2\n", encoding="utf-8")
    out = tmp_path / "r.json"
    for flag, col, message in (("0:2:100000", 5, "window wmax must lie within -1000..1000"),
                               ("0:2", 3, "window must look like hmin:hmax:wmax"),
                               ("3:1:2", 1, "empty homological range 3:1"),
                               ("a:b:c", 1, "expected window hmin"),
                               ("0:2:3:4", 6, "unexpected ':'")):
        assert main([str(session), "--window", flag, "--report", str(out)]) == 1
        assert json.loads(out.read_text())["error"] == {"line": 0, "col": col, "message": message}
    assert main([str(session), "--window", "0:2:3", "--report", str(out)]) == 0
    window = parse_window("-1:2:3")
    assert (window.hmin, window.hmax, window.wmax) == (-1, 2, 3)
    assert parse_window(window.format()) == window


def test_the_window_limit_sits_far_above_every_golden_and_bench_window():
    # the largest window bound of the goldens, their keyword bounds and the
    # ends of their `ext` i ranges, and the largest bound each bench shape
    # gives a window or a command: the lift windows and i ranges derived
    # from N as the benchmark derives them, the Tate and axiom bounds; and
    # the largest axiom budget beside BUDGET_LIMIT
    import re

    workloads, dg = bench_workloads()
    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDENS.glob("*.session"))]
    bounds = [abs(int(b)) for text in texts
              for window in re.findall(r"-?\d+:-?\d+:-?\d+", text) for b in window.split(":")]
    assert bounds
    # the keyword bounds `deg`, `wt`, `hbound` and `wbound` are window bounds
    keywords = [abs(int(b)) for text in texts
                for b in re.findall(r"\b(?:deg|wt|hbound|wbound) (-?\d+)", text)]
    assert keywords
    bounds += keywords
    # so are the ends of an `ext` i range
    ranges = [abs(int(b)) for text in texts
              for ends in re.findall(r"(-?\d+)\.\.(-?\d+)", text) for b in ends]
    assert ranges
    bounds += ranges
    budgets = [int(b) for text in texts for b in re.findall(r"\bbudget (\d+)", text)]
    assert budgets
    for name, workload in workloads.items():
        shapes, _ = workload().shapes(dg)
        for shape in shapes:
            if name == "lift":
                gens = [(d0, w0) for _, d0, w0, *_ in shape[2]]
                gens += [(d0 + zh + 1, w0 + zw) for kind, d0, w0, *cone in shape[2]
                         if kind != "free" for zh, zw, _ in [cone]]
                height = max(d for d, _ in gens) - min(d for d, _ in gens) + 1
                weights = [w for _, w in gens]
                bounds += [height, max(weights), 2 * (max(weights) - min(weights))]
            elif name == "resolve":
                bounds += [3, shape[2]]
            else:
                bounds += [shape[4] + 2, shape[4]]
                budgets.append(shape[3])
    assert 100 * max(bounds) <= WINDOW_LIMIT
    assert 100 * max(budgets) <= BUDGET_LIMIT


def test_the_exponent_limit_sits_far_above_every_golden_and_bench_exponent():
    # the exponents `^m` and `^(m)` of the goldens and of one deck of each
    # session workload of the benchmark (the shapes, and so the largest
    # exponent, are the same for every seed)
    import re

    workloads, dg = bench_workloads()
    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDENS.glob("*.session"))]
    for name in ("resolve", "axioms"):
        deck, _, _ = workloads[name]().generate(dg, 1)
        texts += [inp.spec["text"] for inp in deck]
    exponents = [int(m) for text in texts for m in re.findall(r"\^\(?(\d+)", text)]
    assert exponents
    assert 100 * max(exponents) <= EXPONENT_LIMIT
