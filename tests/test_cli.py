import json
import pathlib
from fractions import Fraction

import pytest

from dglift import BasePoly, Field, PolyRing, TowerAlgebra, cli
from dglift.cli import main
from dglift.render import render_element, render_poly

GOLDENS = pathlib.Path(__file__).parent / "goldens"


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
