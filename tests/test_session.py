import pytest

from dglift import ParseError, parse_session, format_session
from dglift.session import render_element

KOSZUL = """\
field Q
base x:1
tower divided
var X deg 1 wt 1 d x
run check-axioms
"""


def test_parse_koszul_session():
    s = parse_session(KOSZUL)
    assert s.tower.n == 1
    assert s.tower.variables[0].name == "X"
    assert len(s.commands) == 1


def test_rejects_non_cycle_target():
    text = """\
field Q
base x:1
tower divided
var X deg 1 wt 1 d x
var Y deg 2 wt 1 d X
"""
    with pytest.raises(ParseError, match="not a cycle") as err:
        parse_session(text)
    assert err.value.line == 5


def test_eval_divided_product(even_tower):
    text = """\
field Q
base
tower divided
var X deg 2 wt 1
run eval X^(2) X^(3)
"""
    s = parse_session(text)
    expr = s.commands[0].params["expr"]
    assert render_element(expr) == "10·X^(5)"


def test_unknown_identifier_position():
    text = "field Q\nbase x:1\ntower divided\nrun eval x + z\n"
    with pytest.raises(ParseError, match="unknown identifier 'z'") as err:
        parse_session(text)
    assert err.value.line == 4


@pytest.mark.parametrize("gens,message,col", [
    ("x^2, z y - z y", "ideal generator is zero", 15),
    ("x^2, y X", "ideal generators live in the base ring", 17),
    ("x^2,", "empty ideal generator", 13),
    (", x^2", "empty ideal generator", 10),
    ("x^2,, y", "empty ideal generator", 14),
], ids=["zero", "tower-variable", "trailing-comma", "leading-comma", "doubled-comma"])
def test_tate_generator_errors(gens, message, col):
    text = f"field Q\nbase x:1 y:1 z:1\nvar X deg 1 wt 1 d x\nrun tate {gens} hbound 2 wbound 3\n"
    with pytest.raises(ParseError, match=message) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (4, col)


def test_syntax_error_position():
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_session("field Q\nbase x:1\nrun eval x %\n")
    assert err.value.line == 3


def test_reserved_names_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_session("field Q\nbase over:1\n")


def test_inhomogeneous_module_entry():
    text = """\
field Q
base x:1
tower divided
var X deg 1 wt 1 d x
module N
gen e deg 0 wt 0
gen f deg 1 wt 1
d f = e·(x + x^2)
"""
    with pytest.raises(ParseError, match="weight"):
        parse_session(text)


def test_second_differential_line_is_an_error():
    text = """\
field Q
base x:1 y:1
tower divided
module N
gen e deg 0 wt 0
gen g deg 0 wt 0
gen f deg 1 wt 1
d f = e·x + g·y
d f = e·y
"""
    with pytest.raises(ParseError, match="differential of f already given") as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (9, 3)
    n = parse_session(text.rsplit("d f", 1)[0]).modules["N"]
    assert set(n.diff) == {(0, 2), (1, 2)}


def test_module_left_coefficient_flip():
    text = """\
field Q
base x:1
tower divided
var X deg 1 wt 1 d x
module N
gen e deg 0 wt 0
gen f deg 1 wt 1
d f = x e
"""
    s = parse_session(text)
    n = s.modules["N"]
    assert n.diff[(0, 1)] == s.tower.from_poly(s.ring.var("x"))


def test_odd_left_coefficients_flip_past_odd_generators():
    # X·e = -e·X for odd X and odd e; an even generator takes no sign
    head = """\
field Q
base x:1
tower divided
var X deg 1 wt 1
module N
gen e deg 1 wt 0
gen g deg 2 wt 0
gen f deg 3 wt 1
gen h deg 4 wt 1
"""
    for line, sign in (("d f = X e\nd h = X g\n", -1), ("d f = e X\nd h = X g\n", 1)):
        s = parse_session(head + line)
        n, x = s.modules["N"], s.tower.gen("X")
        assert n.diff[(0, 2)] == x.scale_int(sign)
        assert n.diff[(1, 3)] == x


def test_fraction_literals():
    text = "field Q\nbase x:1\ntower divided\nrun eval 1/2 x + 1/3 x\n"
    s = parse_session(text)
    assert render_element(s.commands[0].params["expr"]) == "5/6·x"


def test_bad_denominators_are_positioned_errors():
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_session("field Q\nbase x:1\ntower divided\nrun eval 1/0\n")
    assert err.value.line == 4
    with pytest.raises(ParseError, match="0 mod 5"):
        parse_session("field F 5\nbase x:1\ntower divided\nrun eval 1/5 x\n")


def test_modular_field_session():
    text = "field F 5\nbase x:1\ntower divided\nrun eval 3 x + 3 x\n"
    s = parse_session(text)
    assert render_element(s.commands[0].params["expr"]) == "x"
    t = parse_session("field F 5\nbase x:1\ntower divided\nrun eval 3 x + 4 x\n")
    assert render_element(t.commands[0].params["expr"]) == "2·x"


def test_envelope_expression_with_suffix_names():
    text = """\
field Q
base
tower divided
var X deg 2 wt 1
run omega Xo - X over 0
run filtration-level xi_X^(2) over 0
"""
    s = parse_session(text)
    xi = s.commands[0].params["expr"]
    env = s.envelope(0)
    assert xi == env.xi(0)
    assert s.commands[1].params["expr"] == env.xi_power(0, 2)


def test_round_trip_fixed_point():
    text = """\
field Q
base x:1 y:1
tower divided
var X1 deg 1 wt 1 d x
var X2 deg 1 wt 1 d y
var Y deg 2 wt 2 d X1 y - X2 x
module N
gen e deg 0 wt 0
gen f deg 2 wt 2
d f = e·(X1·y - X2·x)
run check-axioms budget 50 wbound 4
run eval Y^(2)
run naive-lift N over 0
run ext N N 0..2 0:2:4
run omega (X1o - X1)·(X2o - X2) over 0
run filtration-level xi_X1 xi_X2 over 0
run envelope-basis 0:2:2 over 0
run tate x^2, x y hbound 2 wbound 6
"""
    s1 = parse_session(text)
    printed = format_session(s1)
    s2 = parse_session(printed)
    assert s1 == s2
    assert format_session(s2) == printed


def test_session_defaults():
    s = parse_session("run eval 3\n")
    assert s.field.is_rational
    assert s.ring.names == ()
    assert s.tower.n == 0
