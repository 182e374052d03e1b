"""Snapshot of the text renderers and of the generated basis names.

Reports and goldens are compared byte for byte, so this pins the text of base
polynomials, tower elements, u^o (x) 1, envelope elements, Omega coordinates,
module elements and the reprs, and the basis names of base change, of the
quotients J^(l)/J^(l+1), of the windowed ideal J and of the `envelope-basis`
table: both tower flavors, over Q and F_7, over prefixes of length 0 and 2,
with powers up to 3 and coefficients -1 and 2/5.
"""

from __future__ import annotations

import pytest

from dglift import (
    BidegreeWindow,
    EnvelopeAlgebra,
    Field,
    PolyRing,
    TowerAlgebra,
    base_change,
    make_semifree,
    parse_session,
)
from dglift.cli import run_command
from dglift.render import (
    render_element,
    render_envelope,
    render_module_elem,
    render_omega,
    render_opposite,
    render_poly,
)

OVERS = (0, 2)
TOWER = """\
base x:1 y:1
tower {flavor}
var X deg 1 wt 1 d x
var T deg 1 wt 1 d y
var Y deg 2 wt 2 d X y - T x
var Z deg 2 wt 1
"""


def build(p, flavor) -> TowerAlgebra:
    ring = PolyRing(Field(p), ("x", "y"), (1, 1))
    t = TowerAlgebra(ring, flavor)
    t = t.adjoin("X", 1, 1, t.gen("x"))
    t = t.adjoin("T", 1, 1, t.gen("y"))
    t = t.adjoin("Y", 2, 2, t.gen("X") * t.gen("y") - t.gen("T") * t.gen("x"))
    return t.adjoin("Z", 2, 1, None)


def snapshot(p, flavor) -> list[str]:
    t = build(p, flavor)
    ring, field = t.base, t.base.field
    x, y = ring.var("x"), ring.var("y")
    half = field.of(1, 2)

    mono = t.monomial
    polys = [ring.zero(), ring.constant(field.of(-1)), ring.constant(field.of(2, 3)), -y,
             x * x * y + y.scale(half) - ring.one()]
    minus_x = t.gen("X").scale_int(-1)
    mixed = mono((1, 1, 0, 0)) + mono((0, 0, 0, 1), -x)
    big = (mono((0, 0, 2, 1), (x * x).scale(half)) + mono((0, 0, 0, 3), x + y.scale_int(3))
           - mono((1, 1, 0, 0)) - t.one())
    elems = [t.zero(), minus_x, t.constant(field.of(-3)), t.from_poly(x - y), mixed, big,
             mono((1, 0, 3, 2), ring.constant(field.of(2, 5)))]

    out = [f"poly {render_poly(f)} | {f!r}" for f in polys]
    out += [f"elem {render_element(u)} | {u!r}" for u in elems]
    n = make_semifree(t, [("e", 0, 0), ("f", 1, 1), ("g", 2, 1)],
                      {("e", "f"): t.gen("x"), ("e", "g"): t.gen("X"), ("f", "g"): -t.one()})
    out.append("module " + render_module_elem(n, {}))
    out.append("module " + render_module_elem(n, {0: big, 2: minus_x}))
    window = BidegreeWindow(0, 4, 3)
    for k in OVERS:
        env = EnvelopeAlgebra(t, k)
        out += [f"over {k} opposite {render_opposite(u, k)}" for u in (minus_x, mixed, big)]
        envs = [
            env.include_left(minus_x),
            env.include_left(mixed) + env.include_right(t.gen("Y")),
            env.from_tensor(mono((0, 0, 1, 1)), mono((0, 0, 0, 2), x))
            - env.include_left(mono((1, 0, 0, 2))).scale(half),
            env.xi_power(env.n_ext - 1, 3) + env.xi(0),
        ]
        for e in envs:
            o = e.to_omega()
            out.append(f"over {k} envelope {render_envelope(e)}")
            out.append(f"over {k} omega {render_omega(o)}")
            out.append(f"over {k} omega repr {o!r}")
        basis = base_change(n, window, k)[0].basis
        out.append(f"over {k} base_change " + " ".join(e.name for e in basis))
        for level in range(3):
            basis = env.quotient_module(level, window).basis
            out.append(f"over {k} quotient {level} " + " ".join(e.name for e in basis))
        basis = env.diagonal_ideal_module(3).basis
        out.append(f"over {k} ideal " + " ".join(e.name for e in basis))

    field_line = "field Q\n" if p is None else f"field F {p}\n"
    session = parse_session(field_line + TOWER.format(flavor=flavor) + "".join(
        f"run envelope-basis 0:6:4 over {k}\n" for k in OVERS))
    for cmd in session.commands:
        rep = run_command(session, cmd, 0, None)[0]
        out.append(f"over {cmd.params['over']} labels "
                   + " ".join(row[0] for row in rep["tables"]["omega_basis"]))
    return out


EXPECTED = {
    (None, "divided"): """\
poly 0 | 0
poly -1 | -1
poly 2/3 | 2/3
poly -y | -1*y
poly -1 + 1/2·y + x^2·y | -1 + 1/2*y + 1*x^2*y
elem 0 | 0
elem -X | (-1)*X
elem -3 | (-3)
elem (-y + x) | (-1*y + 1*x)
elem -x·Z + X·T | (-1*x)*Z + (1)*X*T
elem -1 + (3·y + x)·Z^(3) + 1/2·x^2·Y^(2)·Z + -X·T | (-1) + (3*y + 1*x)*Z^(3) + (1/2*x^2)*Y^(2)*Z + (-1)*X*T
elem 2/5·X·Y^(3)·Z^(2) | (2/5)*X*Y^(3)*Z^(2)
module 0
module e·(-1 + (3·y + x)·Z^(3) + 1/2·x^2·Y^(2)·Z + -X·T) + g·(-X)
over 0 opposite -Xo
over 0 opposite -x·Zo + Xo·To
over 0 opposite -1 + (3·y + x)·Zo^(3) + 1/2·x^2·Yo^(2)·Zo + -Xo·To
over 0 envelope Xo·(-1)
over 0 omega -Xo
over 0 omega repr ((-1)*X)^o·1
over 0 envelope Y + Zo·(-x) + Xo·To·(1)
over 0 omega (-x·Zo + Yo + Xo·To) + -1·xi_Y
over 0 omega repr ((-1*x)*Z + (1)*Y + (1)*X*T)^o·1 + ((-1))^o·ξ_Y
over 0 envelope Yo·Zo·(x·Z^(2)) + Xo·Zo^(2)·(-1/2)
over 0 omega (3·x·Yo·Zo^(3) + -1/2·Xo·Zo^(2)) + -2·x·Yo·Zo^(2)·xi_Z + x·Yo·Zo·xi_Z^(2)
over 0 omega repr ((3*x)*Y*Z^(3) + (-1/2)*X*Z^(2))^o·1 + ((-2*x)*Y*Z^(2))^o·ξ_Z + ((1*x)*Y*Z)^o·ξ_Z^(2)
over 0 envelope -Z^(3) + -X + Zo·(Z^(2)) + Zo^(2)·(-Z) + Zo^(3)·(1) + Xo·(1)
over 0 omega 1·xi_Z^(3) + 1·xi_X
over 0 omega repr ((1))^o·ξ_Z^(3) + ((1))^o·ξ_X
over 0 base_change e⊗1 e⊗T e⊗X f⊗1 e⊗Z e⊗Y e⊗XT f⊗T f⊗X g⊗1 e⊗TZ e⊗TY e⊗XZ e⊗XY f⊗Z f⊗Y f⊗XT g⊗T g⊗X e⊗Z^(2) e⊗YZ e⊗XTZ f⊗TZ f⊗XZ g⊗Z g⊗Y g⊗XT
over 0 quotient 0 1
over 0 quotient 1 ξ_T ξ_X ξ_Z ξ_Y
over 0 quotient 2 ξ_Xξ_T ξ_Tξ_Z ξ_Tξ_Y ξ_Xξ_Z ξ_Xξ_Y ξ_Z^(2) ξ_Yξ_Z
over 0 ideal ξ_T ξ_X ξ_Z ξ_Y ξ_Xξ_T ξ_Tξ_Z ξ_Tξ_Y ξ_Xξ_Z ξ_Xξ_Y ξ_Z^(2) ξ_Yξ_Z ξ_Xξ_Tξ_Z ξ_Tξ_Z^(2) ξ_Xξ_Z^(2) ξ_Z^(3)
over 2 opposite -X
over 2 opposite -x·Zo + X·T
over 2 opposite -1 + (3·y + x)·Zo^(3) + 1/2·x^2·Yo^(2)·Zo + -X·T
over 2 envelope -X
over 2 omega -X
over 2 omega repr ((-1)*X)^o·1
over 2 envelope Y + X·T + Zo·(-x)
over 2 omega (-x·Zo + Yo + X·T) + -1·xi_Y
over 2 omega repr ((-1*x)*Z + (1)*Y + (1)*X*T)^o·1 + ((-1))^o·ξ_Y
over 2 envelope Zo^(2)·(-1/2·X) + Yo·Zo·(x·Z^(2))
over 2 omega (3·x·Yo·Zo^(3) + -1/2·X·Zo^(2)) + -2·x·Yo·Zo^(2)·xi_Z + x·Yo·Zo·xi_Z^(2)
over 2 omega repr ((3*x)*Y*Z^(3) + (-1/2)*X*Z^(2))^o·1 + ((-2*x)*Y*Z^(2))^o·ξ_Z + ((1*x)*Y*Z)^o·ξ_Z^(2)
over 2 envelope -Z^(3) + -Y + Zo·(Z^(2)) + Zo^(2)·(-Z) + Zo^(3)·(1) + Yo·(1)
over 2 omega 1·xi_Z^(3) + 1·xi_Y
over 2 omega repr ((1))^o·ξ_Z^(3) + ((1))^o·ξ_Y
over 2 base_change e⊗1 f⊗1 e⊗Z e⊗Y g⊗1 f⊗Z f⊗Y e⊗Z^(2) e⊗YZ g⊗Z g⊗Y
over 2 quotient 0 1
over 2 quotient 1 ξ_Z ξ_Y
over 2 quotient 2 ξ_Z^(2) ξ_Yξ_Z
over 2 ideal ξ_Z ξ_Y ξ_Z^(2) ξ_Yξ_Z ξ_Z^(3)
over 0 labels 1 xi_T xi_X xi_Z xi_X·xi_T xi_Y xi_T·xi_Z xi_X·xi_Z xi_T·xi_Y xi_X·xi_Y xi_Z^(2) xi_X·xi_T·xi_Z xi_Y·xi_Z xi_X·xi_T·xi_Y xi_Y^(2) xi_T·xi_Z^(2) xi_X·xi_Z^(2) xi_T·xi_Y·xi_Z xi_X·xi_Y·xi_Z xi_Z^(3) xi_X·xi_T·xi_Z^(2) xi_Y·xi_Z^(2)
over 2 labels 1 xi_Z xi_Y xi_Z^(2) xi_Y·xi_Z xi_Y^(2) xi_Z^(3) xi_Y·xi_Z^(2)
""",
    (None, "ordinary"): """\
poly 0 | 0
poly -1 | -1
poly 2/3 | 2/3
poly -y | -1*y
poly -1 + 1/2·y + x^2·y | -1 + 1/2*y + 1*x^2*y
elem 0 | 0
elem -X | (-1)*X
elem -3 | (-3)
elem (-y + x) | (-1*y + 1*x)
elem -x·Z + X·T | (-1*x)*Z + (1)*X*T
elem -1 + (3·y + x)·Z^3 + 1/2·x^2·Y^2·Z + -X·T | (-1) + (3*y + 1*x)*Z^3 + (1/2*x^2)*Y^2*Z + (-1)*X*T
elem 2/5·X·Y^3·Z^2 | (2/5)*X*Y^3*Z^2
module 0
module e·(-1 + (3·y + x)·Z^3 + 1/2·x^2·Y^2·Z + -X·T) + g·(-X)
over 0 opposite -Xo
over 0 opposite -x·Zo + Xo·To
over 0 opposite -1 + (3·y + x)·Zo^3 + 1/2·x^2·Yo^2·Zo + -Xo·To
over 0 envelope Xo·(-1)
over 0 omega -Xo
over 0 omega repr ((-1)*X)^o·1
over 0 envelope Y + Zo·(-x) + Xo·To·(1)
over 0 omega (-x·Zo + Yo + Xo·To) + -1·xi_Y
over 0 omega repr ((-1*x)*Z + (1)*Y + (1)*X*T)^o·1 + ((-1))^o·ξ_Y
over 0 envelope Yo·Zo·(x·Z^2) + Xo·Zo^2·(-1/2)
over 0 omega (x·Yo·Zo^3 + -1/2·Xo·Zo^2) + -2·x·Yo·Zo^2·xi_Z + x·Yo·Zo·xi_Z^2
over 0 omega repr ((1*x)*Y*Z^3 + (-1/2)*X*Z^2)^o·1 + ((-2*x)*Y*Z^2)^o·ξ_Z + ((1*x)*Y*Z)^o·ξ_Z^2
over 0 envelope -Z^3 + -X + Zo·(3·Z^2) + Zo^2·(-3·Z) + Zo^3·(1) + Xo·(1)
over 0 omega 1·xi_Z^3 + 1·xi_X
over 0 omega repr ((1))^o·ξ_Z^3 + ((1))^o·ξ_X
over 0 base_change e⊗1 e⊗T e⊗X f⊗1 e⊗Z e⊗Y e⊗XT f⊗T f⊗X g⊗1 e⊗TZ e⊗TY e⊗XZ e⊗XY f⊗Z f⊗Y f⊗XT g⊗T g⊗X e⊗Z^2 e⊗YZ e⊗XTZ f⊗TZ f⊗XZ g⊗Z g⊗Y g⊗XT
over 0 quotient 0 1
over 0 quotient 1 ξ_T ξ_X ξ_Z ξ_Y
over 0 quotient 2 ξ_Xξ_T ξ_Tξ_Z ξ_Tξ_Y ξ_Xξ_Z ξ_Xξ_Y ξ_Z^2 ξ_Yξ_Z
over 0 ideal ξ_T ξ_X ξ_Z ξ_Y ξ_Xξ_T ξ_Tξ_Z ξ_Tξ_Y ξ_Xξ_Z ξ_Xξ_Y ξ_Z^2 ξ_Yξ_Z ξ_Xξ_Tξ_Z ξ_Tξ_Z^2 ξ_Xξ_Z^2 ξ_Z^3
over 2 opposite -X
over 2 opposite -x·Zo + X·T
over 2 opposite -1 + (3·y + x)·Zo^3 + 1/2·x^2·Yo^2·Zo + -X·T
over 2 envelope -X
over 2 omega -X
over 2 omega repr ((-1)*X)^o·1
over 2 envelope Y + X·T + Zo·(-x)
over 2 omega (-x·Zo + Yo + X·T) + -1·xi_Y
over 2 omega repr ((-1*x)*Z + (1)*Y + (1)*X*T)^o·1 + ((-1))^o·ξ_Y
over 2 envelope Zo^2·(-1/2·X) + Yo·Zo·(x·Z^2)
over 2 omega (x·Yo·Zo^3 + -1/2·X·Zo^2) + -2·x·Yo·Zo^2·xi_Z + x·Yo·Zo·xi_Z^2
over 2 omega repr ((1*x)*Y*Z^3 + (-1/2)*X*Z^2)^o·1 + ((-2*x)*Y*Z^2)^o·ξ_Z + ((1*x)*Y*Z)^o·ξ_Z^2
over 2 envelope -Z^3 + -Y + Zo·(3·Z^2) + Zo^2·(-3·Z) + Zo^3·(1) + Yo·(1)
over 2 omega 1·xi_Z^3 + 1·xi_Y
over 2 omega repr ((1))^o·ξ_Z^3 + ((1))^o·ξ_Y
over 2 base_change e⊗1 f⊗1 e⊗Z e⊗Y g⊗1 f⊗Z f⊗Y e⊗Z^2 e⊗YZ g⊗Z g⊗Y
over 2 quotient 0 1
over 2 quotient 1 ξ_Z ξ_Y
over 2 quotient 2 ξ_Z^2 ξ_Yξ_Z
over 2 ideal ξ_Z ξ_Y ξ_Z^2 ξ_Yξ_Z ξ_Z^3
over 0 labels 1 xi_T xi_X xi_Z xi_X·xi_T xi_Y xi_T·xi_Z xi_X·xi_Z xi_T·xi_Y xi_X·xi_Y xi_Z^2 xi_X·xi_T·xi_Z xi_Y·xi_Z xi_X·xi_T·xi_Y xi_Y^2 xi_T·xi_Z^2 xi_X·xi_Z^2 xi_T·xi_Y·xi_Z xi_X·xi_Y·xi_Z xi_Z^3 xi_X·xi_T·xi_Z^2 xi_Y·xi_Z^2
over 2 labels 1 xi_Z xi_Y xi_Z^2 xi_Y·xi_Z xi_Y^2 xi_Z^3 xi_Y·xi_Z^2
""",
    (7, "divided"): """\
poly 0 | 0
poly 6 | 6
poly 3 | 3
poly 6·y | 6*y
poly 6 + 4·y + x^2·y | 6 + 4*y + 1*x^2*y
elem 0 | 0
elem 6·X | (6)*X
elem 4 | (4)
elem (6·y + x) | (6*y + 1*x)
elem 6·x·Z + X·T | (6*x)*Z + (1)*X*T
elem 6 + (3·y + x)·Z^(3) + 4·x^2·Y^(2)·Z + 6·X·T | (6) + (3*y + 1*x)*Z^(3) + (4*x^2)*Y^(2)*Z + (6)*X*T
elem 6·X·Y^(3)·Z^(2) | (6)*X*Y^(3)*Z^(2)
module 0
module e·(6 + (3·y + x)·Z^(3) + 4·x^2·Y^(2)·Z + 6·X·T) + g·(6·X)
over 0 opposite 6·Xo
over 0 opposite 6·x·Zo + Xo·To
over 0 opposite 6 + (3·y + x)·Zo^(3) + 4·x^2·Yo^(2)·Zo + 6·Xo·To
over 0 envelope Xo·(6)
over 0 omega 6·Xo
over 0 omega repr ((6)*X)^o·1
over 0 envelope Y + Zo·(6·x) + Xo·To·(1)
over 0 omega (6·x·Zo + Yo + Xo·To) + 6·xi_Y
over 0 omega repr ((6*x)*Z + (1)*Y + (1)*X*T)^o·1 + ((6))^o·ξ_Y
over 0 envelope Yo·Zo·(x·Z^(2)) + Xo·Zo^(2)·(3)
over 0 omega (3·x·Yo·Zo^(3) + 3·Xo·Zo^(2)) + 5·x·Yo·Zo^(2)·xi_Z + x·Yo·Zo·xi_Z^(2)
over 0 omega repr ((3*x)*Y*Z^(3) + (3)*X*Z^(2))^o·1 + ((5*x)*Y*Z^(2))^o·ξ_Z + ((1*x)*Y*Z)^o·ξ_Z^(2)
over 0 envelope 6·Z^(3) + 6·X + Zo·(Z^(2)) + Zo^(2)·(6·Z) + Zo^(3)·(1) + Xo·(1)
over 0 omega 1·xi_Z^(3) + 1·xi_X
over 0 omega repr ((1))^o·ξ_Z^(3) + ((1))^o·ξ_X
over 0 base_change e⊗1 e⊗T e⊗X f⊗1 e⊗Z e⊗Y e⊗XT f⊗T f⊗X g⊗1 e⊗TZ e⊗TY e⊗XZ e⊗XY f⊗Z f⊗Y f⊗XT g⊗T g⊗X e⊗Z^(2) e⊗YZ e⊗XTZ f⊗TZ f⊗XZ g⊗Z g⊗Y g⊗XT
over 0 quotient 0 1
over 0 quotient 1 ξ_T ξ_X ξ_Z ξ_Y
over 0 quotient 2 ξ_Xξ_T ξ_Tξ_Z ξ_Tξ_Y ξ_Xξ_Z ξ_Xξ_Y ξ_Z^(2) ξ_Yξ_Z
over 0 ideal ξ_T ξ_X ξ_Z ξ_Y ξ_Xξ_T ξ_Tξ_Z ξ_Tξ_Y ξ_Xξ_Z ξ_Xξ_Y ξ_Z^(2) ξ_Yξ_Z ξ_Xξ_Tξ_Z ξ_Tξ_Z^(2) ξ_Xξ_Z^(2) ξ_Z^(3)
over 2 opposite 6·X
over 2 opposite 6·x·Zo + X·T
over 2 opposite 6 + (3·y + x)·Zo^(3) + 4·x^2·Yo^(2)·Zo + 6·X·T
over 2 envelope 6·X
over 2 omega 6·X
over 2 omega repr ((6)*X)^o·1
over 2 envelope Y + X·T + Zo·(6·x)
over 2 omega (6·x·Zo + Yo + X·T) + 6·xi_Y
over 2 omega repr ((6*x)*Z + (1)*Y + (1)*X*T)^o·1 + ((6))^o·ξ_Y
over 2 envelope Zo^(2)·(3·X) + Yo·Zo·(x·Z^(2))
over 2 omega (3·x·Yo·Zo^(3) + 3·X·Zo^(2)) + 5·x·Yo·Zo^(2)·xi_Z + x·Yo·Zo·xi_Z^(2)
over 2 omega repr ((3*x)*Y*Z^(3) + (3)*X*Z^(2))^o·1 + ((5*x)*Y*Z^(2))^o·ξ_Z + ((1*x)*Y*Z)^o·ξ_Z^(2)
over 2 envelope 6·Z^(3) + 6·Y + Zo·(Z^(2)) + Zo^(2)·(6·Z) + Zo^(3)·(1) + Yo·(1)
over 2 omega 1·xi_Z^(3) + 1·xi_Y
over 2 omega repr ((1))^o·ξ_Z^(3) + ((1))^o·ξ_Y
over 2 base_change e⊗1 f⊗1 e⊗Z e⊗Y g⊗1 f⊗Z f⊗Y e⊗Z^(2) e⊗YZ g⊗Z g⊗Y
over 2 quotient 0 1
over 2 quotient 1 ξ_Z ξ_Y
over 2 quotient 2 ξ_Z^(2) ξ_Yξ_Z
over 2 ideal ξ_Z ξ_Y ξ_Z^(2) ξ_Yξ_Z ξ_Z^(3)
over 0 labels 1 xi_T xi_X xi_Z xi_X·xi_T xi_Y xi_T·xi_Z xi_X·xi_Z xi_T·xi_Y xi_X·xi_Y xi_Z^(2) xi_X·xi_T·xi_Z xi_Y·xi_Z xi_X·xi_T·xi_Y xi_Y^(2) xi_T·xi_Z^(2) xi_X·xi_Z^(2) xi_T·xi_Y·xi_Z xi_X·xi_Y·xi_Z xi_Z^(3) xi_X·xi_T·xi_Z^(2) xi_Y·xi_Z^(2)
over 2 labels 1 xi_Z xi_Y xi_Z^(2) xi_Y·xi_Z xi_Y^(2) xi_Z^(3) xi_Y·xi_Z^(2)
""",
}


@pytest.mark.parametrize("p,flavor", list(EXPECTED), ids=lambda v: str(v))
def test_renderer_snapshot(p, flavor):
    assert snapshot(p, flavor) == EXPECTED[(p, flavor)].splitlines()


@pytest.mark.parametrize("flavor,square", [("divided", "ξ_Z^(2)"), ("ordinary", "ξ_Z^2")])
def test_minus_one_and_omega_repr_powers(flavor, square):
    # a coefficient -1 of u^o (x) 1 is written as a sign, as render_element
    # does; the repr of Omega coordinates writes powers in the tower's flavor
    session = parse_session(f"field Q\nbase x:1\ntower {flavor}\nvar X deg 1 wt 1 d x\n"
                            "var Z deg 2 wt 1\nrun omega -Xo over 0\nrun omega xi_Z^2 over 0\n")
    omega, square_cmd = session.commands
    assert run_command(session, omega, 0, None)[0]["result"]["omega"] == "-Xo"
    assert repr(square_cmd.params["expr"].to_omega()).endswith(f"^o·{square}")
