"""Text of monomials, elements and module terms.

The one place that writes exponent vectors as `x`, `x^(m)` or `x^m`, and
base polynomials, tower elements, envelope elements, Omega coordinates and
module elements in the canonical form that the session grammar parses back.
It imports no other dglift module, so every layer can use it; the element
renderers only read the attributes of the objects they are given.
"""

from __future__ import annotations

# dg_algebra.DIVIDED, spelled out so that this module imports nothing
_DIVIDED = "divided"


def monomial_text(names, exps, divided: bool, sep: str = "·", empty: str = "") -> str:
    """`x`, `x^(m)` (divided) or `x^m` for each nonzero exponent, joined by
    `sep`; `empty` when every exponent is zero."""
    bits = []
    for name, m in zip(names, exps):
        if m == 1:
            bits.append(name)
        elif m:
            bits.append(f"{name}^({m})" if divided else f"{name}^{m}")
    return sep.join(bits) or empty


def omega_name(env, exps, prefix: str = "ξ_", sep: str = "") -> str:
    """Name of the Mon(Omega) monomial of an envelope: `ξ_X^(2)ξ_Y` in module
    bases, `xi_X^(2)·xi_Y` (prefix "xi_", sep "·") in session text; "1" for
    the unit."""
    names = [prefix + v.name for v in env.tower.variables[env.a_prefix:]]
    return monomial_text(names, exps, env.tower.flavor == _DIVIDED, sep, "1")


def _term(coeff: str, mono: str) -> str:
    """coeff·mono, a coefficient of 1 or -1 written as its sign only."""
    if not mono:
        return coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return f"-{mono}"
    return f"{coeff}·{mono}"


def render_poly(p) -> str:
    if p.is_zero():
        return "0"
    names = p.ring.names
    return " + ".join(_term(str(s), monomial_text(names, bex, False))
                      for bex, s in p.sorted_terms())


def _tower_terms(u, names) -> str:
    if u.is_zero():
        return "0"
    divided = u.tower.flavor == _DIVIDED
    bits = []
    for exps, poly in u.terms.items():
        coeff = render_poly(poly)
        if len(poly.terms) > 1:
            coeff = f"({coeff})"
        bits.append(_term(coeff, monomial_text(names, exps, divided)))
    return " + ".join(bits)


def render_element(u) -> str:
    return _tower_terms(u, [v.name for v in u.tower.variables])


def render_opposite(u, a_prefix: int) -> str:
    """Render u^o (x) 1: extension variables get the `o` suffix."""
    names = [v.name + ("o" if i >= a_prefix else "") for i, v in enumerate(u.tower.variables)]
    return _tower_terms(u, names)


def render_envelope(e) -> str:
    if e.is_zero():
        return "0"
    env = e.env
    divided = env.tower.flavor == _DIVIDED
    names = [v.name + "o" for v in env.tower.variables[env.a_prefix:]]
    bits = []
    for lex, r in e.sorted_terms():
        left = monomial_text(names, lex, divided)
        right = render_element(r)
        bits.append(f"{left}·({right})" if left else right)
    return " + ".join(bits)


def render_omega(o) -> str:
    if not o.coords:
        return "0"
    env = o.env
    bits = []
    for mex, b in sorted(o.coords.items()):
        btxt = render_opposite(b, env.a_prefix)
        if not any(mex):
            bits.append(btxt if len(b.terms) == 1 else f"({btxt})")
        else:
            wrapped = btxt if (len(b.terms) == 1 and " + " not in btxt) else f"({btxt})"
            bits.append(f"{wrapped}·{omega_name(env, mex, 'xi_', '·')}")
    return " + ".join(bits)


def render_module_elem(module, x: dict) -> str:
    if not x:
        return "0"
    return " + ".join(f"{module.basis[i].name}·({render_element(x[i])})" for i in sorted(x))
