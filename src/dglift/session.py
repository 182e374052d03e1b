"""Session files: a small line-oriented language for rings, towers, modules,
and commands, with a recursive-descent expression grammar.

Statements (one per line, `#` starts a comment):

    field Q | field F <p>
    base <name>:<weight> ...
    tower divided | tower ordinary
    var <name> deg <d> wt <w> [d <expr>]
    module <name>
    gen <name> deg <d> wt <w>
    d <gen> = <module expr>
    run <command>

Expressions: identifiers, integer and p/q literals, + - (binary and unary),
products by `*`, `·` or juxtaposition, ordinary powers `^m`, divided powers
`^(m)`, parentheses.  In envelope contexts `X` means 1^o(x)X, `Xo` means
X^o(x)1, and `xi_X` is the diagonal of X.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .base_ring import Field, PolyRing
from .dg_algebra import DIVIDED, ORDINARY, TowerAlgebra, TowerError
from .dg_module import BidegreeWindow, ModuleError, SemifreeModule, make_semifree
from .envelope import EnvelopeAlgebra, EnvelopeElement, EnvelopeError
from .render import render_element, render_envelope, render_module_elem, render_poly


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = {
    "field", "base", "tower", "var", "module", "gen", "d", "run",
    "deg", "wt", "over", "hbound", "wbound", "budget",
}


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, OP
    text: str
    line: int
    col: int


_OPS = ("..", "+", "-", "*", "·", "^", "(", ")", "/", ",", ":", "=")


def tokenize_line(text: str, line_no: int) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], line_no, col))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], line_no, col))
            i = j
            continue
        for op in _OPS:
            if text.startswith(op, i):
                out.append(Token("OP", op, line_no, col))
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line_no, col)
    return out


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


class _ModElem:
    """Module-expression value: {gen index -> coefficient} over the module
    being declared; ring elements act on the right, or on the left through
    the Koszul flip."""

    def __init__(self, module_ctx, terms: dict):
        self.ctx = module_ctx
        self.terms = terms


class ExprEval:
    """Recursive-descent evaluator over a token slice.

    `resolve(name)` returns the value of an identifier; values are
    AlgebraElement, EnvelopeElement, or _ModElem, and combine per their types.
    """

    # Parentheses and unary minus recurse; past this depth the expression is
    # refused rather than left to exhaust the interpreter's recursion limit.
    MAX_NESTING = 100

    def __init__(self, tokens: list[Token], resolve, constant, line: int):
        self.toks = tokens
        self.i = 0
        self.resolve = resolve
        self.constant = constant
        self.line = line
        self.depth = 0

    def _err(self, msg: str, tok: Token | None = None):
        if tok is None:
            tok = self.toks[self.i - 1] if self.i else None
        col = tok.col if tok else 1
        raise ParseError(msg, self.line, col)

    def peek(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            self._err("unexpected end of expression")
        self.i += 1
        return tok

    def _nest(self, tok: Token):
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            self._err(f"expression nested deeper than {self.MAX_NESTING} levels", tok)

    def at_stop(self) -> bool:
        tok = self.peek()
        if tok is None:
            return True
        if tok.kind == "IDENT" and tok.text in KEYWORDS:
            return True
        return tok.kind == "OP" and tok.text in (",", ")")

    def parse(self):
        val = self.expr()
        if not self.at_stop():
            self._err(f"unexpected token {self.peek().text!r}", self.peek())
        return val

    def expr(self):
        val = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "OP" or tok.text not in ("+", "-"):
                return val
            self.next()
            rhs = self.term()
            val = self._add(val, rhs, tok) if tok.text == "+" else self._sub(val, rhs, tok)

    def term(self):
        val = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return val
            if tok.kind == "OP" and tok.text in ("*", "·"):
                self.next()
                val = self._mul(val, self.factor(), tok)
                continue
            if self.at_stop():
                return val
            if tok.kind in ("IDENT", "INT") or (tok.kind == "OP" and tok.text == "("):
                val = self._mul(val, self.factor(), tok)
                continue
            return val

    def factor(self):
        tok = self.peek()
        if tok is not None and tok.kind == "OP" and tok.text == "-":
            self.next()
            self._nest(tok)
            val = self._neg(self.factor(), tok)
            self.depth -= 1
            return val
        val = self.primary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "OP" or tok.text != "^":
                return val
            self.next()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "OP" and nxt.text == "(":
                self.next()
                m_tok = self.next()
                if m_tok.kind != "INT":
                    self._err("divided power needs an integer", m_tok)
                close = self.next()
                if close.kind != "OP" or close.text != ")":
                    self._err("expected ')'", close)
                val = self._divided(val, int(m_tok.text), m_tok)
            else:
                m_tok = self.next()
                if m_tok.kind != "INT":
                    self._err("power needs an integer", m_tok)
                val = self._power(val, int(m_tok.text), m_tok)

    def primary(self):
        tok = self.next()
        if tok.kind == "IDENT":
            if tok.text in KEYWORDS:
                self._err(f"{tok.text!r} is a reserved word", tok)
            val = self.resolve(tok.text)
            if val is None:
                self._err(f"unknown identifier {tok.text!r}", tok)
            return val
        if tok.kind == "INT":
            numer = int(tok.text)
            nxt = self.peek()
            try:
                if nxt is not None and nxt.kind == "OP" and nxt.text == "/":
                    after = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None
                    if after is not None and after.kind == "INT":
                        self.next()
                        denom_tok = self.next()
                        return self.constant(Fraction(numer, int(denom_tok.text)))
                return self.constant(Fraction(numer))
            except ZeroDivisionError as exc:
                msg = str(exc)
                if "Fraction" in msg:
                    msg = "zero denominator"
                self._err(f"invalid literal: {msg}", tok)
        if tok.kind == "OP" and tok.text == "(":
            self._nest(tok)
            val = self.expr()
            close = self.next()
            if close.kind != "OP" or close.text != ")":
                self._err("expected ')'", close)
            self.depth -= 1
            return val
        self._err(f"unexpected token {tok.text!r}", tok)

    # --- typed operations --------------------------------------------------

    def _add(self, a, b, tok):
        if isinstance(a, _ModElem) and isinstance(b, _ModElem):
            out = dict(a.terms)
            for i, c in b.terms.items():
                s = out.get(i)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(i, None)
                else:
                    out[i] = s
            return _ModElem(a.ctx, out)
        if isinstance(a, _ModElem) or isinstance(b, _ModElem):
            self._err("cannot add a module element and a ring element", tok)
        try:
            return a + b
        except (TowerError, EnvelopeError) as exc:
            self._err(str(exc), tok)

    def _sub(self, a, b, tok):
        return self._add(a, self._neg(b, tok), tok)

    def _neg(self, a, tok):
        if isinstance(a, _ModElem):
            return _ModElem(a.ctx, {i: -c for i, c in a.terms.items()})
        return -a

    def _mul(self, a, b, tok):
        if isinstance(a, _ModElem) and isinstance(b, _ModElem):
            self._err("cannot multiply two module elements", tok)
        try:
            if isinstance(a, _ModElem):
                out = {}
                for i, c in a.terms.items():
                    p = c * b
                    if not p.is_zero():
                        out[i] = p
                return _ModElem(a.ctx, out)
            if isinstance(b, _ModElem):
                # left action through the Koszul flip b·m = (-1)^{|a||m|} m·a
                gens = b.ctx
                out = {}
                for da, part in a.split_by_degree().items():
                    for i, c in b.terms.items():
                        for dc, cpart in c.split_by_degree().items():
                            sign = -1 if (da * (gens[i].degree + dc)) % 2 else 1
                            p = cpart * part.scale_int(sign)
                            prev = out.get(i)
                            p = p if prev is None else prev + p
                            if p.is_zero():
                                out.pop(i, None)
                            else:
                                out[i] = p
                return _ModElem(b.ctx, out)
            return a * b
        except (TowerError, EnvelopeError) as exc:
            self._err(str(exc), tok)

    def _power(self, a, m: int, tok):
        if isinstance(a, _ModElem):
            self._err("cannot take powers of a module element", tok)
        try:
            return a.power(m)
        except (TowerError, EnvelopeError) as exc:
            self._err(str(exc), tok)

    def _divided(self, a, m: int, tok):
        if isinstance(a, _ModElem):
            self._err("cannot take powers of a module element", tok)
        try:
            return a.divided_power(m)
        except (TowerError, EnvelopeError) as exc:
            self._err(str(exc), tok)


# ---------------------------------------------------------------------------
# Session model
# ---------------------------------------------------------------------------


@dataclass
class Command:
    kind: str
    params: dict
    line: int

    def canonical(self) -> str:
        p = self.params
        if self.kind == "check-axioms":
            bits = ["check-axioms"]
            if p.get("budget") is not None:
                bits.append(f"budget {p['budget']}")
            if p.get("wbound") is not None:
                bits.append(f"wbound {p['wbound']}")
            return " ".join(bits)
        if self.kind == "eval":
            return f"eval {render_element(p['expr'])}"
        if self.kind == "envelope-basis":
            return f"envelope-basis {p['window'].format()} over {p['over']}"
        if self.kind == "omega":
            return f"omega {render_envelope(p['expr'])} over {p['over']}"
        if self.kind == "filtration-level":
            return f"filtration-level {render_envelope(p['expr'])} over {p['over']}"
        if self.kind == "ext":
            w = p["window"].format() if p.get("window") else ""
            return f"ext {p['m']} {p['l']} {p['i0']}..{p['i1']} {w}".rstrip()
        if self.kind == "naive-lift":
            return f"naive-lift {p['module']} over {p['over']}"
        if self.kind == "tate":
            gens = ", ".join(render_poly(g) for g in p["gens"])
            return f"tate {gens} hbound {p['hbound']} wbound {p['wbound']}"
        raise ValueError(f"unknown command kind {self.kind}")


@dataclass
class Session:
    field: Field
    ring: PolyRing
    tower: TowerAlgebra
    modules: dict[str, SemifreeModule] = dc_field(default_factory=dict)
    module_order: list[str] = dc_field(default_factory=list)
    commands: list[Command] = dc_field(default_factory=list)

    def envelope(self, a_prefix: int) -> EnvelopeAlgebra:
        return EnvelopeAlgebra(self.tower, a_prefix)

    def __eq__(self, other):
        if not isinstance(other, Session):
            return NotImplemented
        if (self.field, self.ring) != (other.field, other.ring):
            return False
        if self.tower != other.tower or self.module_order != other.module_order:
            return False
        for name in self.module_order:
            a, b = self.modules[name], other.modules[name]
            if a.basis != b.basis or a.diff != b.diff:
                return False
        mine = [c.canonical() for c in self.commands]
        theirs = [c.canonical() for c in other.commands]
        return mine == theirs


# ---------------------------------------------------------------------------
# Parsing sessions
# ---------------------------------------------------------------------------


def _expect_ident(toks: list[Token], i: int, line: int, what: str) -> Token:
    if i >= len(toks) or toks[i].kind != "IDENT":
        col = toks[i].col if i < len(toks) else (toks[-1].col if toks else 1)
        raise ParseError(f"expected {what}", line, col)
    return toks[i]


def _expect_int(toks: list[Token], i: int, line: int, what: str) -> int:
    sign = 1
    if i < len(toks) and toks[i].kind == "OP" and toks[i].text == "-":
        sign = -1
        i += 1
    if i >= len(toks) or toks[i].kind != "INT":
        col = toks[i].col if i < len(toks) else (toks[-1].col if toks else 1)
        raise ParseError(f"expected {what}", line, col)
    return sign * int(toks[i].text)


def _int_width(toks: list[Token], i: int) -> int:
    return 2 if (toks[i].kind == "OP" and toks[i].text == "-") else 1


def _parse_window(toks: list[Token], i: int, line: int) -> tuple[BidegreeWindow, int]:
    h0 = _expect_int(toks, i, line, "window hmin")
    i += _int_width(toks, i)
    for _ in range(2):
        if i >= len(toks) or toks[i].text != ":":
            raise ParseError("window must look like hmin:hmax:wmax", line,
                             toks[i - 1].col)
        i += 1
        if _ == 0:
            h1 = _expect_int(toks, i, line, "window hmax")
        else:
            w = _expect_int(toks, i, line, "window wmax")
        i += _int_width(toks, i)
    try:
        return BidegreeWindow(h0, h1, w), i
    except ModuleError as exc:
        raise ParseError(str(exc), line, toks[0].col) from None


def _keyword_split(toks: list[Token]) -> tuple[list[Token], dict]:
    """Split trailing `over/hbound/wbound/budget <int>` arguments off a line."""
    kw: dict = {}
    head_end = len(toks)
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "IDENT" and t.text in ("over", "hbound", "wbound", "budget"):
            if head_end == len(toks):
                head_end = i
            val = _expect_int(toks, i + 1, t.line, f"integer after {t.text!r}")
            kw[t.text] = val
            i += 1 + _int_width(toks, i + 1)
            continue
        i += 1
    return toks[:head_end], kw


class _Builder:
    def __init__(self):
        self.field: Field | None = None
        self.ring: PolyRing | None = None
        self.flavor: str | None = None
        self.tower: TowerAlgebra | None = None
        self.modules: dict[str, SemifreeModule] = {}
        self.module_order: list[str] = []
        self.commands: list[Command] = []
        # module under construction
        self.cur_name: str | None = None
        self.cur_gens: list[tuple[str, int, int]] = []
        self.cur_diffs: dict = {}
        self.cur_line = 0

    def ensure_ring(self, line: int):
        if self.field is None:
            self.field = Field()
        if self.ring is None:
            self.ring = PolyRing(self.field, (), ())

    def ensure_tower(self, line: int):
        self.ensure_ring(line)
        if self.tower is None:
            self.tower = TowerAlgebra(self.ring, self.flavor or DIVIDED)

    def flush_module(self):
        if self.cur_name is None:
            return
        try:
            module = make_semifree(self.tower, self.cur_gens, self.cur_diffs)
        except ModuleError as exc:
            raise ParseError(str(exc), self.cur_line, 1) from None
        self.modules[self.cur_name] = module
        self.module_order.append(self.cur_name)
        self.cur_name = None
        self.cur_gens = []
        self.cur_diffs = {}

    # --- expression contexts ---------------------------------------------

    def tower_resolver(self):
        tower = self.tower

        def resolve(name: str):
            if name in tower.base.names:
                return tower.from_poly(tower.base.var(name))
            for v in tower.variables:
                if v.name == name:
                    return tower.gen(name)
            return None

        return resolve, lambda q: tower.constant(tower.base.field.of(q.numerator, q.denominator))

    def envelope_resolver(self, env: EnvelopeAlgebra):
        tower = self.tower

        def resolve(name: str):
            if name in tower.base.names:
                return env.include_right(tower.from_poly(tower.base.var(name)))
            for i, v in enumerate(tower.variables):
                if v.name == name:
                    return env.include_right(tower.gen(name))
            if name.endswith("o"):
                stem = name[:-1]
                for i, v in enumerate(tower.variables):
                    if v.name == stem:
                        return env.include_left(tower.gen(stem))
                if stem in tower.base.names:
                    return env.include_right(tower.from_poly(tower.base.var(stem)))
            if name.startswith("xi_"):
                stem = name[3:]
                for i, v in enumerate(tower.variables):
                    if v.name == stem and i >= env.a_prefix:
                        return env.xi(i - env.a_prefix)
            return None

        def constant(q):
            return env.include_right(tower.constant(tower.base.field.of(q.numerator, q.denominator)))

        return resolve, constant

    def module_resolver(self, gen_index: dict, gen_specs):
        tower_resolve, constant = self.tower_resolver()
        tower = self.tower

        def resolve(name: str):
            if name in gen_index:
                i = gen_index[name]
                return _ModElem(gen_specs, {i: tower.one()})
            return tower_resolve(name)

        return resolve, constant

    # --- statements ---------------------------------------------------------

    def stmt(self, toks: list[Token], line: int):
        head = toks[0]
        if head.kind != "IDENT":
            raise ParseError("expected a statement keyword", line, head.col)
        kind = head.text
        if kind == "field":
            self.do_field(toks, line)
        elif kind == "base":
            self.do_base(toks, line)
        elif kind == "tower":
            self.do_tower(toks, line)
        elif kind == "var":
            self.do_var(toks, line)
        elif kind == "module":
            self.do_module(toks, line)
        elif kind == "gen":
            self.do_gen(toks, line)
        elif kind == "d":
            self.do_diff(toks, line)
        elif kind == "run":
            self.do_run(toks, line)
        else:
            raise ParseError(f"unknown statement {kind!r}", line, head.col)

    def do_field(self, toks, line):
        if self.field is not None:
            raise ParseError(
                "field already fixed (declare it before base and tower)", line,
                toks[0].col,
            )
        spec = _expect_ident(toks, 1, line, "Q or F <p>")
        if spec.text == "Q":
            self.field = Field()
        elif spec.text == "F":
            p = _expect_int(toks, 2, line, "prime modulus")
            try:
                self.field = Field(p)
            except ValueError as exc:
                raise ParseError(str(exc), line, toks[2].col) from None
        else:
            raise ParseError("field must be Q or F <p>", line, spec.col)

    def do_base(self, toks, line):
        if self.ring is not None:
            raise ParseError("base already declared", line, toks[0].col)
        if self.field is None:
            self.field = Field()
        names, weights = [], []
        i = 1
        while i < len(toks):
            name = _expect_ident(toks, i, line, "variable name")
            if name.text in KEYWORDS:
                raise ParseError(f"{name.text!r} is reserved", line, name.col)
            if i + 1 >= len(toks) or toks[i + 1].text != ":":
                raise ParseError("base entries look like name:weight", line, name.col)
            w = _expect_int(toks, i + 2, line, "weight")
            names.append(name.text)
            weights.append(w)
            i += 3
        try:
            self.ring = PolyRing(self.field, tuple(names), tuple(weights))
        except ValueError as exc:
            raise ParseError(str(exc), line, toks[0].col) from None

    def do_tower(self, toks, line):
        if self.tower is not None:
            raise ParseError("tower already declared", line, toks[0].col)
        flavor = _expect_ident(toks, 1, line, "divided or ordinary")
        if flavor.text not in (DIVIDED, ORDINARY):
            raise ParseError("tower flavor must be divided or ordinary", line, flavor.col)
        self.flavor = flavor.text
        self.ensure_tower(line)

    def do_var(self, toks, line):
        self.ensure_tower(line)
        if self.cur_name is not None:
            raise ParseError("tower variables must come before modules", line, toks[0].col)
        name = _expect_ident(toks, 1, line, "variable name")
        if name.text in KEYWORDS or name.text.endswith("o") or name.text.startswith("xi_"):
            raise ParseError(
                f"{name.text!r} cannot be used as a variable name", line, name.col
            )
        i = 2
        deg = wt = None
        dexpr_toks = None
        while i < len(toks):
            key = _expect_ident(toks, i, line, "deg, wt or d")
            if key.text == "deg":
                deg = _expect_int(toks, i + 1, line, "degree")
                i += 1 + _int_width(toks, i + 1)
            elif key.text == "wt":
                wt = _expect_int(toks, i + 1, line, "weight")
                i += 1 + _int_width(toks, i + 1)
            elif key.text == "d":
                dexpr_toks = toks[i + 1 :]
                break
            else:
                raise ParseError(f"unexpected {key.text!r}", line, key.col)
        if deg is None or wt is None:
            raise ParseError("var needs deg and wt", line, toks[0].col)
        target = None
        if dexpr_toks:
            resolve, constant = self.tower_resolver()
            target = ExprEval(dexpr_toks, resolve, constant, line).parse()
        try:
            self.tower = self.tower.adjoin(name.text, deg, wt, target)
        except TowerError as exc:
            raise ParseError(str(exc), line, name.col) from None

    def do_module(self, toks, line):
        self.ensure_tower(line)
        self.flush_module()
        name = _expect_ident(toks, 1, line, "module name")
        if name.text in KEYWORDS or name.text in self.modules:
            raise ParseError(f"bad module name {name.text!r}", line, name.col)
        self.cur_name = name.text
        self.cur_line = line

    def do_gen(self, toks, line):
        if self.cur_name is None:
            raise ParseError("gen outside a module section", line, toks[0].col)
        name = _expect_ident(toks, 1, line, "generator name")
        taken = {g for g, _, _ in self.cur_gens}
        if name.text in KEYWORDS or name.text in taken:
            raise ParseError(f"bad generator name {name.text!r}", line, name.col)
        resolve, _ = self.tower_resolver()
        if resolve(name.text) is not None:
            raise ParseError(
                f"{name.text!r} already names a ring element", line, name.col
            )
        i = 2
        deg = wt = None
        while i + 1 < len(toks):
            key = _expect_ident(toks, i, line, "deg or wt")
            if key.text == "deg":
                deg = _expect_int(toks, i + 1, line, "degree")
            elif key.text == "wt":
                wt = _expect_int(toks, i + 1, line, "weight")
            else:
                raise ParseError(f"unexpected {key.text!r}", line, key.col)
            i += 1 + _int_width(toks, i + 1)
        if deg is None or wt is None:
            raise ParseError("gen needs deg and wt", line, toks[0].col)
        self.cur_gens.append((name.text, deg, wt))

    def do_diff(self, toks, line):
        if self.cur_name is None:
            raise ParseError("d outside a module section", line, toks[0].col)
        name = _expect_ident(toks, 1, line, "generator name")
        gen_index = {g: i for i, (g, _, _) in enumerate(self.cur_gens)}
        if name.text not in gen_index:
            raise ParseError(f"unknown generator {name.text!r}", line, name.col)
        if len(toks) < 3 or toks[2].text != "=":
            raise ParseError("expected '=' after the generator", line, name.col)
        from .dg_module import BasisElement

        specs = [BasisElement(g, dg, w) for g, dg, w in self.cur_gens]
        resolve, constant = self.module_resolver(gen_index, specs)
        val = ExprEval(toks[3:], resolve, constant, line).parse()
        if not isinstance(val, _ModElem):
            raise ParseError("differential must be a module element", line, toks[3].col)
        beta = gen_index[name.text]
        for alpha, coeff in sorted(val.terms.items()):
            self.cur_diffs[(alpha, beta)] = coeff

    def do_run(self, toks, line):
        self.ensure_tower(line)
        self.flush_module()
        cmd = _expect_ident(toks, 1, line, "command name")
        name = cmd.text
        if name == "naive" or name == "check" or name == "envelope" or name == "filtration":
            # hyphenated command names arrive as IDENT OP(-) IDENT
            if len(toks) > 3 and toks[2].text == "-" and toks[3].kind == "IDENT":
                name = f"{name}-{toks[3].text}"
                rest = toks[4:]
            else:
                raise ParseError(f"unknown command {name!r}", line, cmd.col)
        else:
            rest = toks[2:]
        handler = {
            "check-axioms": self.cmd_check_axioms,
            "eval": self.cmd_eval,
            "envelope-basis": self.cmd_envelope_basis,
            "omega": self.cmd_omega,
            "filtration-level": self.cmd_filtration,
            "ext": self.cmd_ext,
            "naive-lift": self.cmd_naive_lift,
            "tate": self.cmd_tate,
        }.get(name)
        if handler is None:
            raise ParseError(f"unknown command {name!r}", line, cmd.col)
        handler(rest, line)

    def _check_prefix(self, k: int, line: int, col: int) -> int:
        if not (0 <= k <= self.tower.n):
            raise ParseError(
               f"over takes a prefix length in [0, {self.tower.n}]", line, col
            )
        return k

    def cmd_check_axioms(self, toks, line):
        _, kw = _keyword_split(toks)
        self.commands.append(Command(
            "check-axioms",
            {"budget": kw.get("budget"), "wbound": kw.get("wbound")},
            line,
        ))

    def cmd_eval(self, toks, line):
        if not toks:
            raise ParseError("eval needs an expression", line, 1)
        resolve, constant = self.tower_resolver()
        val = ExprEval(toks, resolve, constant, line).parse()
        if isinstance(val, _ModElem):
            raise ParseError("eval works on ring elements", line, toks[0].col)
        self.commands.append(Command("eval", {"expr": val}, line))

    def cmd_envelope_basis(self, toks, line):
        head, kw = _keyword_split(toks)
        if not head:
            raise ParseError("envelope-basis needs a window", line, 1)
        window, i = _parse_window(head, 0, line)
        over = self._check_prefix(kw.get("over", 0), line, head[0].col)
        self.commands.append(Command(
            "envelope-basis", {"window": window, "over": over}, line
        ))

    def _envelope_expr_cmd(self, kind: str, toks, line):
        head, kw = _keyword_split(toks)
        if not head:
            raise ParseError(f"{kind} needs an expression", line, 1)
        over = self._check_prefix(kw.get("over", 0), line, head[0].col)
        env = EnvelopeAlgebra(self.tower, over)
        resolve, constant = self.envelope_resolver(env)
        val = ExprEval(head, resolve, constant, line).parse()
        if not isinstance(val, EnvelopeElement):
            raise ParseError("expected an envelope element", line, head[0].col)
        self.commands.append(Command(kind, {"expr": val, "over": over}, line))

    def cmd_omega(self, toks, line):
        self._envelope_expr_cmd("omega", toks, line)

    def cmd_filtration(self, toks, line):
        self._envelope_expr_cmd("filtration-level", toks, line)

    def cmd_ext(self, toks, line):
        m = _expect_ident(toks, 0, line, "module name")
        l = _expect_ident(toks, 1, line, "module name")
        for t in (m, l):
            if t.text not in self.modules:
                raise ParseError(f"unknown module {t.text!r}", line, t.col)
        i0 = _expect_int(toks, 2, line, "i range start")
        j = 2 + _int_width(toks, 2)
        if j >= len(toks) or toks[j].text != "..":
            raise ParseError("i range looks like 0..3", line, toks[j - 1].col)
        i1 = _expect_int(toks, j + 1, line, "i range end")
        j += 1 + _int_width(toks, j + 1)
        window = None
        if j < len(toks):
            window, j = _parse_window(toks, j, line)
        self.commands.append(Command(
            "ext",
            {"m": m.text, "l": l.text, "i0": i0, "i1": i1, "window": window},
            line,
        ))

    def cmd_naive_lift(self, toks, line):
        head, kw = _keyword_split(toks)
        name = _expect_ident(head, 0, line, "module name")
        if name.text not in self.modules:
            raise ParseError(f"unknown module {name.text!r}", line, name.col)
        over = self._check_prefix(kw.get("over", 0), line, name.col)
        self.commands.append(Command(
            "naive-lift", {"module": name.text, "over": over}, line
        ))

    def cmd_tate(self, toks, line):
        head, kw = _keyword_split(toks)
        if "hbound" not in kw or "wbound" not in kw:
            raise ParseError("tate needs hbound and wbound", line,
                             toks[0].col if toks else 1)
        tower_vars = {v.name for v in self.tower.variables}
        gens = []
        i = 0
        while i < len(head):
            seg = []
            while i < len(head) and head[i].text != ",":
                seg.append(head[i])
                i += 1
            if not seg:
                raise ParseError("empty ideal generator", line, head[i].col)
            for tok in seg:
                if tok.kind == "IDENT" and tok.text in tower_vars:
                    raise ParseError(f"unknown identifier {tok.text!r}: ideal generators "
                                     "live in the base ring", line, tok.col)
            bare = TowerAlgebra(self.ring, self.flavor or DIVIDED)

            def resolve(name, _bare=bare):
                if name in _bare.base.names:
                    return _bare.from_poly(_bare.base.var(name))
                return None

            def constant(q, _bare=bare):
                return _bare.constant(_bare.base.field.of(q.numerator, q.denominator))

            val = ExprEval(seg, resolve, constant, line).parse()
            if val.is_zero():
                raise ParseError("ideal generator is zero", line, seg[0].col)
            poly = val.terms[()]  # `bare` has no tower variables
            if poly.weight() is None:
                raise ParseError("ideal generators must be weight-homogeneous",
                                 line, seg[0].col)
            gens.append(poly)
            if i == len(head) - 1:
                raise ParseError("empty ideal generator", line, head[i].col)
            i += 1  # skip the comma
        if not gens:
            raise ParseError("tate needs at least one generator", line, 1)
        self.commands.append(Command(
            "tate", {"gens": gens, "hbound": kw["hbound"], "wbound": kw["wbound"]},
            line,
        ))


def parse_session(text: str) -> Session:
    """Parse and elaborate a session file; raises ParseError with positions."""
    builder = _Builder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = tokenize_line(raw, line_no)
        if not toks:
            continue
        builder.stmt(toks, line_no)
    builder.ensure_tower(0)
    builder.flush_module()
    return Session(
        field=builder.field,
        ring=builder.ring,
        tower=builder.tower,
        modules=builder.modules,
        module_order=builder.module_order,
        commands=builder.commands,
    )


def format_session(session: Session) -> str:
    """Canonical text form; parsing it back yields an equal session."""
    lines = []
    f = session.field
    lines.append("field Q" if f.is_rational else f"field F {f.p}")
    base_bits = " ".join(f"{n}:{w}" for n, w in zip(session.ring.names, session.ring.weights))
    lines.append(f"base {base_bits}".rstrip())
    lines.append(f"tower {session.tower.flavor}")
    for i, v in enumerate(session.tower.variables):
        d = session.tower.variable_diff(i)
        head = f"var {v.name} deg {v.degree} wt {v.weight}"
        lines.append(head if d.is_zero() else f"{head} d {render_element(d)}")
    for name in session.module_order:
        module = session.modules[name]
        lines.append(f"module {name}")
        for e in module.basis:
            lines.append(f"gen {e.name} deg {e.degree} wt {e.weight}")
        by_target: dict[int, dict] = {}
        for (a, b), entry in module.diff.items():
            by_target.setdefault(b, {})[a] = entry
        for b in sorted(by_target):
            lines.append(f"d {module.basis[b].name} = "
                         f"{render_module_elem(module, by_target[b])}")
    for cmd in session.commands:
        lines.append(f"run {cmd.canonical()}")
    return "\n".join(lines) + "\n"
