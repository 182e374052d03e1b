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

A statement uses its whole line.  The keywords of a command (`over`,
`hbound`, `wbound`, `budget`) come after its arguments, in any order, each at
most once, and so do `deg` and `wt`.

Expressions: identifiers, integer and p/q literals, + - (binary and unary),
products by `*`, `·` or juxtaposition, ordinary powers `^m`, divided powers
`^(m)`, parentheses.  In envelope contexts `X` means 1^o(x)X, `Xo` means
X^o(x)1, and `xi_X` is the diagonal of X.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NoReturn

from .base_ring import Field, PolyRing
from .dg_algebra import DIVIDED, ORDINARY, TowerAlgebra, TowerError
from .dg_module import (
    BasisElement, BidegreeWindow, ModuleError, SemifreeModule, make_semifree,
)
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
# Reading a line
# ---------------------------------------------------------------------------


class _Cursor:
    """The tokens of one line and a position in them.

    Statements and expressions read every token through a cursor, and every
    failure is a ParseError at the offending token: the given one, else the
    current one, else the last token of the line.
    """

    def __init__(self, toks: list[Token], line: int):
        self.toks = toks
        self.line = line
        self.i = 0

    def error(self, message: str, tok: Token | None = None) -> NoReturn:
        tok = tok or self.peek() or self.toks[-1]
        raise ParseError(message, self.line, tok.col)

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.i + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of expression")
        self.i += 1
        return tok

    def take(self, text: str) -> Token | None:
        """The next token, consumed, if its text is `text`."""
        tok = self.peek()
        if tok is None or tok.text != text:
            return None
        self.i += 1
        return tok

    def expect(self, text: str, message: str) -> None:
        """Consume `text`, or fail at the token before it."""
        if self.take(text) is None:
            self.error(message, self.toks[self.i - 1])

    def ident(self, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "IDENT":
            self.error(f"expected {what}")
        self.i += 1
        return tok

    def int(self, what: str) -> int:
        """An integer literal, with an optional minus sign."""
        sign = -1 if self.take("-") else 1
        tok = self.peek()
        if tok is None or tok.kind != "INT":
            self.error(f"expected {what}")
        self.i += 1
        return sign * int(tok.text)

    def window(self) -> BidegreeWindow:
        """`hmin:hmax:wmax`."""
        start = self.peek()
        bounds = [self.int("window hmin")]
        for what in ("window hmax", "window wmax"):
            self.expect(":", "window must look like hmin:hmax:wmax")
            bounds.append(self.int(what))
        try:
            return BidegreeWindow(*bounds)
        except ModuleError as exc:
            self.error(str(exc), start)

    def keywords(self, allowed: tuple[str, ...]) -> dict[str, int]:
        """`<word> <int>` pairs for the words in `allowed`, in any order and
        each at most once, up to the first other token."""
        out: dict[str, int] = {}
        while (tok := self.peek()) is not None and tok.kind == "IDENT" and tok.text in allowed:
            if tok.text in out:
                self.error(f"{tok.text!r} given twice", tok)
            self.i += 1
            out[tok.text] = self.int({"deg": "degree", "wt": "weight"}.get(
                tok.text, f"integer after {tok.text!r}"))
        return out

    def until(self, words) -> "_Cursor":
        """The tokens before the next of `words` as a cursor of their own;
        this cursor moves past them."""
        j = self.i
        while j < len(self.toks) and self.toks[j].text not in words:
            j += 1
        head = _Cursor(self.toks[self.i:j], self.line)
        self.i = j
        return head

    def done(self) -> None:
        """Fail at the first token left unread."""
        tok = self.peek()
        if tok is not None:
            self.error(f"unexpected {tok.text!r}", tok)


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


class _Names:
    """The one name resolver: the base and tower variables of `tower` as
    tower elements, and literals as constants.  The module and envelope
    contexts wrap it; with `base_only`, as for the ideal generators of
    `run tate`, tower variables are not names."""

    def __init__(self, tower: TowerAlgebra, base_only: bool = False):
        self.tower = tower
        self.var_index = {v.name: i for i, v in enumerate(tower.variables)}
        self.base_only = base_only

    def lookup(self, name: str):
        """The value of `name`, or None."""
        if name in self.tower.base.names or (name in self.var_index and not self.base_only):
            return self.tower.gen(name)
        return None

    def unknown(self, name: str) -> str:
        if self.base_only and name in self.var_index:
            return f"unknown identifier {name!r}: ideal generators live in the base ring"
        return f"unknown identifier {name!r}"

    def constant(self, q: Fraction):
        return self.tower.constant(self.tower.base.field.of(q.numerator, q.denominator))


class _ModuleNames(_Names):
    """The generators of the module being declared, then the tower's names."""

    def __init__(self, tower: TowerAlgebra, specs: list):
        super().__init__(tower)
        self.specs = specs
        self.gen_index = {e.name: i for i, e in enumerate(specs)}

    def lookup(self, name: str):
        i = self.gen_index.get(name)
        if i is None:
            return super().lookup(name)
        return _ModElem(self.specs, {i: self.tower.one()})


class _EnvelopeNames(_Names):
    """Names in B^e: `X` is 1^o(x)X, `Xo` is X^o(x)1, and `xi_X` is the
    diagonal of an X outside the prefix A."""

    def __init__(self, env: EnvelopeAlgebra):
        super().__init__(env.tower)
        self.env = env

    def lookup(self, name: str):
        val = super().lookup(name)
        if val is not None:
            return self.env.include_right(val)
        stem = name[:-1]
        if name.endswith("o") and stem in self.var_index:
            return self.env.include_left(self.tower.gen(stem))
        if name.endswith("o") and stem in self.tower.base.names:
            return self.env.include_right(self.tower.gen(stem))
        i = self.var_index.get(name[3:], -1) if name.startswith("xi_") else -1
        if i >= self.env.a_prefix:
            return self.env.xi(i - self.env.a_prefix)
        return None

    def constant(self, q: Fraction):
        return self.env.include_right(super().constant(q))


class ExprEval:
    """Recursive-descent evaluator reading from a `_Cursor`.

    `names` gives the values of identifiers and literals; values are
    AlgebraElement, EnvelopeElement, or _ModElem, and combine per their types.
    An expression ends at the end of the line, a keyword, `,` or `)`.
    """

    # Parentheses and unary minus recurse; past this depth the expression is
    # refused rather than left to exhaust the interpreter's recursion limit.
    MAX_NESTING = 100

    def __init__(self, cur: _Cursor, names: _Names):
        self.cur = cur
        self.names = names
        self.depth = 0

    def _nest(self, tok: Token):
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            self.cur.error(f"expression nested deeper than {self.MAX_NESTING} levels", tok)

    def _int(self, message: str) -> tuple[Token, int]:
        """An unsigned integer literal and its token."""
        tok = self.cur.peek() or self.cur.next()  # next() fails at the end of the line
        if tok.kind != "INT":
            self.cur.error(message, tok)
        return tok, self.cur.int(message)

    def at_stop(self) -> bool:
        tok = self.cur.peek()
        if tok is None:
            return True
        if tok.kind == "IDENT" and tok.text in KEYWORDS:
            return True
        return tok.kind == "OP" and tok.text in (",", ")")

    def parse(self):
        val = self.expr()
        if not self.at_stop():
            self.cur.error(f"unexpected token {self.cur.peek().text!r}")
        return val

    def expr(self):
        val = self.term()
        while True:
            tok = self.cur.peek()
            if tok is None or tok.kind != "OP" or tok.text not in ("+", "-"):
                return val
            self.cur.next()
            rhs = self.term()
            val = self._add(val, rhs, tok) if tok.text == "+" else self._sub(val, rhs, tok)

    def term(self):
        val = self.factor()
        while True:
            tok = self.cur.peek()
            if tok is None:
                return val
            if tok.kind == "OP" and tok.text in ("*", "·"):
                self.cur.next()
                val = self._mul(val, self.factor(), tok)
                continue
            if self.at_stop():
                return val
            if tok.kind in ("IDENT", "INT") or (tok.kind == "OP" and tok.text == "("):
                val = self._mul(val, self.factor(), tok)
                continue
            return val

    def factor(self):
        tok = self.cur.peek()
        if tok is not None and tok.kind == "OP" and tok.text == "-":
            self.cur.next()
            self._nest(tok)
            val = self._neg(self.factor(), tok)
            self.depth -= 1
            return val
        val = self.primary()
        while self.cur.take("^"):
            if self.cur.take("("):
                m_tok, m = self._int("divided power needs an integer")
                close = self.cur.next()
                if close.kind != "OP" or close.text != ")":
                    self.cur.error("expected ')'", close)
                val = self._divided(val, m, m_tok)
            else:
                m_tok, m = self._int("power needs an integer")
                val = self._power(val, m, m_tok)
        return val

    def primary(self):
        tok = self.cur.peek() or self.cur.next()
        if tok.kind == "INT":
            numer, denom = self.cur.int("numerator"), 1
            after = self.cur.peek(1)
            if after is not None and after.kind == "INT" and self.cur.take("/"):
                denom = self.cur.int("denominator")
            try:
                return self.names.constant(Fraction(numer, denom))
            except ZeroDivisionError as exc:
                msg = str(exc)
                if "Fraction" in msg:
                    msg = "zero denominator"
                self.cur.error(f"invalid literal: {msg}", tok)
        self.cur.next()
        if tok.kind == "IDENT":
            if tok.text in KEYWORDS:
                self.cur.error(f"{tok.text!r} is a reserved word", tok)
            val = self.names.lookup(tok.text)
            if val is None:
                self.cur.error(self.names.unknown(tok.text), tok)
            return val
        if tok.kind == "OP" and tok.text == "(":
            self._nest(tok)
            val = self.expr()
            close = self.cur.next()
            if close.kind != "OP" or close.text != ")":
                self.cur.error("expected ')'", close)
            self.depth -= 1
            return val
        self.cur.error(f"unexpected token {tok.text!r}", tok)

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
            self.cur.error("cannot add a module element and a ring element", tok)
        try:
            return a + b
        except (TowerError, EnvelopeError) as exc:
            self.cur.error(str(exc), tok)

    def _sub(self, a, b, tok):
        return self._add(a, self._neg(b, tok), tok)

    def _neg(self, a, tok):
        if isinstance(a, _ModElem):
            return _ModElem(a.ctx, {i: -c for i, c in a.terms.items()})
        return -a

    def _mul(self, a, b, tok):
        if isinstance(a, _ModElem) and isinstance(b, _ModElem):
            self.cur.error("cannot multiply two module elements", tok)
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
            self.cur.error(str(exc), tok)

    def _power(self, a, m: int, tok):
        if isinstance(a, _ModElem):
            self.cur.error("cannot take powers of a module element", tok)
        try:
            return a.power(m)
        except (TowerError, EnvelopeError) as exc:
            self.cur.error(str(exc), tok)

    def _divided(self, a, m: int, tok):
        if isinstance(a, _ModElem):
            self.cur.error("cannot take powers of a module element", tok)
        try:
            return a.divided_power(m)
        except (TowerError, EnvelopeError) as exc:
            self.cur.error(str(exc), tok)


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


class _Builder:
    def __init__(self):
        self.field: Field | None = None
        self.ring: PolyRing | None = None
        self.flavor: str | None = None
        self.tower: TowerAlgebra | None = None
        self.modules: dict[str, SemifreeModule] = {}
        self.module_order: list[str] = []
        self.commands: list[Command] = []
        # module under construction; cur_diffs maps a generator's index to
        # the terms of its differential
        self.cur_name: str | None = None
        self.cur_gens: list[tuple[str, int, int]] = []
        self.cur_diffs: dict[int, dict] = {}
        self.cur_line = 0

    def ensure_tower(self):
        if self.field is None:
            self.field = Field()
        if self.ring is None:
            self.ring = PolyRing(self.field, (), ())
        if self.tower is None:
            self.tower = TowerAlgebra(self.ring, self.flavor or DIVIDED)

    def flush_module(self):
        if self.cur_name is None:
            return
        diffs = {(alpha, beta): coeff for beta, terms in self.cur_diffs.items()
                 for alpha, coeff in sorted(terms.items())}
        try:
            module = make_semifree(self.tower, self.cur_gens, diffs)
        except ModuleError as exc:
            raise ParseError(str(exc), self.cur_line, 1) from None
        self.modules[self.cur_name] = module
        self.module_order.append(self.cur_name)
        self.cur_name = None
        self.cur_gens = []
        self.cur_diffs = {}

    # --- statements ---------------------------------------------------------

    def stmt(self, cur: _Cursor):
        head = cur.ident("a statement keyword")
        handler = {
            "field": self.do_field,
            "base": self.do_base,
            "tower": self.do_tower,
            "var": self.do_var,
            "module": self.do_module,
            "gen": self.do_gen,
            "d": self.do_diff,
            "run": self.do_run,
        }.get(head.text)
        if handler is None:
            cur.error(f"unknown statement {head.text!r}", head)
        handler(cur, head)
        cur.done()

    def do_field(self, cur, head):
        if self.field is not None:
            cur.error("field already fixed (declare it before base and tower)", head)
        spec = cur.ident("Q or F <p>")
        if spec.text == "Q":
            self.field = Field()
        elif spec.text == "F":
            p_tok = cur.peek()
            p = cur.int("prime modulus")
            try:
                self.field = Field(p)
            except ValueError as exc:
                cur.error(str(exc), p_tok)
        else:
            cur.error("field must be Q or F <p>", spec)

    def do_base(self, cur, head):
        if self.ring is not None:
            cur.error("base already declared", head)
        if self.field is None:
            self.field = Field()
        names, weights = [], []
        while cur.peek() is not None:
            name = cur.ident("variable name")
            if name.text in KEYWORDS:
                cur.error(f"{name.text!r} is reserved", name)
            cur.expect(":", "base entries look like name:weight")
            names.append(name.text)
            weights.append(cur.int("weight"))
        try:
            self.ring = PolyRing(self.field, tuple(names), tuple(weights))
        except ValueError as exc:
            cur.error(str(exc), head)

    def do_tower(self, cur, head):
        if self.tower is not None:
            cur.error("tower already declared", head)
        flavor = cur.ident("divided or ordinary")
        if flavor.text not in (DIVIDED, ORDINARY):
            cur.error("tower flavor must be divided or ordinary", flavor)
        self.flavor = flavor.text
        self.ensure_tower()

    def do_var(self, cur, head):
        self.ensure_tower()
        if self.cur_name is not None:
            cur.error("tower variables must come before modules", head)
        name = cur.ident("variable name")
        if name.text in KEYWORDS or name.text.endswith("o") or name.text.startswith("xi_"):
            cur.error(f"{name.text!r} cannot be used as a variable name", name)
        kw = cur.keywords(("deg", "wt"))
        target = ExprEval(cur, _Names(self.tower)).parse() if cur.take("d") else None
        if "deg" not in kw or "wt" not in kw:
            cur.error("var needs deg and wt", head)
        try:
            self.tower = self.tower.adjoin(name.text, kw["deg"], kw["wt"], target)
        except TowerError as exc:
            cur.error(str(exc), name)

    def do_module(self, cur, head):
        self.ensure_tower()
        self.flush_module()
        name = cur.ident("module name")
        if name.text in KEYWORDS or name.text in self.modules:
            cur.error(f"bad module name {name.text!r}", name)
        self.cur_name = name.text
        self.cur_line = cur.line

    def do_gen(self, cur, head):
        if self.cur_name is None:
            cur.error("gen outside a module section", head)
        name = cur.ident("generator name")
        taken = {g for g, _, _ in self.cur_gens}
        if name.text in KEYWORDS or name.text in taken:
            cur.error(f"bad generator name {name.text!r}", name)
        if _Names(self.tower).lookup(name.text) is not None:
            cur.error(f"{name.text!r} already names a ring element", name)
        kw = cur.keywords(("deg", "wt"))
        if "deg" not in kw or "wt" not in kw:
            cur.error("gen needs deg and wt", head)
        self.cur_gens.append((name.text, kw["deg"], kw["wt"]))

    def do_diff(self, cur, head):
        if self.cur_name is None:
            cur.error("d outside a module section", head)
        name = cur.ident("generator name")
        specs = [BasisElement(g, dg, w) for g, dg, w in self.cur_gens]
        names = _ModuleNames(self.tower, specs)
        beta = names.gen_index.get(name.text)
        if beta is None:
            cur.error(f"unknown generator {name.text!r}", name)
        if beta in self.cur_diffs:
            cur.error(f"differential of {name.text} already given", name)
        cur.expect("=", "expected '=' after the generator")
        start = cur.peek()
        val = ExprEval(cur, names).parse()
        if not isinstance(val, _ModElem):
            cur.error("differential must be a module element", start)
        self.cur_diffs[beta] = val.terms

    def do_run(self, cur, head):
        self.ensure_tower()
        self.flush_module()
        cmd = cur.ident("command name")
        name = cmd.text
        # hyphenated command names arrive as IDENT OP(-) IDENT
        if name in ("naive", "check", "envelope", "filtration") and cur.take("-"):
            name = f"{name}-{cur.ident('command name').text}"
        handler = {
            "check-axioms": self.cmd_check_axioms,
            "eval": self.cmd_eval,
            "envelope-basis": self.cmd_envelope_basis,
            "omega": self.cmd_envelope_expr,
            "filtration-level": self.cmd_envelope_expr,
            "ext": self.cmd_ext,
            "naive-lift": self.cmd_naive_lift,
            "tate": self.cmd_tate,
        }.get(name)
        if handler is None:
            cur.error(f"unknown command {name!r}", cmd)
        handler(cur, name)

    def _over(self, cur: _Cursor, at: Token) -> int:
        """The `over` keyword: a prefix length of the tower, 0 by default;
        a bad one is reported at `at`."""
        k = cur.keywords(("over",)).get("over", 0)
        if not (0 <= k <= self.tower.n):
            cur.error(f"over takes a prefix length in [0, {self.tower.n}]", at)
        return k

    def cmd_check_axioms(self, cur, kind):
        kw = cur.keywords(("budget", "wbound"))
        self.commands.append(Command(
            kind, {"budget": kw.get("budget"), "wbound": kw.get("wbound")}, cur.line
        ))

    def cmd_eval(self, cur, kind):
        if cur.peek() is None:
            cur.error("eval needs an expression")
        val = ExprEval(cur, _Names(self.tower)).parse()
        self.commands.append(Command(kind, {"expr": val}, cur.line))

    def cmd_envelope_basis(self, cur, kind):
        start = cur.peek()
        if start is None:
            cur.error("envelope-basis needs a window")
        window = cur.window()
        over = self._over(cur, start)
        self.commands.append(Command(kind, {"window": window, "over": over}, cur.line))

    def cmd_envelope_expr(self, cur, kind):
        # the value depends on the prefix, so `over` is read before the
        # expression in front of it is evaluated
        expr = cur.until(KEYWORDS)
        start = expr.peek()
        if start is None:
            cur.error(f"{kind} needs an expression")
        env = EnvelopeAlgebra(self.tower, self._over(cur, start))
        val = ExprEval(expr, _EnvelopeNames(env)).parse()
        expr.done()
        if not isinstance(val, EnvelopeElement):
            cur.error("expected an envelope element", start)
        self.commands.append(Command(kind, {"expr": val, "over": env.a_prefix}, cur.line))

    def cmd_ext(self, cur, kind):
        m = cur.ident("module name")
        l = cur.ident("module name")
        for t in (m, l):
            if t.text not in self.modules:
                cur.error(f"unknown module {t.text!r}", t)
        i0 = cur.int("i range start")
        cur.expect("..", "i range looks like 0..3")
        i1 = cur.int("i range end")
        window = cur.window() if cur.peek() is not None else None
        self.commands.append(Command(
            kind, {"m": m.text, "l": l.text, "i0": i0, "i1": i1, "window": window}, cur.line
        ))

    def cmd_naive_lift(self, cur, kind):
        name = cur.ident("module name")
        if name.text not in self.modules:
            cur.error(f"unknown module {name.text!r}", name)
        over = self._over(cur, name)
        self.commands.append(Command(kind, {"module": name.text, "over": over}, cur.line))

    def cmd_tate(self, cur, kind):
        # the generators are the tokens before the first keyword, as the
        # expression of `run omega` is
        args = cur.until(KEYWORDS)
        first = args.peek()
        if first is None:
            cur.error("tate needs at least one generator")
        names = _Names(self.tower, base_only=True)
        gens, comma = [], None
        while not gens or comma:
            start = args.peek()
            if start is None or start.text == ",":
                args.error("empty ideal generator", start or comma)
            val = ExprEval(args, names).parse()
            if val.is_zero():
                args.error("ideal generator is zero", start)
            (poly,) = val.terms.values()  # no tower variable occurs
            if poly.weight() is None:
                args.error("ideal generators must be weight-homogeneous", start)
            gens.append(poly)
            comma = args.take(",")
        args.done()
        kw = cur.keywords(("hbound", "wbound"))
        if "hbound" not in kw or "wbound" not in kw:
            cur.error("tate needs hbound and wbound", first)
        self.commands.append(Command(
            kind, {"gens": gens, "hbound": kw["hbound"], "wbound": kw["wbound"]}, cur.line
        ))


def parse_session(text: str) -> Session:
    """Parse and elaborate a session file; raises ParseError with positions."""
    builder = _Builder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = tokenize_line(raw, line_no)
        if toks:
            builder.stmt(_Cursor(toks, line_no))
    builder.ensure_tower()
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
