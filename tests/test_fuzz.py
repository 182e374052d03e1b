"""Fuzzing of the session parser and the command line.

A mutant is a golden session with one token of one line deleted, inserted,
swapped with its neighbour, replaced or duplicated.  Its text either parses
or raises a `ParseError` at a line and a column, and `dglift.cli.main` runs
it to exit code 0, 1 or 10 and lets no exception escape.

Integers are drawn from -1 and 0..9, and also from past a limit where the
token is a window bound, an exponent or the number after a keyword bound,
which the parser checks against `WINDOW_LIMIT`, `EXPONENT_LIMIT` or the
keyword's `MOST`.  No value is drawn large but inside a limit: such a value
can still run without end, as a `gen` weight or a window at the limit does.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from dglift.cli import main
from dglift.session import (
    EXPONENT_LIMIT, MOST, WINDOW_LIMIT, ParseError, parse_session, tokenize_line,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"
SESSIONS = [(GOLDENS / f"{name}.session").read_text(encoding="utf-8").splitlines()
            for name in ("error", "obstructed", "split")]
# (session, line index, tokens) of every line that holds a token
LINES = [(s, i, [t.text for t in tokenize_line(line, i + 1)])
         for s, lines in enumerate(SESSIONS) for i, line in enumerate(lines)]
LINES = [entry for entry in LINES if entry[2]]
WORDS = sorted({text for _, _, texts in LINES for text in texts if not text.isdigit()})
SMALL = ["-1"] + [str(m) for m in range(10)]
OPS = ("delete", "insert", "swap", "replace", "duplicate")

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def limit_at(texts: list[str], k: int) -> int | None:
    """The limit the parser checks the integer token at k against: an
    exponent follows `^` or `^(`, a keyword bound follows its keyword, and
    a window bound in a `run` line stands next to a `:`."""
    if texts[max(k - 2, 0):k] == ["^", "("] or texts[k - 1:k] == ["^"]:
        return EXPONENT_LIMIT
    if k and texts[k - 1] in MOST:
        return MOST[texts[k - 1]]
    if texts[0] == "run" and ":" in texts[k - 1:k] + texts[k + 1:k + 2]:
        return WINDOW_LIMIT
    return None


def mutate(texts: list[str], op: str, k: int, token: str) -> list[str]:
    """The tokens of a line with `op` applied at token k."""
    texts = list(texts)
    if op == "delete":
        del texts[k]
    elif op == "insert":
        texts.insert(k, token)
    elif op == "swap":
        texts[k:k + 2] = texts[k:k + 2][::-1]
    elif op == "replace":
        texts[k] = token
    else:
        texts.insert(k, texts[k])
    return texts


@st.composite
def mutants(draw) -> str:
    s, i, texts = draw(st.sampled_from(LINES))
    op = draw(st.sampled_from(OPS))
    k = draw(st.integers(0, len(texts) - (op != "insert")))
    tokens = WORDS + SMALL
    if op == "replace" and texts[k].isdigit():
        limit = limit_at(texts, k)
        if limit is not None:
            tokens = tokens + [str(limit + 1), str(10 * limit), "9" * 20]
    # tokens joined by spaces read back as the same tokens
    line = " ".join(mutate(texts, op, k, draw(st.sampled_from(tokens))))
    lines = SESSIONS[s]
    return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"


@SETTINGS
@given(mutants())
def test_a_mutated_session_parses_or_is_refused_at_a_position(text):
    try:
        parse_session(text)
    except ParseError as exc:
        assert 1 <= exc.line <= len(text.splitlines()) and exc.col >= 1, exc


@SETTINGS
@given(mutants())
def test_the_cli_runs_a_mutated_session_to_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.session"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = main([str(path), "--report", str(pathlib.Path(tmp) / "fuzz.json")])
    assert status in (0, 1, 10), out.getvalue()
