"""Import layering of the dglift modules, read from their source: the math
layers never import the parser or the command line, and `render` imports no
dglift module, so that every layer can use it."""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dglift"


def dglift_imports(path: pathlib.Path) -> set[str]:
    """Short names of the dglift modules a file imports, at any depth."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level and module.split(".")[0] != "dglift":
                continue
            module = module.removeprefix("dglift").lstrip(".")
            names.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[-1] for a in node.names
                         if a.name.split(".")[0] == "dglift")
    return names


def test_math_layers_do_not_import_the_parser_or_the_cli():
    for path in sorted(SRC.glob("*.py")):
        if path.stem not in ("session", "cli", "__init__"):
            assert not dglift_imports(path) & {"session", "cli"}, path.name


def test_render_imports_no_dglift_module():
    assert dglift_imports(SRC / "render.py") == set()
