"""Import layering of the dglift modules, read from their source: the math
layers never import the parser or the command line, and `render` imports no
dglift module, so that every layer can use it; only `base_ring`, which holds
the one elimination kernel, inverts field scalars; in `homological` only
`HomComplex` reads a module's differential, so the Hom differential has one
home; in `dg_algebra` only `TowerAlgebra.monomial_diff` applies the
Leibniz rule, so every differential of a tower element goes through its memo;
and in `session` only `_Cursor` turns token text into an integer, so bounds on
the numbers of a session have one place to go."""

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


def test_only_base_ring_inverts_scalars():
    # a field inverse is the first step of any elimination, so this keeps
    # every elimination in the one kernel of base_ring
    for path in sorted(SRC.glob("*.py")):
        calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "inv"]
        assert not calls or path.name == "base_ring.py", path.name


def test_only_hom_complex_reads_module_differentials():
    # Ext, null homotopies and the splitting system all take D from HomComplex
    tree = ast.parse((SRC / "homological.py").read_text(encoding="utf-8"))
    hom = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "HomComplex")
    inside = {id(node) for node in ast.walk(hom)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "diff"]
    assert reads and all(id(node) in inside for node in reads)


def test_only_monomial_diff_applies_the_leibniz_rule():
    # variable_diff is the Leibniz rule's input; AlgebraElement.differential
    # and the slice ranks read the memoised monomial differentials instead
    tree = ast.parse((SRC / "dg_algebra.py").read_text(encoding="utf-8"))
    tower = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "TowerAlgebra")
    rule = next(node for node in tower.body
                if isinstance(node, ast.FunctionDef) and node.name == "monomial_diff")
    inside = {id(node) for node in ast.walk(rule)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "variable_diff"]
    assert calls and all(id(node) in inside for node in calls)


def test_only_the_cursor_reads_integers():
    tree = ast.parse((SRC / "session.py").read_text(encoding="utf-8"))
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "_Cursor"
              for node in ast.walk(cls)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "int"]
    assert calls and all(id(node) in inside for node in calls)
