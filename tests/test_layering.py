"""Import layering of the dglift modules, read from their source: the math
layers never import the parser or the command line, and `render` imports no
dglift module, so that every layer can use it; only `base_ring`, which holds
the one elimination kernel, inverts field scalars; in `homological` only
`HomComplex` reads a module's differential, so the Hom differential has one
home, and it assembles D from blocks without module-element operations; in
`dg_algebra` only `TowerAlgebra.monomial_diff` applies the
Leibniz rule, so every differential of a tower element goes through its memo;
in `session` only `_Cursor` turns token text into an integer, so bounds on
the numbers of a session have one place to go; no module adds a ring element
into a sparse map by hand, since `dg_algebra.add_term` holds the rule that
such a map keeps no zero; every grading of a ring element is read by
`base_ring.homogeneous`; only `TowerAlgebra.adjoin` links a tower to the
parent whose memos it inherits; the envelope has no arithmetic of its own,
and `TowerAlgebra.substitute` is its one change of generators; `Field` binds
its operations once, so that no scalar operation asks which field it is in;
the product of tower elements reads its signs and binomials off the
monomial product memo, and the Hom blocks multiply by a monomial through
the tower's shift routine; and every name the benchmark's tracer wraps is
defined where the tracer looks."""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dglift"
TRACING = SRC.parent.parent / "bench" / "tracing.py"


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


def test_hom_complex_uses_no_module_element_operations():
    # D comes from cached blocks; the element route is left to the oracle of
    # the tests and to the re-verification of SPLIT
    tree = ast.parse((SRC / "homological.py").read_text(encoding="utf-8"))
    hom = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "HomComplex")
    calls = [node.func.attr for node in ast.walk(hom)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert calls and not set(calls) & {"apply_diff", "mul_elem", "elem_coords"}


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


def is_hand_written_sum(node: ast.AST) -> bool:
    """Whether a node is `v if prev is None else prev + v`, the add of a
    value into a sparse map that `add_term` holds."""
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and isinstance(node.body, ast.Name)):
        return False
    test, other = node.test, node.orelse
    return (len(test.ops) == 1 and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(other, ast.BinOp) and isinstance(other.op, ast.Add)
            and isinstance(other.right, ast.Name) and other.right.id == node.body.id)


def test_sparse_sums_go_through_add_term():
    def expr(text):
        return ast.parse(text).body[0].value

    assert is_hand_written_sum(expr("p if s is None else s + p"))
    assert not is_hand_written_sum(expr("None if h is None else h + i"))  # `shift`
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sums = [node.lineno for node in ast.walk(tree) if is_hand_written_sum(node)]
        assert not sums, (path.name, sums)


def test_gradings_are_read_by_homogeneous():
    methods = {("base_ring.py", "BasePoly"): ("weight",),
               ("dg_algebra.py", "AlgebraElement"): ("degree", "weight")}
    for (name, cls_name), names in methods.items():
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == cls_name)
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                ret = fn.body[-1]
                assert isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call) \
                    and isinstance(ret.value.func, ast.Name) \
                    and ret.value.func.id == "homogeneous", (cls_name, fn.name)
        assert {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)} >= set(names)


def test_only_adjoin_sets_the_parent_link():
    # a tower inherits its parent's memos through the link, which is sound
    # only for the tower one validated variable longer that adjoin builds
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    tower = next(node for node in trees["dg_algebra.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "TowerAlgebra")
    adjoin = next(node for node in tower.body
                  if isinstance(node, ast.FunctionDef) and node.name == "adjoin")
    inside = {id(node) for node in ast.walk(adjoin)}
    sets = [node for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_parent"
            and not isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")]
    assert sets and all(id(node) in inside for node in sets)


def test_envelope_has_no_arithmetic_of_its_own():
    # B^e is the tower B<xi>: an envelope element delegates every operation
    # to its AlgebraElement, and the envelope writes tower elements from raw
    # terms only in its one suffix reader
    tree = ast.parse((SRC / "envelope.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names}
    assert "math" not in modules
    assert not names & {"ring_power", "sum_divided_power", "split_over_prefix"}
    powers = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("power", "divided_power")]
    assert powers and all(ast.unparse(node.func.value) == "self.elem" for node in powers)
    reader = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_suffixes")
    inside = {id(node) for node in ast.walk(reader)}
    builds = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "AlgebraElement"]
    assert builds and all(id(node) in inside for node in builds)


def test_only_substitute_changes_generators():
    # phi, the flip and the tensor form of the envelope are algebra maps
    # given by the images of the variables; one function applies them
    defs = [(path.name, cls.name) for path in sorted(SRC.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "substitute"]
    assert defs == [("dg_algebra.py", "TowerAlgebra")]
    tops = [path.name for path in sorted(SRC.glob("*.py"))
            for fn in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(fn, ast.FunctionDef) and fn.name == "substitute"]
    assert not tops
    tree = ast.parse((SRC / "envelope.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "substitute"]
    assert len(calls) >= 3


def test_traced_names_are_defined_where_the_tracer_looks():
    # the benchmark's tracer re-binds each traced name through its owner's
    # __dict__: a method must be defined on its own class, not inherited, and
    # a function must be defined or imported in its own module
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    assert traced
    for module, qual in traced:
        body = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")).body
        *classes, name = qual.split(".")
        for cls in classes:
            owners = [node for node in body if isinstance(node, ast.ClassDef) and node.name == cls]
            assert owners, (module, qual)
            body = owners[0].body
        bound = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        if not classes:
            bound |= {a.asname or a.name for node in body if isinstance(node, ast.ImportFrom)
                      for a in node.names}
        assert name in bound, (module, qual)


def _class(module: str, name: str) -> ast.ClassDef:
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)


def test_field_operations_do_not_test_the_field():
    # the operations are bound in the constructor; a method that reads self.p
    # on every call would ask again which field it is in
    field = _class("base_ring.py", "Field")
    ops = {"add", "sub", "mul", "neg", "of", "inv", "div", "zero", "one"}
    methods = {fn.name: fn for fn in field.body if isinstance(fn, ast.FunctionDef)}
    init = methods["__init__"]
    bound = {t.attr for node in ast.walk(init) if isinstance(node, ast.Assign)
             for target in node.targets
             for t in (target.elts if isinstance(target, ast.Tuple) else [target])
             if isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self"}
    assert ops <= bound | set(methods)
    for name in ops & set(methods):
        reads = [node for node in ast.walk(methods[name])
                 if isinstance(node, ast.Attribute) and node.attr == "p"]
        assert not reads, name


def test_element_product_has_no_per_variable_loop():
    # the Koszul sign and the binomials of a pair of monomials are computed
    # once, by TowerAlgebra.monomial_product, and read off its memo
    elem = _class("dg_algebra.py", "AlgebraElement")
    mul = next(fn for fn in elem.body if isinstance(fn, ast.FunctionDef) and fn.name == "__mul__")
    loops = [node for node in ast.walk(mul) if isinstance(node, (ast.For, ast.comprehension))]
    assert len(loops) == 2  # the terms of each factor
    assert all(ast.unparse(node.iter).endswith(".terms.items()") for node in loops)
    names = {node.id for node in ast.walk(mul) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(mul) if isinstance(node, ast.Attribute)}
    assert not names & {"comb", "zip", "range", "enumerate"}
    assert "monomial_product" in attrs


def test_hom_blocks_multiply_through_the_shift_routine():
    # X^e x^b · dM[a, b] and dL[a, i] · X^e x^b only shift exponents: the
    # block assembly builds no monomial element and multiplies no elements
    hom = _class("homological.py", "HomComplex")
    calls = [node for node in ast.walk(hom)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    monomials = [node for node in calls if node.func.attr == "monomial"]
    assert all(ast.unparse(node.func.value).endswith(".base") for node in monomials)
    assert sum(node.func.attr == "monomial_times" for node in calls) == 2
    assert not [node for node in ast.walk(hom)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)]
