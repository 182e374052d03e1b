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
a tower element is one flat map {(exps, bex): scalar}, and no loop walks a
base polynomial inside a walk over tower monomials; `BasePoly` has no
arithmetic loop of its own; the product of tower elements reads its signs
and binomials off the monomial product memo through the tower's shift
routine, which the Hom blocks use as well; every elimination, `matrix_rank`,
`solve_linear`, `nullspace_basis` and `splitting`, goes straight to
`_reduce`, so that one pivot rule makes every echelon, kernel and
certificate, and no structural-pivot pass is left; `HomComplex` assembles D
once, as columns keyed by row position, and its rows are their plain
transpose, so a row's label is built only where an equation is printed or
matched, and `build_split_system` reads pi off tower monomials by position
too, with no module-element operation, and builds no label but its
unknowns'; a SPLIT is re-checked through `ChainMap`; E1 dimensions come
from one table per complex, and the complex keeps no whole matrix, transfer
or E1 dimension, which no caller reads again; a tower keeps the columns of
d on a slice in that positional format only, every per-slice memo of a
tower or a Hom complex goes through the decorator `per_slice`, and one
predicate, `_inherits`, read by its wrapper, decides where a tower reads its
parent's echelon, kernel, boundary record and contraction; a tower
keeps no slice rank beside its echelon, and only the Hom assembly keeps the
columns of a slice; Tate and Ext read one kernel elimination per slice,
`slice_kernel`, and Ext splits its boundaries once per slice; `_axpy` is
the one scalar `dst += m·src`; the suffix split of tower terms, the Koszul
flip of a left action, a module's differential by column and the sums of
module elements each have one home; the envelope reads the differential of
its Mon(Omega) modules, J and J^(l)/J^(l+1), in one method, and a bimodule
gets its left action when it is built; and every name the benchmark's tracer
wraps is defined where the tracer looks."""

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
             if isinstance(node, ast.Attribute) and node.attr in ("diff", "columns")]
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
    # to its AlgebraElement, and the envelope writes no tower element from
    # raw terms: its one suffix reader is TowerAlgebra.split_at
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
    assert not [node for node in ast.walk(reader)
                if isinstance(node, (ast.For, ast.comprehension))]
    assert "split_at" in _calls_in(reader)
    builds = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "AlgebraElement"]
    assert not builds


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
    ops = {"add", "mul", "neg", "of", "inv", "div", "zero", "one"}
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


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef:
    return next(fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == name)


def test_element_product_has_no_per_variable_loop():
    # the product is the sum over the terms c·X^e x^b of one factor of c
    # times X^e x^b shifting the other: __mul__ loops over the terms of one
    # factor and adds each shifted copy through _axpy; monomial_times loops
    # over the other's terms, reads the Koszul sign and the binomials of each
    # pair of tower monomials off the monomial product memo, and adds base
    # exponents, its one loop over variables
    mul = _method(_class("dg_algebra.py", "AlgebraElement"), "__mul__")
    times = _method(_class("dg_algebra.py", "TowerAlgebra"), "monomial_times")
    loops = [node for node in ast.walk(mul) if isinstance(node, (ast.For, ast.comprehension))]
    assert [ast.unparse(node.iter) for node in loops] == ["shorter.coeffs.items()"]
    assert {"monomial_times", "_axpy"} <= _calls_in(mul)
    loops = [node for node in ast.walk(times) if isinstance(node, (ast.For, ast.comprehension))]
    assert sorted(ast.unparse(node.iter) for node in loops) == ["u.coeffs.items()", "zip(b, shift)"]
    for fn in (mul, times):
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert not names & {"comb", "range", "enumerate"}, fn.name
    attrs = {node.attr for node in ast.walk(times) if isinstance(node, ast.Attribute)}
    assert {"_products", "monomial_product"} <= attrs


def test_elements_have_one_flat_format():
    # a tower element is one sparse map {(exps, bex): scalar}; the nested
    # {exps: BasePoly} reading is a view built for display, and nothing
    # converts between the two formats by walking a base polynomial inside
    # a walk over tower monomials; BasePoly holds no arithmetic loop: each
    # operator goes through the tower with no variables
    elem = _class("dg_algebra.py", "AlgebraElement")
    slots = next(node.value for node in elem.body if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "__slots__")
    assert ast.literal_eval(slots) == ("tower", "coeffs")
    assert "coordinates" not in {fn.name for fn in elem.body if isinstance(fn, ast.FunctionDef)}
    poly = _class("base_ring.py", "BasePoly")
    ops = {"__add__", "__neg__", "__sub__", "__mul__", "scale", "scale_int"}
    for fn in poly.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ops:
            (ret,) = fn.body
            assert isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call), fn.name
            assert ast.unparse(ret.value.func) in ("self._via_tower", "self.scale"), fn.name
    assert "TowerAlgebra" in _calls_in(_method(poly, "_via_tower"))
    assert not {"graded_component", "_check"} & {fn.name for fn in poly.body
                                                 if isinstance(fn, ast.FunctionDef)}

    def reads_terms(node, names=None) -> bool:
        """Whether `node` reads a `.terms` attribute (of one of `names`)."""
        return any(isinstance(a, ast.Attribute) and a.attr == "terms"
                   and (names is None or isinstance(a.value, ast.Name) and a.value.id in names)
                   for a in ast.walk(node))

    def bound(target) -> set:
        return {t.id for t in ast.walk(target) if isinstance(t, ast.Name)}

    nested = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.For) and reads_terms(node.iter):
                names = bound(node.target)
                if any(isinstance(n, (ast.For, ast.comprehension)) and reads_terms(n.iter, names)
                       for part in node.body for n in ast.walk(part)):
                    nested.append((path.name, node.lineno))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                gens = node.generators
                if any(reads_terms(g.iter) and reads_terms(h.iter, bound(g.target))
                       for i, g in enumerate(gens) for h in gens[i + 1:]):
                    nested.append((path.name, node.lineno))
    assert not nested, nested


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


def _calls_in(fn: ast.FunctionDef) -> set[str]:
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_every_elimination_goes_through_reduce():
    # one pivot rule: the certificates of solve_linear, the kernels and the
    # echelons that remainder reads all come from _reduce's pivot order
    tree = ast.parse((SRC / "base_ring.py").read_text(encoding="utf-8"))
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name in ("matrix_rank", "solve_linear", "nullspace_basis", "splitting"):
        assert "_reduce" in _calls_in(fns[name]), name
    for path in sorted(SRC.glob("*.py")):
        assert "_structural_pivots" not in path.read_text(encoding="utf-8"), path.name


def test_hom_complex_has_one_positional_assembly():
    # D is built once, as {row position: scalar} columns; a label-keyed
    # column map beside it would be a second path to keep in step
    hom = _class("homological.py", "HomComplex")
    methods = {fn.name: fn for fn in hom.body if isinstance(fn, ast.FunctionDef)}

    def is_tuple(node):
        return isinstance(node, ast.Tuple) or isinstance(node, ast.BinOp) and (
            isinstance(node.left, ast.Tuple) or isinstance(node.right, ast.Tuple))

    tuple_keys = [node.lineno for node in ast.walk(hom)
                  if isinstance(node, ast.DictComp) and is_tuple(node.key)
                  or isinstance(node, ast.Dict) and any(map(is_tuple, node.keys))
                  or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and is_tuple(node.slice)]
    assert not tuple_keys

    def reads(fn, attr):
        return any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(fn))

    # delta, the d_L and d_M entries of D, is listed by one method, which
    # both the whole matrix and the E1 transfer call; the constructor only
    # groups dM by row
    (delta,) = {name for name, fn in methods.items() if reads(fn, "columns")}
    assert {name for name, fn in methods.items()
            if name != "__init__" and reads(fn, "_m_rows")} == {delta}
    assert {name for name, fn in methods.items() if delta in _calls_in(fn)} \
        == {"matrix_columns", "_transfer"}
    assert not {"_dl_columns", "_dl_image", "_dm_image"} & set(methods)
    assert "self._dl" not in ast.unparse(hom)
    assert {name for name, fn in methods.items() if "matrix_columns" in _calls_in(fn)} \
        == {"rows"}
    # Ext ranks D_H on the E1 page, not the whole matrix; the benchmark
    # counts Hom eliminations through homological's copy of matrix_rank
    assert "rank" not in methods and "self._ranks" not in ast.unparse(hom)
    ranks = [node for node in ast.walk(hom) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "matrix_rank"]
    assert len(ranks) == 1
    assert ast.unparse(ranks[0].args[1]) == "self.e1_columns(d, w)"


def test_hom_complex_memoises_only_what_it_reads_again():
    # on a full lift deck the whole matrix, the transfer of a basis map and
    # an E1 dimension were found kept in 0 of 384, 195 of 3 001 and 6 040
    # of 39 760 reads; a memo of them comes back only with a hit rate that
    # pays for it
    hom = _class("homological.py", "HomComplex")
    text = ast.unparse(hom)
    for name in ("_matrices", "_transfers", "_e1_dims"):
        assert name not in text, name
    for name in ("matrix_columns", "_transfer", "e1_dim"):
        fn = _method(hom, name)
        stores = [ast.unparse(node) for node in ast.walk(fn)
                  if isinstance(node, (ast.Attribute, ast.Subscript))
                  and isinstance(node.ctx, ast.Store)
                  and ast.unparse(node).startswith("self.")]
        calls = [ast.unparse(node) for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and ast.unparse(node.func.value).startswith("self.")
                 and node.func.attr in ("setdefault", "update", "append", "extend", "add")]
        assert not stores and not calls, (name, stores, calls)


def test_split_system_reads_pi_off_tower_monomials():
    # pi(e_a (x) g · X^e x^b) = e_a·(g · X^e x^b), one shift per unknown; the
    # element route is the oracle's, in tests/test_split_oracle.py; and the
    # E1 dimensions are read off the complex's E1 table, not summed per
    # generator of L
    text = (SRC / "homological.py").read_text(encoding="utf-8")
    (fn,) = [node for node in ast.parse(text).body
             if isinstance(node, ast.FunctionDef) and node.name == "build_split_system"]
    assert "monomial_times" in _calls_in(fn)
    assert not _calls_in(fn) & {"apply", "label_elem", "elem_coords"}
    assert "_l_e1_dim" not in text


def test_tower_slices_have_one_positional_format():
    # the columns of d on a tower slice are built only as {position: scalar}
    # maps (`_images`), which the echelon, the kernel and, through
    # slice_columns, the Ext path all read; a label-keyed copy beside them
    # would be a second format to keep in step
    tower = _class("dg_algebra.py", "TowerAlgebra")
    methods = {fn.name for fn in tower.body if isinstance(fn, ast.FunctionDef)}
    assert "slice_columns" in methods and "slice_images" not in methods
    for path in sorted(SRC.glob("*.py")):
        assert "slice_images" not in path.read_text(encoding="utf-8"), path.name


def test_tower_memoises_only_what_it_reads_again():
    # over the first 96 resolve ops of seed 7 a slice's (dim, rank) pair was
    # found kept in 6 218 of 17 904 reads, though both halves have memos of
    # their own, and the columns the Tate kernel asked for in 0 of 142: a
    # rank is the length of the slice's echelon, the kernel keeps no
    # columns, nor does the boundary record, which builds only the columns
    # at the pivots of the kernel above, and only the Hom assembly fills the
    # memo
    tower = _class("dg_algebra.py", "TowerAlgebra")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "slice_rank" not in text and "_slice_ranks" not in text, path.name
    assert "slice_columns" not in _calls_in(_method(tower, "slice_kernel"))
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(fn, ast.FunctionDef) and "slice_columns" in _calls_in(fn):
                    readers.add(fn.name if fn is top else f"{top.name}.{fn.name}")
    assert readers == {"HomComplex.matrix_columns"}
    # per_slice's wrapper is where a tower reads a parent's slice value, and
    # slice_dim walks up to the ancestor whose slice it is; each inherited
    # method states at its head how far above the slice it reads, and
    # slice_homology reads the boundary record, which a child inherits
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        fns = [fn for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(fn, ast.FunctionDef) and "_inherits" in _calls_in(fn)]
        # the innermost function around each call, not the ones that hold it
        callers |= {(path.name, fn.name) for fn in fns
                    if not any(inner in fns for inner in ast.walk(fn) if inner is not fn)}
    assert callers == {("dg_algebra.py", "memoised"), ("dg_algebra.py", "slice_dim")}
    wrapper = _function("dg_algebra.py", "per_slice")
    assert "memoised" in {fn.name for fn in ast.walk(wrapper) if isinstance(fn, ast.FunctionDef)}
    assert per_slice_methods("dg_algebra.py", "TowerAlgebra") == {
        "slice_basis": "", "slice_index": "", "slice_columns": "",
        "slice_echelon": "above=0", "slice_kernel": "above=0",
        "_boundary_record": "above=1", "slice_contraction": "above=1"}
    assert per_slice_methods("homological.py", "HomComplex") == {
        "_block_starts": "", "_e1_rank": ""}


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(node for node in ast.parse((SRC / module).read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def per_slice_methods(module: str, cls: str) -> dict[str, str]:
    """{method: the arguments of its `per_slice` decorator, as text}."""
    return {fn.name: ", ".join(map(ast.unparse, [*deco.args, *deco.keywords]))
            for fn in _class(module, cls).body if isinstance(fn, ast.FunctionDef)
            for deco in fn.decorator_list
            if isinstance(deco, ast.Call) and ast.unparse(deco.func) == "per_slice"}


def test_every_slice_memo_goes_through_per_slice():
    # one rule keeps a value per (hdeg, weight) slice and reads the parent's
    # where _inherits allows; a memo attribute written out by hand beside it
    # would be a second copy of that rule
    gone = {"_slices", "_indices", "_columns", "_echelons", "_kernels", "_records",
            "_contractions", "_envelope", "_blocks", "_e1_ranks"}
    for path in sorted(SRC.glob("*.py")):
        attrs = {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute)}
        assert not attrs & gone, (path.name, attrs & gone)


def test_one_kernel_per_tower_slice_for_tate_and_ext():
    # Tate and Ext read one elimination of a slice's kernel, slice_kernel's
    # nullspace_basis; Ext's boundaries are split once per slice, on the
    # free positions of that kernel, and the homology and the contraction
    # are read off the two without another elimination
    callers: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(fn, ast.FunctionDef):
                    for name in _calls_in(fn) & {"nullspace_basis", "splitting", "matrix_rank"}:
                        callers.setdefault(name, set()).add(
                            fn.name if fn is top else f"{top.name}.{fn.name}")
    assert callers["nullspace_basis"] == {"TowerAlgebra.slice_kernel"}
    assert callers["splitting"] == {"TowerAlgebra._boundary_record"}
    assert not {"TowerAlgebra.slice_homology", "TowerAlgebra.slice_contraction",
                "TowerAlgebra._boundary_record"} & callers["matrix_rank"]
    # splitting hands back no kernel, which nothing reads
    (fn,) = [node for node in ast.parse((SRC / "base_ring.py").read_text(encoding="utf-8")).body
             if isinstance(node, ast.FunctionDef) and node.name == "splitting"]
    (ret,) = [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
    assert isinstance(ret.value, ast.Tuple) and len(ret.value.elts) == 2


def test_only_inherits_asks_whether_the_last_variable_enters_a_slice():
    # one predicate decides where a tower reads its parent's echelon, kernel,
    # homology, contraction and slice dimension
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Subscript)
                    and ast.unparse(node) in ("self._degrees[-1]", "self._weights[-1]")
                    for node in ast.walk(fn)):
                readers.add((path.name, fn.name))
    assert readers == {("dg_algebra.py", "_inherits")}


def test_slice_echelon_reads_the_parent_only_where_it_inherits():
    # a tower asks its parent for an echelon only where per_slice's
    # _inherits branch does; every other slice starts from the rows an
    # ancestor already holds, so no one-step parent path sits beside that
    # one, and one rank call ranks what is left, for a root and a child alike
    fn = _method(_class("dg_algebra.py", "TowerAlgebra"), "slice_echelon")
    assert [ast.unparse(deco) for deco in fn.decorator_list] == ["per_slice(above=0)"]
    assert not _calls_in(fn) & {"slice_echelon", "_inherits"}
    wrapper = _function("dg_algebra.py", "per_slice")
    asks = [node for node in ast.walk(wrapper) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "getattr(self._parent, name)"]
    (branch,) = [node for node in ast.walk(wrapper) if isinstance(node, ast.If)
                 and "self._inherits(hdeg + above, weight)" in ast.unparse(node.test)]
    assert len(asks) == 1 and asks[0] in [node for stmt in branch.body for node in ast.walk(stmt)]
    ranks = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "matrix_rank"]
    assert len(ranks) == 1


def test_scalar_axpy_has_one_home():
    # dst += m·src, dropping the zeros it makes, is written once, in
    # base_ring._axpy; the elimination, the echelon reduction and the
    # certificate check call it instead of writing the loop out
    tree = ast.parse((SRC / "base_ring.py").read_text(encoding="utf-8"))
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    verify = next(fn for fn in _class("base_ring.py", "Infeasible").body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "verify")
    for fn in (fns["_reduce"], fns["remainder"], verify):
        assert "_axpy" in _calls_in(fn), fn.name
        deletes = [node for node in ast.walk(fn) if isinstance(node, ast.Delete)
                   and any(isinstance(t, ast.Subscript) for t in node.targets)]
        assert not deletes, fn.name


def test_module_layer_rules_have_one_home_each():
    # the suffix split is TowerAlgebra.split_at and the Koszul flip of a
    # left action is AlgebraElement.koszul; a module's differential by
    # column is SemifreeModule.columns, built once; module-element sums are
    # SemifreeModule's, which the session's module expressions use as well
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in texts.items()}
    for name in ("split_over_prefix", "_ModElem", "_l_cols", "by_target", "_omegas"):
        assert not [path for path, text in texts.items() if name in text], name
    envelope = _class("envelope.py", "EnvelopeAlgebra")
    assert "split_at" in _calls_in(_method(envelope, "_suffixes"))
    assert "koszul" in _calls_in(_method(envelope, "quotient_module"))
    base_change = next(fn for fn in trees["dg_module.py"].body
                       if isinstance(fn, ast.FunctionDef) and fn.name == "base_change")
    assert "split_at" in _calls_in(base_change)
    # only dg_algebra reads an element degree by degree
    for path, tree in trees.items():
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr == "split_by_degree"]
        assert not calls or path == "dg_algebra.py", path
    # the differential is read by column, not by a scan of every entry
    module = _class("dg_module.py", "SemifreeModule")
    tensor = next(fn for fn in trees["dg_module.py"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "tensor_bimodule")
    for fn in (_method(module, "apply_diff"), tensor):
        scans = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.comprehension))
                 and any(isinstance(a, ast.Attribute) and a.attr == "diff"
                         for a in ast.walk(node.iter))]
        assert not scans, fn.name
        assert any(isinstance(a, ast.Attribute) and a.attr == "columns" for a in ast.walk(fn))
    statics = {fn.name for fn in module.body if isinstance(fn, ast.FunctionDef)
               and any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)}
    assert statics >= {"add_elem", "neg_elem", "mul_elem"}
    session_calls = {ast.unparse(node.func) for node in ast.walk(trees["session.py"])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert {"SemifreeModule.add_elem", "SemifreeModule.neg_elem",
            "SemifreeModule.mul_elem", "a.koszul"} <= session_calls


def test_the_envelope_has_one_mon_omega_reader():
    # J and the quotients J^(l)/J^(l+1) read d(xi^w) through `_omega_terms`
    # alone, and J is rebuilt from its plain data as the quotients are
    tree = ast.parse((SRC / "envelope.py").read_text(encoding="utf-8"))
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and "monomial_diff" in _calls_in(fn)}
    assert readers == {"_omega_terms"}
    envelope = _class("envelope.py", "EnvelopeAlgebra")
    assert "_omega_terms" in _calls_in(_method(envelope, "_quotient_terms"))
    ideal = _calls_in(_method(envelope, "diagonal_ideal_module"))
    assert {"_omega_terms", "from_terms"} <= ideal and "SemifreeModule" not in ideal


def test_a_left_action_is_given_only_at_construction():
    # no statement outside SemifreeModule.__init__ assigns `left_action_fn`,
    # so a module is never patched into a bimodule after it is built
    init = _method(_class("dg_module.py", "SemifreeModule"), "__init__")
    inside = {("dg_module.py", node.lineno) for node in ast.walk(init)
              if isinstance(node, ast.stmt)}
    assigned = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr":
                targets = [a for a in node.args if isinstance(a, ast.Constant)]
            else:
                continue
            if any(getattr(t, "attr", getattr(t, "value", None)) == "left_action_fn"
                   for target in targets for t in ast.walk(target)):
                assigned.append((path.name, node.lineno))
    assert assigned and set(assigned) <= inside, assigned


def test_ext_dims_reads_homology_only_on_the_slices_e1_holds():
    # ext_dims grows the E1 grid once and asks for homology only on the
    # (d, w) slices the E1 table holds: no loop over the whole i x w
    # rectangle, and no E1 dimension read per cell
    tree = ast.parse((SRC / "homological.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "ext_dims"]
    asks = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "homology_dim"]
    assert len(asks) == 1
    loops = [node for node in ast.walk(fn) if isinstance(node, ast.For)
             and asks[0] in [n for stmt in node.body for n in ast.walk(stmt)]]
    assert [ast.unparse(node.iter) for node in loops] == ["hom.e1_slices(1 - imin, w_hi)"]
    assert not _calls_in(fn) & {"e1_dim", "_e1_blocks"}
    slices = _method(_class("homological.py", "HomComplex"), "e1_slices")
    assert "_e1_blocks" in _calls_in(slices)



def _homological_functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / "homological.py").read_text(encoding="utf-8"))
    return {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def test_hom_rows_are_the_positional_transpose():
    # rows keys D by row position as matrix_columns does; a row's label is
    # built only to print a witness's equations or to match f's coordinates
    # in null_homotopy, besides the unknowns of the splitting system
    hom = _class("homological.py", "HomComplex")
    assert "slice_labels" not in _calls_in(_method(hom, "rows"))
    assert {name for name, fn in _homological_functions().items()
            if "slice_labels" in _calls_in(fn)} \
        == {"null_homotopy", "build_split_system", "equation_labels"}


def test_split_system_builds_labels_only_for_its_unknowns():
    # on its own or through a method of the complex it calls: a chain
    # equation is keyed by row position, so a SPLIT op builds no row label
    hom = _class("homological.py", "HomComplex")
    methods = {fn.name: fn for fn in hom.body if isinstance(fn, ast.FunctionDef)}
    split = _homological_functions()["build_split_system"]
    assert [ast.unparse(node) for node in ast.walk(split) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "slice_labels"] \
        == ["hom.slice_labels(0, 0)"]
    reached, todo = set(), list(_calls_in(split) & set(methods) - {"slice_labels"})
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _calls_in(methods[name]) & set(methods)
    assert "rows" in reached and "slice_labels" not in reached


def test_split_is_re_checked_through_chain_map():
    # pi 。rho = id and d 。rho = rho 。d are ChainMap's own checks, not
    # module-element operations written out again
    check = _calls_in(_homological_functions()["naive_lift_check"])
    assert {"compose", "identity", "is_chain_map"} <= check
    assert not check & {"apply_diff", "apply", "elem_eq"}
