"""Outside-in layer tracing for the dglift benchmark.

The tracer wraps public functions and methods of the dglift modules from the
benchmark's side: the library itself is not modified.  Each call becomes a
span (name, start, end, parent span, op id) kept in memory; self time is the
span's duration minus the time covered by its child spans.  Counters are
taken at the same boundaries.

`AlgebraElement.__mul__` and `BasePoly.__mul__` are deliberately not wrapped:
they run a few hundred thousand times per run and wrapping them costs far
more than the rest of the tracing together.  Their time lands in the
callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of every traced callable; the metric prefix is
# "<module>.<qualified name>".
TRACED = (
    ("base_ring", "solve_linear"),
    ("base_ring", "matrix_rank"),
    ("base_ring", "nullspace_basis"),
    ("dg_algebra", "AlgebraElement.differential"),
    ("dg_algebra", "AlgebraElement.divided_power"),
    ("dg_algebra", "TowerAlgebra.slice_basis"),
    ("dg_algebra", "TowerAlgebra.adjoin"),
    ("dg_algebra", "check_axioms"),
    ("tate", "homology_dims"),
    ("tate", "tate_step"),
    ("tate", "tate_resolution"),
    ("homological", "ext_dims"),
    ("homological", "HomComplex.matrix_columns"),
    ("homological", "HomComplex.homology_dim"),
    ("homological", "build_split_system"),
    ("homological", "naive_lift_check"),
    ("dg_module", "base_change"),
    ("dg_module", "tensor_bimodule"),
    ("dg_module", "SemifreeModule.apply_diff"),
    ("envelope", "EnvelopeAlgebra.quotient_module"),
    ("envelope", "EnvelopeElement.to_omega"),
    ("session", "parse_session"),
    ("session", "render_element"),
    ("cli", "run_command"),
    ("cli", "render_report"),
)

# Functions re-bound in other modules by `from ... import`; the test checks
# that each of these bindings is replaced, so no span goes missing silently.
EXPECTED_COPIES = (
    ("homological", "matrix_rank"),
    ("cli", "matrix_rank"),
    ("tate", "nullspace_basis"),
    ("cli", "ext_dims"),
    ("cli", "naive_lift_check"),
    ("cli", "tate_resolution"),
    ("cli", "check_axioms"),
    ("cli", "parse_session"),
)

REPEAT_SHARE = (
    "dg_algebra.AlgebraElement.differential",
    "dg_algebra.TowerAlgebra.slice_basis",
    "tate.homology_dims",
)

# Extra counters per span name, reported as "<span>.<counter>".
COUNTERS = {
    "base_ring.elim": ("rows", "nnz", "rank", "max_rows"),
    "tate.tate_resolution": ("vars_adjoined",),
    "homological.build_split_system": ("unknowns", "equations"),
    "homological.naive_lift_check": ("split", "obstructed"),
    "dg_module.base_change": ("basis_out",),
}


def _elem_key(elem) -> frozenset:
    # BasePoly defines __eq__ without __hash__, so the terms stand in for it:
    # exponent tuples and int or Fraction scalars are hashable, and equal
    # elements give equal keys whatever their insertion order.
    return frozenset((e, frozenset(p.terms.items())) for e, p in elem.terms.items())


class Tracer:
    """Span recorder and counter store for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one column per field, in the order spans end; a run of `lift`
        # records over a million spans, too many for a tuple each
        self.span_ids = array("i")
        self.span_names = array("H")
        self.span_starts = array("d")
        self.span_ends = array("d")
        self.span_parents = array("i")
        self.span_ops = array("i")
        self._next_id = 0
        self._stack: list = []  # [span id, child seconds] of open spans
        self.op_id = -1
        self.enabled = True
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._base_depth = 0
        # id(tower) -> (tower, {span name: set of inputs seen}).  Holding the
        # tower keeps its id from being reused by a later tower.
        self._towers: dict[int, tuple] = {}
        self._repeats: dict[str, int] = {}

    # --- installation ------------------------------------------------------

    def install(self, modules: dict) -> list[tuple[str, str]]:
        """Wrap every traced callable in the given {short name: module} map,
        re-binding each copy made by `from ... import` in any of them.

        Returns the (module, attribute) bindings that were replaced.
        """
        rebound = []
        for mod_name, qual in TRACED:
            owner = modules[mod_name]
            parts = qual.split(".")
            holder = owner
            for part in parts[:-1]:
                holder = getattr(holder, part)
            original = holder.__dict__[parts[-1]]
            wrapper = self._wrap(f"{mod_name}.{qual}", original)
            setattr(holder, parts[-1], wrapper)
            rebound.append((mod_name, qual))
            if len(parts) == 1:
                for other_name, other in modules.items():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
                            if (other_name, attr) != (mod_name, qual):
                                rebound.append((other_name, attr))
        return rebound

    @contextmanager
    def paused(self):
        """Run the enclosed calls untraced (output checks, for instance)."""
        before = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = before

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = self._name_id(name)
        tracer.calls.setdefault(name, 0)
        tracer.self_s.setdefault(name, 0.0)
        on_exit = _ON_EXIT.get(name)
        is_base = name.startswith("base_ring.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = tracer._next_id
            tracer._next_id = idx + 1
            frame = [idx, 0.0]
            stack.append(frame)
            if is_base:
                tracer._base_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_base:
                    tracer._base_depth -= 1
                if stack:
                    parent = stack[-1]
                    parent[1] += t1 - t0
                    parent_idx = parent[0]
                else:
                    parent_idx = -1
                tracer.span_ids.append(idx)
                tracer.span_names.append(name_id)
                tracer.span_starts.append(t0)
                tracer.span_ends.append(t1)
                tracer.span_parents.append(parent_idx)
                tracer.span_ops.append(tracer.op_id)
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[1]
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result)
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # --- counters ------------------------------------------------------------

    def count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def seen(self, name: str, tower, key) -> None:
        """Count a repeat when `key` was already an input of `name` on this
        very tower object."""
        entry = self._towers.get(id(tower))
        if entry is None:
            entry = (tower, {})
            self._towers[id(tower)] = entry
        inputs = entry[1].setdefault(name, set())
        if key in inputs:
            self._repeats[name] = self._repeats.get(name, 0) + 1
        else:
            inputs.add(key)

    def elim(self, rows: list, rank: int | None):
        """Size of one elimination, counted at the outermost base_ring span."""
        if self._base_depth:
            return
        self.count("base_ring.elim.rows", len(rows))
        self.count("base_ring.elim.nnz", sum(len(r) for r in rows))
        if rank is not None:
            self.count("base_ring.elim.rank", rank)
        if len(rows) > self.counts.get("base_ring.elim.max_rows", 0):
            self.counts["base_ring.elim.max_rows"] = len(rows)

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric by name: calls, self_s, repeat_share and
        the counters, with 0 for layers that were never entered."""
        out: dict[str, float] = {}
        for mod_name, qual in TRACED:
            name = f"{mod_name}.{qual}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in REPEAT_SHARE:
            calls = self.calls.get(name, 0)
            out[f"{name}.repeat_share"] = self._repeats.get(name, 0) / calls if calls else 0.0
        for span, keys in COUNTERS.items():
            for key in keys:
                out[f"{span}.{key}"] = self.counts.get(f"{span}.{key}", 0)
        return out

    def write(self, path) -> None:
        """Write every span to a gzip text file: a JSON header line with the
        span name table, then one `id name start end parent op` line per
        span (times in seconds from the first span, parent -1 at the top,
        op -1 during set-up)."""
        t0 = min(self.span_starts, default=0.0)
        rows = zip(self.span_ids, self.span_names, self.span_starts,
                   self.span_ends, self.span_parents, self.span_ops)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["id", "name", "start", "end", "parent", "op"]}) + "\n")
            for i, n, a, b, p, op in rows:
                fh.write(f"{i} {n} {a - t0:.7f} {b - t0:.7f} {p} {op}\n")


# --- per-span counters ---------------------------------------------------------


def _solve_linear(tracer, args, kwargs, result):
    system = args[0]
    rank = system.ncols - len(result.nullspace) if hasattr(result, "nullspace") else None
    tracer.elim(system.rows, rank)


def _matrix_rank(tracer, args, kwargs, result):
    tracer.elim(args[1], result)


def _nullspace_basis(tracer, args, kwargs, result):
    tracer.elim(args[1], args[2] - len(result))


def _differential(tracer, args, kwargs, result):
    elem = args[0]
    tracer.seen("dg_algebra.AlgebraElement.differential", elem.tower, _elem_key(elem))


def _call_key(args, kwargs) -> tuple:
    return args[1:] + tuple(sorted(kwargs.items()))


def _slice_basis(tracer, args, kwargs, result):
    tracer.seen("dg_algebra.TowerAlgebra.slice_basis", args[0], _call_key(args, kwargs))


def _homology_dims(tracer, args, kwargs, result):
    tracer.seen("tate.homology_dims", args[0], _call_key(args, kwargs))


def _tate_resolution(tracer, args, kwargs, result):
    tracer.count("tate.tate_resolution.vars_adjoined", len(result.tower.variables))


def _build_split_system(tracer, args, kwargs, result):
    system = result[0]
    tracer.count("homological.build_split_system.unknowns", system.ncols)
    tracer.count("homological.build_split_system.equations", len(system.rows))


def _naive_lift_check(tracer, args, kwargs, result):
    key = "split" if result.split else "obstructed"
    tracer.count(f"homological.naive_lift_check.{key}")


def _base_change(tracer, args, kwargs, result):
    tracer.count("dg_module.base_change.basis_out", len(result[0].basis))


_ON_EXIT = {
    "base_ring.solve_linear": _solve_linear,
    "base_ring.matrix_rank": _matrix_rank,
    "base_ring.nullspace_basis": _nullspace_basis,
    "dg_algebra.AlgebraElement.differential": _differential,
    "dg_algebra.TowerAlgebra.slice_basis": _slice_basis,
    "tate.homology_dims": _homology_dims,
    "tate.tate_resolution": _tate_resolution,
    "homological.build_split_system": _build_split_system,
    "homological.naive_lift_check": _naive_lift_check,
    "dg_module.base_change": _base_change,
}
