"""The benchmark's workloads, for tests that read its shapes and decks."""

from __future__ import annotations

import importlib
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_workloads() -> tuple[dict, dict]:
    """`workloads.WORKLOADS` of bench/, and the dglift submodules a workload
    is handed, as `bench/run.py` names them."""
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.pop(0)
    # the modules already imported: run.import_dglift would import them afresh
    dg = {name: importlib.import_module(f"dglift.{name}") for name in run.SUBMODULES}
    return workloads.WORKLOADS, dg
