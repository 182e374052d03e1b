"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
sys.path.insert(0, str(ROOT / "src"))

# layers each workload must never enter (the zero-call predictions)
IDLE_LAYERS = {
    "axioms": ("base_ring.", "tate.", "homological.", "envelope."),
    "resolve": ("homological.", "envelope.", "dg_module."),
    "lift": ("tate.",),
}


def traced_run(workload: str, ops: int, hash_seed: str = "0") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--ops", str(ops)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(IDLE_LAYERS))
def traced(request):
    return request.param, traced_run(request.param, 6)


def test_every_copied_binding_is_rebound():
    modules = run.import_dglift()
    rebound = set(tracing.Tracer().install(modules))
    for owner, name in tracing.EXPECTED_COPIES:
        assert (owner, name) in rebound, f"{owner}.{name} still points at the original"
        assert hasattr(getattr(modules[owner], name), "__wrapped__")
    for owner, qual in tracing.TRACED:
        assert (owner, qual) in rebound


def test_zero_call_predictions(traced):
    name, doc = traced
    assert doc["correct"] and doc["failed"] == 0
    calls = {k: m["value"] for k, m in doc["metrics"].items() if k.endswith(".calls")}
    busy = [k for k, v in calls.items() if v and k.startswith(IDLE_LAYERS[name])]
    assert not busy, f"{name} entered layers predicted idle: {busy}"
    assert any(calls.values())


def test_traced_metrics_match_benchmark_json(traced):
    _, doc = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == declared


def test_counts_do_not_depend_on_hash_seed():
    for name in sorted(IDLE_LAYERS):
        a = traced_run(name, 4, hash_seed="1")["metrics"]
        b = traced_run(name, 4, hash_seed="2")["metrics"]
        counts = [k for k, m in a.items() if m["unit"] in ("count", "share")]
        assert counts
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}, name


def test_cli_reports_identical_with_tracing(tmp_path):
    reports = {}
    for traced_mode in (False, True):
        modules = run.import_dglift()
        if traced_mode:
            tracing.Tracer().install(modules)
        for wl_cls in (workloads.ResolveWorkload, workloads.AxiomsWorkload):
            wl = wl_cls()
            deck, _, _ = wl.generate(modules, 5)
            for i, inp in enumerate(deck[:4]):
                session = tmp_path / f"{wl.name}-{i}.session"
                session.write_text(inp.spec["text"], encoding="utf-8")
                report = tmp_path / f"{wl.name}-{i}-{traced_mode}.json"
                with open(os.devnull, "w") as sink:
                    old, sys.stdout = sys.stdout, sink
                    try:
                        status = modules["cli"].main([str(session), "--report", str(report)])
                    finally:
                        sys.stdout = old
                reports.setdefault((wl.name, i), []).append((status, report.read_bytes()))
    for key, (plain, traced_out) in reports.items():
        assert plain == traced_out, key


def test_end_to_end_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_hilbert_function_oracle():
    # R/(x^2, y^2, z^2) has Hilbert function 1, 3, 3, 1, 0
    gens = [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}]
    assert [workloads.hilbert_function(gens, 3, w, None) for w in range(5)] == [1, 3, 3, 1, 0]
    # x^2 - y^2 and x y: a complete intersection, 1, 2, 1, 0 in two variables
    gens = [{(2, 0): 1, (0, 2): -1}, {(1, 1): 1}]
    for p in (None, workloads.PRIME):
        assert [workloads.hilbert_function(gens, 2, w, p) for w in range(4)] == [1, 2, 1, 0]
    assert workloads.dense_rank([[2, 4], [1, 2]], None) == 1
    assert workloads.dense_rank([[1, 2], [3, 4]], 2) == 1


def test_resolve_check_rejects_a_wrong_report(tmp_path):
    modules = run.import_dglift()
    wl = workloads.ResolveWorkload()
    deck, _, _ = wl.generate(modules, 11)
    inp = deck[0]
    wl.prepare([inp], tmp_path)
    out = wl.run(modules, inp, tmp_path)
    assert wl.check(modules, inp, out)
    status, report = out
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["reports"][0]["result"]["h0_dims"][-1][1] += 1
    report.write_text(json.dumps(doc), encoding="utf-8")
    assert not wl.check(modules, inp, out)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in ("run.py", "tracing.py", "workloads.py"):
        (bench / f).write_text((RUN.parent / f).read_text(encoding="utf-8"), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
