"""Run one dglift benchmark workload and print its metrics.

    python3 bench/run.py --workload resolve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: dglift is imported from its `src/`.  One
process, one thread, a closed loop with one client: each op starts when the
previous one (and its output check) has finished.  The timed phase runs
whole rounds of the workload's inputs (one instance of every input shape)
until the ops have been busy for `--seconds` and at least 100 ops have run;
output checks run between ops and are not timed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the library is wrapped by
`tracing.Tracer` and the line carries the per-layer metrics instead, and the
spans are written to `.bench_out/` in the checkout.  Lines before it are a
human-readable summary, including `failed_share`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS

START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBMODULES = ("base_ring", "dg_algebra", "dg_module", "envelope", "homological",
              "session", "tate", "cli")
# set-up (import plus building every input) is repeated and its median
# reported, so that one slow round does not decide the figure
SETUP_ROUNDS = 5
# a 90th percentile needs at least ten samples beyond it
MIN_OPS = 100
# the process must end within 180 s whatever the machine's speed
WALL_LIMIT_S = 160.0

UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class SetupError(Exception):
    pass


def import_dglift() -> dict:
    """Import dglift afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "dglift" or m.startswith("dglift.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("dglift")
    except ImportError as exc:
        raise SetupError(f"cannot import dglift from {SRC}: {exc}") from None
    if Path(pkg.__file__).resolve().parent != SRC / "dglift":
        raise SetupError(f"dglift was imported from {pkg.__file__}, not from {SRC}")
    modules = {"dglift": pkg}
    for name in SUBMODULES:
        modules[name] = importlib.import_module(f"dglift.{name}")
    return modules


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of the order
    statistics with Beta(q(n+1), (1-q)(n+1)) weights.

    Op times cluster by input shape, so a single order statistic jumps
    between clusters from run to run; this estimate moves smoothly.  The
    weights integrate the Beta density over [(i-1)/n, i/n] by Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    total = sum(weights)
    if not total:
        return statistics.median(xs)
    return sum(w * x for w, x in zip(weights, xs)) / total


def machine_ms() -> float:
    """Median milliseconds of a fixed integer loop that does not touch dglift.

    A gauge of the machine's own speed during a run: shared machines drift
    by tens of percent over minutes, and this tells such drift apart from a
    change in the program when runs are compared.
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for k in range(100_000):
            acc += k * k % 7
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    deck, round_len, rejected = workload.generate(import_dglift(), args.seed)

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        workload.prepare(deck, workdir)

        setup_times = []
        for round_no in range(SETUP_ROUNDS):
            for inp in deck:
                inp.built = None
            gc.collect()
            t0 = perf_counter()
            dg = import_dglift()
            if tracer is not None and round_no == SETUP_ROUNDS - 1:
                tracer.install(dg)
            workload.build(dg, deck)
            setup_times.append(perf_counter() - t0)
        # the deck is the benchmark's, not the program's: keep the collector
        # from walking it during the timed ops
        gc.collect()
        gc.freeze()
        gauge = machine_ms()

        times: list[float] = []
        field_s = {"Q": 0.0, "Fp": 0.0}
        failed = 0
        busy = 0.0
        i = 0
        while True:
            if args.ops is not None:
                if i >= args.ops:
                    break
            elif i % round_len == 0 and busy >= args.seconds and i >= MIN_OPS:
                break
            # past the built rounds, the deck is run again from its start
            inp = deck[i % len(deck)]
            if tracer is not None:
                tracer.op_id = i
            error = None
            t0 = perf_counter()
            try:
                out = workload.run(dg, inp, workdir)
            except Exception:  # an op that raises is a failed op, not a crash
                error = traceback.format_exc()
            dt = perf_counter() - t0
            times.append(dt)
            busy += dt
            field_s[inp.field] += dt
            if error is None:
                try:
                    if tracer is not None:
                        with tracer.paused():
                            ok = workload.check(dg, inp, out)
                    else:
                        ok = workload.check(dg, inp, out)
                    if not ok:
                        error = "output check failed"
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                failed += 1
                if failed <= 3:
                    print(f"op {i} {inp.shape} failed:\n{error}", file=sys.stderr)
            i += 1
            if perf_counter() - START > WALL_LIMIT_S:
                print(f"stopping after {i} ops: wall-clock limit reached", file=sys.stderr)
                break

    gauge = (gauge + machine_ms()) / 2
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(times),
        "failed": failed,
        "failed_share": failed / len(times),
        "rejected_draws": rejected,
        "deck": len(deck),
        "round": round_len,
        "machine_ms": round(gauge, 3),
    }
    if tracer is None:
        values = {
            "ops_per_s": len(times) / busy,
            "op_s_p50": harrell_davis(times, 0.5),
            "op_s_p90": harrell_davis(times, 0.9),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    else:
        metrics = {}
        for name, value in tracer.metrics().items():
            unit = "s" if name.endswith("_s") else ("share" if name.endswith("_share") else "count")
            metrics[name] = {"value": value, "unit": unit}
        for label in ("Q", "Fp"):
            metrics[f"base_ring.field_{label}.op_s"] = {"value": field_s[label], "unit": "s"}
        metrics["trace.ops_per_s"] = {"value": len(times) / busy, "unit": "1/s"}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.spans.gz"
        tracer.write(path)
        summary["spans"] = len(tracer.span_ids)
        summary["trace_file"] = str(path.relative_to(ROOT))
    return {"summary": summary, "correct": failed == 0, "attempted": len(times),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of timing")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")

    if not (SRC / "dglift" / "__init__.py").is_file():
        print(f"error: no dglift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = result.pop("summary")
    print("  ".join(f"{k} {v}" for k, v in summary.items()))
    for name, m in result["metrics"].items():
        print(f"{name:<55} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
