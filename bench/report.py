"""Run every benchmark workload, untraced and traced, and print one table.

    python3 bench/report.py --seed 1 --seconds 20 [--json out.json]

Each run is a fresh interpreter started one after the other (never two at
once).  The table has every end-to-end metric by name with its unit for each
workload, `failed_share`, the tracing overhead (the traced run's throughput
against the untraced one) and every per-layer metric of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--json", metavar="OUT", help="also write the results here")
    args = parser.parse_args(argv)

    names = list(WORKLOADS)
    plain = {w: run_once(w, args.seed, args.seconds, 0) for w in names}
    traced = {w: run_once(w, args.seed, args.seconds, 1) for w in names}

    rows = []
    for metric, m in plain[names[0]]["metrics"].items():
        rows.append((metric, m["unit"], [plain[w]["metrics"][metric]["value"] for w in names]))
    rows.append(("failed_share", "share", [plain[w]["failed"] / plain[w]["attempted"] for w in names]))
    rows.append(("tracing_overhead", "share", [
        1 - traced[w]["metrics"]["trace.ops_per_s"]["value"] / plain[w]["metrics"]["ops_per_s"]["value"]
        for w in names]))
    layer_rows = [
        (metric, m["unit"], [traced[w]["metrics"][metric]["value"] for w in names])
        for metric, m in traced[names[0]]["metrics"].items()
    ]

    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"seed {args.seed}  seconds {args.seconds:g}")
    header = f"{'metric':<58} {'unit':<6}" + "".join(f"{w:>12}" for w in names)
    for title, body in (("end to end", rows), ("per layer (traced run)", layer_rows)):
        print(f"\n{title}\n{header}")
        for metric, unit, values in body:
            print(f"{metric:<58} {unit:<6}" + "".join(f"{v:>12.5g}" for v in values))
    ok = all(plain[w]["correct"] and traced[w]["correct"] for w in names)
    print(f"\noutputs checked: {'all correct' if ok else 'FAILURES'}")

    if args.json:
        doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "seed": args.seed, "seconds": args.seconds,
               "untraced": plain, "traced": traced}
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
