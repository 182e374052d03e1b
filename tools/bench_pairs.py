"""Alternating parent/change pairs of the dglift benchmark.

    python3 tools/bench_pairs.py --parent <commit> --out BENCH_<n>.json

Run from the root of a checkout.  The change is the checkout's working
tree; the parent is the given commit, exported with `git archive` into a
temporary directory, so both sides run from their own `src/` and `bench/`.
Each workload gets `PAIRS` pairs, one seed each (3001, 3002, ... across
the workloads in order); a pair runs `bench/run.py` for the benchmark's
`run_seconds` on both sides, one after the other, alternating which side
runs first from pair to pair.  The final JSON line of each run is kept with
its `machine_ms` gauge, read from the summary line.  The summary gives, per
workload and end-to-end metric of `BENCHMARK.json`, the median and
quartiles of each side, the ratio of the medians and the pairs in which the
change reads better; a time or a rate also gets the median over pairs of
the pair's change/parent ratio corrected by the pair's `machine_ms` ratio.
Standard library only; one benchmark process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 3001
PAIRS = 10
GAUGE_BOUND = 0.25
COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace 0"
DESCRIPTION = (
    "Alternating parent/change pairs of bench/run.py; each pair runs both sides on one seed, "
    "one after the other, alternating which side runs first; the final JSON line of each run "
    "is kept under 'pairs', with the run's machine_ms gauge from its summary line. Quartiles "
    "are statistics.quantiles(n=4, method='inclusive'). 'change_over_parent_by_gauge', for a "
    "time (unit s) or a rate (unit 1/s), is the median over pairs of change/parent, a time "
    "divided and a rate multiplied by the pair's change/parent machine_ms ratio. "
    "'gauge_moved_past_0.25' names every pair whose larger machine_ms exceeded its smaller "
    "by more than 25%.")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, into: Path) -> None:
    """The committed files of `commit`, written under `into`."""
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                          capture_output=True).stdout
    # the archive is the repository's own; the `data` filter, where this
    # Python has it, only keeps later releases from warning
    trusted = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=BytesIO(data)) as tar:
        tar.extractall(into, **trusted)


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "dglift").glob("*.py")))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its final JSON line, its gauge and exit code."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode == 0 and lines:
        out.update(json.loads(lines[-1]))
    gauge = None
    for line in lines:
        fields = dict(item.split(" ", 1) for item in line.split("  ") if " " in item)
        if fields.get("workload") == workload and "machine_ms" in fields:
            gauge = float(fields["machine_ms"])
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return {**out, "machine_ms": gauge, "returncode": proc.returncode}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    sides = ("parent", "change")
    out = {
        "pairs": len(pairs),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in sides},
        "correct": all(p[s]["correct"] for p in pairs for s in sides),
        "machine_ms": {s: quartiles([p[s]["machine_ms"] for p in pairs
                                     if p[s]["machine_ms"] is not None]) for s in sides},
    }
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        got = [p for p in pairs if all(name in p[s]["metrics"] for s in sides)]
        if not got:
            continue
        values = {s: [p[s]["metrics"][name]["value"] for p in got] for s in sides}
        better = sum((c > a) if higher else (c < a)
                     for a, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": metric["unit"],
            **{s: quartiles(values[s]) for s in sides},
            "change_over_parent": (statistics.median(values["change"])
                                   / statistics.median(values["parent"])),
            "change_better_pairs": better,
        }
        # a slower machine (larger gauge) lengthens a time and lowers a rate
        power = {"s": -1, "1/s": 1}.get(metric["unit"])
        gauged = [c / a * (p["change"]["machine_ms"] / p["parent"]["machine_ms"]) ** power
                  for p, a, c in zip(got, values["parent"], values["change"])
                  if power is not None and p["parent"]["machine_ms"] and p["change"]["machine_ms"]]
        if gauged:
            out[name]["change_over_parent_by_gauge"] = statistics.median(gauged)
    out["gauge_moved_past_0.25"] = [
        p["seed"] for p in pairs
        if p["parent"]["machine_ms"] and p["change"]["machine_ms"]
        and max(p["parent"]["machine_ms"], p["change"]["machine_ms"])
        > (1 + GAUGE_BOUND) * min(p["parent"]["machine_ms"], p["change"]["machine_ms"])]
    return out


def note(summary: dict, metrics: list[dict], prefix: str) -> str:
    parts = [prefix] if prefix else []
    for workload, s in summary.items():
        ratios = ", ".join(
            f"{m['name']} {s[m['name']]['change_over_parent']:.3f}x "
            f"({s[m['name']]['change_better_pairs']}/{s['pairs']}"
            + (f", by gauge {s[m['name']]['change_over_parent_by_gauge']:.3f}x)"
               if "change_over_parent_by_gauge" in s[m["name"]] else ")")
            for m in metrics if m["name"] in s)
        parts.append(f"{workload}: {ratios}; failed {s['failed']['parent']} parent, "
                     f"{s['failed']['change']} change.")
    moved = [seed for s in summary.values() for seed in s["gauge_moved_past_0.25"]]
    if moved:
        parts.append("The machine_ms gauge moved past 0.25 within pairs "
                     + ", ".join(map(str, moved)) + ".")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--note", default="", help="text put before the set's summary")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    parent_commit = git("rev-parse", "--short", args.parent)
    head = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    pairs, seeds = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for k, workload in enumerate(workloads):
            for i in range(PAIRS):
                seed = FIRST_SEED + k * PAIRS + i
                first = ("parent", "change")[len(pairs) % 2]
                pair = {"workload": workload, "seed": seed, "first": first}
                for side in (first, "change" if first == "parent" else "parent"):
                    pair[side] = run_once(roots[side], workload, seed, seconds)
                pairs.append({key: pair[key] for key in
                              ("workload", "seed", "first", "parent", "change")})
                seeds.append(seed)
                print(f"{workload} seed {seed}: parent "
                      f"{pair['parent']['metrics'].get('ops_per_s', {}).get('value')}, change "
                      f"{pair['change']['metrics'].get('ops_per_s', {}).get('value')}",
                      file=sys.stderr, flush=True)
        lines = {"parent": src_lines(parent_root), "change": src_lines(ROOT)}

    summary = {w: summarise([p for p in pairs if p["workload"] == w], metrics)
               for w in workloads}
    doc = {
        "description": DESCRIPTION,
        "command": COMMAND.format(seconds=f"{seconds:g}"),
        "parent_commit": parent_commit,
        "change_commit": head + (" with uncommitted changes" if dirty else ""),
        "python": platform.python_version(),
        "machine": f"{platform.system()}, {os.cpu_count()} CPUs",
        "src_lines": lines,
        "sets": [{"seeds": seeds, "note": note(summary, metrics, args.note),
                  "summary": summary, "pairs": pairs}],
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
