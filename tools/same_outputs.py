"""Same outputs at a parent commit and in the working tree.

    python3 tools/same_outputs.py --parent <commit> [--seeds 1,3,7]

Run from the root of a checkout.  The parent is exported with `git archive`,
as `tools/bench_pairs.py` exports it, into a temporary directory.  Each side
then runs in a fresh process of its own, from its own `src/` and `bench/`,
every op of the benchmark's decks at the given seeds, and hashes what the
ops give:

- `resolve` and `axioms`: each session run through `dglift.cli.main`, its
  exit status, its standard output and the bytes of its report;
- `lift`: the verdict and transcript of `naive_lift_check`, `rho` as
  `render_module_elem` writes it or the obstruction witness's value,
  combination and equations, and the `rows()` of each Ext table.

One line per workload gives the op count and the sha256 digest of each
side; the exit status is 1 if any count or digest differs.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

WORKLOADS = ("resolve", "lift", "axioms")


def _update(digest, *parts: bytes) -> None:
    """Hash each part with its length, so that no two records run together."""
    for part in parts:
        digest.update(len(part).to_bytes(8, "big") + part)


def _session_op(dg: dict, inp, workdir: Path) -> tuple[bytes, ...]:
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = dg["cli"].main([inp.spec["path"], "--report", str(report)])
    return (str(status).encode(), out.getvalue().encode(),
            report.read_bytes() if report.exists() else b"")


def _lift_op(dg: dict, workload, inp, workdir: Path) -> tuple[bytes, ...]:
    from dglift.render import render_module_elem

    result, tables = workload.run(dg, inp, workdir)
    if result.split:
        names = [e.name for e in inp.built.basis]
        proof = {names[i]: render_module_elem(result.module, img)
                 for i, img in sorted(result.rho.entries.items())}
    else:
        w = result.witness
        proof = {"value": str(w.value), "equations": w.equations,
                 "combo": {str(k): str(v) for k, v in sorted(w.combo.items())}}
    record = [result.status, result.transcript, proof, [t.rows() for t in tables]]
    return (json.dumps(record, sort_keys=True).encode(),)


def side_digests(root: Path, seeds: list[int]) -> dict:
    """{workload: [ops, sha256]} of the decks of the checkout at `root`."""
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    import run
    import workloads

    dg = run.import_dglift()
    out = {}
    for name in WORKLOADS:
        digest, ops = hashlib.sha256(), 0
        for seed in seeds:
            workload = workloads.WORKLOADS[name]()
            deck, _, _ = workload.generate(dg, seed)
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
                workload.prepare(deck, workdir)
                if name == "lift":
                    workload.build(dg, deck)
                for inp in deck:
                    _update(digest, *(_lift_op(dg, workload, inp, workdir) if name == "lift"
                                      else _session_op(dg, inp, workdir)))
                    ops += 1
        out[name] = [ops, digest.hexdigest()]
    return out


def run_side(root: Path, seeds: str) -> dict:
    """`side_digests` of `root`, in a fresh process."""
    proc = subprocess.run([sys.executable, __file__, "--side", str(root), "--seeds", seeds],
                          cwd=root, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="the parent commit")
    parser.add_argument("--seeds", default="1,3,7", help="deck seeds, comma-separated")
    parser.add_argument("--side", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        print(json.dumps(side_digests(Path(args.side), [int(s) for s in args.seeds.split(",")])))
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="same-outputs-parent-") as tmp:
        export(args.parent, Path(tmp))
        sides = {"parent": run_side(Path(tmp), args.seeds), "change": run_side(ROOT, args.seeds)}
    same = True
    for name in WORKLOADS:
        (n_parent, parent), (n_change, change) = sides["parent"][name], sides["change"][name]
        equal = (n_parent, parent) == (n_change, change)
        same = same and equal
        print(f"{name}: {n_parent} ops parent sha256 {parent}, {n_change} ops change "
              f"sha256 {change}: {'same' if equal else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
