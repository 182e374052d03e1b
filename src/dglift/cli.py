"""dglift command line: run a session file, print a human summary, and emit a
machine-readable JSON report.

Exit codes: 0 all commands succeeded (splits included), 10 at least one
naive-lift returned OBSTRUCTED, 1 on any error.  Reports are byte-identical
for identical inputs: sorted keys, no floats, no timestamps, fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
# not called here: the benchmark tracer re-binds this copy by name
from .base_ring import matrix_rank  # noqa: F401
from .dg_algebra import check_axioms
from .dg_module import BidegreeWindow, ModuleError
from .homological import HomologicalError, ext_dims, naive_lift_check
from .render import render_element, render_envelope, render_module_elem, render_omega
from .session import Command, ParseError, Session, parse_session, parse_window
from .tate import TateError, tate_resolution

OK, OBSTRUCTED, ERROR = 0, 10, 1


def _report_skeleton(cmd: Command, seed: int) -> dict:
    return {
        "command": cmd.text,
        "window": None,
        "result": {},
        "tables": {},
        "certificates": {},
        "seed": seed,
        "version": __version__,
    }


def run_command(session: Session, cmd: Command, seed: int,
                default_window: BidegreeWindow | None) -> tuple[dict, int, list[str]]:
    """Execute one command: returns (report, exit status, human lines)."""
    rep = _report_skeleton(cmd, seed)
    p = cmd.params

    if cmd.kind == "check-axioms":
        wbound = p["wbound"]
        if wbound is None and default_window:
            wbound = default_window.wmax
        # check_axioms fills in its own defaults for what is still None
        result = check_axioms(session.tower, p["budget"], weight_bound=wbound, seed=seed)
        wbound = result.weight_bound
        max_deg = max((v.degree for v in session.tower.variables), default=0)
        rep["window"] = BidegreeWindow(0, wbound + max_deg, wbound).format()
        rep["result"] = {"status": "ok" if result.ok else "failed"}
        rep["tables"]["laws"] = [
            [l.law, l.cases, "pass" if l.passed else "FAIL"] for l in result.laws
        ]
        if not result.ok:
            rep["certificates"]["witnesses"] = {
                l.law: l.witness for l in result.laws if not l.passed
            }
            return rep, ERROR, [f"[FAIL] check-axioms: {sum(not l.passed for l in result.laws)} law(s) failed"]
        return rep, OK, [f"[ok] check-axioms: {len(result.laws)} laws hold (seed {seed}, wbound {wbound})"]

    if cmd.kind == "eval":
        expr = p["expr"]
        text = render_element(expr)
        rep["result"] = {
            "value": text,
            "degrees": sorted(expr.degrees()),
            "weights": sorted(expr.weights()),
        }
        rep["certificates"]["value"] = text
        return rep, OK, [f"[ok] eval: {text}"]

    if cmd.kind == "envelope-basis":
        window = p["window"]
        rep["window"] = window.format()
        omega_rows, dims = session.envelope(p["over"]).basis_tables(window)
        rep["tables"]["omega_basis"] = omega_rows
        rep["tables"]["dimensions"] = dims
        ok = all(r[3] + r[4] == r[2] for r in dims)
        rep["result"] = {"status": "ok" if ok else "failed",
                         "exactness": "dim J + dim B == dim B^e" if ok else "violated"}
        status = OK if ok else ERROR
        return rep, status, [f"[{'ok' if ok else 'FAIL'}] envelope-basis: {len(omega_rows)} Omega monomials in {window.format()}"]

    if cmd.kind == "omega":
        expr = p["expr"]
        coords = expr.to_omega()
        level = coords.min_level()
        rep["result"] = {
            "omega": render_omega(coords),
            "level": "infinity" if level is None else level,
        }
        rep["certificates"]["input"] = render_envelope(expr)
        rep["certificates"]["omega"] = render_omega(coords)
        return rep, OK, [f"[ok] omega: {rep['result']['omega']}"]

    if cmd.kind == "filtration-level":
        expr = p["expr"]
        level = expr.filtration_level()
        rep["result"] = {"level": "infinity" if level is None else level}
        return rep, OK, [f"[ok] filtration-level: {rep['result']['level']}"]

    if cmd.kind == "ext":
        window = p["window"] or default_window
        if window is None:
            raise HomologicalError("ext needs a window (or --window)")
        rep["window"] = window.format()
        m = session.modules[p["m"]]
        l = session.modules[p["l"]]
        table = ext_dims(m, l, (p["i0"], p["i1"]), window)
        rep["tables"]["ext"] = table.rows()
        totals = {str(i): table.total(i) for i in range(p["i0"], p["i1"] + 1)}
        rep["result"] = {"totals": totals}
        human = ", ".join(f"Ext^{i}={v}" for i, v in totals.items())
        return rep, OK, [f"[ok] ext {p['m']} {p['l']}: {human}"]

    if cmd.kind == "naive-lift":
        n = session.modules[p["module"]]
        result = naive_lift_check(n, p["over"])
        rep["window"] = result.window.format()
        rep["result"] = {"status": result.status}
        rep["certificates"]["transcript"] = result.transcript
        if result.split:
            rep["certificates"]["rho"] = {
                n.basis[i].name: render_module_elem(result.module, img)
                for i, img in sorted(result.rho.entries.items())
            }
            return rep, OK, [f"[ok] naive-lift {p['module']}: SPLIT"]
        w = result.witness
        rep["certificates"]["witness"] = {
            "value": str(w.value),
            "equations": w.equations,
            "combo": {str(k): str(v) for k, v in sorted(w.combo.items())},
            "locus": w.locus,
        }
        return rep, OBSTRUCTED, [
            f"[OBSTRUCTED] naive-lift {p['module']}: {w.locus}"
        ]

    if cmd.kind == "tate":
        res = tate_resolution(session.ring, p["gens"], p["hbound"], p["wbound"],
                              session.tower.flavor)
        rep["window"] = BidegreeWindow(0, p["hbound"], p["wbound"]).format()
        rep["result"] = {
            "variables": [[v.name, v.degree, v.weight] for v in res.tower.variables],
            "h0_dims": [[w, res.h0.dim(w)] for w in range(p["wbound"] + 1)],
        }
        rep["certificates"]["differentials"] = {
            v.name: render_element(res.tower.variable_diff(i))
            for i, v in enumerate(res.tower.variables)
        }
        k = len(res.tower.variables)
        return rep, OK, [f"[ok] tate: {k} variables adjoined up to degree {p['hbound']}"]

    raise ValueError(f"unhandled command {cmd.kind!r}")


def run_session(session: Session, seed: int,
                default_window: BidegreeWindow | None) -> tuple[dict, int, list[str]]:
    reports = []
    status = OK
    human: list[str] = []
    for cmd in session.commands:
        try:
            rep, st, lines = run_command(session, cmd, seed, default_window)
        except (ModuleError, HomologicalError, TateError, ValueError) as exc:
            rep = _report_skeleton(cmd, seed)
            rep["result"] = {"status": "error", "message": str(exc)}
            st = ERROR
            lines = [f"[error] {cmd.kind} (line {cmd.line}): {exc}"]
        reports.append(rep)
        human.extend(lines)
        if st == ERROR:
            status = ERROR
        elif st == OBSTRUCTED and status != ERROR:
            status = OBSTRUCTED
    doc = {"version": __version__, "seed": seed, "reports": reports}
    return doc, status, human


def render_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dglift",
        description="exact DG-algebra toolkit: axiom checks, envelope/Omega "
                    "computations, Ext tables, naive-lift certificates, Tate "
                    "resolutions",
    )
    parser.add_argument("session", help="session file")
    parser.add_argument("--report", metavar="OUT", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser.add_argument("--window", metavar="H0:H1:W",
                        help="default bidegree window for commands that omit one")
    args = parser.parse_args(argv)

    try:
        with open(args.session, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR

    try:
        # an error in --window is reported on line 0
        default_window = parse_window(args.window) if args.window else None
        session = parse_session(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.report:
            doc = {
                "version": __version__,
                "seed": args.seed,
                "reports": [],
                "error": {"message": exc.message, "line": exc.line, "col": exc.col},
            }
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(render_report(doc))
        return ERROR

    doc, status, human = run_session(session, args.seed, default_window)
    for line in human:
        print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_report(doc))
    return status


if __name__ == "__main__":
    sys.exit(main())
