"""One fresh workload process: set up, say "ready", solve, report.

Started by run.py with the BLAS thread count already in its environment.
Set-up is importing koflow from the checkout's `src` and generating the
inputs; the line "ready" on standard output marks its end.  The solves
then run one at a time until the next one would end past `--seconds`
(at least one solve; with `--trace 1` at least one untraced and one
traced, alternating).  The last line of standard output is a JSON record
of the solves; the spans of the traced solves, kept in memory until
then, go to the `--spans` file.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def solve(main, argv, workload, tracer):
    """Run one solve; returns its record."""
    buf = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = tracer.root(main, argv) if tracer else main(argv)
    except (Exception, SystemExit):  # a crashed solve is a failed solve
        traceback.print_exc()
        code = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    error = f"exit code {code}" if code != 0 else None
    out = {}
    if error is None:
        try:
            out = json.loads(buf.getvalue())
            error = workload.check(out)
        except (ValueError, AttributeError) as exc:
            error = f"unreadable output: {exc}"
    if error is not None:
        print(f"failed solve {argv}: {error}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "ok": error is None,
            "traced": tracer is not None, "out": out}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the traced solves' spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import koflow.cli
    if src not in Path(koflow.__file__).resolve().parents:
        print(f"koflow was imported from {koflow.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, summarize
        tracer = Tracer()
    solves, spans = [], []
    start = time.perf_counter()
    while True:
        argv = workload.argv(len(solves))
        if args.trace and len(solves) % 2 == 1:
            with tracer.installed():
                rec = solve(koflow.cli.main, argv, workload, tracer)
            spans.append(tracer.take())
        else:
            rec = solve(koflow.cli.main, argv, workload, None)
        solves.append(rec)
        elapsed = time.perf_counter() - start
        if len(solves) >= 1 + args.trace and elapsed + rec["wall_s"] > args.seconds:
            break

    report = {"solves": [{k: v for k, v in rec.items() if k != "out"}
                         for rec in solves],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "versions": versions()}
    if args.trace:
        report["per_layer"] = per_layer(solves, [summarize(s) for s in spans],
                                        workload)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start", "end", "parent", "info"],
                       "solves": spans}, handle)
    print(json.dumps(report))
    return 0


def versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def per_layer(solves, traces, workload) -> dict:
    """Means over the traced solves, plus figures from the untraced ones."""
    names = sorted({name for trace in traces for name in trace})
    out = {name: statistics.fmean(trace.get(name, 0) for trace in traces)
           for name in names}
    plain = [rec for rec in solves if not rec["traced"]]
    out["trace.overhead_s"] = out["trace.solve_s"] - statistics.fmean(
        rec["wall_s"] for rec in plain)
    out["cli.cpu_s"] = statistics.fmean(rec["cpu_s"] for rec in plain)
    out["failed_frac"] = sum(not rec["ok"] for rec in solves) / len(solves)
    good = [workload.diagnostics(rec["out"]) for rec in solves if rec["ok"]]
    for name in good[0] if good else ():
        out[name] = statistics.median(d[name] for d in good)
    return out


if __name__ == "__main__":
    sys.exit(main())
