"""koflow benchmark: time to a verified KO class, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload rs-check --seed 0 --seconds 25 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  Each run starts
SETUP_PROBES fresh processes that only set up (import koflow, generate
the inputs) and then one fresh workload process that sets up and solves
(perfbench/worker.py).  The BLAS thread count is fixed before numpy
loads.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`
(whose spans are written to .perfbench_work/spans-<workload>-<seed>.json).
Without koflow's sources in `src/` the run exits with code 2 and prints
no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    """Two BLAS threads, or one on a single-core machine."""
    return min(2, len(os.sched_getaffinity(0)))


def machine() -> dict:
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            mem_kb = int(handle.readline().split()[1])
        with open("/proc/cpuinfo", encoding="ascii") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        mem_kb, cpu = 0, platform.processor()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "ram_gb": round(mem_kb / 2 ** 20, 1), "python": platform.python_version(),
            "blas_threads": blas_threads()}


class RunError(Exception):
    pass


def start_worker(args, workdir: Path, env: dict, deadline: float,
                 setup_only: bool):
    """Start a worker; returns (process, set-up seconds until "ready")."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir),
           "--spans", str(WORK_DIR / f"spans-{args.workload}-{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    readable, _, _ = select.select([proc.stdout], [], [],
                                   max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if readable else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunError(f"worker did not set up (exit code {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def run(args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, **{name: str(blas_threads()) for name in BLAS_ENV})
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            proc, setup_s = start_worker(args, workdir, env, deadline, setup_only=True)
            finish(proc, deadline)
            setups.append(setup_s)
        proc, setup_s = start_worker(args, workdir, env, deadline, setup_only=False)
        setups.append(setup_s)
        report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    solves = report["solves"]
    failed = sum(not rec["ok"] for rec in solves)
    if args.trace:
        declared, values = spec["per_layer"], report["per_layer"]
    else:
        plain = [rec["wall_s"] for rec in solves if rec["ok"]] \
            or [rec["wall_s"] for rec in solves]
        declared = spec["end_to_end"]
        values = {"setup_s": statistics.median(setups),
                  "solve_s": statistics.median(plain),
                  "peak_rss_mb": report["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    info = dict(machine(), **report["versions"], workload=args.workload, seed=args.seed,
                solves=len(solves), setup_samples=len(setups))
    print(json.dumps(info), file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(solves), "failed": failed,
            "metrics": metrics}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "koflow" / "__init__.py").is_file():
        print(f"no koflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args, spec)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
