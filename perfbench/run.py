"""The popsort benchmark.

    python3 perfbench/run.py --workload {scan,queries,divisions,series}
        --seed N --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and imports popsort from `src/`.
Each pass of a workload runs in a fresh process (perfbench/worker.py), so
module-level memos start cold.  With `--trace 0` the passes run untraced,
one after another, until the next would end after `--seconds`, and the
end-to-end metrics are medians over passes.  Latency percentiles are taken
over the operations of the plan, each timed as its median over the passes,
so they do not shift with the number of passes that fit in the run.  A few
extra processes only set up, so that `setup_s` is a median over several
set-ups.  With `--trace 1` one untraced
and one traced pass run, and the per-layer metrics come from the traced one.

The last stdout line is the result object; the line before it records the
run's conditions, inputs and failures.  Exits 2 without a result when the
checkout has no `src/popsort`, 1 when a pass crashes or times out.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("scan", "queries", "divisions", "series")
SETUP_SAMPLES = 5
DEADLINE_S = 170          # the whole run, passes and checks included


class PassFailed(RuntimeError):
    pass


def spawn(args, *extra: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    try:
        done = subprocess.run(
            [*cmd, "--spawned-at", repr(started)], cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{' '.join(extra) or 'pass'} ran past the {DEADLINE_S} s deadline")
    if done.returncode != 0:
        raise PassFailed(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["process_s"] = time.monotonic() - started
    return record


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cores": "shared with other tenants; not isolated",
        "cpu_pinning": "none",
        "cache_dropping": "none; file cache and CPU caches are as found",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "clock": "time.perf_counter inside a process, time.monotonic across processes",
    }


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        passes = [spawn(args, deadline=deadline), spawn(args, "--trace", deadline=deadline)]
        setups = []
    else:
        setups = [spawn(args, "--setup-only", deadline=deadline) for _ in range(SETUP_SAMPLES)]
        passes = []
        begun = time.monotonic()
        while True:
            passes.append(spawn(args, deadline=deadline))
            longest = max(p["process_s"] for p in passes)
            if time.monotonic() - begun + longest > args.seconds:
                break

    failures = [f for p in passes for f in p["failures"]]
    wrong = [f for f in failures if f["error"] == "wrong answer"]
    attempted = sum(p["attempted"] for p in passes)
    if len({p["digest"] for p in passes}) != 1:
        raise PassFailed("the passes of one run built different inputs")
    op_ms = sorted(statistics.median(times) for times in zip(*(p["op_ms"] for p in passes)))
    walls = [p["wall_s"] for p in passes]
    setup_samples = [s["setup_s"] for s in setups + passes]
    p95 = percentile(op_ms, 95)
    if args.trace:
        untraced, traced = passes
        metrics = {k: metric(v, unit) for k, (v, unit) in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = metric(traced["wall_s"] / untraced["wall_s"], "ratio")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "op_p50_ms": metric(percentile(op_ms, 50), "ms"),
            "op_p95_ms": metric(p95, "ms"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "inputs": passes[0]["inputs"],
        "input_digest": passes[0]["digest"],
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_wall_raw_s": [p["wall_raw_s"] for p in passes],
        "speed_factors": [p["speed_factor"] for p in passes],
        "speed_bursts": [p["speed_bursts"] for p in passes],
        "setup_samples_s": setup_samples,
        "setup_raw_samples_s": [s["setup_raw_s"] for s in setups + passes],
        "op_samples": len(op_ms),
        "op_samples_above_p95": sum(ms > p95 for ms in op_ms),
        "checked": sum(p["checked"] for p in passes),
        "failed_ratio": metric(len(failures) / attempted, "ratio"),
        "failures": failures,
    }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced input sizes, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "popsort" / "__init__.py").is_file():
        print(f"no popsort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        info, result = run(args)
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
