"""One benchmark pass in a fresh process: set up, run the timed region, check.

    python3 perfbench/worker.py --workload W --seed N --spawned-at T
        [--trace] [--setup-only] [--smoke]

`--spawned-at` is the parent's `time.monotonic()` just before it started
this process; set-up time runs from there to the end of input building,
so it covers interpreter start and the import of popsort.  Prints one JSON
object on stdout.  Module-level memos start cold, as for a CLI user.
Times are in reference seconds (see speed.py); raw ones sit beside them.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import popsort  # noqa: E402

if Path(popsort.__file__).resolve().parent != SRC / "popsort":
    sys.exit(f"popsort was imported from {popsort.__file__}, not from {SRC}")

from speed import EVERY_S, Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    plan = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_raw_s = time.monotonic() - args.spawned_at
    setup_speed = Speedometer()
    setup_speed.sample()
    record = {
        "setup_s": setup_raw_s * setup_speed.factor,
        "setup_raw_s": setup_raw_s,
        "inputs": plan.inputs,
        "digest": plan.digest,
    }
    if args.setup_only:
        print(json.dumps(record))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    speed = Speedometer(plan.kernel)
    answers, errors, op_s, burst_before = [], [], [], []
    speed.sample()
    last = clock()
    for op in plan.ops:
        burst_before.append(len(speed.bursts) - 1)
        t0 = clock()
        try:
            answers.append(op.call())
            errors.append(None)
        except Exception as exc:  # a failed operation, not a benchmark crash
            answers.append(None)
            errors.append(type(exc).__name__)
        t1 = clock()
        op_s.append(t1 - t0)
        if t1 - last >= EVERY_S:
            speed.sample()
            last = clock()
    speed.sample()
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux
    op_ref_s = [s * speed.between(j) for s, j in zip(op_s, burst_before)]
    wall_raw_s, wall_s = sum(op_s), sum(op_ref_s)
    factor = wall_s / wall_raw_s

    check_start = clock()
    by_label = {op.label: a for op, a in zip(plan.ops, answers)}
    failures = []
    for op, answer, error in zip(plan.ops, answers, errors):
        if error is not None:
            failures.append({"op": op.label, "error": error})
        elif not op.check(answer, by_label):
            failures.append({"op": op.label, "error": "wrong answer"})
    record.update(
        wall_s=wall_s,
        wall_raw_s=wall_raw_s,
        speed_factor=factor,
        speed_bursts=len(speed.bursts),
        op_ms=[s * 1000 for s in op_ref_s],
        peak_rss_mb=peak_rss_mb,
        attempted=len(plan.ops),
        checked=sum(e is None for e in errors),
        failures=failures,
        check_raw_s=clock() - check_start,
    )
    if tracer is not None:
        record["layers"] = {
            name: (value * factor if unit == "s" else value, unit)
            for name, (value, unit) in tracer.layer_metrics().items()
        }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
