"""Record one benchmark run of every workload in a BENCH_*.json file.

    python3 tools/bench_record.py --out BENCH_12.json

Runs perfbench/run.py on each workload at seed 1 for BENCHMARK.json's
`run_seconds`, once untraced (`--trace 0`, the end-to-end metrics) and once
traced (`--trace 1`, the per-layer metrics).  For each run it keeps the
result line and the info record (pass times, speed factors, failures), and
it keeps the environment record once.  The file is the record of the
performance trajectory from one change to the next; compare two of them
only when they were made on the same machine.  Exits 1 when a run fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("scan", "queries", "divisions", "series")
SEED = 1


def bench(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """The info record and result line of one perfbench run."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} --trace {trace} exited {done.returncode}: {done.stderr.strip()}")
    *_, info_line, result_line = done.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_*.json file to write")
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record: dict = {"seed": SEED, "seconds": seconds, "environment": None, "workloads": {}}
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            try:
                info, result = bench(workload, seconds, trace)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            environment = info.pop("environment", None)
            record["environment"] = record["environment"] or environment
            runs[f"trace{trace}"] = {"info": info, "result": result}
        record["workloads"][workload] = runs
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
