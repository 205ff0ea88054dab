"""Reduced-size smoke test of the benchmark.

    python3 -m pytest perfbench/tests

Runs perfbench/run.py with `--smoke` (small inputs) on every workload,
untraced and traced, and checks the output against BENCHMARK.json.  Also
checks that the answer checks reject wrong answers, that the seed moves
the seeded inputs only, and that a checkout without sources gives no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    *_, info_line, result_line = done.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    info, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"]
    assert result["failed"] == len(info["failures"])
    # every operation that returned had its answer checked
    raised = [f for f in info["failures"] if f["error"] != "wrong answer"]
    assert info["checked"] + len(raised) == result["attempted"] >= 1
    # only the length-600 identity probes may raise (deep recursion)
    assert all(" identity n=600" in f["op"] for f in raised)


# workload: (an operation label, a wrong answer made from its right one)
WRONG = {
    "scan": ("count pqs", lambda counts: counts[:-1] + [counts[-1] + 1]),
    "queries": ("sp member", lambda witness: witness[:-1]),
    "divisions": ("ps ps n=9", lambda division: None),
    "series": ("fixed_point", lambda f: replace(f, coeffs=f.coeffs[:-1] + (f.coeffs[-1] + 1,))),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_answer_checks_accept_right_and_reject_wrong_answers(workload):
    plan = workloads.WORKLOADS[workload](1, True)
    ops = [op for op in plan.ops if " identity n=600" not in op.label]
    answers = {op.label: op.call() for op in ops}
    for op in ops:
        assert op.check(answers[op.label], answers), op.label
    label, make_wrong = WRONG[workload]
    op = next(op for op in ops if label in op.label)
    wrong = make_wrong(answers[op.label])
    assert not op.check(wrong, {**answers, op.label: wrong})


def test_seed_moves_only_the_seeded_inputs():
    def digest(workload: str, seed: int) -> str:
        done = subprocess.run(
            [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed",
             str(seed), "--spawned-at", "0", "--setup-only", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        return json.loads(done.stdout)["digest"]

    for workload, seeded in (("scan", False), ("queries", True), ("divisions", True),
                             ("series", False)):
        assert (digest(workload, 1) != digest(workload, 2)) == seeded, workload


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
