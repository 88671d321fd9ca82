"""The benchmark's own tests, at tiny scale.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.check import check, oracle_masks  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_names_are_well_formed():
    declared = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in declared]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_emits_every_declared_metric(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_benchmark("trees_fig4", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_oracle_check_rejects_an_injected_cut(tmp_path):
    workload = WORKLOADS["trees_fig4"]
    inputs = workload.make_inputs(3, "tiny")
    passes = []
    for _ in range(2):
        state = workload.prepare(tmp_path)
        try:
            passes.append(workload.run_pass(inputs, state))
        finally:
            workload.finish(state)
    oracle = oracle_masks(passes[0].graphs)
    assert check(passes, oracle).failed == 0

    # A cut spanning the whole graph includes its inputs: never a valid cut.
    bogus = (1 << passes[1].graphs[0].num_nodes) - 1
    assert bogus not in oracle[0]
    injected = dataclasses.replace(
        passes[1], masks=[passes[1].masks[0] | {bogus}] + passes[1].masks[1:]
    )
    verdict = check([passes[0], injected], oracle)
    assert verdict.failed == 1
    assert "outside the oracle's set" in verdict.problems[0]

    # A cut missing from a later pass is a cross-pass mismatch.
    dropped = dataclasses.replace(
        passes[1], masks=[frozenset(list(passes[1].masks[0])[1:])] + passes[1].masks[1:]
    )
    assert check([passes[0], dropped], oracle).failed == 1

    # A pass whose application speedup differs fails every block.
    skewed = dataclasses.replace(passes[1], speedup=passes[1].speedup + 1.0)
    assert check([passes[0], skewed], oracle).failed == len(skewed.masks)
