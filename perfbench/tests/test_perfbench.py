"""Tests of the benchmark itself (run: ``python3 -m pytest -q perfbench/tests``).

Tiny-budget passes of every workload must print every metric with its
unit and pass the correctness gate; a deliberately wrong reference must
make the command fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import serve_open_loop  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
def _run(tmp_path: Path, workload: str, trace: int = 0, reference: Path = None,
         script: Path = BENCH / "run.py", cwd: Path = ROOT):
    command = [sys.executable, str(script), "--workload", workload, "--seed", "0",
               "--seconds", "0.5", "--trace", str(trace), "--budget", "tiny",
               "--out", str(tmp_path / "out")]
    if reference is not None:
        command += ["--reference", str(reference)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_end_to_end_metric(tmp_path, workload):
    code, lines, stderr = _run(tmp_path, workload)
    assert code == 0, stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert any(line.startswith(f"{name} = ") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_layer_metric(tmp_path, workload):
    code, lines, stderr = _run(tmp_path, workload, trace=1)
    assert code == 0, stderr
    metrics = json.loads(lines[-1])["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == LAYERS
    # Every layer is measured, not defaulted: this workload's on its own
    # pass, the others' on their tiny passes (except counts of rare
    # events, and the obs_build phase the centralized env does not have).
    may_be_zero = {"serving.tie_fallbacks", "serving.shed", "faults.network_failure_drops",
                   "rl.central.obs_build_s"}
    for name in LAYERS:
        if name not in may_be_zero:
            assert metrics[name]["value"] != 0, name
    assert (tmp_path / "out" / workload / "spans-seed0.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", ["fig6-cell", "eval-deploy"])
def test_wrong_reference_fails_the_command(tmp_path, workload):
    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    entry = references["tiny"][workload]["0"]
    results = entry["results"] if workload == "eval-deploy" else entry
    if workload == "eval-deploy":
        results = results["fault-free"]
    results["SP"]["success"][0] += 0.125
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(references), encoding="utf-8")
    code, lines, _ = _run(tmp_path, workload, reference=wrong)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert any(line.startswith("correctness:") and "failed_ratio = 0;" not in line
               for line in lines)


def test_missing_reference_entry_fails_the_command(tmp_path):
    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    del references["tiny"]["fig6-cell"]["0"]
    partial = tmp_path / "reference.json"
    partial.write_text(json.dumps(references), encoding="utf-8")
    code, lines, stderr = _run(tmp_path, "fig6-cell", reference=partial)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert "committed reference entry for case 0" in stderr


def test_wrong_served_action_counts_as_failed():
    policy, replicas, observations, expected = serve_open_loop.setup(
        serve_open_loop.BUDGETS["tiny"], 0)
    wrong = expected.copy()
    wrong[0] += 1
    phase = serve_open_loop.drive(policy, replicas, observations, wrong, None, 200,
                                  Tracer(False))
    assert phase.served == 200
    assert phase.mismatches == len(range(0, 200, observations.shape[0]))


def test_missing_source_fails_without_a_result(tmp_path):
    alone = tmp_path / "checkout"
    shutil.copytree(BENCH, alone / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    code, lines, stderr = _run(tmp_path, "fig6-cell", script=alone / "perfbench" / "run.py",
                               cwd=alone)
    assert code not in (0, 1)
    assert not any(line.startswith("{") for line in lines)
    assert "src" in stderr


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer(True)
    tracer.spans = [
        ("outer", 0.0, 10.0, -1, -1),
        ("child", 1.0, 4.0, 0, -1),
        ("child", 3.0, 6.0, 0, -1),   # overlaps the first child
        ("child", 9.0, 12.0, 0, -1),  # runs past the parent's end
        ("leaf", 1.5, 2.0, 1, -1),
    ]
    self_seconds = tracer.self_seconds()
    assert self_seconds["outer"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_seconds["child"] == pytest.approx(3.0 - 0.5 + 3.0 + 3.0)
    assert self_seconds["leaf"] == pytest.approx(0.5)


def test_disabled_tracer_records_nothing_and_wraps_nothing():
    tracer = Tracer(False)

    def fn(x):
        return x + 1

    assert tracer.wrap(fn, "f") is fn
    with tracer.span("s"):
        tracer.add("a", 0.0, 1.0)
    assert tracer.spans == []


def test_nested_spans_link_to_their_parent():
    tracer = Tracer(True)
    with tracer.span("outer"):
        tracer.wrap(lambda: None, "inner")()
    (outer, start, end, parent, _), inner = tracer.spans
    assert (outer, parent) == ("outer", -1)
    assert inner[0] == "inner" and inner[3] == 0
    assert start <= inner[1] <= inner[2] <= end
    assert np.isfinite(tracer.self_seconds()["outer"])


def test_reference_scale_turns_host_seconds_into_reference_seconds():
    assert common.reference_scale([]) == 1.0
    reference = common.CALIBRATION_REFERENCE_S
    assert common.reference_scale([reference] * 4) == pytest.approx(1.0)
    # A host twice as slow as the reference halves every timed figure.
    assert common.reference_scale([2 * reference, 2 * reference]) == pytest.approx(0.5)
    assert common.Outcome(setup_seconds=[], metrics={},
                          calibrations=[reference / 2]).scale() == pytest.approx(2.0)

