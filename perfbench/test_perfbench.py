"""The benchmark's own tests: wrapper self-check, coverage and output checks.

    python3 -m pytest -q perfbench

Each workload case runs its first pass untraced and traced (the
grid6-msjc pass is three msjc windows, a few seconds on one core).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from layers import Tracer  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def _bound_names() -> set[str]:
    with Tracer() as tracer:
        w.bind_layers(tracer)
    return set(tracer.layers)


def _traced_pass(workload: str, tracer: Tracer):
    with w.Watch() as watch:
        plain = w.run_pass(workload, 0, 0, watch)
        with tracer:
            w.bind_layers(tracer)
            traced = w.run_pass(workload, 0, 0, watch)
    return plain, traced


def test_per_layer_names_match_benchmark_json():
    with Tracer() as tracer:
        w.bind_layers(tracer)
    produced = set(w.layer_metrics(tracer.layers)) | {"trace.overhead_ratio", "trace.coverage_ratio"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_every_bound_layer_is_expected_busy_somewhere():
    expected = set().union(*w.EXPECTED_BUSY.values())
    assert expected == _bound_names()


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_wrappers_coverage_and_outputs(workload):
    tracer = Tracer()
    plain, traced = _traced_pass(workload, tracer)
    assert w.wrapper_check(workload, tracer.layers) == []
    coverage = w.self_time_total(tracer.layers) / traced.wall_s
    assert abs(1.0 - coverage) <= BOUND["wall_s"]
    assert w.compare(plain.outcomes, traced.outcomes, "traced vs untraced") == []
    for outcome in plain.outcomes + traced.outcomes:
        assert outcome.problems == []
        assert outcome.failed == 0


def test_wrapper_check_catches_a_patch_nobody_calls():
    tracer = Tracer()
    with w.Watch() as watch, tracer:
        w.bind_layers(tracer)
        # runner calls its own imported name, so this second binding on
        # the defining module is never reached
        from msjc import baselines

        tracer.layers.pop("baselines.bp_control")
        tracer.wrap(baselines, "bp_control", "baselines.bp_control")
        w.run_pass("grid6-baselines", 0, 0, watch)
    assert w.wrapper_check("grid6-baselines", tracer.layers) == [
        "wrapper self-check: baselines.bp_control never called on grid6-baselines"
    ]


def test_determinism_check_compares_reruns():
    with w.Watch() as watch:
        first, again, other = (w.run_pass("grid6-calibrate", seed, 0, watch) for seed in (3, 3, 4))
    assert w.compare(first.outcomes, again.outcomes, "determinism") == []
    assert w.compare(first.outcomes, other.outcomes, "determinism") != []


def test_speed_probe_rescales_by_the_nearest_probes():
    probe = SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S]
    # a machine running at half the nominal speed halves every interval
    assert probe.scale(2.5, 1.0) == pytest.approx(0.5)
    probe.sample()
    assert probe.paused_s == pytest.approx(probe.durations[-1])


def test_command_prints_result_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid6-calibrate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(line.startswith("# ") for line in out[:-1])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid6-calibrate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
