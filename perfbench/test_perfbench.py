"""Self-test of the benchmark harness on shrunken workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from nlinstruct.evaluation import InstrumentedRegistry

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_WEIGHTS = workloads.FixedWeights(per_domain=1, parser=(5, 5))
TINY = {
    "parse-paper": dataclasses.replace(
        workloads.WORKLOADS["parse-paper"], parser=(8, 6), weights=TINY_WEIGHTS),
    "experiment-zero-shot": dataclasses.replace(
        workloads.WORKLOADS["experiment-zero-shot"], parser=(5, 5), per_domain=2,
        parse_per_domain=3, corpora=1, weights=TINY_WEIGHTS),
    "parse-test-large": dataclasses.replace(
        workloads.WORKLOADS["parse-test-large"], parser=(5, 5), per_domain=1,
        weights=TINY_WEIGHTS),
}


def tiny_run(name: str, trace: bool) -> harness.RunResult:
    return harness.run(name, seed=3, seconds=0.0, trace=trace, import_s=0.01,
                       workload=TINY[name], setup_repeats=2)


def test_tiny_workloads_cover_every_workload():
    assert sorted(TINY) == sorted(workloads.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = tiny_run(name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result.metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        emitted = result.metrics[m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], float) and math.isfinite(emitted["value"]), m["name"]
    assert result.correct, result.record["problems"]
    assert result.attempted >= 1
    line = json.loads(result.line())
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def _entry_points():
    points = [(owner, attr) for owner, attr, *_ in tracing.ENTRY_POINTS]
    points.append((InstrumentedRegistry, "in_phase"))
    return {(owner, attr): (getattr(owner, attr), attr in vars(owner)) for owner, attr in points}


def test_traced_run_restores_every_entry_point():
    before = _entry_points()
    traced = tiny_run("experiment-zero-shot", trace=True)
    assert _entry_points() == before
    spans = traced.record["tracing"]["spans"]
    recorded = len(spans)
    assert recorded > 0
    # an untraced run afterwards reaches no wrapper of the earlier tracer
    assert tiny_run("experiment-zero-shot", trace=False).correct
    assert len(spans) == recorded


def test_traced_pass_that_changes_an_output_is_reported(monkeypatch):
    run_pass = workloads.run_pass

    def perturbed(workload, inputs, tracer=None):
        result = run_pass(workload, inputs, tracer)
        if tracer is not None:
            result.samples[0].credit += 1.0
        return result

    monkeypatch.setattr(workloads, "run_pass", perturbed)
    result = tiny_run("parse-test-large", trace=True)
    assert not result.correct
    assert any("disagree" in p for p in result.record["problems"])


def test_reference_loops_are_timed_around_untraced_operations_only():
    workload = TINY["experiment-zero-shot"]
    inputs = workloads.make_inputs(workload, 3)
    untraced = workloads.run_pass(workload, inputs)
    with tracing.Tracer() as tracer:
        traced = workloads.run_pass(workload, inputs, tracer)
    assert all(s.ref_s > 0 for s in untraced.samples)
    assert all(r > 0 for r in untraced.experiment_ref_s)
    assert all(s.ref_s == 0 for s in traced.samples)
    assert all(r == 0 for r in traced.experiment_ref_s)
    parse_cost, experiment_cost = harness.costs([untraced])
    assert parse_cost[0] == untraced.samples[0].seconds / untraced.samples[0].ref_s
    assert len(experiment_cost) == len(untraced.experiment_s)


def test_layer_self_times_and_residual_add_up_to_the_traced_time():
    m = tiny_run("parse-test-large", trace=True).metrics
    layers = sum(m[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    assert layers + m["trace.residual_s"]["value"] == pytest.approx(m["trace.traced_s"]["value"])
    assert m["parser.derivations"]["value"] == m["kernels.dot_calls"]["value"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parse-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
