"""Tests of the benchmark itself, at warm-up sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from perfbench import metrics, run, specs, trace, workloads

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = sorted(specs.WORKLOADS)


def _bench(capsys, workload, trace_flag):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace_flag)]
    status = run.main(argv, size="warmup")
    return status, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _units(catalogue):
    return {name: unit for name, unit, _ in catalogue}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(capsys, workload):
    status, result = _bench(capsys, workload, 0)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(metrics.END_TO_END)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_per_layer_metric_is_emitted_with_its_unit(capsys, workload):
    status, result = _bench(capsys, workload, 1)
    assert status == 0 and result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(metrics.PER_LAYER)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    layer_shares = sum(values[f"{layer}.share"] for layer in trace.LAYERS)
    assert 0.0 < layer_shares <= 1.0
    assert layer_shares + values[f"{trace.ROOT}.unattributed.share"] == pytest.approx(1.0)


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(metrics.PER_LAYER)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: spec["why"] for name, spec in specs.WORKLOADS.items()
    }
    assert all(metrics.prediction(name) for name, _, _ in metrics.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in doc["end_to_end"])


def test_forced_gate_failure_is_counted(tmp_path):
    name = "couple-ou-stable"
    prepared = workloads.prepare(name, specs.workload_inputs(name, "warmup"))
    batch = workloads.call(prepared, 5, 1, tmp_path)
    doctored = dataclasses.replace(batch, log_weights=batch.log_weights + 1.0)  # E[R] near e
    tally = run.Tally()
    tally.reps("1 worker", [{"seed": 5, **workloads.check(prepared, batch, tmp_path)}])
    assert tally.failed == 0
    tally.reps("1 worker", [{"seed": 5, **workloads.check(prepared, doctored, tmp_path)}])
    assert tally.failed == 1 and "E[R] within 4 se of 1" in tally.failures[0]
    tally.reps("2 workers", [{"seed": 6, "error": "ValueError: boom"}])
    assert tally.failed == 2


def test_failing_calls_fail_the_run(capsys, monkeypatch):
    name = "certify-log-ou-stable"
    original = specs.workload_inputs

    def mismatched_points(workload, size="full"):
        inputs = original(workload, size)
        inputs["points"] = {"x": [1.0, 0.0], "y": [0.0]}  # a config error, exit 64
        return inputs

    monkeypatch.setattr(specs, "workload_inputs", mismatched_points)
    status, result = _bench(capsys, name, 0)
    assert status != 0
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_wrappers_restore_every_patched_attribute():
    before = {(module, path): trace._resolve(module, path) for module, path, _ in trace.TARGETS}
    assert all(found is not None for found in before.values())
    with pytest.raises(RuntimeError):
        with trace.patched(trace.Tracer().wrapper) as absent:
            assert absent == []
            for (module, path), (owner, attr, raw) in before.items():
                assert trace._resolve(module, path)[2] is not raw
            raise RuntimeError("leave the block early")
    for (module, path), (owner, attr, raw) in before.items():
        assert trace._resolve(module, path)[2] is raw


def test_absent_target_is_reported_and_skipped():
    targets = trace.TARGETS + (("subharnack.coupling", "renamed_away", "coupling.batch"),
                               ("subharnack.no_such_module", "f", "stats.reduce"))
    with trace.patched(trace.Tracer().wrapper, targets) as absent:
        pass
    assert absent == ["subharnack.coupling:renamed_away", "subharnack.no_such_module:f"]


def test_self_time_subtracts_child_spans():
    tracer = trace.Tracer()
    tracer.spans = [
        ["workload", 0.0, 10.0, None, True],
        ["coupling.batch", 1.0, 9.0, 0, True],
        ["coupling.coupled_core", 2.0, 5.0, 1, True],
        ["coupling.batch", 5.0, 8.0, 1, False],
        ["pathgen.gaussian", 6.0, 7.0, 3, True],
    ]
    stats = tracer.layer_stats()
    assert stats["workload"] == {"self_s": 2.0, "calls": 1}
    assert stats["coupling.batch"] == {"self_s": 2.0 + 2.0, "calls": 1}
    assert stats["coupling.coupled_core"]["self_s"] == 3.0
    assert stats["pathgen.gaussian"]["self_s"] == 1.0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_and_untraced_estimates_are_bit_identical(tmp_path, workload):
    prepared = workloads.prepare(workload, specs.workload_inputs(workload, "warmup"))
    plain = workloads.check(prepared, workloads.call(prepared, 11, 1, tmp_path), tmp_path)
    tracer = trace.Tracer()
    with trace.patched(tracer.wrapper):
        with tracer.span(trace.ROOT):
            result = workloads.call(prepared, 11, 1, tmp_path)
    traced = workloads.check(prepared, result, tmp_path)
    assert traced["digest"] == plain["digest"]
    assert set(tracer.layer_stats()) > {trace.ROOT, trace.MAP_LAYER}


def test_inputs_depend_only_on_the_seed():
    for name in WORKLOAD_NAMES:
        assert specs.inputs_sha256(name, 4) == specs.inputs_sha256(name, 4)
        assert specs.inputs_sha256(name, 4) != specs.inputs_sha256(name, 5)
