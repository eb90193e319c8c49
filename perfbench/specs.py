"""Workload definitions as plain data: what each workload runs, on which
inputs, and why it is in the benchmark.

This module imports neither numpy nor ``subharnack``, so the benchmark's
own process can generate inputs and hash them without loading the program
under test; the child processes in ``perfbench.child`` turn these inputs
into API calls (``perfbench.workloads``).

Sizes are chosen so that one timed call takes 0.5 to 1.5 seconds on a
2-core Xeon (transfer-dw-gamma about four), which lets a run repeat each
call several times and report medians.  Every workload with more than
``CHUNK_SIZE`` (8192) paths spans at least two chunks, so the 2-worker run
has parallel work.

transfer-dw-gamma uses 250 steps: at 125 its Girsanov weights degenerate
further (ESS/n near 0.03 against 0.06), and 500 steps cost twice as much
while shrinking the 5h term of the gate.  At every step count the weighted
estimator has a heavy tail: over 179 seeds at 125, 250 and 500 steps the
largest ratio of |A - B| to the gate's budget was 0.85, and none failed.

galerkin-dimfree keeps each noise tensor at 31 MB (1000 x 60 x 64
doubles).  At 3000 paths its 92 MB tensors were faulted in afresh on every
call, the system time of those faults ranged from 0.10 to 0.25 s per call,
and its run-to-run spread was about twice that of the other workloads.
"""

from __future__ import annotations

import hashlib
import json

# Each timed call of a run uses its own master seed, derived from the run's
# seed, so that the stderr behind t_to_se_s pools several independent draws.
SUB_SEEDS_PER_SEED = 1000


def sub_seed(seed, index):
    if not 0 <= index < SUB_SEEDS_PER_SEED:
        raise ValueError(f"sub-seed index {index} out of range")
    return seed * SUB_SEEDS_PER_SEED + index


# name -> why (one line), call kind, full-size inputs, warm-up inputs, and
# the stderr target of the headline estimate for t_to_se_s.
WORKLOADS = {
    "couple-ou-stable": {
        "why": "coupled kernel hot path: coupled step, Kanter clock and regularization; "
               "no plain Euler step runs",
        "kind": "couple",
        "inputs": {
            "model": {"name": "ou", "dim": 2, "rate": 1.0},
            "clock": {"type": "stable", "theta": 0.75, "epsilon": 0.05},
            "grid": {"horizon": 1.0, "steps": 125},
            "points": {"x": [1.0, 0.0], "y": [0.0, 0.0]},
            "n_paths": 16384,
        },
        "warmup": {"grid": {"horizon": 1.0, "steps": 20}, "n_paths": 1000},
        "headline": "E[R]",
        "target_se": 1e-3,
    },
    "certify-log-ou-stable": {
        "why": "user-facing CLI certificate: raw Kanter clock, Gaussian increments and explicit "
               "Euler; no coupled kernel or regularization runs",
        "kind": "cli",
        "inputs": {
            "schema": "subharnack/1",
            "experiment": "certify-log",
            "model": {"name": "ou", "dim": 2, "rate": 1.0},
            "clock": {"type": "stable", "theta": 0.75, "epsilon": 0.05},
            "grid": {"horizon": 1.0, "steps": 125},
            "observable": {"name": "sin1"},
            "points": {"x": [1.0, 0.0], "y": [0.0, 0.0]},
            "mc": {"n_paths": 16384},
        },
        "warmup": {"grid": {"horizon": 1.0, "steps": 20}, "mc": {"n_paths": 1000}},
        "headline": "lhs",
        "target_se": 1e-3,
    },
    "transfer-dw-gamma": {
        "why": "coupled kernel through the semi-implicit resolvent at d = 1 with a ramp, "
               "gamma clock; no Kanter sampler runs",
        "kind": "transfer",
        "inputs": {
            "model": {"name": "double_well", "dim": 1, "ramp_velocity": [0.5]},
            "clock": {"type": "gamma", "a": 4.0, "b": 4.0, "epsilon": 0.05},
            "grid": {"horizon": 1.0, "steps": 250},
            "observable": {"name": "sin1"},
            "points": {"x": [1.0], "y": [0.0]},
            "method": "semi_implicit",
            "delta_couple": 1e-6,
            "n_paths": 16384,
        },
        "warmup": {"grid": {"horizon": 1.0, "steps": 20}, "n_paths": 1000},
        "headline": "B (direct estimator)",
        "target_se": 1e-3,
    },
    "galerkin-dimfree": {
        "why": "wide states: Gaussian increments and exponential-Euler steps at up to 64 modes "
               "in one chunk; the only galerkin workload",
        "kind": "cli",
        "inputs": {
            "schema": "subharnack/1",
            "experiment": "galerkin-check",
            "clock": {"type": "stable", "theta": 0.75},
            "grid": {"horizon": 1.0, "steps": 60},
            "galerkin": {"dims": [4, 16, 64], "gamma": 2.0, "force": "zero"},
            "points": {"x": [0.0], "y": [1.0]},
            "mc": {"n_paths": 1000},
        },
        "warmup": {"grid": {"horizon": 1.0, "steps": 8}, "mc": {"n_paths": 300}},
        "headline": "lhs at the widest truncation",
        "target_se": 1e-3,
    },
}

SIZES = ("full", "warmup")


def workload_inputs(name, size="full"):
    """Canonical inputs of one workload; ``warmup`` overrides the sizes."""
    spec = WORKLOADS[name]
    inputs = json.loads(json.dumps(spec["inputs"]))
    if size == "warmup":
        for key, value in spec["warmup"].items():
            if isinstance(value, dict):
                inputs[key] = {**inputs[key], **value}
            else:
                inputs[key] = value
    elif size != "full":
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return inputs


def n_paths(name, inputs):
    if WORKLOADS[name]["kind"] == "cli":
        return inputs["mc"]["n_paths"]
    return inputs["n_paths"]


def path_steps(name, inputs):
    """Sum of paths x grid steps over every integrator call of one run.

    A coupled pair counts as one path.  Rate-constant partial sums are
    subordinator sums, not integrator calls, and are not counted.
    """
    per_call = n_paths(name, inputs) * inputs["grid"]["steps"]
    calls = {
        "couple-ou-stable": 1,  # one coupled batch
        "certify-log-ou-stable": 2,  # terminal states from y and from x
        "transfer-dw-gamma": 2,  # coupled batch plus the direct estimator
        "galerkin-dimfree": 2 * len(inputs.get("galerkin", {}).get("dims", [])),
    }[name]
    return per_call * calls


def inputs_sha256(name, seed, size="full"):
    """SHA-256 of the canonical JSON of a workload's inputs and run seed."""
    doc = {"workload": name, "seed": seed, "size": size, "inputs": workload_inputs(name, size)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
