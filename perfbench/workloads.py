"""Runs one workload through the public ``subharnack`` API and checks it.

``prepare`` builds the model, clock law and grid (or the CLI config) from the
inputs that ``perfbench.specs`` generated; ``call`` is the timed region and
does nothing but call the program; ``check`` turns the call's result into
the correctness gates, the headline estimate and a digest of the estimator
values, outside the timed region.

Functions are looked up as module attributes at call time
(``coupling.run_coupled_batch``, ``cli.run_config``), so the spans that
``perfbench.trace`` installs on those modules see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from subharnack import bernstein, cli, coupling, observables, pathgen, sde

from . import specs


def _clock_law(cfg):
    cfg = dict(cfg)
    epsilon = cfg.pop("epsilon", 0.05)
    return pathgen.ClockLaw(bernstein.bernstein_from_config(cfg), epsilon=epsilon)


def _model(cfg):
    cfg = dict(cfg)
    name = cfg.pop("name")
    dim = cfg.pop("dim")
    velocity = cfg.pop("ramp_velocity", None)
    perturbation = None
    if velocity is not None:
        velocity = np.asarray(velocity, dtype=float)
        perturbation = sde.PerturbationModel.from_function(lambda t, _v=velocity: _v * t, dim)
    return sde.make_model(name, dim=dim, perturbation=perturbation, **cfg)


def prepare(name, inputs):
    """Objects one timed call needs; building them is part of set-up."""
    kind = specs.WORKLOADS[name]["kind"]
    if kind == "cli":
        return {"name": name, "kind": kind, "config": inputs}
    model = _model(inputs["model"])
    prepared = {
        "name": name,
        "kind": kind,
        "model": model,
        "law": _clock_law(inputs["clock"]),
        "grid": pathgen.TimeGrid.uniform(inputs["grid"]["horizon"], inputs["grid"]["steps"]),
        "x": np.asarray(inputs["points"]["x"], dtype=float),
        "y": np.asarray(inputs["points"]["y"], dtype=float),
        "n_paths": inputs["n_paths"],
    }
    if kind == "transfer":
        prepared["f"] = observables.get_observable(inputs["observable"]["name"], model.dim)
        prepared["method"] = inputs["method"]
        prepared["delta_couple"] = inputs["delta_couple"]
    return prepared


def call(prepared, seed, workers, out_dir):
    """The timed region: one call into the program."""
    kind = prepared["kind"]
    if kind == "couple":
        return coupling.run_coupled_batch(
            prepared["model"], prepared["x"], prepared["y"], prepared["grid"],
            prepared["law"], prepared["n_paths"],
            pathgen.RngStream(seed, purpose="bench-couple"), workers=workers,
        )
    if kind == "transfer":
        return coupling.harnack_transfer_check(
            prepared["f"], prepared["model"], prepared["x"], prepared["y"],
            prepared["grid"], prepared["law"], prepared["n_paths"],
            pathgen.RngStream(seed, purpose="bench-transfer"),
            delta_couple=prepared["delta_couple"], workers=workers,
            method=prepared["method"],
        )
    config = dict(prepared["config"])
    config["mc"] = {**config["mc"], "seed": seed}
    config["output"] = {"dir": "report"}
    return cli.run_config(config, workers=workers, base_dir=str(out_dir))


def _strip_runtime(doc):
    if isinstance(doc, dict):
        return {k: _strip_runtime(v) for k, v in doc.items() if k != "runtime_seconds"}
    if isinstance(doc, list):
        return [_strip_runtime(v) for v in doc]
    return doc


def _sha256(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
    return digest.hexdigest()


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check(prepared, result, out_dir):
    """Gates, headline (mean, stderr), weighted stderr and a values digest.

    Each gate is ``[name, passed, detail]``; a non-finite headline fails the
    ``finite`` gate.
    """
    name = prepared["name"]
    gates = []
    weighted_se = None
    if name == "couple-ou-stable":
        est = result.weight_normalization()
        fraction = result.coupling_fraction()
        mean, se = est.mean, est.stderr
        weighted_se = se
        gates.append(["E[R] within 4 se of 1", _finite(mean, se) and abs(mean - 1.0) <= 4.0 * se,
                      f"E[R] = {mean:.6g} +- {se:.3g}"])
        gates.append(["coupling fraction >= 0.99", fraction >= 0.99, f"fraction {fraction:.4f}"])
        digest = _sha256(result.log_weights.tobytes(), result.tau_indices.tobytes(),
                         result.x_terminal.tobytes(), result.y_terminal.tobytes())
    elif name == "transfer-dw-gamma":
        est_a, est_b = result
        mean, se = est_b.mean, est_b.stderr
        weighted_se = est_a.stderr
        gap = abs(est_a.mean - est_b.mean)
        budget = 3.0 * (est_a.stderr + est_b.stderr) + 5.0 * float(prepared["grid"].step_sizes.max())
        gates.append(["|A - B| <= 3 (se_A + se_B) + 5 h",
                      _finite(est_a.mean, est_a.stderr, mean, se) and gap <= budget,
                      f"gap {gap:.4g}, budget {budget:.4g}"])
        digest = _sha256(est_a.mean, est_a.stderr, est_b.mean, est_b.stderr)
    else:
        report = json.loads((Path(out_dir) / "report" / "report.json").read_text())
        gates.append(["exit status 0", result == 0, f"exit {result}"])
        if name == "certify-log-ou-stable":
            mean, se = report["lhs"]["mean"], report["lhs"]["stderr"]
            gates.append(["verdict certified", report["verdict"] == "certified",
                          f"verdict {report['verdict']}, z {report['z_score']:+.2f}"])
        else:
            widest = report["reports"][-1]
            mean, se = widest["lhs"]["mean"], widest["lhs"]["stderr"]
            verdicts = [r["verdict"] for r in report["reports"]]
            gates.append(["all verdicts certified", all(v == "certified" for v in verdicts),
                          f"verdicts {verdicts}"])
            gates.append(["no negative trend", report["no_negative_trend"] is True,
                          f"trend {report['trend_slope']:.3g} +- {report['trend_stderr']:.3g}"])
        digest = _sha256(json.dumps(_strip_runtime(report), sort_keys=True))
    gates.append(["finite headline", _finite(mean, se), f"{mean!r} +- {se!r}"])
    return {
        "gates": gates,
        "headline_mean": mean if _finite(mean) else None,
        "headline_se": se if _finite(se) else None,
        "weighted_se": weighted_se if weighted_se is not None and _finite(weighted_se) else None,
        "digest": digest,
    }


def weight_diagnostics(batch):
    """ESS/n, largest weight share and coupling fraction of a coupled batch."""
    weights = batch.weights()
    total = float(weights.sum())
    return {
        "ess_frac": total**2 / (weights.size * float(np.dot(weights, weights))),
        "max_weight_share": float(weights.max()) / total,
        "coupling_fraction": batch.coupling_fraction(),
    }
