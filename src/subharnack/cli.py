"""Config-driven experiment runner.

One JSON document describes one experiment; ``subharnack run`` validates it
against a versioned schema (unknown keys are rejected), executes it with
deterministic parallel seeding, and writes ``report.json``, an optional
``paths.csv``, and a human-readable ``summary.txt`` into the output
directory.

Exit codes: 0 certified/completed, 2 violated, 3 inconclusive, 64 config
errors (any ``ValueError``: the schema, the CLI or the library rejected an
input), 70 runtime numeric errors (the four types ``run_config`` names).
The number of worker processes comes from ``SUBHARNACK_WORKERS`` (default
1) and never appears in the report, so reports are byte-identical across
worker counts up to the runtime field.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import bernstein as bn
from . import certify, coupling, galerkin, sde
from .observables import OBSERVABLE_NAMES, get_observable
from .parallel import worker_count_from_env
from .pathgen import ClockLaw, RejectionError, RngStream, TimeChangedBMPath, TimeGrid, bm_increments
from .selftest import run_selftest

__all__ = ["main", "run_config", "validate_config", "CONFIG_SCHEMA"]

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 64
EXIT_NUMERIC = 70

SCHEMA_VERSION = "subharnack/1"

_CLOCK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["type"],
    "properties": {
        "type": {"enum": ["linear", "stable", "gamma", "tempered_stable"]},
        "theta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "a": {"type": "number", "exclusiveMinimum": 0},
        "b": {"type": "number", "exclusiveMinimum": 0},
        "kappa": {"type": "number", "exclusiveMinimum": 0},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
    },
    "allOf": [
        {
            "if": {"properties": {"type": {"const": "stable"}}},
            "then": {"required": ["theta"]},
        },
        {
            "if": {"properties": {"type": {"const": "gamma"}}},
            "then": {"required": ["a", "b"]},
        },
        {
            "if": {"properties": {"type": {"const": "tempered_stable"}}},
            "then": {"required": ["theta", "kappa"]},
        },
    ],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "experiment"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "experiment": {
            "enum": [
                "simulate",
                "couple",
                "certify-log",
                "certify-power",
                "certify-gradient",
                "certify-coupling-bound",
                "rate-check",
                "galerkin-check",
                "moments",
            ]
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": ["zero", "ou", "double_well", "rotating"]},
                "dim": {"type": "integer", "minimum": 1},
                "sigma_scale": {"type": "number", "exclusiveMinimum": 0},
                "rate": {"type": "number", "exclusiveMinimum": 0},
                "omega": {"type": "number"},
                "contraction": {"type": "number", "exclusiveMinimum": 0},
                "perturbation": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["zero", "ramp"]},
                        "velocity": {"type": "array", "items": {"type": "number"}},
                    },
                },
            },
        },
        "clock": _CLOCK_SCHEMA,
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["horizon", "steps"],
            "properties": {
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
            },
        },
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_paths", "seed"],
            "properties": {
                "n_paths": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "observable": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": list(OBSERVABLE_NAMES)},
                "direction": {"type": "array", "items": {"type": "number"}},
                "coords": {"type": "integer", "minimum": 1},
            },
        },
        "points": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x": {"type": "array", "items": {"type": "number"}},
                "y": {"type": "array", "items": {"type": "number"}},
            },
        },
        "certify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p": {"type": "number", "exclusiveMinimum": 1},
                "fd_step": {"type": "number", "exclusiveMinimum": 0},
                "delta_couple": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "rate_check": {
            "type": "object",
            "additionalProperties": False,
            "required": ["theta", "horizons"],
            "properties": {
                "theta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "horizons": {
                    "type": "array",
                    "minItems": 4,
                    "uniqueItems": True,
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                },
            },
        },
        "galerkin": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dims"],
            "properties": {
                "dims": {
                    "type": "array",
                    "minItems": 2,
                    "uniqueItems": True,
                    "items": {"type": "integer", "minimum": 1},
                },
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "force": {"enum": ["zero", "saturating"]},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "moments": {
            "type": "object",
            "additionalProperties": False,
            "required": ["k", "t"],
            "properties": {
                "k": {"type": "number", "exclusiveMinimum": 0},
                "t": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "paths_csv": {"type": "boolean"},
            },
        },
    },
}

_REQUIRED_BLOCKS = {
    "simulate": ("model", "clock", "grid", "mc", "observable"),
    "couple": ("model", "clock", "grid", "mc", "points"),
    "certify-log": ("model", "clock", "grid", "mc", "observable", "points"),
    "certify-power": ("model", "clock", "grid", "mc", "observable", "points"),
    "certify-gradient": ("model", "clock", "grid", "mc", "observable"),
    "certify-coupling-bound": ("model", "clock", "grid", "mc", "observable", "points"),
    "rate-check": ("rate_check", "mc"),
    "galerkin-check": ("clock", "grid", "mc", "galerkin", "points"),
    "moments": ("clock", "moments"),
}


class ConfigError(ValueError):
    pass


def validate_config(config: dict):
    # jsonschema is most of the cold start left after numpy; commands that
    # never validate a config do not pay for it
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"config field {first.json_path}: {first.message}")
    missing = [
        block
        for block in _REQUIRED_BLOCKS[config["experiment"]]
        if block not in config
    ]
    if missing:
        raise ConfigError(
            f"experiment {config['experiment']!r} needs config block(s): {', '.join(missing)}"
        )


def _clock_law(config) -> ClockLaw:
    cfg = dict(config)
    epsilon = cfg.pop("epsilon", 0.05)
    return ClockLaw(bernstein=bn.bernstein_from_config(cfg), epsilon=epsilon)


def _model(config) -> sde.SdeModel:
    cfg = dict(config)
    name = cfg.pop("name")
    dim = cfg.pop("dim", 1)
    sigma_scale = cfg.pop("sigma_scale", 1.0)
    pert_cfg = cfg.pop("perturbation", None)
    perturbation = None
    if pert_cfg and pert_cfg["kind"] == "ramp":
        velocity = np.asarray(pert_cfg.get("velocity", [1.0] * dim), dtype=float)
        perturbation = sde.PerturbationModel.from_function(lambda t, _v=velocity: _v * t, dim)
    return sde.make_model(name, dim=dim, sigma_scale=sigma_scale, perturbation=perturbation, **cfg)


def _observable(config, dim):
    cfg = dict(config)
    return get_observable(cfg.pop("name"), dim, **cfg)


def _grid(config) -> TimeGrid:
    return TimeGrid.uniform(config["horizon"], config["steps"])


# Eigenvalues of the zoo's linear drifts; the CLI steps them by explicit
# Euler, which is stable only where |1 + h lambda| < 1.
_LINEAR_EIGENVALUES = {
    "ou": lambda p: -p["rate"],
    "rotating": lambda p: complex(-p["contraction"], p["omega"]),
}


def _model_on_grid(config):
    """The zoo model, its grid and the step method the CLI runs it with.

    double_well steps by its resolvent ("semi_implicit"), since explicit
    Euler blows up under the kicks of heavy clocks; the resolvent itself
    refuses a step h >= 1.  The other models step by explicit Euler,
    refused where it is unstable: an unstable step grows the states
    geometrically, and below the state bound of ``sde.IntegrationError``
    that would still give a verdict.
    """
    model = _model(config["model"])
    grid = _grid(config["grid"])
    if model.label == "double_well":
        return model, grid, "semi_implicit"
    h = float(np.max(grid.step_sizes))
    eigenvalue = _LINEAR_EIGENVALUES.get(model.label)
    if eigenvalue is not None:
        lam = eigenvalue(model.params)
        if abs(1.0 + h * lam) >= 1.0:
            raise ConfigError(
                f"explicit Euler is unstable for model {model.label!r} on this grid: "
                f"|1 + h lambda| = {abs(1.0 + h * lam):.4g} >= 1 at step h = {h:.4g}; "
                f"h must be below {-2.0 * lam.real / abs(lam) ** 2:.4g}"
            )
    return model, grid, "euler"


def _points(config, model):
    """The config's x and y (x defaults to 0, y to x); every path driver checks them."""
    pts = config.get("points", {})
    x = pts.get("x", [0.0] * model.dim)
    return x, pts.get("y", x)


def _verdict_exit(verdict):
    return {"certified": EXIT_OK, "violated": EXIT_VIOLATED, "inconclusive": EXIT_INCONCLUSIVE}[verdict]


def _run_simulate(config, workers):
    model, grid, method = _model_on_grid(config)
    law = _clock_law(config["clock"])
    f = _observable(config["observable"], model.dim)
    x, _ = _points(config, model)
    stream = RngStream(config["mc"]["seed"], purpose="simulate")
    est = sde.semigroup_estimate(
        f, x, model, law, grid, config["mc"]["n_paths"], stream, workers=workers, method=method
    )
    report = {
        "experiment": "simulate",
        "estimate": est.to_dict(),
        "observable": f.describe(),
        "model": model.label,
        "seed": config["mc"]["seed"],
    }
    extras = {}
    if config.get("output", {}).get("paths_csv"):
        # an overflowed clock gives non-finite noise: an IntegrationError
        gen = stream.child(purpose="simulate-example-path").generator()
        dw = bm_increments(law.sample_raw(grid, gen, 1)[0], model.dim, gen)
        bm = TimeChangedBMPath(grid=grid, dimension=model.dim, increments=dw)
        extras["paths_csv"] = sde.integrate(x, model, bm, method=method)
    return report, EXIT_OK, extras


def _run_couple(config, workers):
    model, grid, method = _model_on_grid(config)
    law = _clock_law(config["clock"])
    x, y = _points(config, model)
    delta = config.get("certify", {}).get("delta_couple")
    stream = RngStream(config["mc"]["seed"], purpose="couple")
    batch = coupling.run_coupled_batch(
        model, x, y, grid, law, config["mc"]["n_paths"], stream,
        delta_couple=delta, workers=workers, method=method,
    )
    f = None
    f_values = None
    if "observable" in config:
        f = _observable(config["observable"], model.dim)
        f_values = np.asarray(f(batch.x_terminal), dtype=float)
    normalization = batch.weight_normalization()
    entropy = batch.entropy()
    report = {
        "experiment": "couple",
        "coupling_fraction": batch.coupling_fraction(),
        "weight_normalization": normalization.to_dict(),
        "entropy": entropy.to_dict(),
        "seed": config["mc"]["seed"],
        "model": model.label,
    }
    if f is not None:
        report["weighted_observable"] = certify.MCEstimate.from_samples(
            batch.weights() * f_values
        ).to_dict()
        report["observable"] = f.describe()
    extras = {}
    if config.get("output", {}).get("paths_csv"):
        extras["couple_csv"] = (batch, f_values)
    return report, EXIT_OK, extras


def _run_certificate(config, workers):
    experiment = config["experiment"]
    model, grid, method = _model_on_grid(config)
    law = _clock_law(config["clock"])
    f = _observable(config["observable"], model.dim)
    x, y = _points(config, model)
    n = config["mc"]["n_paths"]
    stream = RngStream(config["mc"]["seed"], purpose=experiment)
    options = config.get("certify", {})
    if experiment == "certify-log":
        report = certify.log_harnack_certificate(f, x, y, grid, model, law, n, stream, workers=workers, method=method)
    elif experiment == "certify-power":
        report = certify.power_harnack_certificate(
            f, options.get("p", 2.0), x, y, grid, model, law, n, stream, workers=workers, method=method,
        )
    elif experiment == "certify-gradient":
        report = certify.gradient_certificate(
            f, x, grid, model, law, n, stream, fd_step=options.get("fd_step", 0.05), workers=workers, method=method,
        )
    else:
        report = certify.coupling_property_bound(f, x, y, grid, model, law, n, stream, workers=workers, method=method)
    doc = report.to_dict()
    doc["experiment"] = experiment
    return doc, _verdict_exit(report.verdict), {}


def _run_rate_check(config, workers):
    rc = config["rate_check"]
    stream = RngStream(config["mc"]["seed"], purpose="rate-check")
    fit = certify.stable_rate_check(
        rc["theta"], np.asarray(rc["horizons"], dtype=float),
        config["mc"]["n_paths"], stream, workers=workers,
    )
    doc = fit.to_dict()
    doc["experiment"] = "rate-check"
    doc["seed"] = config["mc"]["seed"]
    return doc, EXIT_OK if fit.consistent else EXIT_VIOLATED, {}


def _saturating_force(t, x):
    return -x / (1.0 + np.sum(x * x, axis=-1, keepdims=True))


def _run_galerkin(config, workers):
    gcfg = config["galerkin"]
    law = _clock_law(config["clock"])
    grid = _grid(config["grid"])
    gamma_exp = gcfg.get("gamma", 2.0)
    sigma = gcfg.get("sigma", 1.0)
    force_kind = gcfg.get("force", "zero")

    def family(n):
        if force_kind == "zero":
            force, lip = (lambda t, z: np.zeros_like(z)), (lambda t: 0.0)
        else:
            force, lip = _saturating_force, (lambda t: 9.0 / 8.0)
        return galerkin.SemilinearModel(
            spectrum=galerkin.SpectrumModel.from_power_law(n, gamma_exp),
            force=force,
            force_lipschitz=lip,
            sigma_diag=sigma,
            label=f"galerkin-{force_kind}",
        )

    pts = config["points"]
    f = _observable(config.get("observable", {"name": "sin1"}), min(gcfg["dims"]))
    stream = RngStream(config["mc"]["seed"], purpose="galerkin-check")
    result = galerkin.dimension_free_check(
        family, f, pts.get("x", [0.0]), pts.get("y", [1.0]), grid,
        gcfg["dims"], law, config["mc"]["n_paths"], stream, workers=workers,
    )
    doc = result.to_dict()
    doc["experiment"] = "galerkin-check"
    doc["seed"] = config["mc"]["seed"]
    verdicts = [r.verdict for r in result.reports]
    if any(v == "violated" for v in verdicts):
        status = EXIT_VIOLATED
    elif any(v == "inconclusive" for v in verdicts) or not result.no_negative_trend:
        status = EXIT_INCONCLUSIVE
    else:
        status = EXIT_OK
    return doc, status, {}


def _run_moments(config, workers):
    del workers
    law = _clock_law(config["clock"])
    mcfg = config["moments"]
    doc = {
        "experiment": "moments",
        "bernstein": law.bernstein.to_config(),
        "k": mcfg["k"],
        "t": mcfg["t"],
    }
    try:
        doc["value"] = bn.inverse_moment(law.bernstein, mcfg["k"], mcfg["t"])
        doc["stderr"] = 0.0
        doc["infinite"] = False
    except bn.InfiniteMomentError as exc:
        doc["value"] = None
        doc["infinite"] = True
        doc["note"] = str(exc)
    return doc, EXIT_OK, {}


_RUNNERS = {
    "simulate": _run_simulate,
    "couple": _run_couple,
    "certify-log": _run_certificate,
    "certify-power": _run_certificate,
    "certify-gradient": _run_certificate,
    "certify-coupling-bound": _run_certificate,
    "rate-check": _run_rate_check,
    "galerkin-check": _run_galerkin,
    "moments": _run_moments,
}


def _summary_lines(report):
    lines = [f"experiment: {report.get('experiment')}"]
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict']} (z = {report['z_score']:+.3f})")
        lines.append(
            f"lhs: {report['lhs']['mean']:.6g} +- {report['lhs']['stderr']:.3g}"
        )
        lines.append(
            f"rhs: {report['rhs']['mean']:.6g} +- {report['rhs']['stderr']:.3g}"
        )
        lines.append(f"slack: {report['slack']:.6g}")
        for note in report.get("notes", []):
            lines.append(f"note: {note}")
    if "estimate" in report:
        est = report["estimate"]
        lines.append(f"estimate: {est['mean']:.6g} +- {est['stderr']:.3g} (n = {est['n']})")
    if "coupling_fraction" in report:
        lines.append(f"coupling fraction: {report['coupling_fraction']:.4f}")
        wn = report["weight_normalization"]
        lines.append(f"E[R]: {wn['mean']:.6g} +- {wn['stderr']:.3g}")
    if "fitted_slope" in report:
        lines.append(
            f"fitted slope: {report['fitted_slope']:.4f} +- {report['slope_stderr']:.4g} "
            f"(expected {report['expected_slope']:.4f}, consistent: {report['consistent']})"
        )
    if "value" in report and report.get("experiment") == "moments":
        lines.append(f"value: {report['value']}")
    if "trend_slope" in report:
        lines.append(
            f"slack trend: {report['trend_slope']:.3e} +- {report['trend_stderr']:.3e} "
            f"per mode (no negative trend: {report['no_negative_trend']})"
        )
    lines.append(f"runtime: {report.get('runtime_seconds', 0.0):.2f} s")
    return lines


def _write_couple_csv(path, batch, f_values):
    tau = batch.tau_times()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "tau_time", "log_weight", "f_XT"])
        for i in range(batch.n_paths):
            writer.writerow(
                [
                    i,
                    "" if math.isnan(tau[i]) else repr(float(tau[i])),
                    repr(float(batch.log_weights[i])),
                    "" if f_values is None else repr(float(f_values[i])),
                ]
            )


def run_config(config: dict, workers=None, base_dir=".") -> int:
    """Validate and execute one experiment config; returns the exit status.

    A failure prints one stderr line and writes nothing, and the exception's
    type picks the code: 64 for any ``ValueError``; 70 for the numeric
    types ``sde.IntegrationError``, ``bernstein.QuadratureError``,
    ``pathgen.RejectionError`` and ``ArithmeticError``, which checks on
    computed results raise.
    """
    try:
        validate_config(config)
        workers = workers if workers is not None else worker_count_from_env()
        started = time.perf_counter()
        report, status, extras = _RUNNERS[config["experiment"]](config, workers)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (sde.IntegrationError, bn.QuadratureError, RejectionError, ArithmeticError) as exc:
        print(f"numeric failure in {config['experiment']}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    report["runtime_seconds"] = time.perf_counter() - started

    out_dir = Path(base_dir) / config.get("output", {}).get("dir", "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "summary.txt").write_text("\n".join(_summary_lines(report)) + "\n")
    if "paths_csv" in extras:
        extras["paths_csv"].to_csv(out_dir / "paths.csv")
    if "couple_csv" in extras:
        _write_couple_csv(out_dir / "paths.csv", *extras["couple_csv"])
    return status


def _cmd_run(args) -> int:
    target = Path(args.config)
    if target.is_dir():
        status = EXIT_OK
        for config_path in sorted(target.glob("*.json")):
            status = max(status, _run_file(config_path))
        return status
    return _run_file(target)


def _run_file(path: Path) -> int:
    try:
        config = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run_config(config, base_dir=path.parent)


def _cmd_moments(args) -> int:
    clock = {"type": args.bernstein}
    if args.theta is not None:
        clock["theta"] = args.theta
    if args.a is not None:
        clock["a"] = args.a
    if args.b is not None:
        clock["b"] = args.b
    if args.kappa is not None:
        clock["kappa"] = args.kappa
    config = {
        "schema": SCHEMA_VERSION,
        "experiment": "moments",
        "clock": clock,
        "moments": {"k": args.k, "t": args.t},
        "output": {"dir": args.out},
    }
    return run_config(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subharnack",
        description="Monte Carlo certification of Harnack inequalities for "
        "equations driven by subordinate Brownian motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment config or a directory of configs")
    run_parser.add_argument("config", help="path to a config JSON file or a directory")

    sub.add_parser("selftest", help="run the fast acceptance subset")

    mom = sub.add_parser("moments", help="evaluate a subordinator inverse moment")
    mom.add_argument("--bernstein", required=True, choices=["linear", "stable", "gamma", "tempered_stable"])
    mom.add_argument("--theta", type=float)
    mom.add_argument("--a", type=float)
    mom.add_argument("--b", type=float)
    mom.add_argument("--kappa", type=float)
    mom.add_argument("--k", type=float, required=True)
    mom.add_argument("--t", type=float, required=True)
    mom.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    # verdicts and exit statuses report non-finite numbers; forked worker
    # processes inherit the filter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "selftest":
            return run_selftest()
        return _cmd_moments(args)


if __name__ == "__main__":
    sys.exit(main())
