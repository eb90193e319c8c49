"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from subharnack import bernstein as bn
from subharnack import certify as ct
from subharnack import coupling as cp
from subharnack import galerkin as gk
from subharnack import pathgen as pg
from subharnack import sde
from subharnack.observables import get_observable

SEED = 20260810


def run_criterion(number, name, claims, started):
    """Print the one-line verdict and fail the test if any claim failed."""
    elapsed = time.perf_counter() - started
    failures = [text for text, ok in claims if not ok]
    status = "PASS" if not failures else "FAIL"
    detail = "; ".join(failures) if failures else f"{len(claims)} claims hold"
    print(f"\nACCEPT {number:02d} {name}: {status} ({detail}) [{elapsed:.1f}s]")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def linear_law():
    return pg.ClockLaw(bn.LinearBernstein())


def test_criterion_01_moment_oracle():
    started = time.perf_counter()
    claims = []
    lin = bn.LinearBernstein()
    worst_linear = max(
        abs(bn.inverse_moment(lin, k, t) - t ** (-k))
        for k in (1, 2, 3)
        for t in (0.5, 1.0, 2.0)
    )
    claims.append((f"linear moment error {worst_linear:.2e} > 1e-9", worst_linear <= 1e-9))
    worst_stable = max(
        abs(bn.inverse_moment(bn.StableBernstein(th), 1, t) - gamma_fn(1 + 1 / th) * t ** (-1 / th))
        for th in (0.5, 0.6, 0.75)
        for t in (0.5, 1.0, 2.0)
    )
    claims.append((f"stable moment error {worst_stable:.2e} > 1e-6", worst_stable <= 1e-6))
    claims.append(("runtime >= 1 s", time.perf_counter() - started < 1.0))
    run_criterion(1, "moment-oracle", claims, started)


def test_criterion_02_sampler_fidelity():
    started = time.perf_counter()
    claims = []
    variants = [
        bn.LinearBernstein(),
        bn.StableBernstein(0.75),
        bn.GammaBernstein(1.0, 1.0),
        bn.TemperedStableBernstein(0.6, 0.5),
    ]
    n = 100_000
    for v_index, bf in enumerate(variants):
        for t in (0.5, 1.0):
            gen = pg.RngStream(SEED, v_index, f"fidelity-t{t}").generator()
            draws = pg.sample_subordinator_increments(bf, np.array([t]), gen, n)[:, 0]
            for r in (0.5, 1.0, 2.0):
                emp = np.exp(-r * draws)
                ref = float(bn.laplace_transform(bf, r, t))
                se = emp.std(ddof=1) / math.sqrt(n)
                gap = abs(emp.mean() - ref)
                # deterministic variants leave only summation roundoff
                ok = gap <= max(3.0 * se, 1e-12)
                claims.append(
                    (f"{type(bf).__name__} t={t} r={r}: gap {gap:.2e} vs 3se {3 * se:.2e}", ok)
                )
    claims.append(("runtime >= 30 s", time.perf_counter() - started < 30.0))
    run_criterion(2, "sampler-fidelity", claims, started)


def test_criterion_03_girsanov_normalization():
    started = time.perf_counter()
    claims = []
    n = 100_000
    clocks = {
        "linear": linear_law(),
        "stable075": pg.ClockLaw(bn.StableBernstein(0.75), epsilon=0.05),
    }
    batches = {}
    for model_name in ("ou", "double_well"):
        model = sde.make_model(model_name, dim=2)
        for clock_name, law in clocks.items():
            method = "semi_implicit" if model_name == "double_well" else "euler"
            # E[R] = 1 holds at every step size; only the entropy identity
            # (read off the ou batches) carries an O(h) bias, so the ou runs
            # use the finer grid
            steps = 400 if model_name == "ou" else 150
            grid = pg.TimeGrid.uniform(1.0, steps)
            batch = cp.run_coupled_batch(
                model, [1.0, 0.0], [0.0, 0.0], grid, law, n,
                pg.RngStream(SEED, purpose=f"girsanov-{model_name}-{clock_name}"),
                delta_couple=1e-6, method=method,
            )
            batches[(model_name, clock_name)] = batch
            est = batch.weight_normalization()
            z = (est.mean - 1.0) / est.stderr
            claims.append(
                (f"E[R] {model_name}/{clock_name} = {est.mean:.4f}, z {z:+.2f}", abs(z) <= 3.0)
            )
    # entropy identity in the isotropic case (tight linear one-sided bound):
    # E[R log R] = lambda^2 |x-y|^2 / (2 sum e^{-2K} dl), clock-averaged
    for clock_name in ("linear", "stable075"):
        batch = batches[("ou", clock_name)]
        paired = batch.weights() * batch.log_weights - 1.0 / (2.0 * batch.denominators)
        se = paired.std(ddof=1) / math.sqrt(paired.size)
        z = paired.mean() / se
        claims.append(
            (f"entropy identity ou/{clock_name}: paired z {z:+.2f}", abs(z) <= 3.0)
        )
    claims.append(("runtime >= 120 s", time.perf_counter() - started < 120.0))
    run_criterion(3, "girsanov-normalization", claims, started)


def test_criterion_04_coupling_lemma():
    started = time.perf_counter()
    claims = []
    grid = pg.TimeGrid.uniform(1.0, 1000)  # h = 1e-3
    for model_name, x in (("zero", [1.0, 0.0]), ("ou", [1.0, 0.0]), ("rotating", [1.0, 0.0])):
        model = sde.make_model(model_name, dim=2)
        batch = cp.run_coupled_batch(
            model, x, [0.0, 0.0], grid, linear_law(), 10_000,
            pg.RngStream(SEED, purpose=f"lemma-{model_name}"), delta_couple=1e-6,
        )
        frac = batch.coupling_fraction()
        claims.append((f"{model_name}: coupling fraction {frac:.5f} < 0.999", frac >= 0.999))
    # deterministic-distance profile |X_t - Y_t| = |x - y| (1 - t/T) within 2h
    clock = pg.RegularizedClock(grid=grid, values=grid.times.copy(), epsilon=1.0)
    bm = pg.sample_timechanged_bm(clock, 1, pg.RngStream(SEED, purpose="lemma-profile"))
    path = cp.simulate_coupled(sde.make_model("zero", dim=1), [1.0], [0.0], clock, bm, delta_couple=1e-6)
    gaps = np.abs(path.primary.states[:, 0] - path.secondary.states[:, 0])
    worst = float(np.max(np.abs(gaps - (1.0 - grid.times))))
    claims.append((f"distance profile deviation {worst:.2e} > 2h", worst <= 2.0e-3))
    claims.append(("runtime >= 120 s", time.perf_counter() - started < 120.0))
    run_criterion(4, "coupling-lemma", claims, started)


def test_criterion_05_transfer_identity():
    started = time.perf_counter()
    claims = []
    steps = 500
    h = 1.0 / steps
    grid = pg.TimeGrid.uniform(1.0, steps)
    ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t]), 1)
    pairs = [
        ("zero-bump-linear", sde.make_model("zero", dim=1), get_observable("bump", 1),
         [1.0], [0.0], linear_law(), "euler"),
        ("ou-bump-stable", sde.make_model("ou", dim=2), get_observable("bump", 2),
         [1.0, 0.0], [0.0, 0.5], pg.ClockLaw(bn.StableBernstein(0.75), epsilon=0.05), "euler"),
        ("dw-sin1-gamma-ramp", sde.make_model("double_well", dim=1, perturbation=ramp),
         get_observable("sin1", 1), [1.0], [0.0],
         pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=0.05), "semi_implicit"),
    ]
    for label, model, f, x, y, law, method in pairs:
        est_a, est_b = cp.harnack_transfer_check(
            f, model, x, y, grid, law, 100_000,
            pg.RngStream(SEED, purpose=f"transfer-{label}"), delta_couple=1e-6,
            method=method,
        )
        gap = abs(est_a.mean - est_b.mean)
        budget = 3.0 * (est_a.stderr + est_b.stderr) + 5.0 * h
        claims.append((f"{label}: |A - B| {gap:.4f} > {budget:.4f}", gap <= budget))
    claims.append(("runtime >= 180 s", time.perf_counter() - started < 180.0))
    run_criterion(5, "transfer-identity", claims, started)


def test_criterion_06_sharp_log_harnack():
    started = time.perf_counter()
    claims = []
    model = sde.make_model("zero", dim=2)
    f = get_observable("exp_a", 2, direction=[1.0, 0.0])
    report = ct.log_harnack_certificate(
        f, [0.0, 0.0], [1.0, 0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(), 100_000,
        pg.RngStream(SEED, purpose="sharp"),
    )
    claims.append((f"verdict {report.verdict}", report.verdict == "certified"))
    claims.append((f"z-score {report.z_score:+.2f} outside [-3, 3]", -3.0 <= report.z_score <= 3.0))
    claims.append(
        (f"lhs {report.lhs.mean:.4f} vs analytic 1.0",
         abs(report.lhs.mean - 1.0) <= 3.0 * report.lhs.stderr),
    )
    claims.append(
        (f"rhs {report.rhs.mean:.4f} vs analytic 1.0",
         abs(report.rhs.mean - 1.0) <= 3.0 * report.rhs.stderr),
    )
    claims.append(("runtime >= 60 s", time.perf_counter() - started < 60.0))
    run_criterion(6, "sharp-log-harnack", claims, started)


def test_criterion_07_power_harnack():
    started = time.perf_counter()
    claims = []
    target = math.e**3
    model = sde.make_model("zero", dim=2)
    f = get_observable("exp_a", 2, direction=[1.0, 0.0])
    equality = ct.power_harnack_certificate(
        f, 2.0, [0.0, 0.0], [1.0, 0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(), 100_000,
        pg.RngStream(SEED, purpose="power-eq"),
    )
    claims.append(
        (f"lhs {equality.lhs.mean:.3f} vs e^3 {target:.3f}",
         abs(equality.lhs.mean - target) <= 3.0 * equality.lhs.stderr),
    )
    claims.append(
        (f"rhs {equality.rhs.mean:.3f} vs e^3 {target:.3f}",
         abs(equality.rhs.mean - target) <= 3.0 * equality.rhs.stderr),
    )
    claims.append((f"equality verdict {equality.verdict}", equality.verdict == "certified"))

    ou = sde.make_model("ou", dim=1, rate=1.0)
    stable_case = ct.power_harnack_certificate(
        get_observable("sin1", 1), 2.0, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 400), ou,
        pg.ClockLaw(bn.StableBernstein(0.6)), 100_000,
        pg.RngStream(SEED, purpose="power-stable"),
    )
    claims.append((f"stable(0.6) verdict {stable_case.verdict}", stable_case.verdict == "certified"))
    claims.append(
        (f"stable(0.6) factor notes {stable_case.notes}", not stable_case.notes)
    )
    claims.append(("runtime >= 180 s", time.perf_counter() - started < 180.0))
    run_criterion(7, "power-harnack", claims, started)


def test_criterion_08_gradient_bound():
    # W is a standard Brownian motion (generator Delta/2, see the sde module),
    # so with zero drift and the linear clock P_T sin = e^{-T/2} sin.  At T = 1
    # and x = 0 the lhs is |grad P_1 sin|^2 = e^{-1} ~ 0.3679 and the rhs is
    # Var sin(W_1) times the rate constant 1/T = 1, i.e. (1 - e^{-2})/2 ~ 0.4323,
    # leaving an analytic slack of ~ 0.0645.  Earlier targets (lhs 0.1353 = e^-2,
    # slack > 0.25 = 0.4323 - 0.1353 rounded down) were generator-Delta values;
    # under generator Delta the rhs would be (1 - e^{-4})/2 ~ 0.4908, so they
    # could not hold together with the stated rhs 0.4323 and were replaced.
    started = time.perf_counter()
    claims = []
    model = sde.make_model("zero", dim=1)

    class Sin:
        sup_norm = 1.0

        def __call__(self, z):
            return np.sin(np.atleast_2d(z)[:, 0])

        def describe(self):
            return {"name": "sin"}

    report = ct.gradient_certificate(
        Sin(), [0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(), 100_000,
        pg.RngStream(SEED, purpose="gradient"), fd_step=0.05,
    )
    claims.append((f"verdict {report.verdict}", report.verdict == "certified"))
    claims.append(
        (f"rhs {report.rhs.mean:.4f} vs stated 0.4323",
         abs(report.rhs.mean - 0.4323) <= 3.0 * report.rhs.stderr + 2e-3),
    )
    claims.append(
        (f"lhs {report.lhs.mean:.4f} vs e^-1 {math.exp(-1):.4f}",
         abs(report.lhs.mean - math.exp(-1.0)) <= 3.0 * report.lhs.stderr + 2e-3),
    )
    slack_target = (1.0 - math.exp(-2.0)) / 2.0 - math.exp(-1.0)
    slack_sigma = math.hypot(report.lhs.stderr, report.rhs.stderr)
    claims.append(
        (f"slack {report.slack:.4f} vs (1 - e^-2)/2 - e^-1 {slack_target:.4f}",
         abs(report.slack - slack_target) <= 3.0 * slack_sigma + 2e-3),
    )
    claims.append(
        (f"slack - 3 sigma {report.slack - 3.0 * slack_sigma:.4f} > 0",
         report.slack - 3.0 * slack_sigma > 0.0),
    )
    claims.append(("runtime >= 60 s", time.perf_counter() - started < 60.0))
    run_criterion(8, "gradient-bound", claims, started)


def test_criterion_09_rate_exponents():
    started = time.perf_counter()
    claims = []
    horizons = np.array([0.1, 0.2154434690031884, 0.46415888336127786, 1.0])  # one decade
    for theta in (0.5, 0.75):
        fit = ct.stable_rate_check(
            theta, horizons, 100_000,
            pg.RngStream(SEED, purpose=f"rate-{theta}"),
        )
        gap = abs(fit.fitted_slope + 1.0 / theta)
        claims.append(
            (f"theta {theta}: slope {fit.fitted_slope:.4f} vs {-1 / theta:.4f} "
             f"(3se = {3 * fit.slope_stderr:.4f})", gap <= 3.0 * fit.slope_stderr),
        )
    claims.append(("runtime >= 300 s", time.perf_counter() - started < 300.0))
    run_criterion(9, "rate-exponents", claims, started)


def test_criterion_10_dimension_freeness():
    started = time.perf_counter()
    claims = []

    def family(n):
        return gk.SemilinearModel(
            spectrum=gk.SpectrumModel.from_power_law(n, 2.0),
            force=lambda t, x: np.zeros_like(x),
            force_lipschitz=lambda t: 0.0,
            sigma_diag=1.0,
        )

    result = gk.dimension_free_check(
        family, get_observable("sin1", 4), [0.0], [1.0], pg.TimeGrid.uniform(1.0, 120), (4, 16, 64),
        pg.ClockLaw(bn.StableBernstein(0.75)), 6000,
        pg.RngStream(SEED, purpose="dimfree"),
    )
    for n, report in zip(result.dims, result.reports):
        claims.append((f"n={n} verdict {report.verdict}", report.verdict == "certified"))
    constants = {report.params["cost_constant"] for report in result.reports}
    claims.append((f"rhs constants differ: {constants}", len(constants) == 1))
    claims.append(
        (f"slack trend {result.trend_slope:.2e} < -3se ({result.trend_stderr:.2e})",
         result.no_negative_trend),
    )
    claims.append(("runtime >= 300 s", time.perf_counter() - started < 300.0))
    run_criterion(10, "dimension-freeness", claims, started)


def test_criterion_11_regularization_convergence():
    started = time.perf_counter()
    claims = []
    eps_levels = (0.2, 0.1, 0.05, 0.025)
    model = sde.make_model("ou", dim=1, rate=1.0)
    steps = 400
    grid = pg.TimeGrid.uniform(1.0, steps)
    h = 1.0 / steps
    n_ext = int(round(max(eps_levels) / h))
    ext_times = np.concatenate([grid.times, 1.0 + h * np.arange(1, n_ext + 1)])
    monotone = 0
    n_paths = 100
    for path_index in range(n_paths):
        gen = pg.RngStream(SEED, path_index, "lemma-clock").generator()
        inc = pg.sample_subordinator_increments(bn.LinearBernstein(), np.diff(ext_times), gen, 1)[0]
        values = np.concatenate(([0.0], np.cumsum(inc)))[None, :]
        clocks = [pg.regularized_values(grid.times, ext_times, values, eps)[0] for eps in eps_levels]
        raw = values[0, : grid.times.size]
        z = pg.RngStream(SEED, path_index, "lemma-noise").generator().standard_normal((steps, 1))
        base = sde.integrate(
            [1.0], model,
            pg.TimeChangedBMPath(grid=grid, dimension=1, increments=np.sqrt(np.diff(raw))[:, None] * z),
        ).states
        gaps = []
        for clock_values in clocks:
            traj = sde.integrate(
                [1.0], model,
                pg.TimeChangedBMPath(
                    grid=grid, dimension=1,
                    increments=np.sqrt(np.diff(clock_values))[:, None] * z,
                ),
            ).states
            gaps.append(float(np.max(np.abs(traj - base))))
        if all(a >= b for a, b in zip(gaps, gaps[1:])):
            monotone += 1
    claims.append((f"monotone sup-gap for {monotone}/100 paths", monotone >= 95))
    claims.append(("runtime >= 60 s", time.perf_counter() - started < 60.0))
    run_criterion(11, "regularization-convergence", claims, started)


def test_criterion_12_determinism(tmp_path):
    started = time.perf_counter()
    claims = []
    config = {
        "schema": "subharnack/1",
        "experiment": "certify-log",
        "model": {"name": "ou", "dim": 2, "rate": 1.0},
        "clock": {"type": "stable", "theta": 0.75},
        "grid": {"horizon": 1.0, "steps": 100},
        "mc": {"n_paths": 20_000, "seed": SEED},
        "observable": {"name": "sin1"},
        "points": {"x": [0.0, 0.0], "y": [1.0, 0.0]},
        "output": {"dir": "det"},
    }
    reports = {}
    for workers in ("1", "4"):
        run_dir = tmp_path / f"w{workers}"
        run_dir.mkdir()
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config))
        env = dict(os.environ, SUBHARNACK_WORKERS=workers)
        proc = subprocess.run(
            [sys.executable, "-m", "subharnack", "run", str(config_path)],
            capture_output=True, text=True, env=env,
        )
        claims.append((f"workers={workers} exit {proc.returncode}", proc.returncode == 0))
        doc = json.loads((run_dir / "det" / "report.json").read_text())
        doc.pop("runtime_seconds")
        reports[workers] = json.dumps(doc, sort_keys=True)
    claims.append(
        ("reports differ across worker counts", reports["1"] == reports["4"])
    )
    claims.append(("runtime >= 60 s", time.perf_counter() - started < 60.0))
    run_criterion(12, "determinism", claims, started)
