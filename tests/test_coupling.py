import math

import numpy as np
import pytest

from subharnack import bernstein as bn
from subharnack import certify as ct
from subharnack import coupling as cp
from subharnack import galerkin as gk
from subharnack import pathgen as pg
from subharnack import sde
from subharnack.parallel import CHUNK_SIZE


def identity_clock(horizon, steps):
    grid = pg.TimeGrid.uniform(horizon, steps)
    return pg.RegularizedClock(grid=grid, values=grid.times.copy(), epsilon=1.0)


class TestXi:
    def test_constant_rate_without_drift_bound(self):
        # K = 0, l(t) = t, |x-y| = 2, T = 4: the rate is |x-y| / T everywhere
        clock = identity_clock(4.0, 400)
        for t in (0.0, 1.3, 3.9):
            assert cp.xi(t, [2.0], [0.0], lambda s: 0.0, clock) == pytest.approx(0.5, abs=1e-12)

    def test_expanding_drift_bound_value(self):
        # K = 1, T = 1: xi_0 = 1 / int_0^1 e^{-2s} ds = 2 / (1 - e^{-2})
        steps = 8000
        clock = identity_clock(1.0, steps)
        value = cp.xi(0.0, [1.0], [0.0], lambda s: 1.0, clock)
        expected = 2.0 / (1.0 - math.exp(-2.0))
        assert value == pytest.approx(expected, abs=expected * 2.0 / steps)

    def test_regularized_linear_denominator_is_clock_mass(self):
        # K = 0: the Stieltjes sum telescopes to l(T) - l(0)
        grid = pg.TimeGrid.uniform(1.0, 50)
        path = pg.sample_subordinator(bn.LinearBernstein(), grid, pg.RngStream(0))
        ext_grid = pg.TimeGrid(times=np.linspace(1.0, 1.1, 11))
        ext = pg.sample_subordinator(bn.LinearBernstein(), ext_grid, pg.RngStream(0, 1), initial_value=1.0)
        clock = pg.regularize(path, 0.1, ext)
        _, denominator = cp.xi_profile(1.0, lambda s: 0.0, grid, clock.values)
        assert denominator == pytest.approx(clock.values[-1] - clock.values[0], abs=1e-12)

    def test_rejects_flat_clock(self):
        grid = pg.TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            cp.xi_profile(1.0, lambda s: 0.0, grid, np.array([0.0, 1.0, 1.0, 2.0, 3.0]))


class TestSimulateCoupled:
    def test_deterministic_distance_profile(self):
        # b = 0, sigma = I, K = 0, l(t) = t: common noise cancels and
        # |X_t - Y_t| = |x - y| (1 - t/T) exactly, coupling at T
        steps = 1000
        clock = identity_clock(1.0, steps)
        model = sde.make_model("zero", dim=1)
        bm = pg.sample_timechanged_bm(clock, 1, pg.RngStream(2, purpose="det"))
        cfg = cp.CouplingConfig(x=[1.0], y=[0.0], model=model, clock=clock, delta_couple=1e-6)
        path = cp.simulate_coupled(cfg, bm)
        gaps = np.abs(path.primary.states[:, 0] - path.secondary.states[:, 0])
        profile = 1.0 - clock.grid.times
        assert np.max(np.abs(gaps - profile)) <= 2.0 / steps
        assert path.coupled
        assert path.tau_time() == pytest.approx(1.0, abs=2.0 / steps)

    def test_equal_start_couples_immediately(self):
        clock = identity_clock(1.0, 100)
        model = sde.make_model("ou", dim=2, rate=1.0)
        bm = pg.sample_timechanged_bm(clock, 2, pg.RngStream(3, purpose="same"))
        cfg = cp.CouplingConfig(x=[0.3, -0.1], y=[0.3, -0.1], model=model, clock=clock)
        path = cp.simulate_coupled(cfg, bm)
        assert path.tau_index == 0
        assert path.log_weight == 0.0
        np.testing.assert_array_equal(path.primary.states, path.secondary.states)

    def test_paths_identical_after_coupling(self):
        clock = identity_clock(1.0, 500)
        model = sde.make_model("ou", dim=2, rate=1.0)
        bm = pg.sample_timechanged_bm(clock, 2, pg.RngStream(4, purpose="paste"))
        cfg = cp.CouplingConfig(x=[1.0, 0.0], y=[-1.0, 0.5], model=model, clock=clock, delta_couple=1e-6)
        path = cp.simulate_coupled(cfg, bm)
        assert path.coupled
        tau = path.tau_index
        np.testing.assert_array_equal(
            path.primary.states[tau:], path.secondary.states[tau:]
        )

    def test_distance_monotone_under_zero_bound(self):
        # K = 0 and common noise: the distance never increases beyond one
        # step's quadratic drift correction
        clock = identity_clock(1.0, 500)
        model = sde.make_model("zero", dim=2)
        bm = pg.sample_timechanged_bm(clock, 2, pg.RngStream(5, purpose="mono"))
        cfg = cp.CouplingConfig(x=[0.7, 0.2], y=[-0.4, 0.0], model=model, clock=clock)
        path = cp.simulate_coupled(cfg, bm)
        gaps = np.linalg.norm(path.primary.states - path.secondary.states, axis=1)
        assert np.all(np.diff(gaps) <= 1e-10)

    def test_coupling_fraction_contractive_model(self):
        # OU with K = -1, h = 1e-3, delta = 1e-6: virtually every path couples
        model = sde.make_model("ou", dim=2, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 1000)
        law = pg.ClockLaw(bn.LinearBernstein())
        batch = cp.run_coupled_batch(
            model, [1.0, 0.0], [0.0, 0.0], grid, law, 10_000,
            pg.RngStream(6, purpose="fraction"), delta_couple=1e-6,
        )
        assert batch.coupling_fraction() >= 0.999


class TestGirsanovWeight:
    def test_zero_weight_for_equal_start(self):
        clock = identity_clock(1.0, 100)
        model = sde.make_model("zero", dim=1)
        bm = pg.sample_timechanged_bm(clock, 1, pg.RngStream(7, purpose="w0"))
        cfg = cp.CouplingConfig(x=[0.5], y=[0.5], model=model, clock=clock)
        path = cp.simulate_coupled(cfg, bm)
        assert cp.girsanov_weight(path, model.diffusion, clock, bm) == 0.0

    def test_recompute_matches_inline_accumulation(self):
        clock = identity_clock(1.0, 300)
        model = sde.make_model("ou", dim=2, rate=1.0)
        bm = pg.sample_timechanged_bm(clock, 2, pg.RngStream(8, purpose="wre"))
        cfg = cp.CouplingConfig(x=[1.0, 0.3], y=[0.0, -0.2], model=model, clock=clock, delta_couple=1e-6)
        path = cp.simulate_coupled(cfg, bm)
        recomputed = cp.girsanov_weight(path, model.diffusion, clock, bm)
        assert recomputed == pytest.approx(path.log_weight, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        clock = identity_clock(1.0, 100)
        other = identity_clock(1.0, 50)
        model = sde.make_model("zero", dim=1)
        bm = pg.sample_timechanged_bm(clock, 1, pg.RngStream(9, purpose="wmis"))
        cfg = cp.CouplingConfig(x=[1.0], y=[0.0], model=model, clock=clock)
        path = cp.simulate_coupled(cfg, bm)
        bm_other = pg.sample_timechanged_bm(other, 1, pg.RngStream(9, purpose="wmis2"))
        with pytest.raises(ValueError, match="mismatch"):
            cp.girsanov_weight(path, model.diffusion, clock, bm_other)

    def test_deterministic_case_mean_log_weight(self):
        # |eta| = 1 throughout, so E[log R] = -|x-y|^2 / (2T) = -1/2
        model = sde.make_model("zero", dim=1)
        grid = pg.TimeGrid.uniform(1.0, 500)
        law = pg.ClockLaw(bn.LinearBernstein())
        batch = cp.run_coupled_batch(
            model, [1.0], [0.0], grid, law, 50_000,
            pg.RngStream(10, purpose="logw"), delta_couple=1e-6,
        )
        mean = batch.log_weights.mean()
        se = batch.log_weights.std(ddof=1) / math.sqrt(batch.n_paths)
        assert abs(mean - (-0.5)) < 3.0 * se

    @pytest.mark.parametrize(
        "model_name,clock,method",
        [
            ("ou", bn.LinearBernstein(), "euler"),
            ("ou", bn.StableBernstein(0.75), "euler"),
            ("double_well", bn.LinearBernstein(), "euler"),
            ("double_well", bn.GammaBernstein(4.0, 4.0), "semi_implicit"),
            ("rotating", bn.StableBernstein(0.6), "euler"),
        ],
        ids=["ou-linear", "ou-stable", "dw-linear", "dw-gamma", "rot-stable"],
    )
    def test_weight_normalization_across_zoo(self, model_name, clock, method):
        # superlinear drifts under jump clocks use the semi-implicit drift
        # step: the explicit step can overshoot after a large noise kick
        model = sde.make_model(model_name, dim=2)
        grid = pg.TimeGrid.uniform(1.0, 400)
        law = pg.ClockLaw(clock, epsilon=0.05)
        batch = cp.run_coupled_batch(
            model, [1.0, 0.0], [0.0, 0.0], grid, law, 20_000,
            pg.RngStream(11, purpose=f"er-{model_name}-{type(clock).__name__}"),
            delta_couple=1e-6, method=method,
        )
        est = batch.weight_normalization()
        assert abs(est.mean - 1.0) < 3.0 * est.stderr

    def test_weight_variance_stays_bounded(self):
        # sample variance of R under a heavy-jump clock settles as N grows
        model = sde.make_model("ou", dim=1, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 300)
        law = pg.ClockLaw(bn.StableBernstein(0.75), epsilon=0.05)
        variances = []
        for n in (5000, 20_000, 80_000):
            batch = cp.run_coupled_batch(
                model, [1.0], [0.0], grid, law, n,
                pg.RngStream(12, purpose="var"), delta_couple=1e-6,
            )
            variances.append(batch.weights().var(ddof=1))
        assert max(variances) < 5.0
        assert abs(variances[-1] - variances[-2]) < 0.5

    def test_entropy_identity_isotropic_tight_bound(self):
        # linear drift with an exact one-sided bound and sigma = I: the
        # realized cost matches lambda^2 |x-y|^2 / (2 D) path by path in
        # expectation (equality case of the entropy bound)
        model = sde.make_model("ou", dim=2, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 1000)
        for clock in (bn.LinearBernstein(), bn.StableBernstein(0.75)):
            law = pg.ClockLaw(clock, epsilon=0.05)
            batch = cp.run_coupled_batch(
                model, [1.0, 0.0], [0.0, 0.0], grid, law, 50_000,
                pg.RngStream(13, purpose=f"ent-{type(clock).__name__}"), delta_couple=1e-6,
            )
            paired = batch.weights() * batch.log_weights - 1.0 / (2.0 * batch.denominators)
            mean = paired.mean()
            se = paired.std(ddof=1) / math.sqrt(paired.size)
            assert abs(mean) < 3.0 * se + 5e-3


class TestTransferIdentity:
    def test_constant_observable_reduces_to_normalization(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 300)
        law = pg.ClockLaw(bn.LinearBernstein())
        a, b = cp.harnack_transfer_check(
            lambda z: np.ones(z.shape[0]), model, [1.0], [0.0], grid, law, 20_000,
            pg.RngStream(14, purpose="tconst"),
        )
        assert b.mean == 1.0 and b.stderr == 0.0
        assert abs(a.mean - 1.0) < 3.0 * a.stderr

    def test_equal_start_two_estimators_agree(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 300)
        law = pg.ClockLaw(bn.LinearBernstein())
        f = lambda z: np.exp(-np.einsum("ij,ij->i", z, z))
        a, b = cp.harnack_transfer_check(
            f, model, [0.5], [0.5], grid, law, 20_000, pg.RngStream(15, purpose="teq")
        )
        assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)

    def test_ou_bump_distinct_points(self):
        model = sde.make_model("ou", dim=2, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 500)
        law = pg.ClockLaw(bn.LinearBernstein())
        f = lambda z: np.exp(-np.einsum("ij,ij->i", z, z))
        a, b = cp.harnack_transfer_check(
            f, model, [0.0, 0.0], [1.0, 0.0], grid, law, 50_000,
            pg.RngStream(16, purpose="tou"),
        )
        h = 1.0 / 500
        assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr) + 5.0 * h

    def test_minimum_path_count_enforced(self):
        model = sde.make_model("zero", dim=1)
        grid = pg.TimeGrid.uniform(1.0, 10)
        law = pg.ClockLaw(bn.LinearBernstein())
        with pytest.raises(ValueError, match="1000"):
            cp.harnack_transfer_check(
                lambda z: np.ones(z.shape[0]), model, [1.0], [0.0], grid, law, 100,
                pg.RngStream(17, purpose="tsmall"),
            )


class TestBatchDiagnostics:
    def test_tau_times_and_masks(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 200)
        law = pg.ClockLaw(bn.LinearBernstein())
        batch = cp.run_coupled_batch(
            model, [1.0], [0.0], grid, law, 500, pg.RngStream(18, purpose="diag"),
            delta_couple=1e-6,
        )
        tau = batch.tau_times()
        mask = batch.coupled_mask
        assert np.all(np.isfinite(tau[mask]))
        assert np.all(np.isnan(tau[~mask]))
        assert np.all(tau[mask] <= 1.0 + 1e-12)

    def test_worker_invariance(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 100)
        law = pg.ClockLaw(bn.StableBernstein(0.6), epsilon=0.05)
        runs = [
            cp.run_coupled_batch(
                model, [1.0], [0.0], grid, law, CHUNK_SIZE + 17,
                pg.RngStream(19, purpose="cw"), delta_couple=1e-6, workers=w,
            )
            for w in (1, 3)
        ]
        assert np.array_equal(runs[0].log_weights, runs[1].log_weights)
        assert np.array_equal(runs[0].x_terminal, runs[1].x_terminal)


def _galerkin_terminals(workers):
    model = gk.SemilinearModel(
        spectrum=gk.SpectrumModel.from_power_law(8, 2.0),
        force=lambda t, x: -x / (1.0 + np.sum(x * x, axis=-1, keepdims=True)),
        force_lipschitz=lambda t: 9.0 / 8.0,
        sigma_diag=1.0,
    )
    return (sde.terminal_states(
        model, np.r_[1.0, np.zeros(7)], pg.TimeGrid.uniform(1.0, 20),
        pg.ClockLaw(bn.StableBernstein(0.75)), CHUNK_SIZE + 17,
        pg.RngStream(40, purpose="wi-galerkin"), workers=workers,
    ),)


def _transfer_estimates(workers):
    ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t]), 1)
    model = sde.make_model("double_well", dim=1, perturbation=ramp)
    a, b = cp.harnack_transfer_check(
        lambda z: np.sin(z[:, 0]), model, [1.0], [0.0], pg.TimeGrid.uniform(1.0, 20),
        pg.ClockLaw(bn.GammaBernstein(4.0, 4.0)), CHUNK_SIZE + 17,
        pg.RngStream(41, purpose="wi-transfer"), delta_couple=1e-6, workers=workers,
        method="semi_implicit",
    )
    return np.array([a.mean, a.stderr, b.mean, b.stderr]),


def _rate_constant(workers):
    result = ct.harnack_rate_constant(
        sde.make_model("ou", dim=2), pg.ClockLaw(bn.StableBernstein(0.75)), 1.0,
        t_grid=[0.25, 0.5, 1.0], n_paths=CHUNK_SIZE + 17,
        stream=pg.RngStream(42, purpose="wi-rate"), workers=workers, resolution=16,
    )
    return np.array([(e.mean, e.stderr) for e in result.per_t]), result.per_t_infinite


def _stable_rate(workers):
    fit = ct.stable_rate_check(
        0.75, sde.make_model("zero", dim=1), [0.1, 0.2, 0.4, 0.8], CHUNK_SIZE + 17,
        pg.RngStream(43, purpose="wi-stable"), workers=workers,
    )
    return fit.measured, fit.measured_stderr


@pytest.mark.parametrize(
    "run", [_galerkin_terminals, _transfer_estimates, _rate_constant, _stable_rate],
    ids=["galerkin-terminals", "transfer", "rate-constant", "stable-rate"],
)
def test_chunked_paths_worker_invariance(run):
    # more paths than one chunk, so two workers really split the work
    single, double = run(1), run(2)
    assert all(np.array_equal(a, b) for a, b in zip(single, double))
