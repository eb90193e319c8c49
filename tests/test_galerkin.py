import math
import warnings

import numpy as np
import pytest

from subharnack import bernstein as bn
from subharnack import coupling as cp
from subharnack import galerkin as gk
from subharnack import pathgen as pg
from subharnack import sde
from subharnack.observables import get_observable


def diagonal_model(eigenvalues, sigma=1.0, force=None, lipschitz=0.0):
    force = force or (lambda t, x: np.zeros_like(x))
    return gk.SemilinearModel(
        spectrum=gk.SpectrumModel(eigenvalues=np.asarray(eigenvalues, dtype=float)),
        force=force,
        force_lipschitz=(lipschitz if callable(lipschitz) else (lambda t, _k=lipschitz: _k)),
        sigma_diag=sigma,
    )


def validate_force_lipschitz(model, t_points=(0.0, 0.5, 1.0), n_probes=1000, seed=0, tol=1e-10, box=3.0):
    """Probe |F_s(x) - F_s(y)| <= K_s |x - y| on random pairs."""
    gen = np.random.default_rng(seed)
    n = model.dim
    for t in t_points:
        k_t = model.force_lipschitz(t)
        x = gen.uniform(-box, box, size=(n_probes, n))
        y = gen.uniform(-box, box, size=(n_probes, n))
        gap = np.linalg.norm(
            np.asarray(model.force(t, x)) - np.asarray(model.force(t, y)), axis=1
        )
        dist = np.linalg.norm(x - y, axis=1)
        if np.any(gap > k_t * dist + tol):
            raise ValueError(f"forcing Lipschitz bound violated at t={t}")


class TestSpectrumModel:
    def test_power_law_values(self):
        spec = gk.SpectrumModel.from_power_law(4, 2.0)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 4.0, 9.0, 16.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            gk.SpectrumModel(eigenvalues=np.array([2.0, 1.0]))

    def test_series_convergence_flag(self):
        assert gk.SpectrumModel.from_power_law(8, 2.0).hs_series_converges() is True
        assert gk.SpectrumModel.from_power_law(8, 1.0).hs_series_converges() is False
        assert gk.SpectrumModel(eigenvalues=np.array([1.0, 2.0])).hs_series_converges() is None


class TestSemilinearModel:
    def test_non_diagonal_sigma_rejected(self):
        with pytest.raises(ValueError, match="unsupported configuration"):
            gk.SemilinearModel(
                spectrum=gk.SpectrumModel.from_power_law(2, 1.0),
                force=lambda t, x: np.zeros_like(x),
                force_lipschitz=lambda t: 0.0,
                sigma_diag=np.eye(2),
            )

    def test_perturbation_of_another_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="perturbation dimension 3 does not match the mode count 2"):
            gk.SemilinearModel(
                spectrum=gk.SpectrumModel.from_power_law(2, 1.0),
                force=lambda t, x: np.zeros_like(x),
                force_lipschitz=lambda t: 0.0,
                sigma_diag=1.0,
                perturbation=sde.PerturbationModel.zero(3),
            )

    def test_exp_a_reads_its_own_coordinates_of_wider_states(self):
        # the observable of the lowest level meets the states of every level
        z = np.random.default_rng(5).standard_normal((50, 4))
        np.testing.assert_array_equal(get_observable("exp_a", 2)(z), np.exp(z[:, 0]))

    def test_zero_sigma_entry_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            gk.SemilinearModel(
                spectrum=gk.SpectrumModel.from_power_law(2, 1.0),
                force=lambda t, x: np.zeros_like(x),
                force_lipschitz=lambda t: 0.0,
                sigma_diag=np.array([1.0, 0.0]),
            )

    def test_lipschitz_probe_validation(self):
        model = diagonal_model([1.0, 2.0], force=lambda t, x: -x / (1.0 + np.sum(x * x, axis=-1, keepdims=True)), lipschitz=9.0 / 8.0)
        validate_force_lipschitz(model)
        bad = diagonal_model([1.0, 2.0], force=lambda t, x: 3.0 * x, lipschitz=1.0)
        with pytest.raises(ValueError, match="Lipschitz"):
            validate_force_lipschitz(bad)

    def test_lambda_bound_from_diagonal(self):
        model = diagonal_model([1.0, 2.0, 3.0], sigma=np.array([0.5, 1.0, 2.0]))
        assert model.lambda_bound(0.0) == pytest.approx(2.0)


class TestStochasticConvolution:
    def test_zero_damping_reduces_to_time_changed_bm(self):
        grid = pg.TimeGrid.uniform(1.0, 100)
        clock = pg.sample_subordinator(bn.StableBernstein(0.75), grid, pg.RngStream(1, purpose="c"))
        bm = pg.sample_timechanged_bm(clock, 2, pg.RngStream(2, purpose="w"))
        # the stochastic convolution is the zero-force truncation started at 0
        traj = sde.integrate(np.zeros(2), diagonal_model([0.0, 0.0]), bm)
        walk = np.vstack([np.zeros((1, 2)), np.cumsum(bm.increments, axis=0)])
        np.testing.assert_allclose(traj.states, walk, atol=1e-12)

    def test_linear_clock_stationary_variance(self):
        # E|Y_1|^2 -> (1 - e^{-2})/2 for rho = 1 within O(h) + MC error
        grid = pg.TimeGrid.uniform(1.0, 500)
        model = diagonal_model([1.0])
        law = pg.ClockLaw(bn.LinearBernstein())
        finals = sde.terminal_states(model, [0.0], grid, law, 40_000, pg.RngStream(3, purpose="var"))
        sq = finals[:, 0] ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        target = (1.0 - math.exp(-2.0)) / 2.0
        assert abs(sq.mean() - target) < 3.0 * se + 2.0 / 500

    def test_stable_clock_paired_conditional_moment(self):
        # given the clock, |Y_T|^2 has conditional mean sum e^{-2 rho h (M-1-j)} dS_j;
        # the paired difference is mean zero even though the raw moment is heavy-tailed
        steps = 400
        grid = pg.TimeGrid.uniform(1.0, steps)
        model = diagonal_model([1.0])
        gen = pg.RngStream(4, purpose="pair").generator()
        clocks = pg.ClockLaw(bn.StableBernstein(0.75)).sample_raw(grid, gen, 20_000)
        db = pg.bm_increments(clocks, 1, gen)
        finals = sde.euler_steps(model, np.zeros((20_000, 1)), grid, db)
        h = 1.0 / steps
        damping = np.exp(-2.0 * h * np.arange(steps - 1, -1, -1))
        conditional = (np.diff(clocks, axis=1) * damping).sum(axis=1)
        paired = finals[:, 0] ** 2 - conditional
        se = paired.std(ddof=1) / math.sqrt(paired.size)
        assert abs(paired.mean()) < 3.0 * se

    def test_mode_monotonicity(self):
        # stationary variance decreases in the damping rate at fixed t
        grid = pg.TimeGrid.uniform(1.0, 300)
        model = diagonal_model([0.5, 1.0, 2.0, 4.0])
        law = pg.ClockLaw(bn.LinearBernstein())
        finals = sde.terminal_states(model, [0.0] * 4, grid, law, 40_000, pg.RngStream(5, purpose="mono"))
        variances = finals.var(axis=0, ddof=1)
        stderrs = np.sqrt(2.0 / finals.shape[0]) * variances  # var of chi-square mean
        for j in range(3):
            assert variances[j] > variances[j + 1] - 3.0 * math.hypot(stderrs[j], stderrs[j + 1])

    def test_stochastic_continuity_surrogate(self):
        # P(|Y_{t+h} - Y_t| > delta) decreases as h halves
        base_steps = 256
        grid = pg.TimeGrid.uniform(1.0, base_steps)
        model = diagonal_model([1.0])
        gen = pg.RngStream(6, purpose="cont").generator()
        clocks = pg.ClockLaw(bn.StableBernstein(0.75)).sample_raw(grid, gen, 30_000)
        db = pg.bm_increments(clocks, 1, gen)
        paths = sde.euler_steps(model, np.zeros((30_000, 1)), grid, db, keep_path=True)
        t_index = base_steps // 2
        probabilities = []
        for lag_steps in (64, 32, 16, 8):
            gap = np.abs(paths[:, t_index + lag_steps, 0] - paths[:, t_index, 0])
            probabilities.append((gap > 0.2).mean())
        assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))


class TestIntegrateMild:
    def test_pure_damping_exact(self):
        grid = pg.TimeGrid.uniform(1.0, 500)
        model = diagonal_model([1.0, 3.0])
        states = sde.euler_steps(model, np.array([[2.0, -1.0]]), grid, np.zeros((1, 500, 2)))
        np.testing.assert_allclose(
            states[0], [2.0 * math.exp(-1.0), -1.0 * math.exp(-3.0)], rtol=1e-12
        )

    def test_rho_zero_matches_plain_euler_bitwise(self):
        grid = pg.TimeGrid.uniform(1.0, 200)
        model = diagonal_model([0.0], force=lambda t, x: -x, lipschitz=1.0)
        gen = pg.RngStream(7, purpose="bit").generator()
        clock = pg.ClockLaw(bn.LinearBernstein()).sample_raw(grid, gen, 3)
        db = pg.bm_increments(clock, 1, gen)
        mild = sde.euler_steps(model, np.ones((3, 1)), grid, db)
        plain = sde.euler_steps(sde.make_model("ou", dim=1, rate=1.0), np.ones((3, 1)), grid, db)
        assert np.array_equal(mild, plain)

    def test_richardson_first_order(self):
        model4 = lambda: gk.SemilinearModel(
            spectrum=gk.SpectrumModel(eigenvalues=np.array([1.0, 2.0, 3.0, 4.0])),
            force=lambda t, x: -x / (1.0 + np.sum(x * x, axis=-1, keepdims=True)),
            force_lipschitz=lambda t: 9.0 / 8.0,
            sigma_diag=1.0,
        )
        results = []
        for steps in (100, 200, 400):
            grid = pg.TimeGrid.uniform(1.0, steps)
            states = sde.euler_steps(model4(), np.full((1, 4), 0.7), grid, np.zeros((1, steps, 4)))
            results.append(states[0])
        d1 = np.linalg.norm(results[0] - results[1])
        d2 = np.linalg.norm(results[1] - results[2])
        assert 1.5 < d1 / d2 < 2.6


class TestCouplingOnTruncatedSystem:
    def test_weight_normalization_mode_count_independent(self):
        law = pg.ClockLaw(bn.StableBernstein(0.75), epsilon=0.05)
        grid = pg.TimeGrid.uniform(1.0, 200)
        for n in (2, 8):
            model = gk.SemilinearModel(
                spectrum=gk.SpectrumModel.from_power_law(n, 2.0),
                force=lambda t, x: np.zeros_like(x),
                force_lipschitz=lambda t: 0.0,
                sigma_diag=1.0,
            )
            x = np.r_[1.0, np.zeros(n - 1)]
            batch = cp.run_coupled_batch(
                model, x, np.zeros(n), grid, law, 15_000,
                pg.RngStream(8, purpose=f"gk-{n}"), delta_couple=1e-6,
            )
            est = batch.weight_normalization()
            assert abs(est.mean - 1.0) < 3.0 * est.stderr, n

    def test_wide_truncation_stays_bounded(self):
        # 64 modes at h = 1/250 put rho_n h near 16: an explicit Euler step
        # there multiplies the top mode by about -15 per step (terminal
        # states near 1e296), while the exponential-Euler step damps it.
        # The stable clock's heavy tail alone puts single coordinates in
        # the hundreds at some seeds, hence the loose bound.
        n = 64
        model = gk.SemilinearModel(
            spectrum=gk.SpectrumModel.from_power_law(n, 2.0),
            force=lambda t, x: np.zeros_like(x),
            force_lipschitz=lambda t: 0.0,
            sigma_diag=1.0,
        )
        law = pg.ClockLaw(bn.StableBernstein(0.75), epsilon=0.05)
        x = np.r_[1.0, np.zeros(n - 1)]
        batch = cp.run_coupled_batch(
            model, x, np.zeros(n), pg.TimeGrid.uniform(1.0, 250), law, 2000,
            pg.RngStream(8, purpose="gk-wide"), delta_couple=1e-6,
        )
        assert np.max(np.abs(batch.x_terminal)) < 1e6
        assert np.max(np.abs(batch.y_terminal)) < 1e6
        est = batch.weight_normalization()
        assert abs(est.mean - 1.0) < 4.0 * est.stderr


class TestDimensionFreeCheck:
    @staticmethod
    def family(gamma_exp=2.0, force_kind="zero"):
        def build(n):
            if force_kind == "zero":
                force, lip = (lambda t, x: np.zeros_like(x)), (lambda t: 0.0)
            else:
                force, lip = (
                    lambda t, x: -x / (1.0 + np.sum(x * x, axis=-1, keepdims=True)),
                    lambda t: 9.0 / 8.0,
                )
            return gk.SemilinearModel(
                spectrum=gk.SpectrumModel.from_power_law(n, gamma_exp),
                force=force,
                force_lipschitz=lip,
                sigma_diag=1.0,
            )

        return build

    def test_flat_slack_across_dimensions(self):
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        f = get_observable("sin1", 4)
        result = gk.dimension_free_check(
            self.family(), f, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 120), (4, 16, 64), law, 6000,
            pg.RngStream(9, purpose="dimfree"),
        )
        assert all(r.verdict == "certified" for r in result.reports)
        constants = {r.params["cost_constant"] for r in result.reports}
        assert len(constants) == 1
        assert result.no_negative_trend
        assert result.dimension_free_label

    def test_equal_points_jensen_in_every_dimension(self):
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 1.0))
        f = get_observable("sin1", 2)
        result = gk.dimension_free_check(
            self.family(), f, [0.7], [0.7], pg.TimeGrid.uniform(1.0, 80), (2, 8), law, 4000,
            pg.RngStream(10, purpose="dimjensen"),
        )
        assert all(r.verdict == "certified" for r in result.reports)

    def test_decoupled_modes_first_coordinate_marginal(self):
        # with zero forcing the first coordinate never sees the extra modes
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        grid = pg.TimeGrid.uniform(1.0, 150)
        spectral = self.family(2.0)
        estimates = []
        for n, seed in ((4, 11), (64, 12)):
            model = spectral(n)
            x = np.r_[1.0, np.zeros(n - 1)]
            finals = sde.terminal_states(model, x, grid, law, 20_000, pg.RngStream(seed, purpose=f"marg-{n}"))
            values = 2.0 + np.sin(finals[:, 0])
            estimates.append((values.mean(), values.std(ddof=1) / math.sqrt(values.size)))
        (m1, s1), (m2, s2) = estimates
        assert abs(m1 - m2) < 3.0 * math.hypot(s1, s2)

    def test_divergent_spectrum_drops_label_with_warning(self):
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        f = get_observable("sin1", 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = gk.dimension_free_check(
                self.family(1.0), f, [0.0], [0.5], pg.TimeGrid.uniform(1.0, 50), (2, 4), law, 2000,
                pg.RngStream(13, purpose="dimwarn"),
            )
        assert not result.dimension_free_label
        assert any("diagnostic" in str(w.message) for w in caught)

    def test_non_cylinder_observable_rejected(self):
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        f = get_observable("capnorm", 4)
        with pytest.raises(ValueError, match="cylinder"):
            gk.dimension_free_check(
                self.family(), f, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 250), (4, 8), law, 2000,
                pg.RngStream(14, purpose="dimbad"),
            )

    def test_drift_bound_must_be_uniform(self):
        # rho_1 = 0 at n = 4 and 5 at n = 16: the n = 4 cost constant would
        # be reused where the n = 16 model's own is far smaller
        def build(n):
            return gk.SemilinearModel(
                spectrum=gk.SpectrumModel(np.r_[0.0 if n == 4 else 5.0, 5.0 + np.arange(1, n)]),
                force=lambda t, x: np.zeros_like(x),
                force_lipschitz=lambda t: 0.0,
                sigma_diag=1.0,
            )

        law = pg.ClockLaw(bn.StableBernstein(0.75))
        with pytest.raises(ValueError, match="drift bound K must be uniform"):
            gk.dimension_free_check(
                build, get_observable("sin1", 4), [0.0], [1.0], pg.TimeGrid.uniform(1.0, 50), (4, 16), law, 1000,
                pg.RngStream(16, purpose="dimk"),
            )

    def test_drift_bound_agreeing_at_zero_only_is_rejected(self):
        # K = 3 (n/4 - 1) t - 1 agrees across levels at t = 0 only; the n = 4
        # constant 0.387 must not stand in for the n = 16 model's own 3.10
        def build(n):
            return gk.SemilinearModel(
                spectrum=gk.SpectrumModel.from_power_law(n, 2.0),
                force=lambda t, x: np.zeros_like(x),
                force_lipschitz=lambda t: 3.0 * (n / 4.0 - 1.0) * t,
                sigma_diag=1.0,
            )

        law = pg.ClockLaw(bn.StableBernstein(0.75))
        with pytest.raises(ValueError, match="drift bound K must be uniform") as caught:
            gk.dimension_free_check(
                build, get_observable("sin1", 4), [0.0], [1.0], pg.TimeGrid.uniform(1.0, 60), (4, 16), law, 1000,
                pg.RngStream(17, purpose="dimk-late"),
            )
        assert "n = 4: 0.387418" in str(caught.value)
        assert "n = 16: 3.10033" in str(caught.value)

    def test_repeated_dims_rejected(self):
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        f = get_observable("sin1", 4)
        with pytest.raises(ValueError, match="distinct"):
            gk.dimension_free_check(
                self.family(), f, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 250), (4, 4), law, 2000,
                pg.RngStream(15, purpose="dimrepeat"),
            )
