import math
import tracemalloc

import numpy as np
import pytest

from subharnack import bernstein as bn
from subharnack import certify as ct
from subharnack import coupling as cp
from subharnack import galerkin as gk
from subharnack import pathgen as pg
from subharnack import sde
from subharnack.parallel import CHUNK_SIZE
from subharnack.stats import MCEstimate
from test_sde import STEPPER_CASES


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

    @pytest.mark.parametrize("k", [1.0, -1.0, -30.0, -300.0])
    @pytest.mark.parametrize("bf", [bn.LinearBernstein(), bn.StableBernstein(0.75)], ids=["linear", "stable"])
    def test_scaled_decay_keeps_every_bit(self, k, bf):
        # the power-of-two scaling of exp(-k_cum) and the row-blocked
        # Stieltjes sum give the bits of the plain formulas, on row-major
        # (linear) and column-major (regularized) clocks over several blocks
        grid = pg.TimeGrid.uniform(1.0, 40)
        clock = pg.ClockLaw(bf).sample_coupling(grid, pg.RngStream(38).generator(), 3000)
        profile, denominator = cp.xi_profile(1.5, lambda s: k, grid, clock)
        decay = np.exp(-cp.clock_decay(lambda s: k, grid.times)[0])
        reference = np.sum(decay[:-1] ** 2 * np.diff(clock, axis=1), axis=-1)
        assert np.array_equal(denominator, reference)
        assert np.array_equal(profile, 1.5 * decay[:-1] / reference[:, None])

    def test_overflowing_denominator_keeps_the_drift(self):
        # K = -400: sum exp(800 t_j) h overflows, so the denominator reads
        # inf, while xi keeps its value exp(400 t - log D) from the closed
        # geometric sum log D = 800 + log h - log(e^{800 h} - 1)
        steps = 1000
        h = 1.0 / steps
        grid = pg.TimeGrid.uniform(1.0, steps)
        profile, denominator = cp.xi_profile(1.0, lambda s: -400.0, grid, grid.times)
        assert denominator == np.inf
        log_d = 800.0 + math.log(h) - math.log(math.expm1(800.0 * h))
        expected = np.exp(400.0 * grid.times[-3:-1] - log_d)
        assert profile[-2:] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_decay_is_scaled_before_exp(self):
        # ou at rate 4096: -int K reaches 4096, far past exp's range at 709
        grid = pg.TimeGrid.uniform(1.0, 1000)
        k_cum, decay, _ = cp.clock_decay(lambda s: -4096.0, grid.times)
        assert 1.0 <= decay.max() < 2.0
        assert decay[-2] / decay[-1] == pytest.approx(math.exp(-4096.0 / 1000), rel=1e-9)
        profile, denominator = cp.xi_profile(1.0, lambda s: -4096.0, grid, grid.times)
        assert np.all(np.isfinite(profile)) and denominator == np.inf

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


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_denominator_still_steers(self):
        # ou at rate 400 on a linear clock: exp(-2 int K) reaches e^800, so
        # the unscaled denominator overflowed and xi read 0; the tiny noise
        # and threshold keep the pair apart until the drift acts near T
        grid = pg.TimeGrid.uniform(1.0, 1000)
        model = sde.make_model("ou", rate=400.0, sigma_scale=1e-100)
        batch = cp.run_coupled_batch(
            model, [1.0], [0.0], grid, pg.ClockLaw(bn.LinearBernstein()), 2000,
            pg.RngStream(39, purpose="overflow"), delta_couple=1e-300,
        )
        assert np.all(np.isinf(batch.denominators))
        assert np.any(batch.eta_sq > 0)
        est = batch.weight_normalization()
        assert abs(est.mean - 1.0) <= 4.0 * est.stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_decay_couples_by_contraction(self):
        # ou at rate 4096 on a linear clock: exp(-int K) itself overflowed and
        # raised; now the steering underflows to 0 and contraction couples
        # the pair under the resolvent step
        grid = pg.TimeGrid.uniform(1.0, 1000)
        batch = cp.run_coupled_batch(
            sde.make_model("ou", rate=4096.0), [1.0], [0.0], grid,
            pg.ClockLaw(bn.LinearBernstein()), 2000, pg.RngStream(3), method="semi_implicit",
        )
        assert np.all(np.isfinite(batch.log_weights))
        assert batch.coupling_fraction() >= 0.99
        assert batch.weight_normalization().mean == 1.0


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

    @staticmethod
    def _dw_ramp():
        ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t]), 1)
        model = sde.make_model("double_well", dim=1, perturbation=ramp)
        return model, pg.TimeGrid.uniform(1.0, 20), pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=0.05)

    def test_reweighted_side_is_the_coupled_batch(self):
        model, grid, law = self._dw_ramp()
        stream = pg.RngStream(44, purpose="tbatch")
        a, _ = cp.harnack_transfer_check(
            lambda z: np.sin(z[:, 0]), model, [1.0], [0.0], grid, law, 3000, stream,
            delta_couple=1e-6, method="semi_implicit",
        )
        batch = cp.run_coupled_batch(
            model, [1.0], [0.0], grid, law, 3000, stream.child(purpose="tbatch-coupled"),
            delta_couple=1e-6, method="semi_implicit",
        )
        ref = MCEstimate.from_samples(batch.weights() * np.sin(batch.x_terminal[:, 0]))
        assert (a.mean, a.stderr) == (ref.mean, ref.stderr)

    def test_direct_side_steps_each_chunks_own_clock(self):
        # B replays plain stepping from y on the coupled chunk's clock, with
        # noise from the generator spawned from the chunk's, over two chunks
        model, grid, law = self._dw_ramp()
        stream = pg.RngStream(45, purpose="tdirect")
        n = CHUNK_SIZE + 300
        calls = []

        def f(z):
            calls.append(z.copy())
            return np.sin(z[:, 0])

        cp.harnack_transfer_check(
            f, model, [1.0], [0.0], grid, law, n, stream,
            delta_couple=1e-6, method="semi_implicit",
        )
        replay = []
        for chunk, count in enumerate((CHUNK_SIZE, 300)):
            gen = stream.child(purpose="tdirect-coupled").child(replicate=chunk).generator()
            dw = pg.bm_increments(law.sample_coupling(grid, gen, count), 1, gen.spawn(1)[0])
            replay.append(sde.euler_steps(model, np.zeros((count, 1)), grid, dw, method="semi_implicit"))
        assert len(calls) == 2
        assert np.array_equal(calls[1], np.concatenate(replay))

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

    def test_worker_invariance(self, two_cpus):
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


def _reference_core(model, x, y, grid, d_clock, dw, delta, keep_path=False, method="euler"):
    """The coupled stepper before met pairs left it, kept as the oracle.

    Every row runs the whole pair update up to the horizon; a met row is
    masked out of the steering and has Y pasted to X after every step.
    ``cp._coupled_core`` must return the same bits.
    """
    times = grid.times
    h = grid.step_sizes
    n_steps = grid.n_steps
    n = dw.shape[0]
    dim = model.dim

    dist0 = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    _, decay, (xi_den, denominator) = cp.clock_decay(model.k_bound, times, d_clock)  # each (n,)

    dv_steps = np.diff(model.perturbation.values_on(grid), axis=0)
    X = np.array(np.broadcast_to(np.asarray(x, dtype=float), (n, dim)), order="F")
    Y = np.array(np.broadcast_to(np.asarray(y, dtype=float), (n, dim)), order="F")
    log_weight = np.zeros(n)
    eta_sq = np.zeros(n)
    rates = np.zeros((n, n_steps)) if keep_path else None
    tau_idx = np.full(n, -1, dtype=np.int64)
    coupled = np.zeros(n, dtype=bool)
    if dist0 <= delta:
        coupled[:] = True
        tau_idx[:] = 0
    hist_x = [X.copy()] if keep_path else None
    hist_y = [Y.copy()] if keep_path else None

    for i in range(n_steps):
        t, hi = times[i], h[i]
        dl = d_clock[:, i]
        noise = model.diffusion.apply(t, dw[:, i, :])
        dv = dv_steps[i]

        active = ~coupled
        diff = X - Y
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        mask = (dist > 0) & active
        unit = np.where(mask[:, None], diff / np.where(mask, dist, 1.0)[:, None], 0.0)

        # states after the drift step but before the common noise; the
        # clipping distance is measurable without peeking at the increment
        x_drifted = model.drift_step(t, hi, X, method)
        y_drifted = model.drift_step(t, hi, Y, method)

        xi_i = dist0 * decay[i] / xi_den  # (n,)
        drift_gap = x_drifted - y_drifted
        after_common = np.sqrt(np.einsum("ij,ij->i", drift_gap, drift_gap))
        magnitude = np.where(active, np.minimum(xi_i * dl, after_common), 0.0)
        rate = magnitude / dl
        eta = rate[:, None] * model.diffusion.apply_inverse(t, unit)
        eta_norm_sq = np.einsum("ij,ij->i", eta, eta)
        log_weight -= np.einsum("ij,ij->i", eta, dw[:, i, :]) + 0.5 * eta_norm_sq * dl
        eta_sq += eta_norm_sq * dl
        if keep_path:
            rates[:, i] = rate

        X = x_drifted + noise + dv
        Y = y_drifted + noise + dv + magnitude[:, None] * unit
        gap = X - Y
        new_dist = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        just_coupled = active & (new_dist <= delta)
        tau_idx[just_coupled] = i + 1
        coupled |= just_coupled
        np.copyto(Y, X, where=coupled[:, None])

        sde._check_states(i, X, Y)
        if keep_path:
            hist_x.append(X.copy())
            hist_y.append(Y.copy())

    out = {
        "x_terminal": X,
        "y_terminal": Y,
        "tau_index": tau_idx,
        "log_weight": log_weight,
        "eta_sq": eta_sq,
        "denominator": denominator,
    }
    if keep_path:
        out["path_x"] = np.stack(hist_x, axis=1)
        out["path_y"] = np.stack(hist_y, axis=1)
        out["rates"] = rates
    return out


def _batch_outputs(batch):
    return (batch.x_terminal, batch.y_terminal, batch.tau_indices, batch.log_weights,
            batch.eta_sq, batch.denominators)


@pytest.mark.usefixtures("two_cpus")
class TestWorkingSet:
    """Met pairs leave the coupled step; the outputs keep every bit."""

    @staticmethod
    def run(monkeypatch, model, x, y, law, steps=20, delta=1e-6, method="euler", seed=44):
        # the oracle is a run_coupled_batch call with the reference stepper
        # in place, over two chunks; the stepper must match it at 1 and 2
        # workers
        args = (model, x, y, pg.TimeGrid.uniform(1.0, steps), law, CHUNK_SIZE + 17,
                pg.RngStream(seed, purpose="working-set"))
        with monkeypatch.context() as patch:
            patch.setattr(cp, "_coupled_core", _reference_core)
            ref = cp.run_coupled_batch(*args, delta_couple=delta, method=method)
        for workers in (1, 2):
            run = cp.run_coupled_batch(*args, delta_couple=delta, workers=workers, method=method)
            for name, a, b in zip(("x", "y", "tau", "log_weight", "eta_sq", "denominator"),
                                  _batch_outputs(ref), _batch_outputs(run)):
                assert np.array_equal(a, b), name
                assert a.flags.f_contiguous == b.flags.f_contiguous, name
        return ref

    @STEPPER_CASES
    def test_zoo_steppers(self, monkeypatch, case):
        build, method = case
        model = build()
        x = np.zeros(model.dim)
        x[0] = 1.0
        y = np.zeros(model.dim)
        y[-1] = -0.3
        ref = self.run(monkeypatch, model, x, y, pg.ClockLaw(bn.StableBernstein(0.75), epsilon=0.05), method=method)
        assert np.any(ref.coupled_mask)

    def test_start_within_delta(self, monkeypatch):
        model = sde.make_model("ou", dim=2)
        ref = self.run(monkeypatch, model, [1.0, 0.0], [1.0 + 1e-8, 0.0], pg.ClockLaw(bn.StableBernstein(0.75)))
        assert np.all(ref.tau_indices == 0)
        assert np.array_equal(ref.x_terminal, ref.y_terminal)

    def test_never_meet(self, monkeypatch):
        # the bound K = 0 understates the expanding drift 5x, so the steering
        # (at most |x - y| in all) loses to a gap that grows by e^5
        model = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: 5.0 * x, one_sided_bound=lambda t: 0.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(1),
        )
        ref = self.run(monkeypatch, model, [1.0], [0.0], pg.ClockLaw(bn.LinearBernstein()))
        assert np.all(ref.tau_indices == -1)

    def test_working_set_halves_twice(self, monkeypatch):
        # the transfer-dw-gamma model and clock: no step meets a tenth of
        # the first chunk's pairs and nine tenths meet, so its working set
        # first halves with more than 0.4 n rows left, and again later
        ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t]), 1)
        model = sde.make_model("double_well", dim=1, perturbation=ramp)
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=0.05)
        ref = self.run(monkeypatch, model, [1.0], [0.0], law, steps=40, method="semi_implicit")
        first = ref.tau_indices[:CHUNK_SIZE]
        assert np.mean(first >= 0) >= 0.9
        assert np.bincount(first[first >= 0]).max() < CHUNK_SIZE / 10

    @pytest.mark.parametrize("modes, n_paths, seed", [(16, 40, 2), (64, 8, 0)])
    def test_wide_truncation_keeps_two_rows(self, modes, n_paths, seed):
        # reductions over 16 or 64 coordinates of a lone row take another
        # summation order than over a column-major batch; on these draws a
        # working set of one row would change the log weight
        model = gk.SemilinearModel(
            spectrum=gk.SpectrumModel.from_power_law(modes, 2.0),
            force=lambda t, x: np.sin(x),
            force_lipschitz=lambda t: 1.0,
            sigma_diag=np.linspace(1.0, 2.0, modes),
        )
        grid = pg.TimeGrid.uniform(1.0, 20)
        gen = pg.RngStream(seed, purpose="wide").generator()
        x = gen.standard_normal(modes)
        y = x + 0.3 * gen.standard_normal(modes)
        clock = pg.ClockLaw(bn.StableBernstein(0.75)).sample_coupling(grid, gen, n_paths)
        d_clock, dw = cp._coupling_noise(clock, modes, gen)
        for keep_path in (False, True):
            ref = _reference_core(model, x, y, grid, d_clock, dw, 1e-6, keep_path=keep_path)
            run = cp._coupled_core(model, x, y, grid, d_clock, dw, 1e-6, keep_path=keep_path)
            assert ref.keys() == run.keys()
            for key in ref:
                assert np.array_equal(ref[key], run[key]), key
        assert np.mean(ref["tau_index"] >= 0) >= 0.8

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_failed_rows_count_both_sides(self):
        # under the drift 1e6 x^3, Y from y = 1 leaves the state bound at
        # step 3 while X from 0 stays put, except in the row whose kick of
        # -20001 swaps the two; n_failed counts the rows of both sides
        model = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: x**3 * 1e6, one_sided_bound=lambda t: 0.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(1),
        )
        grid = pg.TimeGrid.uniform(1.0, 50)
        kicks = np.array([0.0, 100.0, -100.0, -20001.0, 1e-3])
        dw = np.zeros((kicks.size, grid.n_steps, 1))
        dw[:, 0, 0] = kicks
        d_clock = np.tile(grid.step_sizes, (kicks.size, 1))
        errors = []
        for core in (_reference_core, cp._coupled_core):
            with pytest.raises(sde.IntegrationError) as err:
                core(model, [0.0], [1.0], grid, d_clock, dw, 1e-9)
            errors.append((err.value.step_index, err.value.n_failed))
        assert errors[0] == errors[1] == (3, kicks.size)

    @pytest.mark.parametrize("x, y", [([1.0, 0.5], [-0.5, 0.2]), ([1.0, 0.5], [1.0, 0.5 + 1e-9])], ids=["apart", "within-delta"])
    def test_simulate_coupled(self, x, y):
        clock = identity_clock(1.0, 200)
        model = sde.make_model("rotating", dim=2)
        bm = pg.sample_timechanged_bm(clock, 2, pg.RngStream(46, purpose="single"))
        cfg = cp.CouplingConfig(x=x, y=y, model=model, clock=clock, delta_couple=1e-6)
        path = cp.simulate_coupled(cfg, bm)
        ref = _reference_core(model, cfg.x, cfg.y, clock.grid, np.diff(clock.values)[None, :],
                              bm.increments[None, :, :], 1e-6, keep_path=True)
        assert np.array_equal(path.primary.states, ref["path_x"][0])
        assert np.array_equal(path.secondary.states, ref["path_y"][0])
        assert np.array_equal(path.applied_rates, ref["rates"][0])
        assert path.log_weight == ref["log_weight"][0]
        assert path.eta_sq_integral == ref["eta_sq"][0]
        assert (path.tau_index if path.coupled else -1) == ref["tau_index"][0]


class TestCoupledStepping:
    @pytest.mark.parametrize("name", ["ou", "rotating"])
    def test_increment_layout_changes_no_bit(self, name):
        model = sde.make_model(name, dim=2)
        grid = pg.TimeGrid.uniform(1.0, 40)
        gen = pg.RngStream(36, purpose="layout").generator()
        clock = pg.ClockLaw(bn.StableBernstein(0.75)).sample_coupling(grid, gen, 300)
        d_clock = np.diff(clock, axis=1)
        dw = pg.bm_increments(clock, 2, gen)
        runs = [
            cp._coupled_core(model, [1.0, 0.5], [-0.5, 0.2], grid, d_clock, noise, 1e-6, keep_path=True)
            for noise in (dw, np.ascontiguousarray(dw))
        ]
        for key in runs[0]:
            assert np.array_equal(runs[0][key], runs[1][key]), key
        coupled = runs[0]["tau_index"] >= 0
        assert np.any(coupled)
        assert np.array_equal(runs[0]["x_terminal"][coupled], runs[0]["y_terminal"][coupled])

    @pytest.mark.parametrize("bf", [bn.LinearBernstein(), bn.StableBernstein(0.75)], ids=["linear", "stable"])
    def test_chunk_matches_the_plain_pipeline(self, bf):
        # a chunk differences its clock in place once the noise is drawn;
        # np.diff on the same draws is the oracle, for row-major (linear)
        # and column-major (regularized) clocks
        model = sde.make_model("ou", dim=2)
        grid = pg.TimeGrid.uniform(1.0, 40)
        law = pg.ClockLaw(bf)
        stream = pg.RngStream(37, purpose="chunk")
        gen = stream.child(replicate=0).generator()
        clock = law.sample_coupling(grid, gen, 3000)
        dw = pg.bm_increments(clock, 2, gen)
        ref = cp._coupled_core(model, [1.0, 0.5], [-0.5, 0.2], grid, np.diff(clock, axis=1), dw, 1e-6)
        batch = cp.run_coupled_batch(model, [1.0, 0.5], [-0.5, 0.2], grid, law, 3000, stream, delta_couple=1e-6)
        for key, value in (
            ("log_weight", batch.log_weights), ("tau_index", batch.tau_indices),
            ("x_terminal", batch.x_terminal), ("y_terminal", batch.y_terminal),
            ("eta_sq", batch.eta_sq), ("denominator", batch.denominators),
        ):
            assert np.array_equal(ref[key], value), key

    def test_chunk_holds_its_clock_and_noise_only(self):
        # the transfer-dw-gamma chunk: its clock and noise take 16 MB each;
        # the unblocked pipeline peaked at 94 MiB
        ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t]), 1)
        model = sde.make_model("double_well", dim=1, perturbation=ramp)
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=0.05)
        tracemalloc.start()
        try:
            cp.run_coupled_batch(
                model, [1.0], [0.0], pg.TimeGrid.uniform(1.0, 250), law, CHUNK_SIZE,
                pg.RngStream(40, purpose="peak"), delta_couple=1e-6, method="semi_implicit",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_integration_error_counts_failed_paths(self):
        # shared kicks at step 2 of different sizes make rows overflow at
        # different steps; each row run alone is the oracle
        model = sde.SdeModel(
            dim=2,
            drift=sde.DriftModel(func=lambda t, x: x**3 * 1e6, one_sided_bound=lambda t: 0.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(2),
        )
        grid = pg.TimeGrid.uniform(1.0, 50)
        kicks = np.array([
            [10.0, 0.0], [0.0, 0.0], [10.0, 10.0], [0.01, 0.0], [0.0, 3.0],
            [1.0, 0.0], [0.0, 0.02], [0.0, 0.0],
        ])
        dw = np.zeros((len(kicks), grid.n_steps, 2))
        dw[:, 2, :] = kicks
        d_clock = np.tile(grid.step_sizes, (len(kicks), 1))
        args = ([1e-3, 0.0], [0.0, 0.0], grid)
        first = np.full(len(kicks), grid.n_steps)
        for row in range(len(kicks)):
            try:
                cp._coupled_core(model, *args, d_clock[row:row + 1], dw[row:row + 1], 1e-9)
            except sde.IntegrationError as exc:
                assert exc.n_failed == 1
                first[row] = exc.step_index
        step = int(first.min())
        expected = int((first == step).sum())
        assert 1 < expected < len(kicks) - 2
        with pytest.raises(sde.IntegrationError) as err:
            cp._coupled_core(model, *args, d_clock, dw, 1e-9)
        assert err.value.step_index == step
        assert err.value.n_failed == expected

    def test_stiff_step_raises_while_finite(self):
        # a valid but loose bound K = 0 keeps the clock decay finite; the
        # explicit step multiplies the gap by -15.4 per step, so the states
        # pass the bound near step 126 while still finite
        model = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: -4096.0 * x, one_sided_bound=lambda t: 0.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(1),
        )
        grid = pg.TimeGrid.uniform(1.0, 250)
        law = pg.ClockLaw(bn.LinearBernstein())
        with pytest.raises(sde.IntegrationError, match="1e\\+150") as err:
            cp.run_coupled_batch(model, [1.0], [0.0], grid, law, 64, pg.RngStream(1))
        assert 120 <= err.value.step_index <= 132
        assert err.value.n_failed == 64


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
def test_chunked_paths_worker_invariance(two_cpus, run):
    # more paths than one chunk, so two workers really split the work
    single, double = run(1), run(2)
    assert all(np.array_equal(a, b) for a, b in zip(single, double))
