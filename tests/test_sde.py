import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subharnack import bernstein as bn
from subharnack import galerkin as gk
from subharnack import pathgen as pg
from subharnack import sde
from subharnack.observables import get_observable
from subharnack.parallel import CHUNK_SIZE


def zero_noise(grid, dim=1):
    return pg.TimeChangedBMPath(grid=grid, dimension=dim, increments=np.zeros((grid.n_steps, dim)))


def validate_one_sided_bound(drift, dim, t_points=(0.0, 0.5, 1.0), n_probes=1000, seed=0, tol=1e-10, box=3.0):
    """Check <b(x)-b(y), x-y> <= K_t |x-y|^2 on randomized probe pairs."""
    gen = np.random.default_rng(seed)
    for t in t_points:
        k_t = drift.one_sided_bound(t)
        x = gen.uniform(-box, box, size=(n_probes, dim))
        y = gen.uniform(-box, box, size=(n_probes, dim))
        gap = np.einsum(
            "ij,ij->i", np.asarray(drift.func(t, x)) - np.asarray(drift.func(t, y)), x - y
        )
        dist_sq = np.einsum("ij,ij->i", x - y, x - y)
        if np.any(gap > k_t * dist_sq + tol):
            worst = float(np.max(gap - k_t * dist_sq))
            raise ValueError(f"one-sided bound violated at t={t} by {worst:.3e}")


def validate_diffusion(diffusion, dim, t_points=(0.0, 0.5, 1.0), tol=1e-12):
    """Check sigma sigma^{-1} = I and the operator-norm bound on the probe grid."""
    eye = np.eye(dim)
    for t in t_points:
        mat = np.asarray(diffusion.matrix(t), dtype=float)
        inv = np.asarray(diffusion.inverse(t), dtype=float)
        if mat.ndim < 2:
            mat = mat * eye
        if inv.ndim < 2:
            inv = inv * eye
        if np.max(np.abs(mat @ inv - eye)) > tol:
            raise ValueError(f"sigma * sigma^-1 differs from identity at t={t}")
        if np.linalg.norm(inv, 2) > diffusion.inverse_norm_bound(t) + tol:
            raise ValueError(f"inverse norm bound violated at t={t}")


class TestIntegrate:
    def test_pure_noise_is_exact(self):
        grid = pg.TimeGrid.uniform(1.0, 100)
        gen = pg.RngStream(3, purpose="noise").generator()
        inc = pg.bm_increments(grid.times, 2, gen)
        bm = pg.TimeChangedBMPath(grid=grid, dimension=2, increments=inc)
        traj = sde.integrate([0.5, -0.5], sde.make_model("zero", dim=2), bm)
        np.testing.assert_allclose(traj.terminal, np.array([0.5, -0.5]) + inc.sum(axis=0), atol=1e-14)

    def test_linear_ode_oracle(self):
        # dx = -x dt, x(1) = e^{-1}; explicit Euler error is O(h)
        grid = pg.TimeGrid.uniform(1.0, 10_000)
        traj = sde.integrate([1.0], sde.make_model("ou", dim=1, rate=1.0), zero_noise(grid))
        assert traj.terminal[0] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_ou_transition_moments(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        law = pg.ClockLaw(bn.LinearBernstein())
        grid = pg.TimeGrid.uniform(1.0, 1000)
        finals = sde.terminal_states(model, [1.0], grid, law, 100_000, pg.RngStream(11, purpose="ou"))
        mean = finals[:, 0].mean()
        var = finals[:, 0].var(ddof=1)
        se_mean = finals[:, 0].std(ddof=1) / math.sqrt(finals.shape[0])
        h = 1e-3
        assert abs(mean - math.exp(-1.0)) < 3.0 * se_mean + 2.0 * h
        assert abs(var - (1.0 - math.exp(-2.0)) / 2.0) < 0.01

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_guard_identifies_step(self):
        grid = pg.TimeGrid.uniform(1.0, 50)
        blow_up = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: x**3 * 1e6, one_sided_bound=lambda t: 0.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(1),
        )
        with pytest.raises(sde.IntegrationError) as err:
            sde.integrate([10.0], blow_up, zero_noise(grid))
        assert err.value.step_index >= 0

    def test_stiff_explicit_step_raises_while_finite(self):
        # h * rate = 16.4: each explicit step multiplies the state by -15.4,
        # so |X| passes the state bound near step 126, long before it
        # overflows (the terminal would be a finite 5.9e296)
        model = sde.make_model("ou", dim=1, rate=4096.0)
        grid = pg.TimeGrid.uniform(1.0, 250)
        law = pg.ClockLaw(bn.LinearBernstein())
        with pytest.raises(sde.IntegrationError, match="1e\\+150") as err:
            sde.terminal_states(model, [1.0], grid, law, 64, pg.RngStream(0))
        assert 120 <= err.value.step_index <= 132
        assert err.value.n_failed == 64

    def test_semi_implicit_stabilizes_stiff_drift(self):
        stiff = sde.make_model("ou", dim=1, rate=200.0)
        grid = pg.TimeGrid.uniform(1.0, 50)  # h = 0.02: explicit factor is -3 per step
        explicit = sde.integrate([1.0], stiff, zero_noise(grid))
        implicit = sde.integrate([1.0], stiff, zero_noise(grid), method="semi_implicit")
        assert abs(explicit.terminal[0]) > 1e6
        assert abs(implicit.terminal[0]) < 1e-3

    def test_semi_implicit_needs_implicit_solve(self):
        # the resolvent is the drift's own; a drift without one has no
        # semi-implicit step
        model = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: -x, one_sided_bound=lambda t: -1.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(1),
        )
        grid = pg.TimeGrid.uniform(1.0, 10)
        with pytest.raises(ValueError, match="implicit_solve"):
            sde.integrate([1.0], model, zero_noise(grid), method="semi_implicit")

    def test_richardson_first_order(self):
        # halve h twice; successive differences shrink roughly by 2
        model = sde.make_model("double_well", dim=1)
        results = []
        for steps in (100, 200, 400):
            grid = pg.TimeGrid.uniform(1.0, steps)
            results.append(sde.integrate([0.3], model, zero_noise(grid)).terminal[0])
        d1 = abs(results[0] - results[1])
        d2 = abs(results[1] - results[2])
        assert 1.5 < d1 / d2 < 2.6

    def test_perturbation_ramp_enters_linearly(self):
        grid = pg.TimeGrid.uniform(1.0, 100)
        pert = sde.PerturbationModel.from_function(lambda t: np.array([2.0 * t]), 1)
        model = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: np.zeros_like(x), one_sided_bound=lambda t: 0.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=pert,
        )
        traj = sde.integrate([0.0], model, zero_noise(grid))
        assert traj.terminal[0] == pytest.approx(2.0, abs=1e-12)

    def test_perturbation_requires_zero_start(self):
        with pytest.raises(ValueError, match="V_0 = 0"):
            sde.PerturbationModel.from_function(lambda t: np.array([1.0 + t]), 1)

    @pytest.mark.parametrize("value", [np.ones(1), np.ones(3), 1.0], ids=["short", "long", "scalar"])
    def test_perturbation_must_have_the_model_shape(self, value):
        # a 1-coordinate ramp on a 2-D model was added to both coordinates
        with pytest.raises(ValueError, match=r"must have shape \(2,\)"):
            sde.PerturbationModel.from_function(lambda t: value * t, 2)


class TestMakeModel:
    @pytest.mark.parametrize(
        "name, dim, params, unread",
        [
            ("ou", 1, {"rate": 2.0, "omega": 5.0}, "omega"),
            ("rotating", 2, {"rate": 3.0}, "rate"),
            ("zero", 1, {"rate": 1.0}, "rate"),
            ("double_well", 1, {"contraction": 1.0}, "contraction"),
        ],
    )
    def test_parameter_the_model_does_not_read_is_rejected(self, name, dim, params, unread):
        with pytest.raises(ValueError, match=f"does not take the parameters \\['{unread}'\\]"):
            sde.make_model(name, dim=dim, **params)

    def test_perturbation_of_another_dimension_is_rejected(self):
        ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t, 0.0, 0.0]), 3)
        with pytest.raises(ValueError, match="perturbation dimension 3 does not match the model dimension 2"):
            sde.make_model("ou", dim=2, perturbation=ramp)

    def test_params_hold_only_what_the_model_reads(self):
        assert sde.make_model("ou", dim=1, rate=2).params == {"sigma_scale": 1.0, "rate": 2.0}
        assert sde.make_model("rotating", dim=2, omega=5).params == {
            "sigma_scale": 1.0, "omega": 5.0, "contraction": 0.5,
        }
        assert sde.make_model("zero", dim=1).params == {"sigma_scale": 1.0}


def sixteen_modes():
    return gk.SemilinearModel(
        spectrum=gk.SpectrumModel.from_power_law(16, 2.0),
        force=lambda t, x: np.sin(x),
        force_lipschitz=lambda t: 1.0,
        sigma_diag=np.linspace(1.0, 2.0, 16),
    )


STEPPER_CASES = pytest.mark.parametrize(
    "case",
    [
        (lambda: sde.make_model("ou", dim=1), "euler"),
        (lambda: sde.make_model("double_well", dim=1), "semi_implicit"),
        (lambda: sde.make_model("rotating", dim=2), "euler"),
        (lambda: sde.make_model("rotating", dim=2), "semi_implicit"),
        (sixteen_modes, "euler"),
    ],
    ids=["ou-d1", "double-well-d1", "rotating-d2", "rotating-d2-implicit", "galerkin-16"],
)


class TestBatchedStepping:
    @STEPPER_CASES
    def test_increment_layout_changes_no_bit(self, case):
        build, method = case
        model = build()
        grid = pg.TimeGrid.uniform(1.0, 30)
        gen = pg.RngStream(35, purpose="layout").generator()
        clock = pg.ClockLaw(bn.StableBernstein(0.75)).sample_raw(grid, gen, 300)
        dw = pg.bm_increments(clock, model.dim, gen)
        x0s = gen.standard_normal((300, model.dim))
        runs = [
            sde.euler_steps(model, x0s, grid, noise, keep_path=True, method=method)
            for noise in (dw, np.ascontiguousarray(dw))
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.all(np.isfinite(runs[0]))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_integration_error_counts_failed_paths(self):
        # rows leave the state bound at different steps; rows at zero never
        # do.  The oracle runs the same explicit recurrence row by row.
        grid = pg.TimeGrid.uniform(1.0, 50)
        x0s = np.array([
            [10.0, 0.0], [0.0, 0.0], [10.0, 10.0], [0.01, 0.0], [0.0, 3.0],
            [1.0, 0.0], [0.0, 0.02], [0.0, 0.0],
        ])
        first = np.full(len(x0s), grid.n_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            for row, x in enumerate(x0s):
                for i, h in enumerate(grid.step_sizes):
                    x = x + x**3 * 1e6 * h
                    if not np.all(np.abs(x) <= sde._STATE_BOUND):
                        first[row] = i
                        break
        step = int(first.min())
        expected = int((first == step).sum())
        assert 1 < expected < len(x0s) - 2
        blow_up = sde.SdeModel(
            dim=2,
            drift=sde.DriftModel(func=lambda t, x: x**3 * 1e6, one_sided_bound=lambda t: 0.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(2),
        )
        dw = np.zeros((len(x0s), grid.n_steps, 2))
        with pytest.raises(sde.IntegrationError) as err:
            sde.euler_steps(blow_up, x0s, grid, dw)
        assert err.value.step_index == step
        assert err.value.n_failed == expected


    def test_chunk_holds_its_clock_and_noise_only(self):
        # one chunk of the transfer-dw-gamma model and clock: its clock and
        # noise take 16 MB each; the unblocked Gaussian layer peaked at 78 MiB
        ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t]), 1)
        model = sde.make_model("double_well", dim=1, perturbation=ramp)
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=0.05)
        tracemalloc.start()
        try:
            sde.terminal_states(
                model, [0.0], pg.TimeGrid.uniform(1.0, 250), law, CHUNK_SIZE,
                pg.RngStream(41, purpose="peak"), method="semi_implicit",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20


@pytest.mark.usefixtures("two_cpus", "c_order_pipe")
class TestMultiStart:
    @STEPPER_CASES
    def test_each_start_matches_its_single_start_call(self, case):
        # K starts share one clock and noise draw per path; start k must get
        # the bits and layout of a single-start call on the same stream, at
        # 1 and 2 workers over two chunks, also where the workers' pipe
        # C-orders a non-contiguous array
        build, method = case
        model = build()
        capnorm = get_observable("capnorm", model.dim)
        grid = pg.TimeGrid.uniform(1.0, 10)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        n_paths = CHUNK_SIZE + 17
        starts = pg.RngStream(36, purpose="starts").generator().standard_normal((3, model.dim))
        stream = pg.RngStream(36, purpose="multi-start")
        singles = [
            sde.terminal_states(model, start, grid, law, n_paths, stream, method=method)
            for start in starts
        ]
        for workers in (1, 2):
            multi = sde.terminal_states(model, starts, grid, law, n_paths, stream, workers=workers, method=method)
            assert multi.shape == (n_paths, 3, model.dim)
            for k, single in enumerate(singles):
                assert single.shape == (n_paths, model.dim)
                assert np.array_equal(multi[:, k], single)
                assert multi[:, k].flags.f_contiguous == single.flags.f_contiguous
                # a norm over the state sums in an order set by the layout
                assert np.array_equal(capnorm(multi[:, k]), capnorm(single))


class TestRotatingLayout:
    MAT = np.array([[-0.5, -1.0], [1.0, -0.5]])

    @pytest.mark.parametrize("method", ["euler", "semi_implicit"])
    def test_drift_step_keeps_column_major(self, method):
        model = sde.make_model("rotating", dim=2)
        states = np.asfortranarray(pg.RngStream(38, purpose="rot").generator().standard_normal((8192, 2)))
        assert model.drift_step(0.0, 0.01, states, method).flags.f_contiguous

    @pytest.mark.parametrize("method", ["euler", "semi_implicit"])
    def test_terminals_match_row_major_reference(self, method):
        # reference drift in the x @ M.T form, which returns C order
        mat = self.MAT
        reference = sde.SdeModel(
            dim=2,
            drift=sde.DriftModel(
                func=lambda t, x: x @ mat.T,
                one_sided_bound=lambda t: -0.5,
                implicit_solve=lambda t, h, rhs: rhs @ np.linalg.inv(np.eye(2) - h * mat).T,
            ),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(2),
        )
        runs = [
            sde.terminal_states(
                model, [1.0, -0.5], pg.TimeGrid.uniform(1.0, 30), pg.ClockLaw(bn.StableBernstein(0.75)),
                3000, pg.RngStream(39, purpose="rot-ref"), method=method,
            )
            for model in (sde.make_model("rotating", dim=2), reference)
        ]
        assert np.array_equal(runs[0], runs[1])


class TestSynchronousContraction:
    def test_exponential_contraction_under_common_noise(self):
        # K = -1: |X_t(x) - X_t(y)| <= e^{-t} |x - y| (1 + O(h)) at grid times
        model = sde.make_model("ou", dim=2, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 1000)
        gen = pg.RngStream(21, purpose="contraction").generator()
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        clock = law.sample_raw(grid, gen, 1)
        dw = pg.bm_increments(clock, 2, gen)
        bm = pg.TimeChangedBMPath(grid=grid, dimension=2, increments=dw[0])
        a = sde.integrate([1.0, 1.0], model, bm)
        b = sde.integrate([-1.0, 0.0], model, bm)
        gaps = np.linalg.norm(a.states - b.states, axis=1)
        start = gaps[0]
        h = 1e-3
        bound = start * np.exp(-grid.times) * (1.0 + 5.0 * h)
        assert np.all(gaps <= bound + 1e-12)


def brownian_at_clocks(clock_value_arrays, dimension, gen):
    """One Brownian path evaluated at each clock array, drawn on their union."""
    pool = np.unique(np.concatenate([np.concatenate(([0.0], np.ravel(c))) for c in clock_value_arrays]))
    steps = gen.standard_normal((pool.size - 1, dimension)) * np.sqrt(np.diff(pool))[:, None]
    walk = np.vstack([np.zeros((1, dimension)), np.cumsum(steps, axis=0)])
    return [walk[np.searchsorted(pool, np.ravel(c))].reshape(np.shape(c) + (dimension,)) for c in clock_value_arrays]


def regularized_clock_ladder(bf, grid, eps_levels, seed, purpose="lemma-clock"):
    """One jointly sampled subordinator plus its regularizations at each eps."""
    h = grid.step_sizes[0]
    n_ext = int(round(max(eps_levels) / h))
    ext_times = np.concatenate([grid.times, grid.horizon + h * np.arange(1, n_ext + 1)])
    gen = pg.RngStream(seed, purpose=purpose).generator()
    inc = pg.sample_subordinator_increments(bf, np.diff(ext_times), gen, 1)[0]
    values = np.concatenate(([0.0], np.cumsum(inc)))[None, :]
    clocks = [pg.regularized_values(grid.times, ext_times, values, eps)[0] for eps in eps_levels]
    return values[0, : grid.times.size], clocks


class TestRegularizationConvergence:
    EPS_LEVELS = (0.2, 0.1, 0.05, 0.025)

    def test_trajectories_converge_for_absolutely_continuous_clock(self):
        # fixed noise (one standard normal per cell, scaled by each clock's
        # increment): for the linear clock the trajectory gap to the
        # raw-clock path decreases pathwise along the eps ladder
        model = sde.make_model("ou", dim=1, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 400)
        monotone = 0
        n_paths = 40
        for seed in range(n_paths):
            raw, clocks = regularized_clock_ladder(bn.LinearBernstein(), grid, self.EPS_LEVELS, 700 + seed)
            z = pg.RngStream(800 + seed, purpose="lemma-bm").generator().standard_normal((grid.n_steps, 1))
            base = sde.integrate(
                [1.0], model,
                pg.TimeChangedBMPath(grid=grid, dimension=1, increments=np.sqrt(np.diff(raw))[:, None] * z),
            ).states
            gaps = []
            for clock_values in clocks:
                traj = sde.integrate(
                    [1.0], model,
                    pg.TimeChangedBMPath(grid=grid, dimension=1, increments=np.sqrt(np.diff(clock_values))[:, None] * z),
                ).states
                gaps.append(np.max(np.abs(traj - base)))
            if all(a >= b for a, b in zip(gaps, gaps[1:])):
                monotone += 1
        assert monotone >= 0.95 * n_paths

    def test_jump_clock_gap_converges_in_the_mean(self):
        # for jump clocks per-path sup gaps are dominated by single jump
        # displacements and tie across eps; the mean gap still decreases
        model = sde.make_model("ou", dim=1, rate=1.0)
        grid = pg.TimeGrid.uniform(1.0, 400)
        totals = np.zeros(len(self.EPS_LEVELS))
        n_paths = 60
        for seed in range(n_paths):
            raw, clocks = regularized_clock_ladder(bn.StableBernstein(0.75), grid, self.EPS_LEVELS, 900 + seed)
            w_gen = pg.RngStream(980 + seed, purpose="lemma-union").generator()
            paths_w = brownian_at_clocks(list(clocks) + [raw], 1, w_gen)
            base = sde.integrate(
                [1.0], model,
                pg.TimeChangedBMPath(grid=grid, dimension=1, increments=np.diff(paths_w[-1], axis=0)),
            ).states
            for j, w_vals in enumerate(paths_w[:-1]):
                traj = sde.integrate(
                    [1.0], model,
                    pg.TimeChangedBMPath(grid=grid, dimension=1, increments=np.diff(w_vals, axis=0)),
                ).states
                totals[j] += np.max(np.abs(traj - base))
        means = totals / n_paths
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_clock_gap_is_pathwise_monotone(self):
        # the clocks themselves satisfy S_eps1 >= S_eps2 >= S pointwise
        grid = pg.TimeGrid.uniform(1.0, 200)
        for seed in range(25):
            raw, clocks = regularized_clock_ladder(bn.StableBernstein(0.6), grid, self.EPS_LEVELS, 1200 + seed)
            gaps = [np.max(vals - raw) for vals in clocks]
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestSemigroupEstimate:
    def test_constant_observable(self):
        model = sde.make_model("zero", dim=1)
        law = pg.ClockLaw(bn.LinearBernstein())
        grid = pg.TimeGrid.uniform(1.0, 10)
        est = sde.semigroup_estimate(
            lambda z: np.ones(z.shape[0]), [0.0], model, law, grid, 500,
            pg.RngStream(31, purpose="const"),
        )
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_gaussian_mgf(self):
        # b = 0, sigma = I, f = exp(<a, z>), a = (1, 0): P_1 f(0) = e^{1/2}
        model = sde.make_model("zero", dim=2)
        law = pg.ClockLaw(bn.LinearBernstein())
        grid = pg.TimeGrid.uniform(1.0, 50)
        est = sde.semigroup_estimate(
            lambda z: np.exp(z[:, 0]), [0.0, 0.0], model, law, grid, 100_000,
            pg.RngStream(32, purpose="mgf"),
        )
        assert abs(est.mean - math.exp(0.5)) < 3.0 * est.stderr

    def test_odd_symmetry(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        law = pg.ClockLaw(bn.LinearBernstein())
        grid = pg.TimeGrid.uniform(1.0, 200)
        est = sde.semigroup_estimate(
            lambda z: np.sin(z[:, 0]), [0.0], model, law, grid, 50_000,
            pg.RngStream(33, purpose="odd"),
        )
        assert abs(est.mean) < 3.0 * est.stderr

    def test_worker_count_invariance(self, two_cpus):
        model = sde.make_model("ou", dim=2, rate=1.0)
        law = pg.ClockLaw(bn.GammaBernstein(1.0, 1.0))
        grid = pg.TimeGrid.uniform(1.0, 20)
        runs = [
            sde.terminal_states(model, [1.0, 0.0], grid, law, 10_000,
                                pg.RngStream(34, purpose="workers"), workers=w)
            for w in (1, 2, 5)
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])


class TestDoubleWellResolvent:
    EPS = np.finfo(float).eps

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        h=st.floats(min_value=1e-6, max_value=0.999),
        magnitudes=st.lists(st.floats(min_value=1e-12, max_value=1e6), min_size=1, max_size=50),
    )
    def test_root_is_accurate_odd_and_monotone(self, h, magnitudes):
        mags = np.asarray(magnitudes)
        rhs = np.sort(np.concatenate([-mags, mags]))
        y = sde._double_well_resolvent(0.0, h, rhs)
        # backward error: the residual against the size of its terms
        scale = np.abs(rhs) + (1.0 - h) * np.abs(y) + h * np.abs(y) ** 3
        residual = np.abs(y * (1.0 - h) + h * y * y * y - rhs)
        assert np.all(residual <= 32 * self.EPS * scale)
        assert np.all(np.abs(sde._double_well_resolvent(0.0, h, -rhs) + y) <= 4 * self.EPS * np.abs(y))
        assert np.all(np.diff(y) >= 0.0)

    @pytest.mark.parametrize("h", [1.0, 1.5, 0.0])
    def test_step_outside_unit_interval_raises(self, h):
        with pytest.raises(ValueError, match=f"h={h}"):
            sde._double_well_resolvent(0.0, h, np.array([0.5, -2.0]))

    def test_unit_step_raises_from_terminal_states(self):
        model = sde.make_model("double_well", dim=1)
        with pytest.raises(ValueError, match="h=1.0"):
            sde.terminal_states(
                model, [0.3], pg.TimeGrid.uniform(1.0, 1), pg.ClockLaw(bn.LinearBernstein()),
                16, pg.RngStream(40, purpose="dw-unit-step"), method="semi_implicit",
            )


class TestModelZoo:
    @pytest.mark.parametrize(
        "name,dim",
        [("zero", 3), ("ou", 2), ("double_well", 2), ("rotating", 2)],
    )
    def test_one_sided_bounds_hold_on_probes(self, name, dim):
        model = sde.make_model(name, dim=dim)
        validate_one_sided_bound(model.drift, dim, n_probes=1000, tol=1e-10)

    def test_diffusion_validates(self):
        validate_diffusion(sde.DiffusionModel.isotropic(2.0), 3)
        validate_diffusion(sde.DiffusionModel.constant(np.array([[2.0, 1.0], [0.0, 1.0]])), 2)

    def test_diffusion_bound_violation_detected(self):
        bad = sde.DiffusionModel(
            matrix=lambda t: np.eye(2) * 0.5,
            inverse=lambda t: np.eye(2) * 2.0,
            inverse_norm_bound=lambda t: 1.0,
        )
        with pytest.raises(ValueError, match="norm bound"):
            validate_diffusion(bad, 2)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            sde.make_model("pendulum")

    def test_rotating_requires_dim_two(self):
        with pytest.raises(ValueError):
            sde.make_model("rotating", dim=3)

    def test_trajectory_csv(self, tmp_path):
        grid = pg.TimeGrid.uniform(1.0, 4)
        traj = sde.integrate([0.0, 0.0], sde.make_model("zero", dim=2), zero_noise(grid, 2))
        target = tmp_path / "traj.csv"
        traj.to_csv(target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,X_1,X_2"
        assert len(lines) == 6
