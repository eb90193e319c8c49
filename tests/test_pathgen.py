import csv
import math

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from subharnack import bernstein as bn
from subharnack import pathgen as pg

N_LAPLACE = 100_000


def stderr(samples):
    return samples.std(ddof=1) / math.sqrt(samples.size)


def export_paths_csv(file_path, grid, subordinator=None, clock=None, bm=None):
    """Debug CSV with columns (t, S, clock_eps, W_1..W_d)."""
    t = grid.times
    columns = [("t", t)]
    if subordinator is not None:
        columns.append(("S", np.asarray(subordinator.values)))
    if clock is not None:
        columns.append(("clock_eps", np.asarray(clock.values)))
    if bm is not None:
        walk = np.vstack(
            [np.zeros((1, bm.dimension)), np.cumsum(bm.increments, axis=0)]
        )
        for j in range(bm.dimension):
            columns.append((f"W_{j + 1}", walk[:, j]))
    with open(file_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for i in range(t.size):
            writer.writerow([repr(float(col[i])) for _, col in columns])


def brownian_at_clocks(clock_value_arrays, dimension, gen):
    """Evaluate one Brownian path at several interleaved clock arrays.

    All arrays see the same underlying Brownian motion: increments are drawn
    on the union of the requested clock values, so comparisons across
    regularization levels use fixed noise.
    """
    pool = np.unique(np.concatenate([np.concatenate(([0.0], np.ravel(c))) for c in clock_value_arrays]))
    steps = gen.standard_normal((pool.size - 1, dimension)) * np.sqrt(np.diff(pool))[:, None]
    walk = np.vstack([np.zeros((1, dimension)), np.cumsum(steps, axis=0)])
    return [walk[np.searchsorted(pool, np.ravel(c))].reshape(np.shape(c) + (dimension,)) for c in clock_value_arrays]


def kanter_reference(theta, gen, size):
    """Kanter's transform with np.sin on the draws of ``_standard_positive_stable``."""
    u = (gen.random(size) * (1.0 - 2e-16) + 1e-16) * np.pi
    e = np.maximum(gen.standard_exponential(size), 1e-300)
    log_a = (
        theta * np.log(np.sin(theta * u))
        + (1.0 - theta) * np.log(np.sin((1.0 - theta) * u))
        - np.log(np.sin(u))
    ) / (1.0 - theta)
    return np.exp(((1.0 - theta) / theta) * (log_a - np.log(e)))


def regularized_reference(base_times, comb_times, comb_values, epsilon):
    """The window average plus slope floor, on whole arrays at once."""
    n = comb_values.shape[0]
    cum = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(comb_values[:, :-1] * np.diff(comb_times), axis=1)], axis=1
    )
    q_right = base_times + epsilon
    right_idx = np.clip(np.searchsorted(comb_times, q_right, side="right") - 1, 0, comb_times.size - 2)
    integral_right = cum[:, right_idx] + comb_values[:, right_idx] * (q_right - comb_times[right_idx])
    return (integral_right - cum[:, : base_times.size]) / epsilon + epsilon * base_times


class TestTimeGrid:
    def test_uniform(self):
        grid = pg.TimeGrid.uniform(1.0, 4)
        np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.horizon == 1.0
        assert grid.n_steps == 4

    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            pg.TimeGrid(times=np.array([0.0, 0.5, 0.5, 1.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            pg.TimeGrid(times=np.array([0.0]))


class TestRngStream:
    def test_bit_exact_reproduction(self):
        a = pg.RngStream(5, 3, "x").generator().standard_normal(64)
        b = pg.RngStream(5, 3, "x").generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        base = pg.RngStream(5, 3, "x").generator().standard_normal(64)
        for other in (pg.RngStream(5, 4, "x"), pg.RngStream(5, 3, "y"), pg.RngStream(6, 3, "x")):
            assert not np.array_equal(base, other.generator().standard_normal(64))

    def test_child_derivation(self):
        s = pg.RngStream(7)
        assert s.child(replicate=2).replicate == 2
        assert s.child(purpose="clock").purpose == "clock"
        assert s.child(replicate=1, purpose="bm") == pg.RngStream(7, 1, "bm")


class TestSubordinatorSampling:
    def test_linear_path_deterministic(self):
        grid = pg.TimeGrid.uniform(1.0, 4)
        path = pg.sample_subordinator(bn.LinearBernstein(), grid, pg.RngStream(0))
        np.testing.assert_allclose(path.values, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize(
        "bf,tag",
        [
            (bn.StableBernstein(0.5), "stable"),
            (bn.GammaBernstein(1.0, 1.0), "gamma"),
            (bn.TemperedStableBernstein(0.6, 0.5), "tempered"),
            (bn.StableBernstein(0.3), "stable-0.3"),
            (bn.StableBernstein(0.75), "stable-0.75"),
            (bn.StableBernstein(0.95), "stable-0.95"),
        ],
        ids=["stable", "gamma", "tempered", "stable-0.3", "stable-0.75", "stable-0.95"],
    )
    def test_laplace_transform_match(self, bf, tag):
        gen = pg.RngStream(101, purpose=f"laplace-{tag}").generator()
        draws = pg.sample_subordinator_increments(bf, np.array([1.0]), gen, N_LAPLACE)[:, 0]
        for r in (0.5, 1.0, 2.0):
            emp = np.exp(-r * draws)
            ref = float(bn.laplace_transform(bf, r, 1.0))
            assert abs(emp.mean() - ref) < 3.0 * stderr(emp)

    def test_gamma_increment_mean(self):
        gen = pg.RngStream(102, purpose="gamma-mean").generator()
        draws = pg.sample_subordinator_increments(
            bn.GammaBernstein(1.0, 1.0), np.array([2.0]), gen, N_LAPLACE
        )[:, 0]
        assert abs(draws.mean() - 2.0) < 3.0 * stderr(draws)

    def test_increment_exchangeability_ks(self):
        # two halves of a uniform grid carry the same increment law
        grid = pg.TimeGrid.uniform(1.0, 10_000)
        gen = pg.RngStream(103, purpose="ks").generator()
        inc = pg.sample_subordinator_increments(bn.StableBernstein(0.75), grid.step_sizes, gen, 1)[0]
        half = inc.size // 2
        _, p_value = sps.ks_2samp(inc[:half], inc[half:])
        assert p_value > 0.01

    def test_path_invariants(self):
        grid = pg.TimeGrid.uniform(2.0, 200)
        for bf in (bn.StableBernstein(0.6), bn.GammaBernstein(2.0, 1.0)):
            path = pg.sample_subordinator(bf, grid, pg.RngStream(104, purpose="inv"))
            assert path.values[0] == 0.0
            assert np.all(np.diff(path.values) >= 0.0)
            assert np.all(np.isfinite(path.values))

    def test_unsupported_variant_rejected(self):
        class OddBernstein(bn.BernsteinFunction):
            def __call__(self, r):
                return np.sqrt(r)

        grid = pg.TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="unsupported"):
            pg.sample_subordinator(OddBernstein(), grid, pg.RngStream(0))

    def test_tempered_rejection_stall_diagnostics(self):
        # enormous tilt over a long duration forces the sampler to give up
        bf = bn.TemperedStableBernstein(0.9, 400.0)
        gen = pg.RngStream(105, purpose="stall").generator()
        with pytest.raises(pg.RejectionError, match="acceptance rate"):
            pg.sample_subordinator_increments(bf, np.array([50.0]), gen, 4)

    def test_tempered_stall_raised_before_any_draw(self):
        # kappa^theta dt = 31623: a proposal is accepted with probability 0
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"generator method {name} called")

        bf = bn.TemperedStableBernstein(0.75, 1e6)
        with pytest.raises(pg.RejectionError, match="stalled.*acceptance rate"):
            pg.sample_subordinator_increments(bf, np.array([1.0]), NoDraws(), 16384)

    def test_tempered_stall_line(self):
        # one increment of the longest cell stays unaccepted after 10,000
        # rounds with probability (1 - exp(-kappa^theta dt))^10000, which
        # crosses 1/2 at kappa^theta dt = 9.58
        durations = np.array([0.01, 1.0])
        pg._check_tempered_acceptance(1.0, 9.5, durations)
        with pytest.raises(pg.RejectionError, match="acceptance rate 6.77"):
            pg._check_tempered_acceptance(1.0, 9.6, durations)
        pg._check_tempered_acceptance(0.5, 1e6, np.zeros(3))


class TestSinReflected:
    @staticmethod
    def ulp_error(a):
        got = pg._sin_reflected(a)
        ref = np.array([math.sin(x) for x in a])
        return np.abs(got - ref) / np.spacing(ref)

    def test_dense_grid(self):
        a = np.linspace(0.0, np.pi, 200_001)[1:-1]
        assert self.ulp_error(a).max() <= 2.0

    @pytest.mark.parametrize(
        "a,bound",
        [
            (np.geomspace(1e-16, 1e-8, 2001), 1.0),
            (np.pi / 2 + np.linspace(-1e-6, 1e-6, 2001), 2.0),
            (np.pi - np.geomspace(1e-16, 1e-2, 2001), 1.0),
        ],
        ids=["near-0", "near-half-pi", "near-pi"],
    )
    def test_edges(self, a, bound):
        # relative accuracy as a -> pi is what keeps Kanter's heavy tail
        assert self.ulp_error(a).max() <= bound

    def test_out_buffer_and_argument(self):
        a = np.linspace(0.1, 3.0, 7)
        kept = a.copy()
        out = np.empty_like(a)
        assert pg._sin_reflected(a, out=out) is out
        assert np.array_equal(a, kept)


class TestStableSampler:
    def test_half_stable_is_levy(self):
        # theta = 1/2: X = 1 / (4 Z^2), so P(X <= x) = erfc(1 / (2 sqrt x))
        gen = pg.RngStream(121, purpose="kanter-levy").generator()
        draws = pg._standard_positive_stable(0.5, gen, N_LAPLACE)
        cdf = lambda x: special.erfc(0.5 / np.sqrt(x))  # noqa: E731
        assert sps.kstest(draws, cdf).pvalue > 0.01

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("size", [1, 5, (3, 40_000)], ids=["one", "small", "blocks"])
    def test_matches_the_libm_transform(self, theta, size):
        # same draws in the same order; only the sines' last bits differ
        got = pg._standard_positive_stable(theta, pg.RngStream(122).generator(), size)
        ref = kanter_reference(theta, pg.RngStream(122).generator(), size)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref) / ref) < 1e-13

    def test_tempered_acceptance_rate(self):
        # a stable proposal over dt is kept with probability exp(-kappa^theta dt)
        proposals = []

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def standard_exponential(self, size):
                proposals.append(int(np.prod(size)))
                return self.gen.standard_exponential(size)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        bf = bn.TemperedStableBernstein(0.75, 1.0)
        gen = Counting(pg.RngStream(123, purpose="tempered-rate").generator())
        draws = pg.sample_subordinator_increments(bf, np.full(200, 0.5), gen, 500)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0)
        p = math.exp(-0.5)
        total = sum(proposals)
        assert abs(draws.size / total - p) < 4.0 * math.sqrt(p * (1 - p) / total)


class TestBlockedClock:
    GRID = pg.TimeGrid.uniform(1.0, 125)

    def comb(self, law, n, seed):
        comb_times = law._extended_times(self.GRID)
        gen = pg.RngStream(seed, purpose="blocked").generator()
        inc = pg.sample_subordinator_increments(law.bernstein, np.diff(comb_times), gen, n)
        return comb_times, np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)

    def sizes(self):
        # one row, less than one block, and a partial third block
        width = pg.ClockLaw(bn.LinearBernstein(), epsilon=0.05)._extended_times(self.GRID).size
        rows = pg._rows_per_block(width)
        assert rows > 20
        return [1, 5, 2 * rows + 17]

    @pytest.mark.parametrize("bf", [bn.GammaBernstein(4.0, 4.0), bn.StableBernstein(0.75)], ids=["gamma", "stable"])
    def test_coupling_clock_equals_whole_array_formula(self, bf):
        law = pg.ClockLaw(bf, epsilon=0.05)
        for n in self.sizes():
            comb_times, values = self.comb(law, n, 130)
            ref = regularized_reference(self.GRID.times, comb_times, values, 0.05)
            got = law.sample_coupling(self.GRID, pg.RngStream(130, purpose="blocked").generator(), n)
            assert got.flags.f_contiguous
            assert np.array_equal(got, ref)
            assert np.array_equal(pg.regularized_values(self.GRID.times, comb_times, values, 0.05), ref)

    def test_extension_reaches_the_window_end_at_a_large_horizon(self):
        # at T = 1e4 the knot T + 2 h rounded 3.6e-12 short of T + epsilon
        # and the coupling clock raised "path does not reach the horizon"
        grid = pg.TimeGrid.uniform(1e4, 3)
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=2e4 / 3)
        assert law._extended_times(grid)[-1] >= grid.times[-1] + law.epsilon - 1e-12
        clock = law.sample_coupling(grid, pg.RngStream(131, purpose="long").generator(), 16)
        assert np.all(np.diff(clock, axis=1) > 0)

    def test_clock_that_rounding_flattens_is_a_floating_point_error(self):
        # theta = 0.1 clocks reach 1e27 here: the slope floor epsilon * h is
        # lost in their rounding, and the clock stops increasing on some rows
        law = pg.ClockLaw(bn.StableBernstein(0.1), epsilon=0.05)
        with pytest.raises(FloatingPointError, match="lost its strict increase to rounding"):
            law.sample_coupling(pg.TimeGrid.uniform(1.0, 20), pg.RngStream(132, purpose="flat").generator(), 1000)

    def test_raw_clock_equals_whole_array_cumsum(self):
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 4.0))
        for n in self.sizes():
            inc = pg.sample_subordinator_increments(
                law.bernstein, self.GRID.step_sizes, pg.RngStream(131).generator(), n
            )
            ref = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
            assert np.array_equal(law.sample_raw(self.GRID, pg.RngStream(131).generator(), n), ref)

    def test_regularized_values_fills_out(self):
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=0.05)
        comb_times, values = self.comb(law, 9, 132)
        out = np.full((12, self.GRID.times.size), np.nan)
        pg.regularized_values(self.GRID.times, comb_times, values, 0.05, out=out[2:11])
        assert np.array_equal(out[2:11], regularized_reference(self.GRID.times, comb_times, values, 0.05))
        assert np.isnan(out[[0, 1, 11]]).all()


class TestRegularize:
    def _linear_clock(self, horizon, steps, epsilon, ext_steps=400):
        grid = pg.TimeGrid.uniform(horizon, steps)
        path = pg.sample_subordinator(bn.LinearBernstein(), grid, pg.RngStream(1))
        ext_grid = pg.TimeGrid(times=np.linspace(horizon, horizon + epsilon, ext_steps + 1))
        ext = pg.sample_subordinator(
            bn.LinearBernstein(), ext_grid, pg.RngStream(1, 1), initial_value=path.values[-1]
        )
        return path, pg.regularize(path, epsilon, ext)

    def test_linear_values(self):
        # continuum: t + eps/2 + eps t; the step-path convention costs h/2
        steps = 4000
        h = 1.0 / steps
        _, clock = self._linear_clock(1.0, steps, 0.1)
        assert clock.values[-1] == pytest.approx(1.15, abs=h)
        assert clock.values[0] == pytest.approx(0.05, abs=h)

    def test_exact_step_function_window(self):
        # tiny grid worked out by hand: S = 0 on [0, .5), 2 on [.5, 1), 3 after
        grid = pg.TimeGrid(times=np.array([0.0, 0.5, 1.0]))
        path = pg.SubordinatorPath(grid=grid, values=np.array([0.0, 2.0, 3.0]))
        ext = pg.SubordinatorPath(
            grid=pg.TimeGrid(times=np.array([1.0, 1.5])), values=np.array([3.0, 3.0])
        )
        clock = pg.regularize(path, 0.5, ext)
        # windows: [0,.5) -> avg 0; [.5,1) -> avg 2; [1,1.5) -> avg 3; plus eps*t
        np.testing.assert_allclose(clock.values, [0.0, 2.0 + 0.25, 3.0 + 0.5])

    def test_missing_extension_instructs_caller(self):
        grid = pg.TimeGrid.uniform(1.0, 10)
        path = pg.sample_subordinator(bn.LinearBernstein(), grid, pg.RngStream(1))
        with pytest.raises(ValueError, match=r"\[0, T \+ epsilon\]"):
            pg.regularize(path, 0.1, None)

    def test_dominates_source_path(self):
        grid = pg.TimeGrid.uniform(1.0, 100)
        for seed in range(20):
            path = pg.sample_subordinator(bn.StableBernstein(0.7), grid, pg.RngStream(200 + seed))
            ext_grid = pg.TimeGrid(times=np.linspace(1.0, 1.1, 11))
            ext = pg.sample_subordinator(
                bn.StableBernstein(0.7), ext_grid, pg.RngStream(300 + seed),
                initial_value=path.values[-1],
            )
            clock = pg.regularize(path, 0.1, ext)
            assert np.all(clock.values >= path.values - 1e-12)

    def test_monotone_in_epsilon_per_path(self):
        # window averages of a nondecreasing path grow with the window size
        grid = pg.TimeGrid.uniform(1.0, 200)
        eps_levels = [0.2, 0.1, 0.05, 0.025]
        count_ok = 0
        for seed in range(100):
            path = pg.sample_subordinator(bn.GammaBernstein(2.0, 1.0), grid, pg.RngStream(400 + seed))
            ext_grid = pg.TimeGrid(times=np.linspace(1.0, 1.2, 41))
            ext = pg.sample_subordinator(
                bn.GammaBernstein(2.0, 1.0), ext_grid, pg.RngStream(500 + seed),
                initial_value=path.values[-1],
            )
            clocks = [pg.regularize(path, eps, ext).values for eps in eps_levels]
            if all(np.all(a >= b - 1e-12) for a, b in zip(clocks, clocks[1:])):
                count_ok += 1
        assert count_ok == 100

    def test_slope_floor(self):
        # divided differences carry at least the +eps t term's slope
        grid = pg.TimeGrid.uniform(1.0, 50)
        path = pg.sample_subordinator(bn.StableBernstein(0.6), grid, pg.RngStream(7))
        ext_grid = pg.TimeGrid(times=np.linspace(1.0, 1.1, 11))
        ext = pg.sample_subordinator(
            bn.StableBernstein(0.6), ext_grid, pg.RngStream(8), initial_value=path.values[-1]
        )
        clock = pg.regularize(path, 0.1, ext)
        slopes = np.diff(clock.values) / grid.step_sizes
        assert np.all(slopes >= 0.1 - 1e-12)


class TestTimeChangedBM:
    def test_flat_clock_gives_zero_increments(self):
        grid = pg.TimeGrid.uniform(1.0, 5)
        clock = pg.SubordinatorPath(grid=grid, values=np.zeros(6))
        bm = pg.sample_timechanged_bm(clock, 3, pg.RngStream(1, purpose="flat"))
        assert np.all(bm.increments == 0.0)

    def test_negative_increment_rejected(self):
        gen = pg.RngStream(1).generator()
        with pytest.raises(ValueError, match="nonnegative"):
            pg.bm_increments(np.array([0.0, 1.0, 0.5]), 1, gen)

    def test_negative_increment_rejected_before_any_draw(self):
        # the offending row sits in the second block of rows: nothing may be
        # drawn for the first block either
        rows = pg._rows_per_block(2)
        clock = np.tile([0.0, 1.0, 2.0], (rows + 5, 1))
        clock[-1, 2] = 0.5
        gen = pg.RngStream(1).generator()
        with pytest.raises(ValueError, match="nonnegative"):
            pg.bm_increments(clock, 1, gen)
        assert np.array_equal(gen.standard_normal(8), pg.RngStream(1).generator().standard_normal(8))

    def test_linear_clock_second_moment(self):
        gen = pg.RngStream(106, purpose="bm2").generator()
        inc = pg.bm_increments(np.tile(np.linspace(0, 1, 11), (N_LAPLACE, 1)), 2, gen)
        final_sq = (inc.sum(axis=1) ** 2).sum(axis=1)
        assert abs(final_sq.mean() - 2.0) < 3.0 * stderr(final_sq)

    def test_stable_clock_symbol(self):
        # Var(dW) equals the clock increment, so the characteristic function
        # of W_S(1) is exp(-B(u^2 / 2)); at u = 2 sqrt(2), theta = 1/2 this
        # is exp(-B(4)) = exp(-2).
        gen = pg.RngStream(107, purpose="symbol").generator()
        s_one = pg.sample_subordinator_increments(
            bn.StableBernstein(0.5), np.array([1.0]), gen, N_LAPLACE
        )[:, 0]
        w = gen.standard_normal(N_LAPLACE) * np.sqrt(s_one)
        emp = np.cos(2.0 * math.sqrt(2.0) * w)
        assert abs(emp.mean() - math.exp(-2.0)) < 3.0 * stderr(emp)
        emp_two = np.cos(2.0 * w)
        assert abs(emp_two.mean() - math.exp(-math.sqrt(2.0))) < 3.0 * stderr(emp_two)

    @pytest.mark.parametrize("dim", [1, 2, 64])
    @pytest.mark.parametrize(
        "paths", [None, (0, 37), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
        ids=["1d-clock", "2d-clock", "1-path", "rows-1", "rows", "rows+1", "3rows+5"],
    )
    def test_increments_are_the_scaled_normals(self, dim, paths):
        # drawing in blocks of rows and the (M, d, paths) memory order change
        # no bit and no draw; (a, b) means a blocks of rows plus b paths
        grid = pg.TimeGrid.uniform(1.0, 9)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        n = 1 if paths is None else paths[0] * pg._rows_per_block(grid.n_steps * dim) + paths[1]
        clock = law.sample_raw(grid, pg.RngStream(110).generator(), n)
        clock = clock[0] if paths is None else clock
        inc = pg.bm_increments(clock, dim, pg.RngStream(111).generator())
        gaps = np.diff(clock, axis=-1)
        ref = pg.RngStream(111).generator().standard_normal(gaps.shape + (dim,))
        ref = ref * np.sqrt(gaps)[..., None]
        assert inc.shape == ref.shape
        assert np.array_equal(inc, ref)
        if paths is None:
            assert inc.flags.c_contiguous
        else:
            for i in range(grid.n_steps):
                assert inc[:, i, :].flags.f_contiguous

    def test_determinism_across_worker_style_chunks(self):
        grid = pg.TimeGrid.uniform(1.0, 10)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        first = law.sample_raw(grid, pg.RngStream(9, 3, "clock").generator(), 7)
        second = law.sample_raw(grid, pg.RngStream(9, 3, "clock").generator(), 7)
        assert np.array_equal(first, second)


class TestClockLaw:
    def test_linear_coupling_clock_is_identity(self):
        grid = pg.TimeGrid.uniform(1.0, 10)
        law = pg.ClockLaw(bn.LinearBernstein())
        clocks = law.sample_coupling(grid, pg.RngStream(0).generator(), 3)
        np.testing.assert_array_equal(clocks, np.tile(grid.times, (3, 1)))

    def test_random_coupling_clock_strictly_increasing(self):
        grid = pg.TimeGrid.uniform(1.0, 64)
        law = pg.ClockLaw(bn.StableBernstein(0.6), epsilon=0.05)
        clocks = law.sample_coupling(grid, pg.RngStream(11, purpose="cpl").generator(), 50)
        assert np.all(np.diff(clocks, axis=1) > 0)

    def test_regularized_clock_is_column_major(self):
        # the steppers read one clock column per step; a row-major clock
        # makes those reads strided and moves the last bits of the weights
        grid = pg.TimeGrid.uniform(1.0, 64)
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 4.0), epsilon=0.05)
        clocks = law.sample_coupling(grid, pg.RngStream(11, purpose="cpl").generator(), 50)
        assert clocks.flags.f_contiguous
        assert np.diff(clocks, axis=1)[:, 3].flags.c_contiguous

    def test_raw_clock_starts_at_zero(self):
        grid = pg.TimeGrid.uniform(1.0, 8)
        law = pg.ClockLaw(bn.GammaBernstein(1.0, 1.0))
        raw = law.sample_raw(grid, pg.RngStream(12, purpose="raw").generator(), 5)
        assert np.all(raw[:, 0] == 0.0)
        assert np.all(np.diff(raw, axis=1) >= 0.0)


class TestBrownianAtClocks:
    def test_consistency_across_interleaved_clocks(self):
        gen = pg.RngStream(13, purpose="union").generator()
        coarse = np.array([0.0, 0.5, 1.0])
        fine = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        w_coarse, w_fine = brownian_at_clocks([coarse, fine], 2, gen)
        np.testing.assert_array_equal(w_coarse[0], w_fine[0])
        np.testing.assert_array_equal(w_coarse[1], w_fine[2])
        np.testing.assert_array_equal(w_coarse[2], w_fine[4])

    def test_increment_variance(self):
        gen = pg.RngStream(14, purpose="union-var").generator()
        clock = np.linspace(0.0, 4.0, 3)
        (w,) = brownian_at_clocks([np.tile(clock, 1)], 1, gen)
        assert w.shape == (3, 1)


class TestCsvExport:
    def test_columns(self, tmp_path):
        grid = pg.TimeGrid.uniform(1.0, 4)
        path = pg.sample_subordinator(bn.LinearBernstein(), grid, pg.RngStream(0))
        bm = pg.sample_timechanged_bm(path, 2, pg.RngStream(1, purpose="csv"))
        target = tmp_path / "paths.csv"
        export_paths_csv(target, grid, subordinator=path, bm=bm)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,S,W_1,W_2"
        assert len(lines) == 6
