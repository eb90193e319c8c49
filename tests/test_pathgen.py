import csv
import math

import numpy as np
import pytest
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
        ],
        ids=["stable", "gamma", "tempered"],
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
        inc = pg.sample_subordinator_increments(bn.StableBernstein(0.75), grid.step_sizes, gen)
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
    @pytest.mark.parametrize("paths", [None, 37], ids=["1d-clock", "2d-clock"])
    def test_increments_are_the_scaled_normals(self, dim, paths):
        # the (M, d, paths) memory order changes no bit and no draw
        grid = pg.TimeGrid.uniform(1.0, 9)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        clock = law.sample_raw(grid, pg.RngStream(110).generator(), paths or 1)
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
        w_coarse, w_fine = pg.brownian_at_clocks([coarse, fine], 2, gen)
        np.testing.assert_array_equal(w_coarse[0], w_fine[0])
        np.testing.assert_array_equal(w_coarse[1], w_fine[2])
        np.testing.assert_array_equal(w_coarse[2], w_fine[4])

    def test_increment_variance(self):
        gen = pg.RngStream(14, purpose="union-var").generator()
        clock = np.linspace(0.0, 4.0, 3)
        (w,) = pg.brownian_at_clocks([np.tile(clock, 1)], 1, gen)
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
