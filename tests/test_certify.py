import math

import numpy as np
import pytest

from subharnack import bernstein as bn
from subharnack import certify as ct
from subharnack import coupling as cp
from subharnack import pathgen as pg
from subharnack import sde
from subharnack.coupling import _scaled_decay
from subharnack.parallel import CHUNK_SIZE
from subharnack.observables import get_observable
from subharnack.stats import MCEstimate
from test_bernstein import closed_inverse_moment, oracle_inverse_moment


def linear_law():
    return pg.ClockLaw(bn.LinearBernstein())


def reference_inverse_mean(clock, t):
    """E[1/S(t)] by a route that shares nothing with ``bernstein``: the closed
    forms, and for the tempered law the trapezoid rule in u = r / (1 + r)
    scaled to t^(-1/theta)."""
    if isinstance(clock, bn.TemperedStableBernstein):
        return oracle_inverse_moment(clock, 1.0, t, scale=t ** (-1.0 / clock.theta))
    return closed_inverse_moment(clock, 1.0, t)


class TestEstimateAlgebra:
    def test_log_transform_folds_bias_into_stderr(self):
        est = MCEstimate(mean=2.0, stderr=0.1, n=100)
        logged = est.log()
        assert logged.mean == pytest.approx(math.log(2.0))
        assert logged.stderr == pytest.approx(0.05 + 0.1**2 / (2 * 4.0))


    def test_overflowing_variance_stderr_is_infinite(self):
        # the gradient's variance side for f = 1e78 x: the variance (1e156)
        # is finite, the squares of the squared deviations are not, so its
        # stderr is inf, with no RuntimeWarning
        report = ct.gradient_certificate(
            lambda z: 1e78 * z[:, 0], [0.0], pg.TimeGrid.uniform(1.0, 10),
            sde.make_model("zero", dim=1), linear_law(), 500, pg.RngStream(29, purpose="var-overflow"),
        )
        assert report.rhs.mean == pytest.approx(1e156, rel=0.2)
        assert report.rhs.stderr == math.inf
        assert report.lhs.mean == pytest.approx(1e156)
        assert math.isfinite(report.slack)
        assert report.notes == ("slack or its standard error is not finite",)


class TestVerdictPolicy:
    def _report(self, lhs_mean, rhs_mean, se):
        return ct.HarnackReport.build(
            "unit", {}, MCEstimate(lhs_mean, se, 100), MCEstimate(rhs_mean, se, 100)
        )

    def test_certified_above_minus_three(self):
        assert self._report(1.0, 1.0, 0.1).verdict == "certified"
        assert self._report(1.2, 1.0, 0.1).verdict == "certified"  # z ~ -1.41

    def test_violated_below_minus_five(self):
        assert self._report(2.0, 1.0, 0.1).verdict == "violated"

    def test_inconclusive_between(self):
        report = self._report(1.6, 1.0, 0.1)  # z ~ -4.2
        assert report.verdict == "inconclusive"

    def test_deterministic_edge(self):
        report = ct.HarnackReport.build(
            "unit", {}, MCEstimate.exact(0.0), MCEstimate.exact(0.0)
        )
        assert report.verdict == "certified"
        assert report.z_score == 0.0

    def test_non_finite_slack_is_inconclusive(self):
        nan_lhs = ct.HarnackReport.build(
            "unit", {}, MCEstimate(math.nan, math.nan, 100), MCEstimate(1.0, 0.1, 100)
        )
        infinite_se = ct.HarnackReport.build(
            "unit", {}, MCEstimate(1.0, 0.1, 100), MCEstimate(2.0, math.inf, 100)
        )
        for report in (nan_lhs, infinite_se):
            assert math.isnan(report.z_score)
            assert report.verdict == "inconclusive"
            assert report.notes == ("slack or its standard error is not finite",)

    def test_any_note_makes_the_verdict_inconclusive(self):
        lhs, rhs = MCEstimate(1.0, 0.1, 100), MCEstimate(2.0, 0.1, 100)
        assert ct.HarnackReport.build("unit", {}, lhs, rhs).verdict == "certified"
        noted = ct.HarnackReport.build("unit", {}, lhs, rhs, notes=["rate constant divergent"])
        assert noted.verdict == "inconclusive"
        assert noted.notes == ("rate constant divergent",)

    def test_report_dict_schema(self):
        doc = self._report(1.0, 1.2, 0.05).to_dict()
        assert set(doc) == {
            "inequality", "params", "lhs", "rhs", "slack", "slack_stderr",
            "z_score", "verdict", "form", "notes", "runtime_seconds", "seed",
        }
        assert set(doc["lhs"]) == {"mean", "stderr", "n"}

    def test_slack_stderr_sets_the_z_score(self):
        lhs, rhs = MCEstimate(1.0, 0.3, 100), MCEstimate(1.2, 0.4, 100)
        independent = ct.HarnackReport.build("unit", {}, lhs, rhs)
        assert independent.slack_stderr == math.hypot(0.3, 0.4)
        assert independent.z_score == pytest.approx(0.2 / 0.5)
        paired = ct.HarnackReport.build("unit", {}, lhs, rhs, slack_stderr=0.05)
        assert paired.slack_stderr == 0.05
        assert paired.z_score == pytest.approx(4.0)
        assert paired.to_dict()["slack_stderr"] == 0.05


def ou_model(rate):
    return sde.make_model("ou", dim=1, rate=rate)


class TestRateConstant:
    def test_deterministic_clock_exact(self):
        # linear clock, K = 0, lambda = 1, T = 2: inf over t of 1/t = 1/2
        model = sde.make_model("zero", dim=1)
        result = ct.harnack_rate_constant(model, linear_law(), 2.0)
        assert result.infimum == pytest.approx(0.5, abs=1e-12)
        assert result.argmin_t == pytest.approx(2.0)
        assert not result.divergent

    def test_expanding_bound_attained_at_horizon(self):
        # K = 1: 1 / int_0^t e^{-2s} ds decreases in t; inf at t = T = 1
        model = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: np.zeros_like(x), one_sided_bound=lambda t: 1.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(1),
        )
        result = ct.harnack_rate_constant(model, linear_law(), 1.0)
        assert result.infimum == pytest.approx(2.0 / (1.0 - math.exp(-2.0)), rel=1e-5)
        assert result.argmin_t == 1.0

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_ou_closed_forms(self, rate):
        # K = -a, lambda = 1: int_0^t e^{2as} dS has a closed-form inverse
        # mean for the linear clock and, via int_0^t B(r e^{2as}) ds, for
        # the stable clock
        t = ct.default_t_grid(1.0)
        linear = ct.harnack_rate_constant(ou_model(rate), linear_law(), 1.0)
        np.testing.assert_allclose(linear.per_t, 2.0 * rate / np.expm1(2.0 * rate * t), rtol=1e-5)
        for theta in (0.75, 0.5):
            stable = ct.harnack_rate_constant(ou_model(rate), pg.ClockLaw(bn.StableBernstein(theta)), 1.0)
            scale = np.expm1(2.0 * theta * rate * t) / (2.0 * theta * rate)
            np.testing.assert_allclose(stable.per_t, math.gamma(1.0 + 1.0 / theta) * scale ** (-1.0 / theta), rtol=1e-5)

    def test_cross_module_oracle_all_clocks(self):
        # K = 0, lambda = 1: the rate constant is E[1/S(t)], matching the
        # closed forms Gamma(1 + 1/theta) t^(-1/theta) and, for gamma,
        # b / (a t - 1), which also holds where a t is close to 1; the
        # tempered law has the trapezoid oracle in u
        model = sde.make_model("zero", dim=1)
        t_grid = ct.default_t_grid(1.0)
        for clock in (bn.StableBernstein(0.75), bn.StableBernstein(0.6), bn.TemperedStableBernstein(0.6, 0.5)):
            result = ct.harnack_rate_constant(model, pg.ClockLaw(clock), 1.0)
            reference = [reference_inverse_mean(clock, t) for t in t_grid]
            np.testing.assert_allclose(result.per_t, reference, rtol=1e-6, err_msg=str(clock))
        gamma = ct.harnack_rate_constant(model, pg.ClockLaw(bn.GammaBernstein(4.0, 1.0)), 1.0)
        finite = 4.0 * t_grid > 1.0
        assert np.isinf(gamma.per_t[~finite]).all()
        np.testing.assert_allclose(gamma.per_t[finite], 1.0 / (4.0 * t_grid[finite] - 1.0), rtol=1e-9)

    def test_agrees_with_monte_carlo_partials(self):
        # lambda^2 mean(1 / int_0^t e^{-2K} dS) over paths on a 4096-step grid
        model = ou_model(1.0)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        result = ct.harnack_rate_constant(model, law, 1.0)
        knots = np.unique(np.concatenate([np.linspace(0.0, 1.0, 4097), result.t_grid]))
        picks = [0, 16, 31]
        t_idx = np.searchsorted(knots, result.t_grid[picks])
        partials = ct._weighted_partials(model, law, knots, t_idx, 2000, pg.RngStream(7, purpose="rc-mc"), 1)
        for j, column in zip(picks, partials.T):
            est = MCEstimate.from_samples(1.0 / column)
            assert abs(est.mean - result.per_t[j]) < 3.0 * est.stderr, (result.t_grid[j], est, result.per_t[j])

    def test_divergence_flagged_for_vanishing_mass(self):
        # gamma(1, 1) has a*t <= 1 at every time up to T = 1, so E[1/S(t)]
        # is infinite on the whole grid
        model = sde.make_model("zero", dim=1)
        result = ct.harnack_rate_constant(model, pg.ClockLaw(bn.GammaBernstein(1.0, 1.0)), 1.0)
        assert np.isinf(result.per_t).all()
        assert result.divergent

    def test_gamma_times_with_a_finite_mean_are_admissible(self):
        # gamma(1.5, 1): a*t <= 1 up to t = 2/3; above, E[1/S(t)] = 1/(1.5 t - 1)
        # is finite (its variance is not, which does not matter without sampling)
        model = sde.make_model("zero", dim=1)
        result = ct.harnack_rate_constant(model, pg.ClockLaw(bn.GammaBernstein(1.5, 1.0)), 1.0)
        assert (np.isfinite(result.per_t) == (1.5 * result.t_grid > 1.0)).all()
        assert not result.divergent
        assert result.infimum == pytest.approx(2.0, rel=1e-9)
        assert result.argmin_t == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strong_contraction_does_not_overflow(self):
        # ou at rate 400: -int_0^T K = 400, so exp(-2 k_cum) alone overflows
        model = ou_model(400.0)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        result = ct.harnack_rate_constant(model, law, 1.0)
        assert not result.divergent
        assert 0.0 <= result.infimum < 1e-200
        factor, infinite_fraction = ct.power_infimum_factor(model, law, 1.0, 2.0, 1.0, n_paths=1000, stream=pg.RngStream(8))
        assert factor.mean == 1.0 and infinite_fraction == 0.0

    def test_weighted_partials_match_the_two_array_form(self):
        # the in-place weighting and cumulative sum against np.cumsum of a
        # weighted copy, on the same draws, over two chunks; the weights are
        # the squared scaled decay, scaled back by 4^shift
        model = sde.make_model("ou", dim=1, rate=3.0)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        times = np.linspace(0.0, 1.0, 17)
        t_idx = np.array([1, 8, 16])
        stream = pg.RngStream(47, purpose="partials")
        partials = ct._weighted_partials(model, law, times, t_idx, CHUNK_SIZE + 100, stream, 1)
        _, decay, shift = _scaled_decay(model.k_bound, times)
        assert shift > 0
        ref = []
        for chunk, count in enumerate((CHUNK_SIZE, 100)):
            gen = stream.child(replicate=chunk).generator()
            inc = pg.sample_subordinator_increments(law.bernstein, np.diff(times), gen, count)
            ref.append(np.ldexp(np.cumsum(decay[:-1] ** 2 * inc, axis=1)[:, t_idx - 1], 2 * shift))
        assert np.array_equal(partials, np.concatenate(ref))


# gamma(4, 1) crosses a*t = k at t = 0.25 (k = 1) and t = 0.5 (k = 2)
MOMENT_TIMES = np.array([0.125, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize(
    "clock",
    [bn.LinearBernstein(), bn.StableBernstein(0.75), bn.GammaBernstein(4.0, 1.0),
     bn.TemperedStableBernstein(0.6, 0.5)],
    ids=lambda clock: type(clock).__name__,
)
def test_moment_rule_marks_inverse_moments_and_rate_times(clock):
    # the rate at K = 0 and lambda = 1 is E[1/S(t)], the weighted moment with g = 1
    finite = {k: bn.negative_moment_finite(clock, k, MOMENT_TIMES) for k in (1.0, 2.0)}
    if isinstance(clock, bn.GammaBernstein):
        assert finite[1.0].tolist() == [False, False, True, True, True]
        assert finite[2.0].tolist() == [False, False, False, True, True]
    else:
        assert finite[1.0].all() and finite[2.0].all()
    for k, marks in finite.items():
        for t, moment_finite in zip(MOMENT_TIMES, marks):
            if moment_finite:
                assert math.isfinite(bn.inverse_moment(clock, k, t))
            else:
                with pytest.raises(bn.InfiniteMomentError):
                    bn.inverse_moment(clock, k, t)
    knots = np.unique(np.concatenate([np.linspace(0.0, 1.0, 17), MOMENT_TIMES]))
    rates = bn.inverse_weighted_moment(clock, knots, np.ones_like(knots), MOMENT_TIMES)
    assert (np.isinf(rates) == ~finite[1.0]).all()
    for t, rate in zip(MOMENT_TIMES[finite[1.0]], rates[finite[1.0]]):
        assert rate == pytest.approx(reference_inverse_mean(clock, t), rel=1e-6)


@pytest.mark.parametrize("driver", [
    "log", "power", "gradient", "coupling", "terminal_states", "terminal_states-3d",
    "semigroup_estimate", "run_coupled_batch", "harnack_transfer_check", "simulate_coupled", "integrate",
])
def test_starting_points_must_match_the_model_dimension(driver):
    # unchecked, a 1-D start on a 2-D model broadcasts to (1, 1) for the
    # paths while |x - y|^2 is taken in one coordinate; every path driver
    # runs the one check of sde._points
    model = sde.make_model("ou", dim=2)
    f = get_observable("sin1", 2)
    grid, law, stream = pg.TimeGrid.uniform(1.0, 10), linear_law(), pg.RngStream(49)
    clock = pg.RegularizedClock(grid=grid, values=grid.times.copy(), epsilon=1.0)
    bm = pg.sample_timechanged_bm(clock, 2, stream)
    calls = {
        "log": lambda: ct.log_harnack_certificate(f, [1.0], [0.0], grid, model, law, 1000, stream),
        "power": lambda: ct.power_harnack_certificate(f, 2.0, [1.0], [0.0], grid, model, law, 1000, stream),
        "gradient": lambda: ct.gradient_certificate(f, [1.0], grid, model, law, 1000, stream),
        "coupling": lambda: ct.coupling_property_bound(f, [1.0], [0.0], grid, model, law, 1000, stream),
        "terminal_states": lambda: sde.terminal_states(model, [1.0], grid, law, 100, stream),
        "terminal_states-3d": lambda: sde.terminal_states(model, np.zeros((2, 2, 2)), grid, law, 100, stream),
        "semigroup_estimate": lambda: sde.semigroup_estimate(f, [1.0], model, law, grid, 100, stream),
        "run_coupled_batch": lambda: cp.run_coupled_batch(model, [1.0], [0.0], grid, law, 100, stream),
        "harnack_transfer_check": lambda: cp.harnack_transfer_check(f, model, [1.0], [0.0], grid, law, 1000, stream),
        "simulate_coupled": lambda: cp.simulate_coupled(model, [1.0], [0.0], clock, bm),
        "integrate": lambda: sde.integrate([1.0], model, bm),
    }
    with pytest.raises(ValueError, match="model.dim = 2"):
        calls[driver]()


class TestLogHarnack:
    def test_jensen_consistency_equal_points(self):
        for name in ("zero", "ou", "double_well", "rotating"):
            model = sde.make_model(name, dim=2)
            f = get_observable("sin1", 2)
            report = ct.log_harnack_certificate(
                f, [0.4, -0.2], [0.4, -0.2], pg.TimeGrid.uniform(1.0, 200), model, linear_law(),
                20_000, pg.RngStream(5, purpose=f"jensen-{name}"),
            )
            assert report.verdict == "certified", name

    def test_sharp_brownian_case(self):
        # LHS and RHS are both exactly 1; the z-score must stay calibrated
        model = sde.make_model("zero", dim=2)
        f = get_observable("exp_a", 2, direction=[1.0, 0.0])
        report = ct.log_harnack_certificate(
            f, [0.0, 0.0], [1.0, 0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(), 100_000,
            pg.RngStream(6, purpose="sharp"),
        )
        assert report.verdict == "certified"
        assert -3.0 <= report.z_score <= 3.0
        assert report.lhs.mean == pytest.approx(1.0, abs=3.0 * report.lhs.stderr)
        assert report.rhs.mean == pytest.approx(1.0, abs=3.0 * report.rhs.stderr)

    def test_double_well_stable_certified(self):
        # the cubic drift needs the semi-implicit step under unbounded
        # stable-clock kicks; explicit Euler can blow up on rare paths
        model = sde.make_model("double_well", dim=1)
        f = get_observable("sin1", 1)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        report = ct.log_harnack_certificate(
            f, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 400), model, law, 50_000,
            pg.RngStream(7, purpose="dw"),
            method="semi_implicit",
        )
        assert report.verdict == "certified"

    def test_nonpositive_observable_rejected(self):
        model = sde.make_model("zero", dim=1)
        with pytest.raises(ValueError, match="strictly positive"):
            ct.log_harnack_certificate(
                lambda z: np.sin(z[:, 0]), [0.0], [1.0], pg.TimeGrid.uniform(1.0, 20), model,
                linear_law(), 2000, pg.RngStream(8, purpose="neg"),
            )


class TestCalibration:
    """z over 200 seeds in the two sharp cases, where the slack is exactly 0.

    Zero drift, linear clock, f = exp(<(1, 0), .>), T = 1, x = 0 and
    y = (1, 0).  The power case's moment side exp(2 W) is lognormal with
    sigma 2, so its z is skewed below about 20 000 paths whatever the
    pairing; both cases run at that size.
    """

    N_PATHS = 20_000
    SEEDS = range(200)

    def _setup(self):
        return (
            sde.make_model("zero", dim=2),
            get_observable("exp_a", 2, direction=[1.0, 0.0]),
            pg.TimeGrid.uniform(1.0, 10),
        )

    @staticmethod
    def _assert_standard(zs):
        zs = np.asarray(zs)
        assert abs(zs.mean()) <= 0.25
        assert 0.75 <= zs.std(ddof=1) <= 1.15
        assert np.mean(np.abs(zs) > 3.0) <= 0.02

    def test_sharp_log_case(self):
        model, f, grid = self._setup()
        self._assert_standard([
            ct.log_harnack_certificate(
                f, [0.0, 0.0], [1.0, 0.0], grid, model, linear_law(), self.N_PATHS,
                pg.RngStream(seed, purpose="calibration-log"),
            ).z_score
            for seed in self.SEEDS
        ])

    def test_power_equality_case(self):
        model, f, grid = self._setup()
        self._assert_standard([
            ct.power_harnack_certificate(
                f, 2.0, [0.0, 0.0], [1.0, 0.0], grid, model, linear_law(), self.N_PATHS,
                pg.RngStream(seed, purpose="calibration-power"),
            ).z_score
            for seed in self.SEEDS
        ])


class TestPowerHarnack:
    def test_equal_points_cauchy_schwarz(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        report = ct.power_harnack_certificate(
            f, 2.0, [0.3], [0.3], pg.TimeGrid.uniform(1.0, 200), model, linear_law(), 20_000,
            pg.RngStream(9, purpose="cs"),
        )
        assert report.verdict == "certified"

    def test_gaussian_equality_case(self):
        # both sides equal e^3 for f = exp(<a, .>), p = 2, T = 1
        model = sde.make_model("zero", dim=2)
        f = get_observable("exp_a", 2, direction=[1.0, 0.0])
        report = ct.power_harnack_certificate(
            f, 2.0, [0.0, 0.0], [1.0, 0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(),
            100_000, pg.RngStream(10, purpose="gauss"),
        )
        target = math.e**3
        assert abs(report.lhs.mean - target) <= 3.0 * report.lhs.stderr
        assert abs(report.rhs.mean - target) <= 3.0 * report.rhs.stderr
        assert report.verdict == "certified"

    def test_stable_above_half_certified(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        law = pg.ClockLaw(bn.StableBernstein(0.6))
        report = ct.power_harnack_certificate(
            f, 2.0, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 300), model, law, 50_000,
            pg.RngStream(11, purpose="st6"),
        )
        assert report.verdict == "certified"
        assert not report.notes

    def test_divergent_factor_inconclusive_below_half(self):
        # theta <= 1/2 makes E exp(c / S(t)) infinite; the factor overflows
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        law = pg.ClockLaw(bn.StableBernstein(0.4))
        report = ct.power_harnack_certificate(
            f, 2.0, [0.0], [2.0], pg.TimeGrid.uniform(1.0, 100), model, law, 5000,
            pg.RngStream(12, purpose="st4"),
        )
        assert report.verdict == "inconclusive"
        assert any("divergent" in note for note in report.notes)

    def test_large_p_limit_at_equal_points(self):
        # exponent p/(p-1)^2 -> 0: the factor collapses to exactly 1
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        report = ct.power_harnack_certificate(
            f, 100.0, [0.2], [0.2], pg.TimeGrid.uniform(1.0, 200), model, linear_law(), 20_000,
            pg.RngStream(13, purpose="plimit"),
        )
        assert report.verdict == "certified"
        # with x = y the multiplicative factor is exp(0) = 1, so the RHS is
        # the pure p-th moment
        assert report.rhs.mean > report.lhs.mean


class TestGradientBound:
    def test_single_path_rejected(self):
        # the variance side's n/(n - 1) needs two paths
        with pytest.raises(ValueError, match="at least 2 paths"):
            ct.gradient_certificate(
                get_observable("sin1", 1), [0.0], pg.TimeGrid.uniform(1.0, 10),
                sde.make_model("zero", dim=1), linear_law(), 1, pg.RngStream(30, purpose="g1"),
            )

    def test_constant_observable(self):
        model = sde.make_model("ou", dim=2, rate=1.0)
        f = get_observable("const", 2)
        report = ct.gradient_certificate(
            f, [0.0, 0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(), 5000,
            pg.RngStream(14, purpose="gc"),
        )
        assert report.lhs.mean == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == "certified"

    def test_brownian_sin_oracle_values(self):
        # P_T sin = e^{-T/2} sin: the squared gradient at 0 is e^{-1} and
        # the variance bound is (1 - e^{-2})/2 at T = 1
        model = sde.make_model("zero", dim=1)

        class Sin:
            sup_norm = 1.0

            def __call__(self, z):
                return np.sin(np.atleast_2d(z)[:, 0])

            def describe(self):
                return {"name": "sin"}

        report = ct.gradient_certificate(
            Sin(), [0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(), 100_000,
            pg.RngStream(15, purpose="gsin"), fd_step=0.05,
        )
        assert report.verdict == "certified"
        # finite-difference bias of sin at step 0.05 is ~4e-4 relative
        assert report.lhs.mean == pytest.approx(math.exp(-1.0), abs=3.0 * report.lhs.stderr + 1e-3)
        assert report.rhs.mean == pytest.approx(
            (1.0 - math.exp(-2.0)) / 2.0, abs=3.0 * report.rhs.stderr + 1e-3
        )

    def test_contractive_model_certifies_and_contracts(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        report = ct.gradient_certificate(
            f, [0.0], pg.TimeGrid.uniform(3.0, 300), model, linear_law(), 30_000,
            pg.RngStream(16, purpose="gou"),
        )
        assert report.verdict == "certified"
        # pathwise synchronous contraction at rate 1 over T = 3
        grid = pg.TimeGrid.uniform(3.0, 3000)
        gen = pg.RngStream(17, purpose="gcontract").generator()
        clock = linear_law().sample_raw(grid, gen, 1)
        dw = pg.bm_increments(clock, 1, gen)
        bm = pg.TimeChangedBMPath(grid=grid, dimension=1, increments=dw[0])
        a = sde.integrate([1.0], model, bm)
        b = sde.integrate([-1.0], model, bm)
        gap_end = abs(a.terminal[0] - b.terminal[0])
        assert gap_end <= math.exp(-3.0) * 2.0

    @pytest.mark.parametrize("a", [(1.0, 0.0), (0.5**0.5, 0.5**0.5)], ids=["axis", "diagonal"])
    def test_squared_gradient_norm_in_every_direction(self, a):
        # P_T sin(<a, x>) = e^{-|a|^2 T/2} sin(<a, x>): |grad|^2 at 0 is e^{-1}
        # for any unit a, also off the axes, where one axis sees half of it
        model = sde.make_model("zero", dim=2)
        a = np.array(a)

        class SinA:
            sup_norm = 1.0

            def __call__(self, z):
                return np.sin(np.atleast_2d(z) @ a)

            def describe(self):
                return {"name": "sin_a", "a": a.tolist()}

        report = ct.gradient_certificate(
            SinA(), [0.0, 0.0], pg.TimeGrid.uniform(1.0, 100), model, linear_law(), 40_000,
            pg.RngStream(23, purpose="gnorm"),
        )
        assert abs(report.lhs.mean - math.exp(-1.0)) <= 4.0 * report.lhs.stderr
        assert "direction" not in report.params
        assert report.verdict == "certified"

    def test_uninformative_difference_flagged(self):
        # the gradient of P_T bump vanishes at the origin by symmetry, so
        # the finite-difference stderr dominates the measured slope
        model = sde.make_model("zero", dim=1)
        f = get_observable("bump", 1)
        report = ct.gradient_certificate(
            f, [0.0], pg.TimeGrid.uniform(1.0, 20), model, linear_law(), 2000,
            pg.RngStream(18, purpose="gnoise"), fd_step=0.01,
        )
        assert report.verdict == "inconclusive"
        assert any("raise n_paths or fd_step" in note for note in report.notes)


@pytest.mark.usefixtures("two_cpus")
class TestStencilReplay:
    """The multi-start draw equals replaying one stream per start."""

    GRID = pg.TimeGrid.uniform(1.0, 20)
    LAW = pg.ClockLaw(bn.StableBernstein(0.75))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gradient_stencil(self, workers):
        model = sde.make_model("ou", dim=2)
        f = get_observable("sin1", 2)
        x, step = np.array([0.3, -0.2]), 0.05
        stream = pg.RngStream(44, purpose="replay-grad")
        report = ct.gradient_certificate(
            f, x, self.GRID, model, self.LAW, CHUNK_SIZE + 17, stream, fd_step=step,
            workers=workers,
        )
        noise = stream.child(purpose="grad-stencil")
        slopes = []
        for offset in step * np.eye(2):
            plus, minus = (
                f(sde.terminal_states(model, start, self.GRID, self.LAW, CHUNK_SIZE + 17, noise))
                for start in (x + offset, x - offset)
            )
            slopes.append((plus - minus) / (2.0 * step))
        mean, cov = np.mean(slopes, axis=1), np.cov(slopes)
        n = CHUNK_SIZE + 17
        assert report.lhs.mean == pytest.approx(mean @ mean - np.trace(cov) / n, rel=1e-12)
        assert report.lhs.stderr == pytest.approx(2.0 * math.sqrt(mean @ cov @ mean / n), rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_coupling_property_pair(self, workers):
        model = sde.make_model("zero", dim=2)
        f = get_observable("capnorm", 2)
        stream = pg.RngStream(45, purpose="replay-cpb")
        report = ct.coupling_property_bound(
            f, [0.0, 0.0], [0.5, 0.0], self.GRID, model, self.LAW, CHUNK_SIZE + 17, stream,
            workers=workers,
        )
        common = stream.child(purpose="couple-bound")
        f_x, f_y = (
            f(sde.terminal_states(model, start, self.GRID, self.LAW, CHUNK_SIZE + 17, common))
            for start in ([0.0, 0.0], [0.5, 0.0])
        )
        paired = MCEstimate.from_samples(f_x - f_y)
        assert report.lhs == MCEstimate(mean=abs(paired.mean), stderr=paired.stderr, n=paired.n)


class TestCouplingPropertyBound:
    def test_equal_points(self):
        model = sde.make_model("zero", dim=2)
        f = get_observable("capnorm", 2)
        report = ct.coupling_property_bound(
            f, [0.5, 0.0], [0.5, 0.0], pg.TimeGrid.uniform(4.0, 100), model, linear_law(), 5000,
            pg.RngStream(19, purpose="cpb0"),
        )
        assert report.lhs.mean == 0.0
        assert report.verdict == "certified"

    def test_brownian_quarter_bound(self):
        model = sde.make_model("zero", dim=2)
        f = get_observable("capnorm", 2)
        report = ct.coupling_property_bound(
            f, [0.0, 0.0], [0.5, 0.0], pg.TimeGrid.uniform(4.0, 200), model, linear_law(), 50_000,
            pg.RngStream(20, purpose="cpb"),
        )
        assert report.rhs.mean == pytest.approx(0.25, abs=1e-9)
        assert report.verdict == "certified"
        assert report.lhs.mean < 0.25

    def test_decay_in_horizon_for_stable_clock(self):
        model = sde.make_model("zero", dim=2)
        f = get_observable("capnorm", 2)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        bounds = []
        for horizon in (1.0, 2.0, 4.0, 8.0):
            report = ct.coupling_property_bound(
                f, [0.0, 0.0], [0.5, 0.0], pg.TimeGrid.uniform(horizon, 100), model, law, 20_000,
                pg.RngStream(21, purpose=f"cpbT{horizon}"),
            )
            assert report.verdict == "certified"
            bounds.append(report.rhs.mean)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        # the bound scales like T^(-1/(2 theta))
        ratio = bounds[0] / bounds[-1]
        assert ratio == pytest.approx(8.0 ** (1.0 / (2 * 0.75)), rel=1e-6)

    def test_gamma_clock_just_above_the_finite_mean_threshold(self):
        # a T = 1.05: E[1/S(T)] = b / (a T - 1) = 80 is finite, and the rhs
        # is lambda * sup f * |x - y| * sqrt(80)
        model = sde.make_model("zero", dim=2)
        f = get_observable("capnorm", 2)
        report = ct.coupling_property_bound(
            f, [0.0, 0.0], [0.5, 0.0], pg.TimeGrid.uniform(0.2625, 20), model,
            pg.ClockLaw(bn.GammaBernstein(4.0, 4.0)), 2000, pg.RngStream(22, purpose="cpbgamma"),
        )
        assert math.isfinite(report.rhs.mean)
        assert (report.rhs.mean / 0.5) ** 2 == pytest.approx(4.0 / (4.0 * 0.2625 - 1.0), rel=1e-12)

    def test_positive_one_sided_bound_rejected(self):
        model = sde.make_model("double_well", dim=1)
        f = get_observable("capnorm", 1)
        with pytest.raises(ValueError, match="K <= 0"):
            ct.coupling_property_bound(
                f, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 20), model, linear_law(), 2000,
                pg.RngStream(22, purpose="cpbk"),
            )

    def test_unbounded_observable_rejected(self):
        model = sde.make_model("zero", dim=1)
        f = get_observable("exp_a", 1)
        with pytest.raises(ValueError, match="bounded"):
            ct.coupling_property_bound(
                f, [0.0], [1.0], pg.TimeGrid.uniform(1.0, 20), model, linear_law(), 2000,
                pg.RngStream(23, purpose="cpbu"),
            )


class TestStableRateCheck:
    def test_linear_limit_slope_exact(self):
        fit = ct.stable_rate_check(
            1.0, np.array([0.1, 0.2, 0.4, 0.8]), 2000, pg.RngStream(24, purpose="fit-linear"),
        )
        assert fit.fitted_slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.slope_stderr == 0.0
        assert fit.consistent

    @pytest.mark.parametrize("theta", [0.5, 0.75])
    def test_stable_slopes(self, theta):
        fit = ct.stable_rate_check(
            theta, np.array([0.1, 0.2, 0.4, 0.8]), 100_000,
            pg.RngStream(25, purpose=f"fit-{theta}"),
        )
        assert fit.consistent
        assert fit.fitted_slope == pytest.approx(-1.0 / theta, abs=3.0 * fit.slope_stderr)

    def test_too_few_horizons_rejected(self):
        with pytest.raises(ValueError, match="4"):
            ct.stable_rate_check(
                0.5, np.array([0.1, 0.4, 0.8]), 1000,
                pg.RngStream(26, purpose="few"),
            )

    def test_repeated_horizons_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ct.stable_rate_check(
                0.5, np.array([0.5, 0.5, 0.5, 0.5]), 1000,
                pg.RngStream(28, purpose="repeat"),
            )
