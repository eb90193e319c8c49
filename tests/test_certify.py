import math

import numpy as np
import pytest

from subharnack import bernstein as bn
from subharnack import certify as ct
from subharnack import pathgen as pg
from subharnack import sde
from subharnack.parallel import CHUNK_SIZE
from subharnack.observables import get_observable
from subharnack.stats import MCEstimate, variance_estimate


def linear_law():
    return pg.ClockLaw(bn.LinearBernstein())


class TestEstimateAlgebra:
    def test_log_transform_folds_bias_into_stderr(self):
        est = MCEstimate(mean=2.0, stderr=0.1, n=100)
        logged = est.log()
        assert logged.mean == pytest.approx(math.log(2.0))
        assert logged.stderr == pytest.approx(0.05 + 0.1**2 / (2 * 4.0))


    def test_overflowing_variance_stderr_is_infinite(self):
        # the variance is finite; its square and the fourth moment are not
        var = variance_estimate(np.array([1e80, -1e80, 0.0, 0.0, 0.0]))
        assert var.mean == pytest.approx(5e159)
        assert var.stderr == math.inf
        product = var.times(MCEstimate(mean=2.0, stderr=0.1, n=5))
        assert product.mean == pytest.approx(1e160)
        assert product.stderr == math.inf


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


class TestRateConstant:
    def test_deterministic_clock_exact(self):
        # linear clock, K = 0, lambda = 1, T = 2: inf over t of 1/t = 1/2
        model = sde.make_model("zero", dim=1)
        result = ct.harnack_rate_constant(
            model, linear_law(), 2.0, n_paths=1000, stream=pg.RngStream(1, purpose="rc")
        )
        assert result.infimum.mean == pytest.approx(0.5, abs=1e-12)
        assert result.infimum.stderr == pytest.approx(0.0, abs=1e-12)
        assert result.argmin_t == pytest.approx(2.0)
        assert not result.divergent

    def test_expanding_bound_attained_at_horizon(self):
        # K = 1: E[1 / int_0^t e^{-2s} ds] decreases in t; inf at t = T = 1
        model = sde.SdeModel(
            dim=1,
            drift=sde.DriftModel(func=lambda t, x: np.zeros_like(x), one_sided_bound=lambda t: 1.0),
            diffusion=sde.DiffusionModel.isotropic(1.0),
            perturbation=sde.PerturbationModel.zero(1),
        )
        resolution = 4096
        result = ct.harnack_rate_constant(
            model, linear_law(), 1.0, n_paths=1000,
            stream=pg.RngStream(2, purpose="rc2"), resolution=resolution,
        )
        expected = 2.0 / (1.0 - math.exp(-2.0))
        assert result.infimum.mean == pytest.approx(expected, abs=expected * 4.0 / resolution)

    def test_cross_module_oracle_all_clocks(self):
        # K = 0, lambda = 1: the rate constant is E[1/S(t)], matching the
        # quadrature moments from the analytic layer
        model = sde.make_model("zero", dim=1)
        cases = [
            (bn.StableBernstein(0.75), [0.05, 0.2, 1.0]),
            (bn.StableBernstein(0.6), [0.2, 1.0]),
            (bn.GammaBernstein(4.0, 1.0), [0.5, 1.0]),
            (bn.TemperedStableBernstein(0.6, 0.5), [0.2, 1.0]),
        ]
        for clock, t_grid in cases:
            law = pg.ClockLaw(clock)
            result = ct.harnack_rate_constant(
                model, law, 1.0, t_grid=np.asarray(t_grid), n_paths=100_000,
                stream=pg.RngStream(3, purpose=f"rc3-{type(clock).__name__}"),
            )
            for t, est in zip(result.t_grid, result.per_t):
                ref = bn.inverse_moment(clock, 1, t)
                assert abs(est.mean - ref) < 3.0 * est.stderr, (clock, t)

    def test_divergence_flagged_for_vanishing_mass(self):
        # gamma increments with tiny shape underflow to zero mass near t=0,
        # matching the analytically infinite moment
        model = sde.make_model("zero", dim=1)
        law = pg.ClockLaw(bn.GammaBernstein(1.0, 1.0))
        result = ct.harnack_rate_constant(
            model, law, 1.0, t_grid=np.array([1e-3, 1.0]), n_paths=2000,
            stream=pg.RngStream(4, purpose="rc4"),
        )
        assert result.infinite_fraction > 0.01
        assert result.divergent

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_variance_times_are_inadmissible(self):
        # gamma(4, 1): a*t = 1, 2, 3, 4.  Var(1/S_t) is infinite at a*t <= 2,
        # so those times keep their sample mean but carry no error bar
        model = sde.make_model("zero", dim=1)
        law = pg.ClockLaw(bn.GammaBernstein(4.0, 1.0))
        result = ct.harnack_rate_constant(
            model, law, 1.0, t_grid=np.array([0.25, 0.5, 0.75, 1.0]), n_paths=2000,
            stream=pg.RngStream(5, purpose="rc5"),
        )
        assert [math.isinf(est.stderr) for est in result.per_t] == [True, True, False, False]
        assert all(math.isfinite(est.mean) for est in result.per_t)
        assert list(result.per_t_infinite[:2]) == [1.0, 0.0]
        assert not result.divergent
        # gamma(1.5, 1) at t = 0.5 and 1: a*t = 0.75 and 1.5, so no time is admissible
        only_heavy = ct.harnack_rate_constant(
            model, pg.ClockLaw(bn.GammaBernstein(1.5, 1.0)), 1.0,
            t_grid=np.array([0.5, 1.0]), n_paths=2000, stream=pg.RngStream(6, purpose="rc6"),
        )
        assert only_heavy.divergent

    def test_weighted_partials_match_the_two_array_form(self):
        # the in-place weighting and cumulative sum against np.cumsum of a
        # weighted copy, on the same draws, over two chunks
        model = sde.make_model("ou", dim=1, rate=3.0)
        law = pg.ClockLaw(bn.StableBernstein(0.75))
        times = np.linspace(0.0, 1.0, 17)
        t_idx = np.array([1, 8, 16])
        stream = pg.RngStream(47, purpose="partials")
        partials = ct._weighted_partials(model, law, times, t_idx, CHUNK_SIZE + 100, stream, 1)
        weights = np.exp(-2.0 * ct.clock_decay(model.k_bound, times)[0][:-1])
        ref = []
        for chunk, count in enumerate((CHUNK_SIZE, 100)):
            gen = stream.child(replicate=chunk).generator()
            inc = pg.sample_subordinator_increments(law.bernstein, np.diff(times), gen, count)
            ref.append(np.cumsum(weights * inc, axis=1)[:, t_idx - 1])
        assert np.array_equal(partials, np.concatenate(ref))


class TestLogHarnack:
    def test_jensen_consistency_equal_points(self):
        for name in ("zero", "ou", "double_well", "rotating"):
            model = sde.make_model(name, dim=2)
            f = get_observable("sin1", 2)
            report = ct.log_harnack_certificate(
                f, [0.4, -0.2], [0.4, -0.2], 1.0, model, linear_law(), 20_000,
                pg.RngStream(5, purpose=f"jensen-{name}"),
                grid=pg.TimeGrid.uniform(1.0, 200),
            )
            assert report.verdict == "certified", name

    def test_sharp_brownian_case(self):
        # LHS and RHS are both exactly 1; the z-score must stay calibrated
        model = sde.make_model("zero", dim=2)
        f = get_observable("exp_a", 2, direction=[1.0, 0.0])
        report = ct.log_harnack_certificate(
            f, [0.0, 0.0], [1.0, 0.0], 1.0, model, linear_law(), 100_000,
            pg.RngStream(6, purpose="sharp"), grid=pg.TimeGrid.uniform(1.0, 100),
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
            f, [0.0], [1.0], 1.0, model, law, 50_000,
            pg.RngStream(7, purpose="dw"), grid=pg.TimeGrid.uniform(1.0, 400),
            method="semi_implicit",
        )
        assert report.verdict == "certified"

    def test_nonpositive_observable_rejected(self):
        model = sde.make_model("zero", dim=1)
        with pytest.raises(ValueError, match="strictly positive"):
            ct.log_harnack_certificate(
                lambda z: np.sin(z[:, 0]), [0.0], [1.0], 1.0, model, linear_law(),
                2000, pg.RngStream(8, purpose="neg"), grid=pg.TimeGrid.uniform(1.0, 20),
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
                f, [0.0, 0.0], [1.0, 0.0], 1.0, model, linear_law(), self.N_PATHS,
                pg.RngStream(seed, purpose="calibration-log"), grid=grid,
            ).z_score
            for seed in self.SEEDS
        ])

    def test_power_equality_case(self):
        model, f, grid = self._setup()
        self._assert_standard([
            ct.power_harnack_certificate(
                f, 2.0, [0.0, 0.0], [1.0, 0.0], 1.0, model, linear_law(), self.N_PATHS,
                pg.RngStream(seed, purpose="calibration-power"), grid=grid,
            ).z_score
            for seed in self.SEEDS
        ])


class TestPowerHarnack:
    def test_equal_points_cauchy_schwarz(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        report = ct.power_harnack_certificate(
            f, 2.0, [0.3], [0.3], 1.0, model, linear_law(), 20_000,
            pg.RngStream(9, purpose="cs"), grid=pg.TimeGrid.uniform(1.0, 200),
        )
        assert report.verdict == "certified"

    def test_gaussian_equality_case(self):
        # both sides equal e^3 for f = exp(<a, .>), p = 2, T = 1
        model = sde.make_model("zero", dim=2)
        f = get_observable("exp_a", 2, direction=[1.0, 0.0])
        report = ct.power_harnack_certificate(
            f, 2.0, [0.0, 0.0], [1.0, 0.0], 1.0, model, linear_law(), 100_000,
            pg.RngStream(10, purpose="gauss"), grid=pg.TimeGrid.uniform(1.0, 100),
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
            f, 2.0, [0.0], [1.0], 1.0, model, law, 50_000,
            pg.RngStream(11, purpose="st6"), grid=pg.TimeGrid.uniform(1.0, 300),
        )
        assert report.verdict == "certified"
        assert not report.notes

    def test_divergent_factor_inconclusive_below_half(self):
        # theta <= 1/2 makes E exp(c / S(t)) infinite; the factor overflows
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        law = pg.ClockLaw(bn.StableBernstein(0.4))
        report = ct.power_harnack_certificate(
            f, 2.0, [0.0], [2.0], 1.0, model, law, 5000,
            pg.RngStream(12, purpose="st4"), grid=pg.TimeGrid.uniform(1.0, 100),
        )
        assert report.verdict == "inconclusive"
        assert any("divergent" in note for note in report.notes)

    def test_large_p_limit_at_equal_points(self):
        # exponent p/(p-1)^2 -> 0: the factor collapses to exactly 1
        model = sde.make_model("ou", dim=1, rate=1.0)
        f = get_observable("sin1", 1)
        report = ct.power_harnack_certificate(
            f, 100.0, [0.2], [0.2], 1.0, model, linear_law(), 20_000,
            pg.RngStream(13, purpose="plimit"), grid=pg.TimeGrid.uniform(1.0, 200),
        )
        assert report.verdict == "certified"
        # with x = y the multiplicative factor is exp(0) = 1, so the RHS is
        # the pure p-th moment
        assert report.rhs.mean > report.lhs.mean


class TestGradientBound:
    def test_constant_observable(self):
        model = sde.make_model("ou", dim=2, rate=1.0)
        f = get_observable("const", 2)
        report = ct.gradient_certificate(
            f, [0.0, 0.0], 1.0, model, linear_law(), 5000,
            pg.RngStream(14, purpose="gc"), grid=pg.TimeGrid.uniform(1.0, 100),
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
            Sin(), [0.0], 1.0, model, linear_law(), 100_000,
            pg.RngStream(15, purpose="gsin"), fd_step=0.05,
            grid=pg.TimeGrid.uniform(1.0, 100),
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
            f, [0.0], 3.0, model, linear_law(), 30_000,
            pg.RngStream(16, purpose="gou"), grid=pg.TimeGrid.uniform(3.0, 300),
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

    def test_uninformative_difference_flagged(self):
        # the gradient of P_T bump vanishes at the origin by symmetry, so
        # the finite-difference stderr dominates the measured slope
        model = sde.make_model("zero", dim=1)
        f = get_observable("bump", 1)
        report = ct.gradient_certificate(
            f, [0.0], 1.0, model, linear_law(), 2000,
            pg.RngStream(18, purpose="gnoise"), fd_step=0.01,
            grid=pg.TimeGrid.uniform(1.0, 20),
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
            f, x, 1.0, model, self.LAW, CHUNK_SIZE + 17, stream, fd_step=step,
            grid=self.GRID, workers=workers,
        )
        noise = stream.child(purpose="grad-stencil")
        slopes = []
        for offset in step * np.eye(2):
            plus, minus = (
                f(sde.terminal_states(model, start, self.GRID, self.LAW, CHUNK_SIZE + 17, noise))
                for start in (x + offset, x - offset)
            )
            slopes.append(MCEstimate.from_samples((plus - minus) / (2.0 * step)))
        best = max(slopes, key=lambda e: abs(e.mean))
        assert report.lhs == best.power(2.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_coupling_property_pair(self, workers):
        model = sde.make_model("zero", dim=2)
        f = get_observable("capnorm", 2)
        stream = pg.RngStream(45, purpose="replay-cpb")
        report = ct.coupling_property_bound(
            f, [0.0, 0.0], [0.5, 0.0], 1.0, model, self.LAW, CHUNK_SIZE + 17, stream,
            grid=self.GRID, workers=workers,
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
            f, [0.5, 0.0], [0.5, 0.0], 4.0, model, linear_law(), 5000,
            pg.RngStream(19, purpose="cpb0"), grid=pg.TimeGrid.uniform(4.0, 100),
        )
        assert report.lhs.mean == 0.0
        assert report.verdict == "certified"

    def test_brownian_quarter_bound(self):
        model = sde.make_model("zero", dim=2)
        f = get_observable("capnorm", 2)
        report = ct.coupling_property_bound(
            f, [0.0, 0.0], [0.5, 0.0], 4.0, model, linear_law(), 50_000,
            pg.RngStream(20, purpose="cpb"), grid=pg.TimeGrid.uniform(4.0, 200),
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
                f, [0.0, 0.0], [0.5, 0.0], horizon, model, law, 20_000,
                pg.RngStream(21, purpose=f"cpbT{horizon}"),
                grid=pg.TimeGrid.uniform(horizon, 100),
            )
            assert report.verdict == "certified"
            bounds.append(report.rhs.mean)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        # the bound scales like T^(-1/(2 theta))
        ratio = bounds[0] / bounds[-1]
        assert ratio == pytest.approx(8.0 ** (1.0 / (2 * 0.75)), rel=1e-6)

    def test_positive_one_sided_bound_rejected(self):
        model = sde.make_model("double_well", dim=1)
        f = get_observable("capnorm", 1)
        with pytest.raises(ValueError, match="K <= 0"):
            ct.coupling_property_bound(
                f, [0.0], [1.0], 1.0, model, linear_law(), 2000,
                pg.RngStream(22, purpose="cpbk"), grid=pg.TimeGrid.uniform(1.0, 20),
            )

    def test_unbounded_observable_rejected(self):
        model = sde.make_model("zero", dim=1)
        f = get_observable("exp_a", 1)
        with pytest.raises(ValueError, match="bounded"):
            ct.coupling_property_bound(
                f, [0.0], [1.0], 1.0, model, linear_law(), 2000,
                pg.RngStream(23, purpose="cpbu"), grid=pg.TimeGrid.uniform(1.0, 20),
            )


class TestStableRateCheck:
    def test_linear_limit_slope_exact(self):
        model = sde.make_model("zero", dim=1)
        fit = ct.stable_rate_check(
            1.0, model, np.array([0.1, 0.2, 0.4, 0.8]), 2000,
            pg.RngStream(24, purpose="fit-linear"), clock=bn.LinearBernstein(),
        )
        assert fit.fitted_slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.slope_stderr == 0.0
        assert fit.consistent

    @pytest.mark.parametrize("theta", [0.5, 0.75])
    def test_stable_slopes(self, theta):
        model = sde.make_model("zero", dim=1)
        fit = ct.stable_rate_check(
            theta, model, np.array([0.1, 0.2, 0.4, 0.8]), 100_000,
            pg.RngStream(25, purpose=f"fit-{theta}"),
        )
        assert fit.consistent
        assert fit.fitted_slope == pytest.approx(-1.0 / theta, abs=3.0 * fit.slope_stderr)

    def test_too_few_horizons_rejected(self):
        model = sde.make_model("zero", dim=1)
        with pytest.raises(ValueError, match="4"):
            ct.stable_rate_check(
                0.5, model, np.array([0.1, 0.4, 0.8]), 1000,
                pg.RngStream(26, purpose="few"),
            )

    def test_repeated_horizons_rejected(self):
        model = sde.make_model("zero", dim=1)
        with pytest.raises(ValueError, match="distinct"):
            ct.stable_rate_check(
                0.5, model, np.array([0.5, 0.5, 0.5, 0.5]), 1000,
                pg.RngStream(28, purpose="repeat"),
            )

    def test_nonzero_bound_model_rejected(self):
        model = sde.make_model("ou", dim=1, rate=1.0)
        with pytest.raises(ValueError, match="K = 0"):
            ct.stable_rate_check(
                0.5, model, np.array([0.1, 0.2, 0.4, 0.8]), 1000,
                pg.RngStream(27, purpose="badmodel"),
            )
