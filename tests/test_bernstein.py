import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import comb, gammaincc
from scipy.special import gamma as gamma_fn

from subharnack import bernstein as bn


def oracle_inverse_moment(bf, k, t, n_nodes=400_001, scale=1.0):
    """Independent check: compactify with r = scale u/(1-u) and use the
    trapezoid rule in u.

    Deliberately shares nothing with the library quadrature path (no log-r
    window, no tail bounds); accuracy is roughly 1e-8 for the smooth cases in
    these tests when ``scale`` is near the r where t B(r) = 1.
    """
    u = np.linspace(1e-9, 1.0 - 1e-9, n_nodes)
    r = scale * u / (1.0 - u)
    integrand = r ** (k - 1.0) * np.exp(-t * np.asarray(bf(r))) * scale / (1.0 - u) ** 2
    return np.trapezoid(integrand, u) / gamma_fn(k)


def closed_inverse_moment(bf, k, t):
    """E[1/S(t)^k] in closed form: linear, stable and gamma at any k; the
    tempered law at integer k, where r = v^(1/theta) - kappa turns the
    integral into a binomial sum of upper incomplete gamma functions."""
    if isinstance(bf, bn.LinearBernstein):
        return t ** (-k)
    if isinstance(bf, bn.StableBernstein):
        th = bf.theta
        return math.exp(math.lgamma(k / th) - math.lgamma(k) - (k / th) * math.log(t)) / th
    if isinstance(bf, bn.GammaBernstein):
        at = bf.a * t
        return math.exp(k * math.log(bf.b) + math.lgamma(at - k) - math.lgamma(at))
    assert k == int(k), "the tempered closed form needs an integer k"
    th, ka, c = bf.theta, bf.kappa, t * bf.kappa**bf.theta
    terms = (
        comb(k - 1, j) * (-ka) ** (k - 1 - j) * t ** (-(j + 1) / th) * gamma_fn((j + 1) / th) * gammaincc((j + 1) / th, c)
        for j in range(int(k))
    )
    return math.exp(c) * sum(terms) / (th * gamma_fn(k))


def quad_half_moment(bf, t):
    """E[1/S(t)^(1/2)] by scipy's ``quad`` on (2/sqrt(pi)) int_0^inf exp(-t B(s^2)) ds,
    the form r = s^2 of the identity, smooth at s = 0."""
    value, _ = quad(lambda s: math.exp(-t * float(bf(s * s))), 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
    return 2.0 * value / math.sqrt(math.pi)


class TestEvaluate:
    def test_linear_identity(self):
        assert bn.evaluate(bn.LinearBernstein(), 3.0) == 3.0

    def test_stable_sqrt(self):
        assert bn.evaluate(bn.StableBernstein(0.5), 4.0) == pytest.approx(2.0, abs=1e-15)

    def test_gamma_log(self):
        # log(1 + (e-1)) = 1 by the definition of e
        value = bn.evaluate(bn.GammaBernstein(1.0, 1.0), math.e - 1.0)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_tempered_formula(self):
        ts = bn.TemperedStableBernstein(0.6, 0.5)
        assert ts(2.0) == pytest.approx(2.5**0.6 - 0.5**0.6, abs=1e-14)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bn.evaluate(bn.LinearBernstein(), -1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: bn.StableBernstein(0.0),
            lambda: bn.StableBernstein(1.0),
            lambda: bn.StableBernstein(1.5),
            lambda: bn.GammaBernstein(0.0, 1.0),
            lambda: bn.GammaBernstein(1.0, -2.0),
            lambda: bn.TemperedStableBernstein(0.5, 0.0),
            lambda: bn.TemperedStableBernstein(1.2, 1.0),
        ],
    )
    def test_invalid_parameters_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()


ALL_VARIANTS = [
    bn.LinearBernstein(),
    bn.StableBernstein(0.5),
    bn.StableBernstein(0.75),
    bn.GammaBernstein(1.0, 1.0),
    bn.TemperedStableBernstein(0.6, 0.5),
]


class TestShape:
    """B(0) = 0, nondecreasing, concave on sampled grids."""

    @pytest.mark.parametrize("bf", ALL_VARIANTS, ids=lambda b: type(b).__name__)
    def test_zero_at_origin(self, bf):
        assert float(bf(0.0)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("bf", ALL_VARIANTS, ids=lambda b: type(b).__name__)
    def test_nondecreasing_and_concave(self, bf):
        r = np.linspace(0.0, 50.0, 2001)
        values = np.asarray(bf(r))
        assert np.all(np.diff(values) >= -1e-12)
        second_divided = np.diff(values, 2)
        assert np.all(second_divided <= 1e-12)

    def test_stable_lower_bound_hypothesis(self):
        # B(r) >= c r^theta with c = 1 from r_0 = 0 on
        for theta in (0.5, 0.6, 0.75):
            r = np.linspace(0.0, 100.0, 5001)
            assert np.all(bn.StableBernstein(theta)(r) >= r**theta - 1e-12)


class TestLaplaceTransform:
    def test_r_zero_is_one(self):
        for bf in ALL_VARIANTS:
            assert bn.laplace_transform(bf, 0.0, 5.0) == pytest.approx(1.0, abs=1e-15)

    def test_linear_value(self):
        assert bn.laplace_transform(bn.LinearBernstein(), 1.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )

    def test_stable_value(self):
        assert bn.laplace_transform(bn.StableBernstein(0.5), 4.0, 1.0) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )


SWEEP_LAWS = [
    bn.LinearBernstein(),
    bn.StableBernstein(0.3),
    bn.StableBernstein(0.5),
    bn.StableBernstein(0.75),
    bn.GammaBernstein(4.0, 4.0),
    bn.GammaBernstein(2.0, 0.5),
    bn.TemperedStableBernstein(0.6, 1.0),
]
SWEEP_TIMES = np.geomspace(0.05, 20.0, 7)


class TestInverseMoment:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_linear_closed_form(self, k, t):
        assert bn.inverse_moment(bn.LinearBernstein(), k, t) == pytest.approx(
            t ** (-k), abs=1e-9
        )

    def test_stable_half_example(self):
        # Gamma(1 + 1/theta) t^(-1/theta) = Gamma(3) = 2 at theta = 1/2, t = 1
        assert bn.inverse_moment(bn.StableBernstein(0.5), 1, 1) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.5, 0.6, 0.75])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_stable_closed_form(self, theta, t):
        expected = gamma_fn(1.0 + 1.0 / theta) * t ** (-1.0 / theta)
        assert bn.inverse_moment(bn.StableBernstein(theta), 1, t) == pytest.approx(
            expected, rel=1e-9
        )

    def test_gamma_closed_form(self):
        # S(t) ~ Gamma(shape a t, rate b): E[1/S] = b / (a t - 1)
        value = bn.inverse_moment(bn.GammaBernstein(1.0, 1.0), 1, 3.0)
        assert value == pytest.approx(0.5, abs=1e-9)
        value2 = bn.inverse_moment(bn.GammaBernstein(2.0, 3.0), 2, 2.0)
        assert value2 == pytest.approx(9.0 / (3.0 * 2.0), abs=1e-9)

    @pytest.mark.parametrize(
        "bf",
        [bn.StableBernstein(0.6), bn.TemperedStableBernstein(0.6, 0.5), bn.GammaBernstein(2.0, 1.0)],
        ids=lambda b: type(b).__name__,
    )
    def test_against_independent_quadrature_oracle(self, bf):
        value = bn.inverse_moment(bf, 1.2, 1.3)
        assert value == pytest.approx(oracle_inverse_moment(bf, 1.2, 1.3), abs=2e-7)

    @pytest.mark.parametrize("bf", SWEEP_LAWS, ids=repr)
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
    def test_sweep_against_closed_forms(self, bf, k):
        # the tempered law at k = 1/2 has no closed form: scipy's quad instead
        for t in SWEEP_TIMES:
            if not bn.negative_moment_finite(bf, k, t):
                continue
            if isinstance(bf, bn.TemperedStableBernstein) and k == 0.5:
                expected = quad_half_moment(bf, t)
            else:
                expected = closed_inverse_moment(bf, k, t)
            assert bn.inverse_moment(bf, k, t) == pytest.approx(expected, rel=1e-10), t

    @pytest.mark.parametrize("k", [20.0, 100.0, 169.0])
    def test_high_orders_linear(self, k):
        # the peak narrows like 1/sqrt(k); the step follows it
        for t in (0.5, 1.0, 2.0):
            assert bn.inverse_moment(bn.LinearBernstein(), k, t) == pytest.approx(t ** (-k), rel=1e-10)

    def test_gamma_mean_just_above_its_threshold(self):
        # a t = 1.05: E[1/S] = b / (a t - 1) = 80 has a power-law tail in r
        # that decays only like r^(-1.05)
        assert bn.inverse_moment(bn.GammaBernstein(4.0, 4.0), 1, 0.2625) == pytest.approx(80.0, rel=1e-12)
        for at in (1.02, 1.1, 1.22):
            assert bn.inverse_moment(bn.GammaBernstein(2.0, 3.0), 1, at / 2.0) == pytest.approx(3.0 / (at - 1.0), rel=1e-10)

    def test_integrand_that_never_falls_is_a_quadrature_error(self):
        # log r - 1e-300 r still rises at log r = 690, the window's limit
        with pytest.raises(bn.QuadratureError):
            bn.inverse_moment(bn.LinearBernstein(), 1.0, 1e-300)

    def test_moment_beyond_the_float_range_raises(self):
        # t^(-k) = 1e450
        with pytest.raises(FloatingPointError):
            bn.inverse_moment(bn.LinearBernstein(), 150.0, 1e-3)

    def test_divergent_gamma_moment_signalled(self):
        with pytest.raises(bn.InfiniteMomentError):
            bn.inverse_moment(bn.GammaBernstein(1.0, 1.0), 1.5, 1.0)
        with pytest.raises(bn.InfiniteMomentError):
            bn.inverse_moment(bn.GammaBernstein(1.0, 1.0), 1.0, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bn.inverse_moment(bn.LinearBernstein(), 0.0, 1.0)
        with pytest.raises(ValueError):
            bn.inverse_moment(bn.LinearBernstein(), 1.0, 0.0)
        with pytest.raises(ValueError):
            bn.inverse_moment(bn.LinearBernstein(), 200.0, 1.0)


class TestInverseMomentProperties:
    def test_strictly_decreasing_in_t(self):
        for bf in ALL_VARIANTS[:3]:
            values = [bn.inverse_moment(bf, 1.5, t) for t in (0.5, 1.0, 2.0, 4.0)]
            assert all(a > b + 1e-9 for a, b in zip(values, values[1:]))

    def test_increasing_in_k(self):
        # with E[1/S] >= 1 on these parameters the moments grow in k
        for bf in (bn.LinearBernstein(), bn.StableBernstein(0.6)):
            values = [bn.inverse_moment(bf, k, 0.5) for k in (1.0, 1.5, 2.0, 3.0)]
            assert all(b > a - 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_laplace_consistency_linear(self, k, t):
        assert abs(bn.inverse_moment(bn.LinearBernstein(), k, t) - t ** (-k)) < 1e-9

    def test_stable_scaling_constant_in_t(self):
        theta = 0.6
        bf = bn.StableBernstein(theta)
        values = [
            bn.inverse_moment(bf, 1, t) * t ** (1.0 / theta)
            for t in np.geomspace(0.1, 10.0, 7)
        ]
        assert max(values) - min(values) < 1e-6


class TestConfigRoundTrip:
    @pytest.mark.parametrize("bf", ALL_VARIANTS, ids=lambda b: type(b).__name__)
    def test_round_trip(self, bf):
        assert bn.bernstein_from_config(bf.to_config()) == bf

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            bn.bernstein_from_config({"type": "cauchy"})
