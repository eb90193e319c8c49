"""Bernstein functions and closed-form subordinator moment integrals.

A Bernstein function B characterizes a subordinator S through its Laplace
transform E exp(-r S(t)) = exp(-t B(r)).  Four variants are supported, each
with an exactly samplable increment law:

* ``LinearBernstein``         B(r) = r, the deterministic clock S(t) = t
* ``StableBernstein``         B(r) = r^theta, theta in (0, 1)
* ``GammaBernstein``          B(r) = a log(1 + r/b)
* ``TemperedStableBernstein`` B(r) = (r + kappa)^theta - kappa^theta

Two rules decide from B alone, with no quadrature, which moments are finite:

* ``negative_moment_finite``    E[1/S(t)^k], except for gamma at a*t <= k
* ``exponential_moment_finite`` E exp(c / S(t)) for all c, t > 0, only for the
  deterministic clock and (tempered) stable exponents above one half

Finite negative moments are evaluated from the identity

    E[1/S(t)^k] = (1/Gamma(k)) * integral_0^inf r^(k-1) exp(-t B(r)) dr

by adaptive Gauss-Kronrod quadrature on a finite panel [0, R] with an
analytic bound forcing the discarded tail below 1e-12 of the result.

For a deterministic weight g >= 0 the Laplace-exponent identity
E exp(-r int_0^t g dS) = exp(-int_0^t B(r g(s)) ds) (Sato, *Levy Processes and
Infinitely Divisible Distributions*, CUP 1999) gives, with k = 1,

    E[1 / int_0^t g dS] = integral_0^inf exp(-int_0^t B(r g(s)) ds) dr,

which ``inverse_weighted_moment`` evaluates at many t at once, with numpy
alone; g = 1 is ``inverse_moment`` with k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BernsteinFunction",
    "LinearBernstein",
    "StableBernstein",
    "GammaBernstein",
    "TemperedStableBernstein",
    "InfiniteMomentError",
    "QuadratureError",
    "evaluate",
    "laplace_transform",
    "negative_moment_finite",
    "exponential_moment_finite",
    "inverse_moment",
    "inverse_weighted_moment",
    "bernstein_from_config",
]

# k is restricted to keep Gamma(k) and the integrand representable.
MAX_MOMENT_ORDER = 170.0

# Trapezoid step in w = log r for inverse_weighted_moment: the integrand is
# smooth and decays at both ends, so the rule converges geometrically in
# 1/step and 0.2 leaves an error far below the inner rule's.  |w| stays below
# _W_LIMIT, so exp(w) and the integrand, at most exp(w), stay finite; the
# window stops growing once its tails are below _W_RTOL of its integral.
_W_STEP = 0.2
_W_LIMIT = 690.0
_W_RTOL = 1e-12


class InfiniteMomentError(ValueError):
    """The negative-moment integral diverges for these parameters."""


class QuadratureError(RuntimeError):
    """Quadrature did not reach the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.message = message
        self.achieved = achieved

    def __reduce__(self):
        # rebuilt from its fields, so it crosses a worker process's pipe
        return type(self), (self.message, self.achieved)


@dataclass(frozen=True)
class BernsteinFunction:
    """Base class; concrete variants implement ``__call__``."""

    def __call__(self, r):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class LinearBernstein(BernsteinFunction):
    def __call__(self, r):
        return np.asarray(r, dtype=float) if np.ndim(r) else float(r)

    def to_config(self):
        return {"type": "linear"}


@dataclass(frozen=True)
class StableBernstein(BernsteinFunction):
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"stable exponent must lie in (0, 1), got {self.theta}")

    def __call__(self, r):
        return np.power(r, self.theta)

    def to_config(self):
        return {"type": "stable", "theta": self.theta}


@dataclass(frozen=True)
class GammaBernstein(BernsteinFunction):
    """B(r) = a log(1 + r/b); S(t) is Gamma(shape a*t, rate b)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("gamma variant needs positive scale and rate")

    def __call__(self, r):
        return self.a * np.log1p(np.asarray(r, dtype=float) / self.b)

    def to_config(self):
        return {"type": "gamma", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class TemperedStableBernstein(BernsteinFunction):
    theta: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"stable exponent must lie in (0, 1), got {self.theta}")
        if self.kappa <= 0:
            raise ValueError("tempering parameter must be positive")

    def __call__(self, r):
        return np.power(np.asarray(r, dtype=float) + self.kappa, self.theta) - self.kappa**self.theta

    def to_config(self):
        return {"type": "tempered_stable", "theta": self.theta, "kappa": self.kappa}


def bernstein_from_config(config) -> BernsteinFunction:
    kind = config.get("type")
    if kind == "linear":
        return LinearBernstein()
    if kind == "stable":
        return StableBernstein(theta=config["theta"])
    if kind == "gamma":
        return GammaBernstein(a=config["a"], b=config["b"])
    if kind == "tempered_stable":
        return TemperedStableBernstein(theta=config["theta"], kappa=config["kappa"])
    raise ValueError(f"unknown Bernstein function type {kind!r}")


def evaluate(bf: BernsteinFunction, r) -> float:
    """Evaluate B(r) for r >= 0."""
    if np.any(np.asarray(r) < 0):
        raise ValueError("Bernstein functions are defined for r >= 0")
    return bf(r)


def laplace_transform(bf: BernsteinFunction, r, t) -> float:
    """E exp(-r S(t)) = exp(-t B(r)) for r, t >= 0."""
    if np.any(np.asarray(r) < 0) or np.any(np.asarray(t) < 0):
        raise ValueError("laplace_transform needs r >= 0 and t >= 0")
    return np.exp(-np.asarray(t, dtype=float) * bf(r))


def negative_moment_finite(bf: BernsteinFunction, k, t):
    """Whether E[1/S(t)^k] is finite, element-wise over t: False exactly for
    the gamma variant at a*t <= k, whose B grows only logarithmically."""
    t = np.asarray(t, dtype=float)
    if isinstance(bf, GammaBernstein):
        return bf.a * t > k
    return np.full(t.shape, True)


def exponential_moment_finite(bf: BernsteinFunction):
    """Whether E exp(c / S(t)) is finite for all c, t > 0.

    Finite for the deterministic clock and for (tempered) stable exponents
    above one half; the slow small-value tails of gamma subordinators and of
    stable exponents at or below one half make the moment infinite.
    """
    if isinstance(bf, LinearBernstein):
        return True
    if isinstance(bf, (StableBernstein, TemperedStableBernstein)):
        return bf.theta > 0.5
    return False


def _log_upper_gamma_bound(a, x):
    """log of an upper bound for the unnormalized incomplete Gamma(a, x).

    Valid for x >= 2a + 2: integral_x^inf u^(a-1) e^-u du <= 2 x^(a-1) e^-x.
    """
    if x < 2.0 * a + 2.0:
        return math.inf
    return math.log(2.0) + (a - 1.0) * math.log(x) - x


def _log_tail_bound(bf, k, t, cutoff):
    """log upper bound on integral_cutoff^inf r^(k-1) exp(-t B(r)) dr."""
    if isinstance(bf, LinearBernstein):
        # substitute u = t r
        return _log_upper_gamma_bound(k, t * cutoff) - k * math.log(t)
    if isinstance(bf, StableBernstein):
        a = k / bf.theta
        return (
            _log_upper_gamma_bound(a, t * cutoff**bf.theta)
            - math.log(bf.theta)
            - a * math.log(t)
        )
    if isinstance(bf, TemperedStableBernstein):
        # (r + kappa)^theta - kappa^theta >= r^theta - kappa^theta
        a = k / bf.theta
        return (
            t * bf.kappa**bf.theta
            + _log_upper_gamma_bound(a, t * cutoff**bf.theta)
            - math.log(bf.theta)
            - a * math.log(t)
        )
    if isinstance(bf, GammaBernstein):
        # a*t > k here, as inverse_moment checks; (1 + r/b)^(-at) <= (r/b)^(-at)
        at = bf.a * t
        return at * math.log(bf.b) + (k - at) * math.log(cutoff) - math.log(at - k)
    raise ValueError(f"unsupported Bernstein variant {type(bf).__name__}")


def _moment_scale_guess(bf, k, t):
    """Rough log-scale of E[1/S(t)^k], used to set the tail threshold."""
    if isinstance(bf, (StableBernstein, TemperedStableBernstein)):
        from scipy.special import gammaln

        th = bf.theta
        return gammaln(k / th) - gammaln(k) - math.log(th) - (k / th) * math.log(t)
    return -k * math.log(max(t, 1e-300))


def inverse_moment(bf: BernsteinFunction, k, t, abs_tol=1e-9) -> float:
    """E[1/S(t)^k] via the Laplace-exponent integral representation.

    Raises ``InfiniteMomentError`` when the integral diverges (the gamma
    variant with a*t <= k, whose Bernstein function grows too slowly) and
    ``QuadratureError`` when the requested tolerance is not reached.
    """
    # scipy is imported here, not at module level: it is most of the
    # package's import time, and only this quadrature needs it
    from scipy.integrate import quad
    from scipy.special import gammaln

    k = float(k)
    t = float(t)
    if k <= 0 or t <= 0:
        raise ValueError("inverse_moment needs k > 0 and t > 0")
    if k >= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order k must stay below {MAX_MOMENT_ORDER}")
    if not negative_moment_finite(bf, k, t):
        raise InfiniteMomentError(
            f"E[1/S(t)^k] is infinite for the gamma variant when a*t <= k "
            f"(a*t = {bf.a * t:g}, k = {k:g})"
        )

    log_scale = _moment_scale_guess(bf, k, t)
    # Discarded tail must stay below 1e-12 of the result's scale.
    log_target = log_scale + math.log(1e-13)
    cutoff = max(1.0, 1.0 / t)
    for _ in range(200):
        if _log_tail_bound(bf, k, t, cutoff) <= log_target:
            break
        cutoff *= 2.0
    else:
        raise QuadratureError("could not bound the quadrature tail", math.inf)

    lgk = gammaln(k)

    # Inner panel [0, 1]; for k < 1 the substitution u = r^k removes the
    # endpoint singularity.
    if k >= 1.0:

        def inner(r):
            if r <= 0.0:
                return 0.0 if k > 1.0 else math.exp(-lgk)
            return math.exp((k - 1.0) * math.log(r) - t * float(bf(r)) - lgk)

        inner_upper = 1.0
    else:

        def inner(u):
            if u <= 0.0:
                return math.exp(-lgk) / k
            return math.exp(-t * float(bf(u ** (1.0 / k))) - lgk) / k

        inner_upper = 1.0

    # Outer panel [1, cutoff] in log coordinates, where all supported
    # variants decay at least exponentially.
    def outer(w):
        r = math.exp(w)
        return math.exp(k * w - t * float(bf(r)) - lgk)

    value1, err1 = quad(inner, 0.0, inner_upper, epsabs=1e-13, epsrel=1e-12, limit=400)
    if cutoff > 1.0:
        value2, err2 = quad(
            outer, 0.0, math.log(cutoff), epsabs=1e-13, epsrel=1e-12, limit=1000
        )
    else:
        value2, err2 = 0.0, 0.0
    value = value1 + value2
    tail = math.exp(_log_tail_bound(bf, k, t, cutoff) - lgk)
    achieved = err1 + err2 + tail
    if achieved > max(abs_tol, abs_tol * abs(value)):
        raise QuadratureError("inverse_moment quadrature did not converge", achieved)
    return value


def _end_tail(f_end, slope):
    """Bound on the integral of a log-concave integrand beyond a window end
    where it is f_end and its log falls at least at ``slope`` per unit of w;
    inf where it does not fall."""
    falls = slope > 0
    return np.where(falls, f_end / np.where(falls, slope, 1.0), np.inf)


def inverse_weighted_moment(bf: BernsteinFunction, knots, g, times):
    """E[1 / int_0^t g dS] at each t in ``times``, for a deterministic weight
    g >= 0 given at ``knots`` (0 = s_0 < s_1 < ...); every t must be a knot.

    The identity in the module docstring runs in w = log r.  The inner
    integral is the trapezoid rule in s, cumulated once for every t; the
    outer one is the trapezoid rule in w with step ``_W_STEP``.  For the four
    variants u B'(u) increases, so the integrand is log-concave in w, and the
    integral beyond each window end is at most the end value over the
    decay rate of its last step.  The window grows from the scale of
    int g ds until both bounds are below ``_W_RTOL`` of the window's
    integral for every t, or reaches |w| = ``_W_LIMIT``; the bounds are added
    to the result (in the power-law tail of the gamma variant they are exact).

    A t where ``negative_moment_finite(bf, 1, t)`` is False gets inf, as does
    a t whose integrand still does not fall at the window's end (g vanishing
    on [0, t] in floating point).
    """
    knots = np.asarray(knots, dtype=float)
    g = np.asarray(g, dtype=float)
    times = np.asarray(times, dtype=float)
    if knots[0] != 0.0 or np.any(np.diff(knots) <= 0) or g.shape != knots.shape or not np.all(g >= 0):
        raise ValueError("knots must increase from 0 and carry a nonnegative weight each")
    idx = np.searchsorted(knots, times)
    if np.any(times <= 0) or np.any(idx >= knots.size) or np.any(knots[np.minimum(idx, knots.size - 1)] != times):
        raise ValueError("every time must be a positive knot")
    out = np.full(times.shape, np.inf)
    finite = negative_moment_finite(bf, 1.0, times)
    cols = idx[finite] - 1
    if cols.size == 0:
        return out
    half_ds = np.diff(knots) / 2.0

    def log_integrand(w):
        b = bf(np.exp(w)[:, None] * g)
        return w[:, None] - np.cumsum(half_ds * (b[:, 1:] + b[:, :-1]), axis=1)[:, cols]

    # w = _W_STEP * k for integers |k| <= top, starting around -log int g ds
    top = round(_W_LIMIT / _W_STEP)
    mass = float(np.sum(half_ds * (g[1:] + g[:-1])))
    centre = min(max(round(-math.log(max(mass, 1e-300)) / _W_STEP), 40 - top), top - 40)
    k = np.arange(centre - 40, centre + 41)
    ell = log_integrand(_W_STEP * k)
    while True:
        f = np.exp(ell)
        body = _W_STEP * (f.sum(axis=0) - (f[0] + f[-1]) / 2.0)
        tail_lo = _end_tail(f[0], (ell[1] - ell[0]) / _W_STEP)
        tail_hi = _end_tail(f[-1], (ell[-2] - ell[-1]) / _W_STEP)
        grow = k.size // 2
        lo = k[:0] if np.all(tail_lo <= _W_RTOL * body) else np.arange(max(k[0] - grow, -top), k[0])
        hi = k[:0] if np.all(tail_hi <= _W_RTOL * body) else np.arange(k[-1] + 1, min(k[-1] + grow, top) + 1)
        if lo.size + hi.size == 0:
            out[finite] = body + tail_lo + tail_hi
            return out
        ell = np.concatenate([log_integrand(_W_STEP * lo), ell, log_integrand(_W_STEP * hi)])
        k = np.concatenate([lo, k, hi])
