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

Finite negative moments come from the identity (Sato, *Levy Processes and
Infinitely Divisible Distributions*, CUP 1999)

    E[1/S(t)^k] = (1/Gamma(k)) * integral_0^inf r^(k-1) exp(-t B(r)) dr,

and, for a deterministic weight g >= 0 and k = 1, from its weighted form

    E[1 / int_0^t g dS] = integral_0^inf exp(-int_0^t B(r g(s)) ds) dr.

``inverse_moment`` and ``inverse_weighted_moment`` (many t at once) run both
on one rule with numpy alone: the trapezoid rule in w = log r.  For the four
variants u B'(u) increases, so the integrand is log-concave in w; it decays
at both ends, so the rule converges geometrically in 1/step (Trefethen &
Weideman, SIAM Review 56(3), 2014), and log-concavity bounds the tails
beyond the window.
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

# Trapezoid step in w = log r at k = 1: it leaves an error far below 1e-12
# of the result.  |w| stays below _W_LIMIT, so exp(w) stays finite; the
# window stops growing once its tails are below _W_RTOL of its integral.
_W_STEP = 0.2
_W_LIMIT = 690.0
_W_RTOL = 1e-12


class InfiniteMomentError(ValueError):
    """The negative-moment integral diverges for these parameters."""


class QuadratureError(RuntimeError):
    """The moment quadrature's integrand does not fall inside its window."""


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


def inverse_moment(bf: BernsteinFunction, k, t) -> float:
    """E[1/S(t)^k] by the identity in the module docstring, in w = log r.

    The integrand exp(k w - t B(e^w)) / Gamma(k) runs through the rule of
    ``inverse_weighted_moment``, ``_log_w_trapezoid``, with step
    0.2 / max(1, sqrt(k)) (its peak narrows as k grows), on a window that
    starts around w = -log t.
    Where a gamma tail reaches |w| = ``_W_LIMIT`` (a*t - k below about 0.04)
    the rule's end error, of order step^2 (a*t - k)^2 times the tail's share,
    reaches 3e-10 relative at a*t - k = 0.01.

    Raises ``InfiniteMomentError`` where ``negative_moment_finite`` is False,
    ``QuadratureError`` where the integrand does not fall by |w| =
    ``_W_LIMIT``, and ``FloatingPointError`` where it overflows a float.
    """
    k = float(k)
    t = float(t)
    if k <= 0 or t <= 0:
        raise ValueError("inverse_moment needs k > 0 and t > 0")
    if k >= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order k must stay below {MAX_MOMENT_ORDER}")
    if not negative_moment_finite(bf, k, t):
        raise InfiniteMomentError(
            f"E[1/S(t)^k] is infinite for the gamma variant when a*t <= k (a*t = {bf.a * t:g}, k = {k:g})"
        )
    lgk = math.lgamma(k)
    with np.errstate(over="raise"):
        value = float(_log_w_trapezoid(lambda w: k * w - t * bf(np.exp(w)) - lgk, -math.log(t), _W_STEP / max(1.0, math.sqrt(k))))
    if not math.isfinite(value):
        raise QuadratureError(f"the integrand of E[1/S(t)^k] does not fall by |log r| = {_W_LIMIT:g}")
    return value


def _end_tail(f_end, slope):
    """Bound on the integral of a log-concave integrand beyond a window end
    where it is f_end and its log falls at least at ``slope`` per unit of w;
    inf where it does not fall."""
    falls = slope > 0
    return np.where(falls, f_end / np.where(falls, slope, 1.0), np.inf)


def _log_w_trapezoid(log_integrand, centre, step):
    """Integral over w of exp(log_integrand(w)), one column per time.

    The trapezoid rule with ``step`` on the nodes w = step * j, for integers
    |j| <= _W_LIMIT / step, on a window of 81 nodes around ``centre``.  The
    integrand is log-concave in w, so the integral beyond each window end is
    at most the end value over the decay rate of its last step.  The window
    grows until both bounds are below ``_W_RTOL`` of the window's integral
    for every column, or reaches |w| = ``_W_LIMIT``; the bounds are added to
    the result (in the power-law tail of the gamma variant they are exact),
    and a column whose integrand still does not fall there gets inf.
    """
    top = round(_W_LIMIT / step)
    centre = min(max(round(centre / step), 40 - top), top - 40)
    j = np.arange(centre - 40, centre + 41)
    ell = log_integrand(step * j)
    while True:
        f = np.exp(ell)
        body = step * (f.sum(axis=0) - (f[0] + f[-1]) / 2.0)
        tail_lo = _end_tail(f[0], (ell[1] - ell[0]) / step)
        tail_hi = _end_tail(f[-1], (ell[-2] - ell[-1]) / step)
        grow = j.size // 2
        lo = j[:0] if np.all(tail_lo <= _W_RTOL * body) else np.arange(max(j[0] - grow, -top), j[0])
        hi = j[:0] if np.all(tail_hi <= _W_RTOL * body) else np.arange(j[-1] + 1, min(j[-1] + grow, top) + 1)
        if lo.size + hi.size == 0:
            return body + tail_lo + tail_hi
        ell = np.concatenate([log_integrand(step * lo), ell, log_integrand(step * hi)])
        j = np.concatenate([lo, j, hi])


def inverse_weighted_moment(bf: BernsteinFunction, knots, g, times):
    """E[1 / int_0^t g dS] at each t in ``times``, for a deterministic weight
    g >= 0 given at ``knots`` (0 = s_0 < s_1 < ...); every t must be a knot.

    The inner integral of the identity in the module docstring is the
    trapezoid rule in s, cumulated once for every t; the outer one runs
    with step ``_W_STEP`` on a window that starts around -log int g ds.

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

    mass = float(np.sum(half_ds * (g[1:] + g[:-1])))
    out[finite] = _log_w_trapezoid(log_integrand, -math.log(max(mass, 1e-300)), _W_STEP)
    return out
