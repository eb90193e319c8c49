"""Bernstein functions and closed-form subordinator moment integrals.

A Bernstein function B characterizes a subordinator S through its Laplace
transform E exp(-r S(t)) = exp(-t B(r)).  Four variants are supported, each
with an exactly samplable increment law:

* ``LinearBernstein``         B(r) = r, the deterministic clock S(t) = t
* ``StableBernstein``         B(r) = r^theta, theta in (0, 1)
* ``GammaBernstein``          B(r) = a log(1 + r/b)
* ``TemperedStableBernstein`` B(r) = (r + kappa)^theta - kappa^theta

Negative moments E[1/S(t)^k] are evaluated from the identity

    E[1/S(t)^k] = (1/Gamma(k)) * integral_0^inf r^(k-1) exp(-t B(r)) dr

by adaptive Gauss-Kronrod quadrature on a finite panel [0, R] with an
analytic bound forcing the discarded tail below 1e-12 of the result.
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
    "inverse_moment",
    "bernstein_from_config",
]

# k is restricted to keep Gamma(k) and the integrand representable.
MAX_MOMENT_ORDER = 170.0


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
        at = bf.a * t
        if at <= k:
            return math.inf
        # (1 + r/b)^(-at) <= (r/b)^(-at)
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
    if isinstance(bf, GammaBernstein) and bf.a * t <= k:
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
