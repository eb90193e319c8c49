"""Monte Carlo certification of the log-Harnack, power-Harnack, gradient,
and coupling-property inequalities, plus the small-time rate exponents.

Each certificate estimates both sides of an inequality, propagates standard
errors through the transforms by the delta method (second-order bias terms
are folded into the stderr, never into the point value), and issues a
statistical verdict:

* ``certified``    slack z-score >= -3
* ``violated``     slack z-score <  -5
* ``inconclusive`` in between, or the report carries a note

The +-3 / +-5 thresholds bound the false-violation probability below 1e-5
per report under the Gaussian limit.  Any note (a divergent rate constant
or factor, an infinite clock moment, a finite difference lost in its noise)
makes the verdict inconclusive.  So does a slack or slack stderr that is
not finite: z is then NaN, and a report with no other note says why.

Every certificate draws its paths through ``_f_terminals`` (f at each
start's terminals from one multi-start ``terminal_states`` call per
stream), takes the per-path clock sums behind the rate constant and the
power factor from ``_cost_partials``, and is assembled by ``_report``.  The
log-Harnack, gradient and coupling-property certificates step all of their
starting points through one clock and noise draw per path (common random
numbers).  The log-Harnack z-score uses the stderr of the slack on that
joint sample: per path, the influence value f(X_T) / P_T f(x) - log f(Y_T)
(the first-order delta-method expansion of the slack) carries the paired
Monte Carlo error, and the independently estimated rate constant adds its
own stderr in quadrature.  The power-Harnack certificate keeps independent
streams for its two sides: its moment side f^p is heavy-tailed for
unbounded f, and a paired z then inherits that skew (in the Gaussian
equality case its mean is about -0.4 at 20 000 paths) where independent
sides stay within the calibration gate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bernstein as bn
from .coupling import clock_decay
from .parallel import map_path_chunks
from .pathgen import ClockLaw, RngStream, TimeGrid, sample_subordinator_increments
from .sde import SdeModel, terminal_states
from .stats import MCEstimate, variance_estimate, weighted_slope

__all__ = [
    "MCEstimate",
    "HarnackReport",
    "RateConstantResult",
    "RateFit",
    "default_t_grid",
    "harnack_rate_constant",
    "power_infimum_factor",
    "log_harnack_certificate",
    "power_harnack_certificate",
    "gradient_certificate",
    "coupling_property_bound",
    "stable_rate_check",
]

CERTIFIED = "certified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

def _z_score(slack, combined_stderr):
    if not (math.isfinite(slack) and math.isfinite(combined_stderr)):
        return math.nan
    if combined_stderr > 0:
        return slack / combined_stderr
    if slack > 0:
        return math.inf
    if slack < 0:
        return -math.inf
    return 0.0


def _verdict(z):
    if z >= -3.0:
        return CERTIFIED
    if z < -5.0:
        return VIOLATED
    return INCONCLUSIVE


@dataclass(frozen=True)
class HarnackReport:
    """Both sides of one inequality with a statistical verdict."""

    inequality: str
    params: dict
    lhs: MCEstimate
    rhs: MCEstimate
    slack: float
    slack_stderr: float
    z_score: float
    verdict: str
    form: str = ""
    notes: tuple = ()
    runtime_seconds: float = 0.0
    seed: int | None = None

    @classmethod
    def build(cls, inequality, params, lhs, rhs, form="", notes=(), runtime_seconds=0.0, seed=None, slack_stderr=None):
        """Report with z = slack / slack_stderr; any note makes it inconclusive.

        ``slack_stderr`` defaults to the stderr of a difference of
        independent sides, hypot(lhs.stderr, rhs.stderr); certificates whose
        sides share draws pass the paired stderr instead.  A non-finite
        slack or stderr gives z = NaN and, failing any other note, a note
        of its own.
        """
        slack = rhs.mean - lhs.mean
        if slack_stderr is None:
            slack_stderr = math.hypot(lhs.stderr, rhs.stderr)
        z = _z_score(slack, slack_stderr)
        notes = tuple(notes)
        if math.isnan(z) and not notes:
            notes = ("slack or its standard error is not finite",)
        verdict = INCONCLUSIVE if notes else _verdict(z)
        return cls(
            inequality=inequality,
            params=params,
            lhs=lhs,
            rhs=rhs,
            slack=slack,
            slack_stderr=slack_stderr,
            z_score=z,
            verdict=verdict,
            form=form,
            notes=notes,
            runtime_seconds=runtime_seconds,
            seed=seed,
        )

    def to_dict(self):
        return {
            "inequality": self.inequality,
            "params": self.params,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
            "slack": self.slack,
            "slack_stderr": self.slack_stderr,
            "z_score": self.z_score,
            "verdict": self.verdict,
            "form": self.form,
            "notes": list(self.notes),
            "runtime_seconds": self.runtime_seconds,
            "seed": self.seed,
        }


def default_t_grid(horizon):
    """Geometric grid of 32 points on [T/1000, T].

    The infimum over a continuum is approximated from above on this grid,
    which can only loosen the certified right-hand side.
    """
    return np.geomspace(horizon / 1000.0, horizon, 32)


@dataclass(frozen=True)
class RateConstantResult:
    """Estimates of E[lambda_t^2 / int_0^t exp(-2K) dS] on a time grid.

    A grid time where any path carries zero clock mass gets mean inf and is
    excluded from the infimum (heavy clocks really do have infinite moments
    at small times); the result as a whole is divergent only when no
    admissible time remains.  A time whose estimate has infinite variance
    (gamma clocks with a*t <= 2) keeps its sample mean, gets stderr inf and
    is excluded from the infimum too.  ``per_t_infinite`` is the share of
    infinite paths per time, set to 1 where a gamma clock's mean diverges
    (a*t <= 1).
    """

    t_grid: np.ndarray
    per_t: tuple
    per_t_infinite: np.ndarray
    infimum: MCEstimate
    argmin_t: float

    @property
    def infinite_fraction(self) -> float:
        return float(self.per_t_infinite.max())

    @property
    def divergent(self) -> bool:
        return not math.isfinite(self.infimum.mean)


def _weighted_partials(model, clock_law, sim_times, t_idx, n_paths, stream, workers):
    """Per-path Stieltjes sums int_0^t exp(-2K) dS at the requested times."""
    k_cum, _, _ = clock_decay(model.k_bound, sim_times)
    weights = np.exp(-2.0 * k_cum[:-1])
    durations = np.diff(sim_times)

    def run_chunk(gen, count):
        inc = sample_subordinator_increments(clock_law.bernstein, durations, gen, count)
        inc *= weights
        np.cumsum(inc, axis=1, out=inc)
        return inc[:, t_idx - 1]

    return map_path_chunks(n_paths, stream, run_chunk, workers)


def _cost_partials(model, clock_law, horizon, t_grid, n_paths, stream, workers, resolution):
    """The t grid, per-path int_0^t exp(-2K) dS on it and lambda_t^2 there.

    The sums run on ``resolution`` uniform steps refined by the t grid.
    """
    if t_grid is None:
        t_grid = default_t_grid(horizon)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0) or np.any(t_grid > horizon + 1e-12):
        raise ValueError("t grid must lie inside (0, T]")
    sim_times = np.unique(
        np.concatenate([[0.0], np.linspace(0.0, horizon, resolution + 1), t_grid])
    )
    t_idx = np.searchsorted(sim_times, t_grid)
    if not np.allclose(sim_times[t_idx], t_grid):
        raise AssertionError("t grid points must be simulation knots")
    partials = _weighted_partials(model, clock_law, sim_times, t_idx, n_paths, stream, workers)
    lam_sq = np.asarray([model.lambda_bound(t) ** 2 for t in t_grid])
    return t_grid, partials, lam_sq


def harnack_rate_constant(model: SdeModel, clock_law: ClockLaw, horizon, t_grid=None, n_paths=10_000, stream: RngStream = None, workers=1, resolution=256) -> RateConstantResult:
    """Monte Carlo estimate of the Harnack cost rate and its infimum over t.

    Paths with zero clock mass before a grid time contribute +inf there, and
    a time with an infinite mean or stderr is left out of the infimum; the
    result is divergent when no time is left.
    """
    if n_paths < 1000:
        raise ValueError("rate constant estimation needs at least 1000 paths")
    stream = stream or RngStream(0, purpose="rate")
    t_grid, partials, lam_sq = _cost_partials(model, clock_law, horizon, t_grid, n_paths, stream, workers, resolution)
    with np.errstate(divide="ignore"):
        values = np.where(partials > 0.0, lam_sq / np.maximum(partials, 1e-300), np.inf)
    per_t_infinite = np.isinf(values).mean(axis=0)
    heavy = np.zeros(t_grid.size, dtype=bool)
    if isinstance(clock_law.bernstein, bn.GammaBernstein):
        # E[1/S(t)^k] of a gamma subordinator is infinite at a*t <= k: the
        # mean diverges at a*t <= 1, the variance at a*t <= 2
        at = clock_law.bernstein.a * t_grid
        per_t_infinite = np.maximum(per_t_infinite, (at <= 1.0).astype(float))
        heavy = at <= 2.0
    per_t = []
    for j in range(t_grid.size):
        col = values[:, j]
        if np.isinf(col).any():
            per_t.append(MCEstimate(mean=math.inf, stderr=math.inf, n=col.size))
        elif heavy[j]:
            per_t.append(MCEstimate(mean=float(col.mean()), stderr=math.inf, n=col.size))
        else:
            per_t.append(MCEstimate.from_samples(col))
    admissible = [j for j, est in enumerate(per_t) if math.isfinite(est.mean) and math.isfinite(est.stderr)]
    if admissible:
        j_min = min(admissible, key=lambda j: per_t[j].mean)
        infimum = per_t[j_min]
        argmin_t = float(t_grid[j_min])
    else:
        infimum = MCEstimate(mean=math.inf, stderr=math.inf, n=n_paths)
        argmin_t = float(t_grid[-1])
    return RateConstantResult(
        t_grid=t_grid,
        per_t=tuple(per_t),
        per_t_infinite=per_t_infinite,
        infimum=infimum,
        argmin_t=argmin_t,
    )


def exponential_moment_finite(bernstein):
    """Whether E exp(c / S(t)) is finite for all c, t > 0.

    Finite for the deterministic clock and for (tempered) stable exponents
    above one half; the slow small-value tails of gamma subordinators and of
    stable exponents at or below one half make the moment infinite.
    """
    if isinstance(bernstein, bn.LinearBernstein):
        return True
    if isinstance(bernstein, (bn.StableBernstein, bn.TemperedStableBernstein)):
        return bernstein.theta > 0.5
    return False


def power_infimum_factor(model: SdeModel, clock_law: ClockLaw, horizon, p, dist_sq, t_grid=None, n_paths=10_000, stream: RngStream = None, workers=1, resolution=256):
    """E[ inf_t exp( p lambda_t^2 |x-y|^2 / (2 (p-1)^2 int_0^t e^{-2K} dS) ) ].

    Returns the estimate together with the fraction of paths whose infimum
    overflowed to +inf; a single such path makes the estimate infinite
    (expected when the clock puts too little mass near the horizon).
    """
    if p <= 1:
        raise ValueError("power-Harnack exponent requires p > 1")
    stream = stream or RngStream(0, purpose="factor")
    _, partials, lam_sq = _cost_partials(model, clock_law, horizon, t_grid, n_paths, stream, workers, resolution)
    coeff = p * lam_sq * dist_sq / (2.0 * (p - 1.0) ** 2)
    with np.errstate(divide="ignore", over="ignore"):
        exponents = np.where(partials > 0.0, coeff / np.maximum(partials, 1e-300), np.inf)
        per_path = np.exp(exponents.min(axis=1))
    infinite_fraction = float(np.isinf(per_path).mean())
    if np.isinf(per_path).any():
        estimate = MCEstimate(mean=math.inf, stderr=math.inf, n=n_paths)
    else:
        estimate = MCEstimate.from_samples(per_path)
    return estimate, infinite_fraction


def _f_terminals(f, model, starts, grid, clock_law, n_paths, stream, workers, method):
    """f at the terminals of each start, all starts driven by one draw per path."""
    finals = terminal_states(model, np.stack(starts), grid, clock_law, n_paths, stream, workers=workers, method=method)
    return [np.asarray(f(finals[:, k]), dtype=float) for k in range(len(starts))]


def _rate_term(model, clock_law, horizon, t_grid, n_paths, stream, workers, rate=None):
    """The rate constant on max(1000, n/10) paths, unless given, with its notes."""
    rate = rate or harnack_rate_constant(
        model, clock_law, horizon, t_grid=t_grid, n_paths=max(1000, n_paths // 10),
        stream=stream, workers=workers,
    )
    notes = [f"rate constant divergent: {rate.infinite_fraction:.2%} of paths infinite"] if rate.divergent else []
    return rate, notes


def _report(inequality, f, model, clock_law, params, lhs, rhs, notes, started, stream, form="", slack_stderr=None):
    """The report, with the model, clock and observable merged into params."""
    params = {"model": model.label, "model_params": dict(model.params),
              "clock": clock_law.bernstein.to_config(),
              "observable": getattr(f, "describe", lambda: str(f))(), **params}
    return HarnackReport.build(
        inequality, params, lhs, rhs, form=form, notes=notes,
        runtime_seconds=time.perf_counter() - started, seed=stream.master_seed,
        slack_stderr=slack_stderr,
    )


def log_harnack_certificate(f, x, y, horizon, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, grid: TimeGrid = None, t_grid=None, workers=1, rate_result: RateConstantResult | None = None, method="euler") -> HarnackReport:
    """Check P_T log f(y) <= log P_T f(x) + (|x-y|^2 / 2) * rate constant.

    Requires strictly positive bounded f; any nonpositive sample raises.
    The log of the x-side estimate carries a delta-method stderr with its
    first-order bias folded in.  Both sides come from one draw per path;
    the slack's stderr is that of the per-path influence value
    f(X_T) / P_T f(x) - log f(Y_T), plus the log bias, combined in
    quadrature with the independent rate-constant term.
    """
    started = time.perf_counter()
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    grid = grid or TimeGrid.uniform(horizon, 500)
    dist_sq = float(np.sum((x - y) ** 2))

    f_x, f_y = _f_terminals(f, model, [x, y], grid, clock_law, n_paths, stream.child(purpose="log-pair"), workers, method)
    if np.any(f_y <= 0.0) or np.any(f_x <= 0.0):
        raise ValueError("log-Harnack needs strictly positive f; found f <= 0 on a sample")
    lhs = MCEstimate.from_samples(np.log(f_y))
    base = MCEstimate.from_samples(f_x)

    rate, notes = _rate_term(model, clock_law, horizon, t_grid, n_paths, stream.child(purpose="log-rate"), workers, rate_result)
    cost = rate.infimum.scaled(dist_sq / 2.0)
    rhs = base.log().plus(cost)
    paired = MCEstimate.from_samples(f_x / base.mean - np.log(f_y))
    log_bias = base.stderr**2 / (2.0 * base.mean**2)  # as in MCEstimate.log
    params = {"x": x.tolist(), "y": y.tolist(), "T": horizon, "n_paths": n_paths,
              "argmin_t": rate.argmin_t, "cost_constant": rate.infimum.mean}
    return _report(
        "log-harnack", f, model, clock_law, params, lhs, rhs, notes, started, stream,
        form="infimum outside the expectation",
        slack_stderr=math.hypot(paired.stderr + log_bias, cost.stderr),
    )


def power_harnack_certificate(f, p, x, y, horizon, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, grid: TimeGrid = None, t_grid=None, workers=1, method="euler") -> HarnackReport:
    """Check (P_T f(y))^p <= P_T f^p(x) * (E inf_t exp[...])^(p-1)."""
    started = time.perf_counter()
    if p <= 1:
        raise ValueError("power-Harnack needs p > 1")
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    grid = grid or TimeGrid.uniform(horizon, 500)
    dist_sq = float(np.sum((x - y) ** 2))

    (f_y,) = _f_terminals(f, model, [y], grid, clock_law, n_paths, stream.child(purpose="pow-lhs"), workers, method)
    lhs = MCEstimate.from_samples(f_y).power(p)
    (f_x,) = _f_terminals(f, model, [x], grid, clock_law, n_paths, stream.child(purpose="pow-rhs"), workers, method)
    moment = MCEstimate.from_samples(f_x**p)

    factor, infinite_fraction = power_infimum_factor(
        model, clock_law, horizon, p, dist_sq, t_grid=t_grid,
        n_paths=max(1000, n_paths // 10), stream=stream.child(purpose="pow-factor"),
        workers=workers,
    )
    if math.isfinite(factor.mean):
        rhs = moment.times(factor.power(p - 1.0))
    else:
        rhs = MCEstimate(mean=math.inf, stderr=math.inf, n=factor.n)
    notes = []
    if dist_sq > 0 and not exponential_moment_finite(clock_law.bernstein):
        notes.append(
            "multiplicative factor divergent: E exp(c/S(t)) is infinite for "
            "this clock (needs a stable-type exponent above one half); the "
            "sample mean is reported but certifies nothing"
        )
    elif not math.isfinite(factor.mean):
        notes.append(
            f"multiplicative factor divergent: {infinite_fraction:.2%} of paths "
            "overflowed (heavy small-time tail of the clock)"
        )
    params = {"x": x.tolist(), "y": y.tolist(), "T": horizon, "p": p, "n_paths": n_paths}
    return _report(
        "power-harnack", f, model, clock_law, params, lhs, rhs, notes, started, stream,
        form="expectation outside the infimum",
    )


def gradient_certificate(f, x, horizon, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, fd_step=0.05, grid: TimeGrid = None, t_grid=None, workers=1, method="euler") -> HarnackReport:
    """Check |grad P_T f|(x)^2 <= Var of f(X_T(x)) times the rate constant.

    The gradient is probed by central finite differences along every axis
    with common random numbers across the stencil (all 2d stencil points
    are stepped through one clock and noise draw per path), which cancels
    most of the Monte Carlo variance of the difference.
    """
    started = time.perf_counter()
    if fd_step <= 0:
        raise ValueError("finite-difference step must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    grid = grid or TimeGrid.uniform(horizon, 500)

    offsets = fd_step * np.eye(model.dim)
    stencil = _f_terminals(f, model, list(x + offsets) + list(x - offsets), grid, clock_law, n_paths, stream.child(purpose="grad-stencil"), workers, method)
    derivative_estimates = [
        MCEstimate.from_samples((stencil[j] - stencil[model.dim + j]) / (2.0 * fd_step))
        for j in range(model.dim)
    ]
    j_max = int(np.argmax([abs(e.mean) for e in derivative_estimates]))
    best = derivative_estimates[j_max]
    lhs = best.power(2.0)

    (center,) = _f_terminals(f, model, [x], grid, clock_law, n_paths, stream.child(purpose="grad-var"), workers, method)
    var = variance_estimate(center)
    rate, notes = _rate_term(model, clock_law, horizon, t_grid, n_paths, stream.child(purpose="grad-rate"), workers)
    if best.stderr > abs(best.mean):
        notes.append(
            "finite-difference stderr exceeds the difference; raise n_paths or fd_step"
        )
    rhs = var.times(rate.infimum)
    params = {"x": x.tolist(), "T": horizon, "fd_step": fd_step, "n_paths": n_paths, "direction": j_max}
    return _report(
        "gradient-bound", f, model, clock_law, params, lhs, rhs, notes, started, stream,
        form="infimum outside the expectation",
    )


def coupling_property_bound(f, x, y, horizon, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, grid: TimeGrid = None, workers=1, method="euler") -> HarnackReport:
    """Check |P_T f(x) - P_T f(y)| <= sup lambda * sup f * |x-y| * sqrt(E[1/S(T)]).

    Needs K <= 0 throughout, bounded lambda, and nonnegative bounded f.  The
    left side uses common noise across the two starting points, so its
    stderr reflects the difference, not the individual estimates.
    """
    started = time.perf_counter()
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    grid = grid or TimeGrid.uniform(horizon, 500)
    k_max = max(model.k_bound(t) for t in grid.times)
    if k_max > 0:
        raise ValueError(f"coupling property bound needs K <= 0; found K = {k_max:g}")
    sup_norm = getattr(f, "sup_norm", None)
    if sup_norm is None:
        raise ValueError("coupling property bound needs a bounded observable")
    lam_max = max(model.lambda_bound(t) for t in grid.times)

    f_x, f_y = _f_terminals(f, model, [x, y], grid, clock_law, n_paths, stream.child(purpose="couple-bound"), workers, method)
    if np.any(f_x < 0) or np.any(f_y < 0):
        raise ValueError("coupling property bound needs nonnegative f")
    paired = MCEstimate.from_samples(f_x - f_y)
    lhs = MCEstimate(mean=abs(paired.mean), stderr=paired.stderr, n=paired.n)

    notes = []
    try:
        inverse_first_moment = bn.inverse_moment(clock_law.bernstein, 1.0, horizon)
        rhs = MCEstimate.exact(
            lam_max * sup_norm * float(np.linalg.norm(x - y)) * math.sqrt(inverse_first_moment),
            n=n_paths,
        )
    except bn.InfiniteMomentError:
        rhs = MCEstimate(mean=math.inf, stderr=math.inf, n=n_paths)
        notes.append("E[1/S(T)] is infinite for this clock; the bound is vacuous")
    params = {"x": x.tolist(), "y": y.tolist(), "T": horizon, "n_paths": n_paths}
    return _report("coupling-property-bound", f, model, clock_law, params, lhs, rhs, notes, started, stream)


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the measured rate constant against the horizon."""

    theta: float
    T_grid: np.ndarray
    measured: np.ndarray
    measured_stderr: np.ndarray
    fitted_slope: float
    slope_stderr: float
    expected_slope: float
    n_paths: int

    @property
    def consistent(self) -> bool:
        return abs(self.fitted_slope - self.expected_slope) <= 3.0 * max(
            self.slope_stderr, 1e-12
        )

    def to_dict(self):
        return {
            "theta": self.theta,
            "T_grid": self.T_grid.tolist(),
            "measured": self.measured.tolist(),
            "measured_stderr": self.measured_stderr.tolist(),
            "fitted_slope": self.fitted_slope,
            "slope_stderr": self.slope_stderr,
            "expected_slope": self.expected_slope,
            "consistent": self.consistent,
            "n_paths": self.n_paths,
        }


def stable_rate_check(theta, model: SdeModel, T_grid, n_paths, stream: RngStream, clock=None, workers=1) -> RateFit:
    """Fit the decay exponent of m(T) = E[1/int_0^T dS] over small horizons.

    With K identically zero and lambda identically one the rate constant
    reduces to E[1/S(T)], which scales like T^(-1/theta); the fitted log-log
    slope must match -1/theta within three slope stderrs.  Pass a linear
    clock with theta = 1 for the deterministic limit (slope exactly -1).
    """
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.size < 4:
        raise ValueError("rate fit needs at least 4 horizons")
    if np.any(T_grid <= 0) or np.any(T_grid > 1.0 + 1e-12):
        raise ValueError("rate fit horizons must lie in (0, 1]")
    for t in (0.0, float(T_grid.max())):
        if abs(model.k_bound(t)) > 1e-12 or abs(model.lambda_bound(t) - 1.0) > 1e-12:
            raise ValueError("rate fit requires K = 0 and lambda = 1")
    if clock is None:
        clock = bn.StableBernstein(theta)
    means = np.empty(T_grid.size)
    stderrs = np.empty(T_grid.size)
    for i, horizon in enumerate(T_grid):
        durations = np.full(8, horizon / 8.0)

        def run_chunk(gen, count, _durations=durations):
            return sample_subordinator_increments(clock, _durations, gen, count).sum(axis=1)

        totals = map_path_chunks(n_paths, stream.child(purpose=f"rate-T{i}"), run_chunk, workers)
        est = MCEstimate.from_samples(1.0 / totals)
        means[i] = est.mean
        stderrs[i] = est.stderr

    log_t = np.log(T_grid)
    log_m = np.log(means)
    log_se = stderrs / means
    if np.all(log_se == 0.0):
        slope, _ = np.polyfit(log_t, log_m, 1)
        slope_stderr = 0.0
    else:
        slope, slope_stderr = weighted_slope(log_t, log_m, log_se)
    return RateFit(
        theta=theta,
        T_grid=T_grid,
        measured=means,
        measured_stderr=stderrs,
        fitted_slope=float(slope),
        slope_stderr=slope_stderr,
        expected_slope=-1.0 / theta,
        n_paths=n_paths,
    )
