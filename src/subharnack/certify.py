"""Monte Carlo certification of the log-Harnack, power-Harnack, gradient,
and coupling-property inequalities, plus the small-time rate exponents.

Each certificate estimates both sides of an inequality, propagates standard
errors through the transforms by the delta method (second-order bias terms
are folded into the stderr, never into the point value; the squared
gradient norm alone has its exact bias subtracted), and issues a
statistical verdict:

* ``certified``    slack z-score >= -3
* ``violated``     slack z-score <  -5
* ``inconclusive`` in between, or the report carries a note

The +-3 / +-5 thresholds bound the false-violation probability below 1e-5
per report under the Gaussian limit.  Any note (a divergent rate constant
or factor, an infinite clock moment, a finite difference lost in its noise)
makes the verdict inconclusive.  So does a slack or slack stderr that is
not finite: z is then NaN, and a report with no other note says why.

Every certificate takes one time input, its ``TimeGrid``: the horizon is
T = ``grid.horizon``, and the rate constant and the power factor take their
infimum over ``default_t_grid(T)``.  Starting points must have ``model.dim``
coordinates.  Which clock moments are finite is decided in ``bernstein``.
Nothing a certificate can work out is taken from its caller: each
log-Harnack and gradient certificate computes the rate constant of its own
model, and the rate check builds its clock from theta alone.

Every certificate draws its paths through ``_f_terminals`` (f at each
start's terminals from one multi-start ``terminal_states`` call per
stream) and is assembled by ``_report``.  K and lambda are deterministic,
so the rate constant of the log-Harnack and gradient certificates is a
deterministic quadrature of the clock's Bernstein function with no error
bar; the power factor, whose infimum sits inside the expectation, sums
each path's clock in ``_weighted_partials``.  The log-Harnack, gradient
and coupling-property certificates step all of their starting points
through one clock and noise draw per path (common random numbers).  The
log-Harnack z-score uses the stderr of the slack on that joint sample: per
path, the influence value f(X_T) / P_T f(x) - log f(Y_T) (the first-order
delta-method expansion of the slack) carries the paired Monte Carlo
error.  The power-Harnack certificate keeps independent
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
from .coupling import _scaled_decay
from .parallel import map_path_chunks
from .pathgen import ClockLaw, RngStream, TimeGrid, sample_subordinator_increments
from .sde import SdeModel, _points, terminal_states
from .stats import MCEstimate, weighted_slope

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
    """lambda_t^2 E[1/int_0^t exp(-2K) dS] at each time of ``t_grid``.

    K and lambda are deterministic, so each value is a quadrature of the
    clock's Bernstein function (``bernstein.inverse_weighted_moment``), not
    an estimate.  A time gets inf where the moment is infinite (gamma clocks
    at a*t <= 1) or where the scaled exp(-2K) underflows to zero on all of
    [0, t] (-int_0^T K above about 370); such a time cannot be the infimum,
    and the result is divergent when no time is finite.
    """

    t_grid: np.ndarray
    per_t: np.ndarray
    infimum: float
    argmin_t: float

    @property
    def divergent(self) -> bool:
        return not math.isfinite(self.infimum)


# Uniform steps of the knots behind the rate constant and the power factor.
_COST_STEPS = 256


def _cost_knots(model, horizon):
    """default_t_grid(T), the knots (``_COST_STEPS`` uniform steps refined by
    the t grid) and lambda_t^2 on the t grid."""
    t_grid = default_t_grid(horizon)
    knots = np.unique(np.concatenate([np.linspace(0.0, horizon, _COST_STEPS + 1), t_grid]))
    lam_sq = np.asarray([model.lambda_bound(t) ** 2 for t in t_grid])
    return t_grid, knots, lam_sq


def _weighted_partials(model, clock_law, sim_times, t_idx, n_paths, stream, workers):
    """Per-path Stieltjes sums int_0^t exp(-2K) dS at the requested times.

    As in ``harnack_rate_constant``, the sums run on the square of the decay
    scaled by 2^-shift and are scaled back; a sum that overflows is inf.
    """
    _, decay, shift = _scaled_decay(model.k_bound, sim_times)
    weights = decay[:-1] ** 2
    durations = np.diff(sim_times)

    def run_chunk(gen, count):
        inc = sample_subordinator_increments(clock_law.bernstein, durations, gen, count)
        inc *= weights
        np.cumsum(inc, axis=1, out=inc)
        return inc[:, t_idx - 1]

    partials = map_path_chunks(n_paths, stream, run_chunk, workers)
    with np.errstate(over="ignore"):
        return np.ldexp(partials, 2 * shift)


def harnack_rate_constant(model: SdeModel, clock_law: ClockLaw, horizon) -> RateConstantResult:
    """The Harnack cost rate lambda_t^2 E[1/int_0^t exp(-2K) dS] on
    ``default_t_grid(T)`` and its infimum over those times.

    The clock sums run on ``_COST_STEPS`` uniform steps refined by the t
    grid, with the trapezoid rule in s; exp(-2K) enters scaled by a power of
    two and is scaled back exactly, so it cannot overflow.
    """
    t_grid, knots, lam_sq = _cost_knots(model, horizon)
    _, decay, shift = _scaled_decay(model.k_bound, knots)
    moments = bn.inverse_weighted_moment(clock_law.bernstein, knots, decay**2, t_grid)
    per_t = lam_sq * np.ldexp(moments, -2 * shift)
    j_min = int(np.argmin(per_t))
    return RateConstantResult(
        t_grid=t_grid, per_t=per_t, infimum=float(per_t[j_min]), argmin_t=float(t_grid[j_min]),
    )


def power_infimum_factor(model: SdeModel, clock_law: ClockLaw, horizon, p, dist_sq, n_paths, stream: RngStream, workers=1):
    """E[ inf_t exp( p lambda_t^2 |x-y|^2 / (2 (p-1)^2 int_0^t e^{-2K} dS) ) ].

    The infimum runs over ``default_t_grid(T)``, with the clock sums on
    ``_COST_STEPS`` uniform steps refined by it, on ``n_paths`` clock paths
    drawn from ``stream`` (both required: the factor has no seed of its
    own).  Returns the estimate together with the fraction of paths whose
    infimum overflowed to +inf; a single such path makes the estimate
    infinite (expected when the clock puts too little mass near the
    horizon).
    """
    if p <= 1:
        raise ValueError("power-Harnack exponent requires p > 1")
    t_grid, knots, lam_sq = _cost_knots(model, horizon)
    partials = _weighted_partials(model, clock_law, knots, np.searchsorted(knots, t_grid), n_paths, stream, workers)
    coeff = p * lam_sq * dist_sq / (2.0 * (p - 1.0) ** 2)
    with np.errstate(divide="ignore", over="ignore"):
        exponents = np.where(partials > 0.0, coeff / np.maximum(partials, 1e-300), np.inf)
        per_path = np.exp(exponents.min(axis=1))
    return MCEstimate.from_samples(per_path), float(np.isinf(per_path).mean())


def _f_terminals(f, model, starts, grid, clock_law, n_paths, stream, workers, method):
    """f at the terminals of each start, all starts driven by one draw per path."""
    finals = terminal_states(model, np.stack(starts), grid, clock_law, n_paths, stream, workers=workers, method=method)
    return [np.asarray(f(finals[:, k]), dtype=float) for k in range(len(starts))]


def _rate_term(model, clock_law, horizon):
    """The rate constant with its notes."""
    rate = harnack_rate_constant(model, clock_law, horizon)
    notes = ["rate constant divergent: infinite at every grid time"] if rate.divergent else []
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


def log_harnack_certificate(f, x, y, grid: TimeGrid, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, workers=1, method="euler") -> HarnackReport:
    """Check P_T log f(y) <= log P_T f(x) + (|x-y|^2 / 2) * rate constant.

    ``grid`` is the one time input: the paths step on it and T = grid.horizon.
    Requires strictly positive bounded f; any nonpositive sample raises.
    The log of the x-side estimate carries a delta-method stderr with its
    first-order bias folded in.  Both sides come from one draw per path;
    the slack's stderr is that of the per-path influence value
    f(X_T) / P_T f(x) - log f(Y_T), plus the log bias.
    """
    started = time.perf_counter()
    x, y = _points(model, x, y)
    dist_sq = float(np.sum((x - y) ** 2))

    f_x, f_y = _f_terminals(f, model, [x, y], grid, clock_law, n_paths, stream.child(purpose="log-pair"), workers, method)
    if np.any(f_y <= 0.0) or np.any(f_x <= 0.0):
        raise ValueError("log-Harnack needs strictly positive f; found f <= 0 on a sample")
    lhs = MCEstimate.from_samples(np.log(f_y))
    base = MCEstimate.from_samples(f_x)

    rate, notes = _rate_term(model, clock_law, grid.horizon)
    rhs = base.log().plus(MCEstimate.exact(dist_sq / 2.0 * rate.infimum, n=n_paths))
    paired = MCEstimate.from_samples(f_x / base.mean - np.log(f_y))
    log_bias = base.stderr**2 / (2.0 * base.mean**2)  # as in MCEstimate.log
    params = {"x": x.tolist(), "y": y.tolist(), "T": grid.horizon, "n_paths": n_paths,
              "argmin_t": rate.argmin_t, "cost_constant": rate.infimum}
    return _report(
        "log-harnack", f, model, clock_law, params, lhs, rhs, notes, started, stream,
        form="infimum outside the expectation", slack_stderr=paired.stderr + log_bias,
    )


def power_harnack_certificate(f, p, x, y, grid: TimeGrid, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, workers=1, method="euler") -> HarnackReport:
    """Check (P_T f(y))^p <= P_T f^p(x) * (E inf_t exp[...])^(p-1).

    ``grid`` is the one time input: the paths step on it and T = grid.horizon.
    """
    started = time.perf_counter()
    if p <= 1:
        raise ValueError("power-Harnack needs p > 1")
    x, y = _points(model, x, y)
    dist_sq = float(np.sum((x - y) ** 2))

    (f_y,) = _f_terminals(f, model, [y], grid, clock_law, n_paths, stream.child(purpose="pow-lhs"), workers, method)
    lhs = MCEstimate.from_samples(f_y).power(p)
    (f_x,) = _f_terminals(f, model, [x], grid, clock_law, n_paths, stream.child(purpose="pow-rhs"), workers, method)
    moment = MCEstimate.from_samples(f_x**p)

    factor, infinite_fraction = power_infimum_factor(
        model, clock_law, grid.horizon, p, dist_sq,
        n_paths=max(1000, n_paths // 10), stream=stream.child(purpose="pow-factor"),
        workers=workers,
    )
    if math.isfinite(factor.mean):
        rhs = moment.times(factor.power(p - 1.0))
    else:
        rhs = MCEstimate(mean=math.inf, stderr=math.inf, n=factor.n)
    notes = []
    if dist_sq > 0 and not bn.exponential_moment_finite(clock_law.bernstein):
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
    params = {"x": x.tolist(), "y": y.tolist(), "T": grid.horizon, "p": p, "n_paths": n_paths}
    return _report(
        "power-harnack", f, model, clock_law, params, lhs, rhs, notes, started, stream,
        form="expectation outside the infimum",
    )


def gradient_certificate(f, x, grid: TimeGrid, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, fd_step=0.05, workers=1, method="euler") -> HarnackReport:
    """Check |grad P_T f|(x)^2 <= Var of f(X_T(x)) times the rate constant.

    ``grid`` is the one time input: the paths step on it and T = grid.horizon.

    The gradient is probed by central finite differences along every axis
    with common random numbers across the stencil (all 2d stencil points
    are stepped through one clock and noise draw per path), which cancels
    most of the Monte Carlo variance of the difference.  With m and C the
    mean and covariance of the per-path difference vectors, the left side
    is the unbiased |m|^2 - tr(C)/n with stderr 2 (m^T C m / n)^(1/2).  The
    variance side runs on its own draw, so the two sides are independent:
    it is the sample mean of n/(n-1) (f - mean f)^2, whose mean is the
    unbiased sample variance and whose stderr is that of a sample mean (inf
    where the squares overflow).
    """
    started = time.perf_counter()
    if fd_step <= 0:
        raise ValueError("finite-difference step must be positive")
    if n_paths < 2:
        raise ValueError("the gradient certificate needs at least 2 paths")
    (x,) = _points(model, x)

    offsets = fd_step * np.eye(model.dim)
    stencil = _f_terminals(f, model, list(x + offsets) + list(x - offsets), grid, clock_law, n_paths, stream.child(purpose="grad-stencil"), workers, method)
    slopes = np.stack([stencil[j] - stencil[model.dim + j] for j in range(model.dim)], axis=1) / (2.0 * fd_step)
    mean = slopes.mean(axis=0)
    cov = np.atleast_2d(np.cov(slopes, rowvar=False))
    norm_sq, noise = float(mean @ mean), float(np.trace(cov)) / n_paths
    spread = max(float(mean @ cov @ mean), 0.0)  # >= 0 up to rounding
    lhs = MCEstimate(mean=norm_sq - noise, stderr=2.0 * math.sqrt(spread / n_paths), n=n_paths)

    (center,) = _f_terminals(f, model, [x], grid, clock_law, n_paths, stream.child(purpose="grad-var"), workers, method)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as an inf stderr
        var = MCEstimate.from_samples(n_paths / (n_paths - 1) * (center - center.mean()) ** 2)
    rate, notes = _rate_term(model, clock_law, grid.horizon)
    if noise > norm_sq:
        notes.append(
            "finite-difference stderr exceeds the difference; raise n_paths or fd_step"
        )
    rhs = var.scaled(rate.infimum)
    params = {"x": x.tolist(), "T": grid.horizon, "fd_step": fd_step, "n_paths": n_paths}
    return _report(
        "gradient-bound", f, model, clock_law, params, lhs, rhs, notes, started, stream,
        form="infimum outside the expectation",
    )


def coupling_property_bound(f, x, y, grid: TimeGrid, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, workers=1, method="euler") -> HarnackReport:
    """Check |P_T f(x) - P_T f(y)| <= sup lambda * sup f * |x-y| * sqrt(E[1/S(T)]).

    ``grid`` is the one time input: the paths step on it and T = grid.horizon.
    Needs K <= 0 throughout, bounded lambda, and nonnegative bounded f.  The
    left side uses common noise across the two starting points, so its
    stderr reflects the difference, not the individual estimates.
    """
    started = time.perf_counter()
    x, y = _points(model, x, y)
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
        inverse_first_moment = bn.inverse_moment(clock_law.bernstein, 1.0, grid.horizon)
        rhs = MCEstimate.exact(
            lam_max * sup_norm * float(np.linalg.norm(x - y)) * math.sqrt(inverse_first_moment),
            n=n_paths,
        )
    except bn.InfiniteMomentError:
        rhs = MCEstimate(mean=math.inf, stderr=math.inf, n=n_paths)
        notes.append("E[1/S(T)] is infinite for this clock; the bound is vacuous")
    params = {"x": x.tolist(), "y": y.tolist(), "T": grid.horizon, "n_paths": n_paths}
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


def stable_rate_check(theta, T_grid, n_paths, stream: RngStream, workers=1) -> RateFit:
    """Fit the decay exponent of m(T) = E[1/S(T)] over small horizons.

    m(T) is the rate constant of K = 0 and lambda = 1, which scales like
    T^(-1/theta) under the theta-stable clock; the fitted log-log slope must
    match -1/theta within three slope stderrs.  theta = 1 is the linear
    clock B(r) = r, the deterministic limit S(T) = T with slope exactly -1.
    """
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.size < 4:
        raise ValueError("rate fit needs at least 4 horizons")
    if np.any(T_grid <= 0) or np.any(T_grid > 1.0 + 1e-12):
        raise ValueError("rate fit horizons must lie in (0, 1]")
    if np.unique(T_grid).size != T_grid.size:
        raise ValueError("rate fit horizons must be distinct")
    clock = bn.LinearBernstein() if theta == 1 else bn.StableBernstein(theta)
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
