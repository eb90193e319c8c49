"""Monte Carlo certification of the log-Harnack, power-Harnack, gradient,
and coupling-property inequalities, plus the small-time rate exponents.

Each certificate estimates both sides of an inequality, propagates standard
errors through the transforms by the delta method (second-order bias terms
are folded into the stderr, never into the point value), and issues a
statistical verdict:

* ``certified``    slack z-score >= -3
* ``violated``     slack z-score <  -5
* ``inconclusive`` in between, or a divergence was detected

The +-3 / +-5 thresholds bound the false-violation probability below 1e-5
per report under the Gaussian limit.

The log-Harnack, gradient and coupling-property certificates draw the
clock and the noise once per path and step all of their starting points
through that draw (common random numbers, one multi-start
``terminal_states`` call).  The log-Harnack LHS and RHS keep their marginal
estimates and stderrs; its z-score uses the stderr of the slack on the
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
from dataclasses import dataclass, field

import numpy as np

from . import bernstein as bn
from .coupling import clock_decay
from .parallel import map_path_chunks
from .pathgen import ClockLaw, RngStream, TimeGrid, sample_subordinator_increments
from .sde import SdeModel, terminal_states
from .stats import MCEstimate, variance_estimate

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

# Fraction of infinite per-path contributions above which a rate constant
# is reported divergent instead of estimated.
DIVERGENCE_FRACTION = 0.01


def _z_score(slack, combined_stderr):
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
    def build(cls, inequality, params, lhs, rhs, form="", notes=(), runtime_seconds=0.0, seed=None, force_inconclusive=False, slack_stderr=None):
        """Report with z = slack / slack_stderr.

        ``slack_stderr`` defaults to the stderr of a difference of
        independent sides, hypot(lhs.stderr, rhs.stderr); certificates whose
        sides share draws pass the paired stderr instead.
        """
        slack = rhs.mean - lhs.mean
        if slack_stderr is None:
            slack_stderr = math.hypot(lhs.stderr, rhs.stderr)
        z = _z_score(slack, slack_stderr)
        verdict = INCONCLUSIVE if force_inconclusive else _verdict(z)
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
            notes=tuple(notes),
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


def _rate_sim_times(horizon, t_grid, resolution=256):
    pts = np.unique(
        np.concatenate([[0.0], np.linspace(0.0, horizon, resolution + 1), t_grid])
    )
    idx = np.searchsorted(pts, t_grid)
    if not np.allclose(pts[idx], t_grid):
        raise AssertionError("t grid points must be simulation knots")
    return pts, idx


@dataclass(frozen=True)
class RateConstantResult:
    """Estimates of E[lambda_t^2 / int_0^t exp(-2K) dS] on a time grid.

    A grid time where more than 1% of the paths carry zero clock mass is
    flagged divergent and excluded from the infimum (heavy clocks really do
    have infinite moments at small times); the result as a whole is
    divergent only when no admissible time remains.
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
        partial = np.cumsum(weights * inc, axis=1)
        return partial[:, t_idx - 1]

    return map_path_chunks(n_paths, stream, run_chunk, workers)


def harnack_rate_constant(model: SdeModel, clock_law: ClockLaw, horizon, t_grid=None, n_paths=10_000, stream: RngStream = None, workers=1, resolution=256) -> RateConstantResult:
    """Monte Carlo estimate of the Harnack cost rate and its infimum over t.

    Paths with zero clock mass before a grid time contribute +inf there; a
    time with more than 1% infinite paths makes the result divergent.
    """
    if t_grid is None:
        t_grid = default_t_grid(horizon)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0) or np.any(t_grid > horizon + 1e-12):
        raise ValueError("t grid must lie inside (0, T]")
    if n_paths < 1000:
        raise ValueError("rate constant estimation needs at least 1000 paths")
    stream = stream or RngStream(0, purpose="rate")
    sim_times, t_idx = _rate_sim_times(horizon, t_grid, resolution)
    partials = _weighted_partials(model, clock_law, sim_times, t_idx, n_paths, stream, workers)
    lam_sq = np.asarray([model.lambda_bound(t) ** 2 for t in t_grid])
    with np.errstate(divide="ignore"):
        values = np.where(partials > 0.0, lam_sq / np.maximum(partials, 1e-300), np.inf)
    per_t_infinite = np.isinf(values).mean(axis=0)
    if isinstance(clock_law.bernstein, bn.GammaBernstein):
        # first inverse moment of a gamma subordinator is infinite at a*t <= 1
        per_t_infinite = np.maximum(
            per_t_infinite, (clock_law.bernstein.a * t_grid <= 1.0).astype(float)
        )
    per_t = []
    for j in range(t_grid.size):
        col = values[:, j]
        if np.isinf(col).any():
            per_t.append(MCEstimate(mean=math.inf, stderr=math.inf, n=col.size))
        else:
            per_t.append(MCEstimate.from_samples(col))
    admissible = [
        j
        for j, est in enumerate(per_t)
        if math.isfinite(est.mean) and per_t_infinite[j] <= DIVERGENCE_FRACTION
    ]
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
    overflowed to +inf; a fraction above 1% marks the factor divergent
    (expected when the clock puts too little mass near the horizon).
    """
    if p <= 1:
        raise ValueError("power-Harnack exponent requires p > 1")
    if t_grid is None:
        t_grid = default_t_grid(horizon)
    t_grid = np.asarray(t_grid, dtype=float)
    stream = stream or RngStream(0, purpose="factor")
    sim_times, t_idx = _rate_sim_times(horizon, t_grid, resolution)
    partials = _weighted_partials(model, clock_law, sim_times, t_idx, n_paths, stream, workers)
    lam_sq = np.asarray([model.lambda_bound(t) ** 2 for t in t_grid])
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


def _model_summary(model: SdeModel, clock_law: ClockLaw, extra=None):
    out = {
        "model": model.label,
        "model_params": {k: v for k, v in model.params.items()},
        "clock": clock_law.bernstein.to_config(),
    }
    if extra:
        out.update(extra)
    return out


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = grid or TimeGrid.uniform(horizon, 500)
    dist_sq = float(np.sum((x - y) ** 2))

    finals = terminal_states(model, np.stack([x, y]), grid, clock_law, n_paths, stream.child(purpose="log-pair"), workers=workers, method=method)
    f_y = np.asarray(f(finals[:, 1]), dtype=float)
    if np.any(f_y <= 0.0):
        raise ValueError("log-Harnack needs strictly positive f; found f <= 0 on a sample")
    lhs = MCEstimate.from_samples(np.log(f_y))

    f_x = np.asarray(f(finals[:, 0]), dtype=float)
    if np.any(f_x <= 0.0):
        raise ValueError("log-Harnack needs strictly positive f; found f <= 0 on a sample")
    base = MCEstimate.from_samples(f_x)

    rate = rate_result or harnack_rate_constant(
        model, clock_law, horizon, t_grid=t_grid, n_paths=max(1000, n_paths // 10),
        stream=stream.child(purpose="log-rate"), workers=workers,
    )
    notes = []
    force_inconclusive = False
    if rate.divergent:
        notes.append(
            f"rate constant divergent: {rate.infinite_fraction:.2%} of paths infinite"
        )
        force_inconclusive = True
    cost = rate.infimum.scaled(dist_sq / 2.0)
    rhs = base.log().plus(cost)
    paired = MCEstimate.from_samples(f_x / base.mean - np.log(f_y))
    log_bias = base.stderr**2 / (2.0 * base.mean**2)  # as in MCEstimate.log
    slack_stderr = math.hypot(paired.stderr + log_bias, cost.stderr)
    params = _model_summary(
        model, clock_law,
        {"x": x.tolist(), "y": y.tolist(), "T": horizon, "n_paths": n_paths,
         "observable": getattr(f, "describe", lambda: str(f))(),
         "argmin_t": rate.argmin_t,
         "cost_constant": rate.infimum.mean},
    )
    return HarnackReport.build(
        "log-harnack", params, lhs, rhs,
        form="infimum outside the expectation",
        notes=notes,
        runtime_seconds=time.perf_counter() - started,
        seed=stream.master_seed,
        force_inconclusive=force_inconclusive,
        slack_stderr=slack_stderr,
    )


def power_harnack_certificate(f, p, x, y, horizon, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, grid: TimeGrid = None, t_grid=None, workers=1, method="euler") -> HarnackReport:
    """Check (P_T f(y))^p <= P_T f^p(x) * (E inf_t exp[...])^(p-1)."""
    started = time.perf_counter()
    if p <= 1:
        raise ValueError("power-Harnack needs p > 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = grid or TimeGrid.uniform(horizon, 500)
    dist_sq = float(np.sum((x - y) ** 2))

    finals_y = terminal_states(model, y, grid, clock_law, n_paths, stream.child(purpose="pow-lhs"), workers=workers, method=method)
    lhs = MCEstimate.from_samples(np.asarray(f(finals_y), dtype=float)).power(p)

    finals_x = terminal_states(model, x, grid, clock_law, n_paths, stream.child(purpose="pow-rhs"), workers=workers, method=method)
    moment = MCEstimate.from_samples(np.asarray(f(finals_x), dtype=float) ** p)

    factor, infinite_fraction = power_infimum_factor(
        model, clock_law, horizon, p, dist_sq, t_grid=t_grid,
        n_paths=max(1000, n_paths // 10), stream=stream.child(purpose="pow-factor"),
        workers=workers,
    )
    notes = []
    force_inconclusive = False
    if dist_sq > 0 and not exponential_moment_finite(clock_law.bernstein):
        notes.append(
            "multiplicative factor divergent: E exp(c/S(t)) is infinite for "
            "this clock (needs a stable-type exponent above one half); the "
            "sample mean is reported but certifies nothing"
        )
        force_inconclusive = True
        rhs = moment.times(factor.power(p - 1.0)) if math.isfinite(factor.mean) else MCEstimate(mean=math.inf, stderr=math.inf, n=factor.n)
    elif infinite_fraction > DIVERGENCE_FRACTION or not math.isfinite(factor.mean):
        notes.append(
            f"multiplicative factor divergent: {infinite_fraction:.2%} of paths "
            "overflowed (heavy small-time tail of the clock)"
        )
        force_inconclusive = True
        rhs = MCEstimate(mean=math.inf, stderr=math.inf, n=factor.n)
    else:
        rhs = moment.times(factor.power(p - 1.0))
    params = _model_summary(
        model, clock_law,
        {"x": x.tolist(), "y": y.tolist(), "T": horizon, "p": p, "n_paths": n_paths,
         "observable": getattr(f, "describe", lambda: str(f))()},
    )
    return HarnackReport.build(
        "power-harnack", params, lhs, rhs,
        form="expectation outside the infimum",
        notes=notes,
        runtime_seconds=time.perf_counter() - started,
        seed=stream.master_seed,
        force_inconclusive=force_inconclusive,
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
    stencil = terminal_states(model, np.concatenate([x + offsets, x - offsets]), grid, clock_law, n_paths, stream.child(purpose="grad-stencil"), workers=workers, method=method)
    derivative_estimates = []
    for j in range(model.dim):
        plus = np.asarray(f(stencil[:, j]), dtype=float)
        minus = np.asarray(f(stencil[:, model.dim + j]), dtype=float)
        derivative_estimates.append(MCEstimate.from_samples((plus - minus) / (2.0 * fd_step)))
    j_max = int(np.argmax([abs(e.mean) for e in derivative_estimates]))
    best = derivative_estimates[j_max]
    lhs = best.power(2.0)

    center = np.asarray(f(terminal_states(model, x, grid, clock_law, n_paths, stream.child(purpose="grad-var"), workers=workers, method=method)), dtype=float)
    var = variance_estimate(center)
    rate = harnack_rate_constant(
        model, clock_law, horizon, t_grid=t_grid, n_paths=max(1000, n_paths // 10),
        stream=stream.child(purpose="grad-rate"), workers=workers,
    )
    notes = []
    force_inconclusive = False
    if rate.divergent:
        notes.append("rate constant divergent")
        force_inconclusive = True
    if best.stderr > abs(best.mean):
        notes.append(
            "finite-difference stderr exceeds the difference; raise n_paths or fd_step"
        )
        force_inconclusive = True
    rhs = var.times(rate.infimum)
    params = _model_summary(
        model, clock_law,
        {"x": x.tolist(), "T": horizon, "fd_step": fd_step, "n_paths": n_paths,
         "observable": getattr(f, "describe", lambda: str(f))(),
         "direction": j_max},
    )
    return HarnackReport.build(
        "gradient-bound", params, lhs, rhs,
        form="infimum outside the expectation",
        notes=notes,
        runtime_seconds=time.perf_counter() - started,
        seed=stream.master_seed,
        force_inconclusive=force_inconclusive,
    )


def coupling_property_bound(f, x, y, horizon, model: SdeModel, clock_law: ClockLaw, n_paths, stream: RngStream, grid: TimeGrid = None, workers=1, method="euler") -> HarnackReport:
    """Check |P_T f(x) - P_T f(y)| <= sup lambda * sup f * |x-y| * sqrt(E[1/S(T)]).

    Needs K <= 0 throughout, bounded lambda, and nonnegative bounded f.  The
    left side uses common noise across the two starting points, so its
    stderr reflects the difference, not the individual estimates.
    """
    started = time.perf_counter()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = grid or TimeGrid.uniform(horizon, 500)
    k_max = max(model.k_bound(t) for t in grid.times)
    if k_max > 0:
        raise ValueError(f"coupling property bound needs K <= 0; found K = {k_max:g}")
    sup_norm = getattr(f, "sup_norm", None)
    if sup_norm is None:
        raise ValueError("coupling property bound needs a bounded observable")
    lam_max = max(model.lambda_bound(t) for t in grid.times)

    finals = terminal_states(model, np.stack([x, y]), grid, clock_law, n_paths, stream.child(purpose="couple-bound"), workers=workers, method=method)
    f_x = np.asarray(f(finals[:, 0]), dtype=float)
    f_y = np.asarray(f(finals[:, 1]), dtype=float)
    if np.any(f_x < 0) or np.any(f_y < 0):
        raise ValueError("coupling property bound needs nonnegative f")
    paired = MCEstimate.from_samples(f_x - f_y)
    lhs = MCEstimate(mean=abs(paired.mean), stderr=paired.stderr, n=paired.n)

    notes = []
    force_inconclusive = False
    try:
        inverse_first_moment = bn.inverse_moment(clock_law.bernstein, 1.0, horizon)
        rhs = MCEstimate.exact(
            lam_max * sup_norm * float(np.linalg.norm(x - y)) * math.sqrt(inverse_first_moment),
            n=n_paths,
        )
    except bn.InfiniteMomentError:
        rhs = MCEstimate(mean=math.inf, stderr=math.inf, n=n_paths)
        notes.append("E[1/S(T)] is infinite for this clock; the bound is vacuous")
        force_inconclusive = True
    params = _model_summary(
        model, clock_law,
        {"x": x.tolist(), "y": y.tolist(), "T": horizon, "n_paths": n_paths,
         "observable": getattr(f, "describe", lambda: str(f))()},
    )
    return HarnackReport.build(
        "coupling-property-bound", params, lhs, rhs,
        notes=notes,
        runtime_seconds=time.perf_counter() - started,
        seed=stream.master_seed,
        force_inconclusive=force_inconclusive,
    )


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
        slope, intercept = np.polyfit(log_t, log_m, 1)
        slope_stderr = 0.0
    else:
        w = 1.0 / np.maximum(log_se, 1e-15) ** 2
        t_bar = np.sum(w * log_t) / np.sum(w)
        denom = np.sum(w * (log_t - t_bar) ** 2)
        slope = float(np.sum(w * (log_t - t_bar) * log_m) / denom)
        slope_stderr = float(1.0 / math.sqrt(denom))
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
