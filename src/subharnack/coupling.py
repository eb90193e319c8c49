"""Coupling by change of measure along a strictly increasing clock.

Two trajectories share every noise increment.  The second one gets an extra
drift of magnitude xi_t pointed at the first, calibrated so the pair meets
by the horizon; removing that drift through the exponential-martingale
weight R makes the reweighted second path distributed as the process
started from its own initial point.  That transfer identity

    E[R f(X_T)] = E f(X_T started at y)

is the engine behind every Harnack certificate in this package.
``harnack_transfer_check`` tests it on one clock draw: each path's clock
drives both the coupled pair (the reweighted side) and a plain run from y
(the direct side), each with its own noise.

Discretization notes:

* The coupling drift applied over one step is clipped at the remaining
  distance after the common increments, preventing overshoot through zero;
  coupling is declared once the pair is within ``delta_couple`` and the
  paths are pasted together afterwards.
* A pair leaves the coupled step at its meeting step: from then on Y is X,
  the steering is 0 and R is frozen, so only the primary path is stepped
  for it (Arnaudon, Thalmaier & Wang, Bull. Sci. Math. 130, 2006).
* The weight uses left-endpoint (non-anticipating) integrands with the
  post-clip rate, so the discrete change of measure is exact: E[R] = 1
  holds step for step, not just in the small-h limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sde
from .parallel import map_path_chunks
from .pathgen import ClockLaw, RegularizedClock, RngStream, TimeGrid, _rows_per_block, bm_increments
from .sde import _STATE_BOUND, SdeModel, Trajectory, _check_states
from .stats import MCEstimate

__all__ = [
    "CouplingConfig",
    "CoupledPath",
    "CoupledBatch",
    "xi",
    "xi_profile",
    "simulate_coupled",
    "girsanov_weight",
    "run_coupled_batch",
    "harnack_transfer_check",
]


# Largest argument of exp with a finite result is 709.78.
_EXP_MAX = 709.0


def clock_decay(k_bound, times, d_clock=None):
    """Accumulated bound k_cum = int_0^t K, its decay exp(-k_cum) times 2^-s,
    and the per-path Stieltjes denominators.

    k_cum is the cumulative trapezoid of K at the grid times; the least s >= 0
    that puts the decay below 2 keeps its squares finite, and scales exactly.
    Where exp(-k_cum) itself would overflow, s comes from max(-k_cum) and the
    scaled decay is evaluated as exp(-k_cum - s log 2).
    Given clock increments d_clock (shape (..., M)), the last value is
    (2^s Q, 4^s Q) for the left-point Stieltjes sum Q of the squares against
    the clock, summed in row blocks: xi = |x - y| decay / (2^s Q), and 4^s Q
    (inf on overflow) is the sum for exp(-2 k_cum) itself.  It is None
    without them.
    """
    k_vals = np.asarray([k_bound(t) for t in times], dtype=float)
    k_cum = np.concatenate(([0.0], np.cumsum(np.diff(times) * (k_vals[1:] + k_vals[:-1]) / 2.0)))
    top = float(np.max(-k_cum))
    if top < _EXP_MAX:
        decay = np.exp(-k_cum)
        shift = max(int(np.frexp(decay.max())[1]) - 1, 0)
        decay = np.ldexp(decay, -shift)
    else:
        shift = int(top / math.log(2.0))
        decay = np.exp(-k_cum - shift * math.log(2.0))
    if d_clock is None:
        return k_cum, decay, None
    squares = decay[:-1] ** 2
    rows = d_clock.reshape(-1, d_clock.shape[-1])
    mass = np.empty(rows.shape[0])
    step = _rows_per_block(rows.shape[1])
    for start in range(0, mass.size, step):
        mass[start:start + step] = np.sum(squares * rows[start:start + step], axis=-1)
    mass = mass.reshape(d_clock.shape[:-1])
    if np.any(mass <= 0):
        raise ValueError("degenerate clock: zero Stieltjes mass over the horizon")
    with np.errstate(over="ignore"):
        return k_cum, decay, (np.ldexp(mass, shift), np.ldexp(mass, 2 * shift))


def xi_profile(initial_distance, k_bound, grid: TimeGrid, clock_values):
    """Coupling drift rate at the left grid points, plus the cached denominator.

    The numerator decays with the accumulated one-sided bound (cumulative
    trapezoid of K); the denominator is the left-point Stieltjes sum of
    exp(-2 int K) against the clock over the full horizon.
    """
    clock_values = np.asarray(clock_values, dtype=float)
    d_clock = np.diff(clock_values, axis=-1)
    if np.any(d_clock <= 0):
        raise ValueError("coupling requires a strictly increasing clock")
    _, decay, (xi_den, denominator) = clock_decay(k_bound, grid.times, d_clock)
    return initial_distance * decay[:-1] / np.expand_dims(xi_den, -1), denominator


def xi(t, x, y, k_bound, clock: RegularizedClock) -> float:
    """Drift rate of the coupling at time t (piecewise constant per grid cell)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dist0 = float(np.linalg.norm(x - y))
    profile, _ = xi_profile(dist0, k_bound, clock.grid, clock.values)
    times = clock.grid.times
    if t < times[0] or t > times[-1]:
        raise ValueError("time outside the clock horizon")
    idx = min(int(np.searchsorted(times, t, side="right")) - 1, times.size - 2)
    return float(profile[idx])


@dataclass(frozen=True)
class CouplingConfig:
    """Inputs of one coupled simulation.

    ``delta_couple`` defaults to 1e-6 times the initial distance: exact
    hitting has probability zero on a grid, so coupling is declared at that
    threshold and the trajectories are pasted together afterwards.
    """

    x: np.ndarray
    y: np.ndarray
    model: SdeModel
    clock: RegularizedClock
    delta_couple: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        if self.x.size != self.model.dim or self.y.size != self.model.dim:
            raise ValueError("initial points do not match the model dimension")
        if self.delta_couple is not None and self.delta_couple <= 0:
            raise ValueError("delta_couple must be positive")

    @property
    def horizon(self) -> float:
        return self.clock.grid.horizon

    def threshold(self) -> float:
        return _threshold(self.x, self.y, self.delta_couple)


def _threshold(x, y, delta_couple):
    if delta_couple is not None:
        return delta_couple
    dist0 = float(np.linalg.norm(x - y))
    return 1e-6 * dist0 if dist0 > 0 else 1e-12


@dataclass(frozen=True)
class CoupledPath:
    """One realized coupled pair with its change-of-measure weight."""

    primary: Trajectory
    secondary: Trajectory
    tau_index: int | None
    log_weight: float
    eta_sq_integral: float
    applied_rates: np.ndarray = field(repr=False)
    cost_denominator: float = 0.0

    @property
    def coupled(self) -> bool:
        return self.tau_index is not None

    def tau_time(self):
        if self.tau_index is None:
            return None
        return float(self.primary.grid.times[self.tau_index])


def _take(a, rows):
    """Rows of an (n,) or (n, d) array, column-major; ``a`` itself for all rows.

    The gather runs per column into a column-major result, so every later
    step on the working set keeps the memory order of the full chunk.
    """
    if rows.size == a.shape[0]:
        return a
    if a.ndim == 1:
        return a.take(rows)
    out = np.empty((rows.size, a.shape[1]), order="F")
    for j in range(a.shape[1]):
        np.take(a[:, j], rows, out=out[:, j])
    return out


def _paste(X, Y, rows):
    """The secondary states of every row: Y on the working set, X elsewhere."""
    full = X.copy(order="F")
    full[rows] = Y
    return full


def _coupled_core(model, x, y, grid, d_clock, dw, delta, keep_path=False, method="euler"):
    """Step the coupled pair for a batch; everything shares shapes (n, ...).

    d_clock has shape (n, M), dw has shape (n, M, d).  Returns terminal
    states, coupling indices (-1 while uncoupled), the log weight, the
    accumulated squared steering cost, the cost denominator, the applied
    rates, and optionally full paths.  The states are kept column-major,
    matching the (M, d, n) memory order of ``bm_increments``.

    X is stepped for every row.  The secondary side runs on a working set
    of rows, gathered again once half of it has met: a met pair has Y = X,
    and drift steps act on each row alone, so its steering and weight
    increments are exactly 0, and a row that leaves the set keeps its
    weight and ends with Y_T = X_T.  A working set keeps two rows while any
    of its pairs is apart, since reductions over a lone row take another
    summation order.
    """
    times = grid.times
    h = grid.step_sizes
    n_steps = grid.n_steps
    n = dw.shape[0]
    dim = model.dim

    dist0 = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    _, decay, (xi_den, denominator) = clock_decay(model.k_bound, times, d_clock)  # each (n,)

    dv_steps = np.diff(model.perturbation.values_on(grid), axis=0)
    X = np.array(np.broadcast_to(np.asarray(x, dtype=float), (n, dim)), order="F")
    Y = np.array(np.broadcast_to(np.asarray(y, dtype=float), (n, dim)), order="F")
    log_weight = np.zeros(n)
    eta_sq = np.zeros(n)
    rates = np.zeros((n, n_steps)) if keep_path else None
    tau_idx = np.full(n, -1 if dist0 > delta else 0, dtype=np.int64)
    hist_x = [X.copy()] if keep_path else None
    hist_y = [Y.copy()] if keep_path else None
    # the working set: its rows, the primary and secondary states of their
    # pairs, gap and distance at the start of a step, which pairs are still
    # apart, weights, costs, coupling indices and denominators; a pair that
    # starts within delta never enters it
    rows = np.arange(n if dist0 > delta else 0)
    Xw, Y, w_log, w_eta, w_tau, w_den = (_take(a, rows) for a in (X, Y, log_weight, eta_sq, tau_idx, xi_den))
    diff = Xw - Y
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    apart = np.ones(rows.size, dtype=bool)

    for i in range(n_steps):
        t, hi = times[i], h[i]
        noise = model.diffusion.apply(t, dw[:, i, :])
        dv = dv_steps[i]
        x_drifted = model.drift_step(t, hi, X, method)
        X = x_drifted + noise + dv
        if rows.size:
            dl = _take(d_clock[:, i], rows)
            mask = dist > 0
            unit = np.where(mask[:, None], diff / np.where(mask, dist, 1.0)[:, None], 0.0)

            # states after the drift step but before the common noise; the
            # clipping distance is measurable without peeking at the increment
            y_drifted = model.drift_step(t, hi, Y, method)
            xi_i = dist0 * decay[i] / w_den
            drift_gap = _take(x_drifted, rows) - y_drifted
            after_common = np.sqrt(np.einsum("ij,ij->i", drift_gap, drift_gap))
            magnitude = np.minimum(xi_i * dl, after_common)
            rate = magnitude / dl
            eta = rate[:, None] * model.diffusion.apply_inverse(t, unit)
            eta_norm_sq = np.einsum("ij,ij->i", eta, eta)
            w_log -= np.einsum("ij,ij->i", eta, _take(dw[:, i, :], rows)) + 0.5 * eta_norm_sq * dl
            w_eta += eta_norm_sq * dl
            if keep_path:
                rates[rows, i] = rate

            Y = y_drifted + _take(noise, rows) + dv + magnitude[:, None] * unit
            Xw = _take(X, rows)
            diff = Xw - Y
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            just = (dist <= delta) & apart
            w_tau[just] = i + 1
            apart ^= just
            n_apart = int(np.count_nonzero(apart))
            if n_apart < rows.size:
                # a met pair has Y = X from here on: its drift gap, and so
                # its steering, is exactly 0
                Y = np.where(apart[:, None], Y, Xw)
            if not np.abs(Y).max() <= _STATE_BOUND:
                _check_states(i, X, _paste(X, Y, rows))

            if 2 * n_apart <= rows.size and (n_apart != 1 or rows.size > 2):
                log_weight[rows], eta_sq[rows], tau_idx[rows] = w_log, w_eta, w_tau
                keep = np.flatnonzero(apart)
                if n_apart == 1:
                    keep = np.r_[keep, np.flatnonzero(~apart)[0]]
                rows = rows[keep]
                Xw, Y, diff, dist, apart, w_log, w_eta, w_tau, w_den = (
                    _take(a, keep) for a in (Xw, Y, diff, dist, apart, w_log, w_eta, w_tau, w_den)
                )
        _check_states(i, X)
        if keep_path:
            hist_x.append(X.copy())
            hist_y.append(_paste(X, Y, rows))

    log_weight[rows], eta_sq[rows], tau_idx[rows] = w_log, w_eta, w_tau
    out = {
        "x_terminal": X,
        "y_terminal": _paste(X, Y, rows),
        "tau_index": tau_idx,
        "log_weight": log_weight,
        "eta_sq": eta_sq,
        "denominator": denominator,
    }
    if keep_path:
        out["path_x"] = np.stack(hist_x, axis=1)
        out["path_y"] = np.stack(hist_y, axis=1)
        out["rates"] = rates
    return out


def simulate_coupled(cfg: CouplingConfig, bm, method="euler") -> CoupledPath:
    """Run one coupled pair driven by the given time-changed increments."""
    grid = cfg.clock.grid
    if not np.array_equal(grid.times, bm.grid.times):
        raise ValueError("noise path and clock are not aligned")
    d_clock = np.diff(cfg.clock.values)[None, :]
    res = _coupled_core(
        cfg.model, cfg.x, cfg.y, grid, d_clock, bm.increments[None, :, :],
        cfg.threshold(), keep_path=True, method=method,
    )
    tau = int(res["tau_index"][0])
    return CoupledPath(
        primary=Trajectory(grid=grid, states=res["path_x"][0]),
        secondary=Trajectory(grid=grid, states=res["path_y"][0]),
        tau_index=tau if tau >= 0 else None,
        log_weight=float(res["log_weight"][0]),
        eta_sq_integral=float(res["eta_sq"][0]),
        applied_rates=res["rates"][0],
        cost_denominator=float(res["denominator"][0]),
    )


def girsanov_weight(path: CoupledPath, diffusion, clock: RegularizedClock, bm) -> float:
    """Recompute log R from a realized coupled pair.

    Discretizes both integrals in the clock with left-endpoint integrands:
    the Ito sum against the shared Brownian increments and half the squared
    steering cost against the clock.  Must match the weight accumulated
    during simulation to floating-point accuracy.
    """
    grid = clock.grid
    if not np.array_equal(grid.times, bm.grid.times):
        raise ValueError("noise path and clock grids are mismatched")
    if path.primary.grid.times.shape != grid.times.shape or not np.array_equal(
        path.primary.grid.times, grid.times
    ):
        raise ValueError("coupled path and clock grids are mismatched")
    d_clock = np.diff(clock.values)
    diff = path.primary.states[:-1] - path.secondary.states[:-1]
    dist = np.linalg.norm(diff, axis=1)
    unit = np.zeros_like(diff)
    np.divide(diff, dist[:, None], out=unit, where=dist[:, None] > 0)
    log_r = 0.0
    for i in range(grid.n_steps):
        rate = path.applied_rates[i]
        if rate == 0.0:
            continue
        eta = rate * diffusion.apply_inverse(grid.times[i], unit[i][None, :])[0]
        log_r -= float(eta @ bm.increments[i]) + 0.5 * float(eta @ eta) * d_clock[i]
    return log_r


@dataclass(frozen=True)
class CoupledBatch:
    """Vectorized coupled runs with per-path diagnostics."""

    grid: TimeGrid
    log_weights: np.ndarray
    tau_indices: np.ndarray
    x_terminal: np.ndarray
    y_terminal: np.ndarray
    eta_sq: np.ndarray
    denominators: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.log_weights.size

    @property
    def coupled_mask(self) -> np.ndarray:
        return self.tau_indices >= 0

    def coupling_fraction(self) -> float:
        return float(self.coupled_mask.mean())

    def tau_times(self) -> np.ndarray:
        times = np.full(self.n_paths, np.nan)
        mask = self.coupled_mask
        times[mask] = self.grid.times[self.tau_indices[mask]]
        return times

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def weight_normalization(self) -> MCEstimate:
        """Estimate of E[R]; equals 1 exactly in expectation."""
        return MCEstimate.from_samples(self.weights())

    def entropy(self) -> MCEstimate:
        """Estimate of E[R log R], the realized coupling cost."""
        return MCEstimate.from_samples(self.weights() * self.log_weights)


def _coupling_noise(clock, dim, gen):
    """Noise (count, M, dim) on a chunk's coupling clock, then its increments.

    The clock (count, M + 1) is spent once its noise is drawn, so it is
    differenced in place; the increments are a (count, M) view of it.
    """
    dw = bm_increments(clock, dim, gen)
    for i in range(clock.shape[1] - 1, 0, -1):
        clock[:, i] -= clock[:, i - 1]
    return clock[:, 1:], dw


def run_coupled_batch(model: SdeModel, x, y, grid: TimeGrid, clock_law: ClockLaw, n_paths, stream: RngStream, delta_couple=None, workers=1, method="euler") -> CoupledBatch:
    """Simulate independent coupled pairs under freshly drawn coupling clocks."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    delta = _threshold(x, y, delta_couple)

    def run_chunk(gen, count):
        d_clock, dw = _coupling_noise(clock_law.sample_coupling(grid, gen, count), model.dim, gen)
        return _coupled_core(model, x, y, grid, d_clock, dw, delta, method=method)

    res = map_path_chunks(n_paths, stream, run_chunk, workers)
    return CoupledBatch(
        grid=grid,
        log_weights=res["log_weight"],
        tau_indices=res["tau_index"],
        x_terminal=res["x_terminal"],
        y_terminal=res["y_terminal"],
        eta_sq=res["eta_sq"],
        denominators=res["denominator"],
    )


def harnack_transfer_check(f, model: SdeModel, x, y, grid: TimeGrid, clock_law: ClockLaw, n_paths, stream: RngStream, delta_couple=None, workers=1, method="euler"):
    """Two estimators of the same semigroup value, on one clock draw.

    Estimator A reweights coupled paths started at (x, y) by R and averages
    R f(X_T); estimator B steps the dynamics from y directly and averages
    f(Y_T).  Each path's coupling clock is drawn once and drives both.  A
    draws its noise from the chunk's generator right after the clock, so it
    equals the first estimate of a ``run_coupled_batch`` call on the same
    stream bit for bit; B draws its noise from a generator spawned from the
    chunk's, so given the clock the two sides are independent.  The
    transfer identity holds for each fixed clock, so both sides have the
    same conditional mean g(S) given the clock S, and their covariance is
    var g(S) >= 0 (up to discretization): sd(A - B) stays at most
    hypot(sd A, sd B), as for two independent estimators.  Their difference
    is Monte Carlo error plus one-step discretization effects.
    """
    if n_paths < 1000:
        raise ValueError("transfer check needs at least 1000 paths")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    delta = _threshold(x, y, delta_couple)

    def run_chunk(gen, count):
        clock = clock_law.sample_coupling(grid, gen, count)
        # B's noise comes from a spawned generator, which draws nothing from
        # gen, and is freed before A's is drawn; sde.euler_steps is looked up
        # at call time, so a wrapper installed on it sees this call
        dw_direct = bm_increments(clock, model.dim, gen.spawn(1)[0])
        direct = sde.euler_steps(model, np.broadcast_to(y, (count, model.dim)), grid, dw_direct, method=method)
        del dw_direct
        d_clock, dw = _coupling_noise(clock, model.dim, gen)
        coupled = _coupled_core(model, x, y, grid, d_clock, dw, delta, method=method)
        return {"log_weight": coupled["log_weight"], "x_terminal": coupled["x_terminal"], "direct": direct}

    res = map_path_chunks(n_paths, stream.child(purpose=stream.purpose + "-coupled"), run_chunk, workers)
    weighted = np.exp(res["log_weight"]) * np.asarray(f(res["x_terminal"]), dtype=float)
    estimate_a = MCEstimate.from_samples(weighted)
    estimate_b = MCEstimate.from_samples(np.asarray(f(res["direct"]), dtype=float))
    return estimate_a, estimate_b
