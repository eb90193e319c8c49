"""Coupling by change of measure along a strictly increasing clock.

Two trajectories share every noise increment.  The second one gets an extra
drift of magnitude xi_t pointed at the first, calibrated so the pair meets
by the horizon; removing that drift through the exponential-martingale
weight R makes the reweighted second path distributed as the process
started from its own initial point.  That transfer identity

    E[R f(X_T)] = E f(X_T started at y)

is the engine behind every Harnack certificate in this package.

Discretization notes:

* The coupling drift applied over one step is clipped at the remaining
  distance after the common increments, preventing overshoot through zero;
  coupling is declared once the pair is within ``delta_couple`` and the
  paths are pasted together afterwards.
* The weight uses left-endpoint (non-anticipating) integrands with the
  post-clip rate, so the discrete change of measure is exact: E[R] = 1
  holds step for step, not just in the small-h limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .parallel import map_path_chunks
from .pathgen import ClockLaw, RegularizedClock, RngStream, TimeGrid, bm_increments
from .sde import IntegrationError, SdeModel, Trajectory, plain_chunk
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


def clock_decay(k_bound, times, d_clock=None):
    """Accumulated bound k_cum = int_0^t K, its decay exp(-k_cum), and the
    per-path Stieltjes denominator.

    k_cum is the cumulative trapezoid of K at the grid times.  Given clock
    increments d_clock (shape (..., M)), the denominator is the left-point
    Stieltjes sum of exp(-2 k_cum) against the clock over the full horizon;
    it is None without them.
    """
    k_vals = np.asarray([k_bound(t) for t in times], dtype=float)
    k_cum = cumulative_trapezoid(k_vals, times, initial=0.0)
    decay = np.exp(-k_cum)
    if d_clock is None:
        return k_cum, decay, None
    denominator = np.sum(decay[:-1] ** 2 * d_clock, axis=-1)
    if np.any(denominator <= 0):
        raise ValueError("degenerate clock: zero Stieltjes mass over the horizon")
    return k_cum, decay, denominator


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
    _, decay, denominator = clock_decay(k_bound, grid.times, d_clock)
    profile = initial_distance * decay[:-1] / np.expand_dims(denominator, -1) if np.ndim(denominator) else initial_distance * decay[:-1] / denominator
    return profile, denominator


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


def _coupled_core(model, x, y, grid, d_clock, dw, delta, keep_path=False, method="euler"):
    """Step the coupled pair for a batch; everything shares shapes (n, ...).

    d_clock has shape (n, M), dw has shape (n, M, d).  Returns terminal
    states, coupling indices (-1 while uncoupled), the log weight, the
    accumulated squared steering cost, the cost denominator, the applied
    rates, and optionally full paths.  The states are kept column-major,
    matching the (M, d, n) memory order of ``bm_increments``.
    """
    times = grid.times
    h = grid.step_sizes
    n_steps = grid.n_steps
    n = dw.shape[0]
    dim = model.dim

    dist0 = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    _, decay, denominator = clock_decay(model.k_bound, times, d_clock)  # denominator (n,)

    dv_steps = np.diff(model.perturbation.values_on(grid), axis=0)
    X = np.array(np.broadcast_to(np.asarray(x, dtype=float), (n, dim)), order="F")
    Y = np.array(np.broadcast_to(np.asarray(y, dtype=float), (n, dim)), order="F")
    log_weight = np.zeros(n)
    eta_sq = np.zeros(n)
    rates = np.zeros((n, n_steps)) if keep_path else None
    tau_idx = np.full(n, -1, dtype=np.int64)
    coupled = np.zeros(n, dtype=bool)
    if dist0 <= delta:
        coupled[:] = True
        tau_idx[:] = 0
    hist_x = [X.copy()] if keep_path else None
    hist_y = [Y.copy()] if keep_path else None

    for i in range(n_steps):
        t, hi = times[i], h[i]
        dl = d_clock[:, i]
        noise = model.diffusion.apply(t, dw[:, i, :])
        dv = dv_steps[i]

        active = ~coupled
        diff = X - Y
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        mask = (dist > 0) & active
        unit = np.where(mask[:, None], diff / np.where(mask, dist, 1.0)[:, None], 0.0)

        # states after the drift step but before the common noise; the
        # clipping distance is measurable without peeking at the increment
        x_drifted = model.drift_step(t, hi, X, method)
        y_drifted = model.drift_step(t, hi, Y, method)

        xi_i = dist0 * decay[i] / denominator  # (n,)
        drift_gap = x_drifted - y_drifted
        after_common = np.sqrt(np.einsum("ij,ij->i", drift_gap, drift_gap))
        magnitude = np.where(active, np.minimum(xi_i * dl, after_common), 0.0)
        rate = magnitude / dl
        eta = rate[:, None] * model.diffusion.apply_inverse(t, unit)
        eta_norm_sq = np.einsum("ij,ij->i", eta, eta)
        log_weight -= np.einsum("ij,ij->i", eta, dw[:, i, :]) + 0.5 * eta_norm_sq * dl
        eta_sq += eta_norm_sq * dl
        if keep_path:
            rates[:, i] = rate

        X = x_drifted + noise + dv
        Y = y_drifted + noise + dv + magnitude[:, None] * unit
        gap = X - Y
        new_dist = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        just_coupled = active & (new_dist <= delta)
        tau_idx[just_coupled] = i + 1
        coupled |= just_coupled
        np.copyto(Y, X, where=coupled[:, None])

        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            bad = ~(np.all(np.isfinite(X), axis=1) & np.all(np.isfinite(Y), axis=1))
            raise IntegrationError(step_index=i, n_failed=int(bad.sum()))
        if keep_path:
            hist_x.append(X.copy())
            hist_y.append(Y.copy())

    out = {
        "x_terminal": X,
        "y_terminal": Y,
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


def run_coupled_batch(model: SdeModel, x, y, grid: TimeGrid, clock_law: ClockLaw, n_paths, stream: RngStream, delta_couple=None, workers=1, method="euler") -> CoupledBatch:
    """Simulate independent coupled pairs under freshly drawn coupling clocks."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    delta = _threshold(x, y, delta_couple)

    def run_chunk(gen, count):
        clock = clock_law.sample_coupling(grid, gen, count)
        d_clock = np.diff(clock, axis=1)
        dw = bm_increments(clock, model.dim, gen)
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
    """Two estimators of the same semigroup value.

    Estimator A reweights coupled paths started at (x, y) by R; estimator B
    integrates the dynamics started at y directly with independent noise.
    Both draw clocks from the same law (the coupling clock), so their
    difference is pure Monte Carlo error plus one-step discretization
    effects.
    """
    if n_paths < 1000:
        raise ValueError("transfer check needs at least 1000 paths")
    batch = run_coupled_batch(
        model, x, y, grid, clock_law, n_paths,
        stream.child(purpose=stream.purpose + "-coupled"),
        delta_couple=delta_couple, workers=workers, method=method,
    )
    weighted = batch.weights() * np.asarray(f(batch.x_terminal), dtype=float)
    estimate_a = MCEstimate.from_samples(weighted)
    direct = map_path_chunks(
        n_paths, stream.child(purpose=stream.purpose + "-direct"),
        plain_chunk(model, y, grid, clock_law.sample_coupling, method), workers,
    )
    estimate_b = MCEstimate.from_samples(np.asarray(f(direct), dtype=float))
    return estimate_a, estimate_b
