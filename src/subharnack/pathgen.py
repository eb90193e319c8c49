"""Sampling of subordinator paths, regularized clocks, and time-changed
Brownian increments on a grid.

Paths are treated as piecewise constant between grid points (cadlag
convention); the sliding-window regularization integrates that step
function exactly.  All samplers draw from counter-based Philox streams so
that a (master_seed, stream id) pair reproduces the same draws bit-exactly
regardless of scheduling.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .bernstein import (
    BernsteinFunction,
    GammaBernstein,
    LinearBernstein,
    StableBernstein,
    TemperedStableBernstein,
)

__all__ = [
    "TimeGrid",
    "RngStream",
    "SubordinatorPath",
    "RegularizedClock",
    "TimeChangedBMPath",
    "ClockLaw",
    "sample_subordinator",
    "sample_subordinator_increments",
    "regularize",
    "sample_timechanged_bm",
    "bm_increments",
    "brownian_at_clocks",
]


@dataclass(frozen=True)
class TimeGrid:
    """Ordered time points t_0 < t_1 < ... < t_M.

    Grids normally start at 0; continuation grids (used to extend a path
    beyond the horizon for regularization windows) may start later.
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a grid needs at least two time points")
        if times[0] < 0:
            raise ValueError("grid must start at a nonnegative time")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def uniform(cls, horizon, steps):
        if horizon <= 0 or steps < 1:
            raise ValueError("need horizon > 0 and at least one step")
        return cls(times=np.linspace(0.0, horizon, steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def step_sizes(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream addressed by (master_seed, replicate, purpose).

    Distinct ids give statistically independent streams; an equal id
    reproduces the same draw sequence bit-exactly across runs and across
    worker counts.
    """

    master_seed: int
    replicate: int = 0
    purpose: str = "main"

    def generator(self) -> np.random.Generator:
        tag = zlib.crc32(self.purpose.encode("utf-8"))
        seq = np.random.SeedSequence(
            entropy=int(self.master_seed), spawn_key=(tag, int(self.replicate))
        )
        return np.random.Generator(np.random.Philox(seq))

    def child(self, replicate=None, purpose=None) -> "RngStream":
        out = self
        if replicate is not None:
            out = replace(out, replicate=replicate)
        if purpose is not None:
            out = replace(out, purpose=purpose)
        return out


@dataclass(frozen=True)
class SubordinatorPath:
    """Nondecreasing clock values on a grid; S_0 = 0 when the grid starts at 0."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.times.shape:
            raise ValueError("values and grid have different lengths")
        if not np.all(np.isfinite(values)):
            raise ValueError("subordinator values must be finite")
        if np.any(np.diff(values) < 0):
            raise ValueError("subordinator values must be nondecreasing")
        if self.grid.times[0] == 0.0 and values[0] != 0.0:
            raise ValueError("a path started at time 0 must have S_0 = 0")


@dataclass(frozen=True)
class RegularizedClock:
    """Strictly increasing clock from a sliding-window average plus a slope floor."""

    grid: TimeGrid
    values: np.ndarray
    epsilon: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if values.shape != self.grid.times.shape:
            raise ValueError("values and grid have different lengths")
        if np.any(np.diff(values) <= 0):
            raise ValueError("regularized clock must be strictly increasing")


@dataclass(frozen=True)
class TimeChangedBMPath:
    """Brownian increments over each grid cell, conditionally Gaussian given the clock."""

    grid: TimeGrid
    dimension: int
    increments: np.ndarray  # (n_steps, dimension)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "increments", inc)
        if inc.shape != (self.grid.n_steps, self.dimension):
            raise ValueError("increments must have shape (n_steps, dimension)")


def _standard_positive_stable(theta, gen, size):
    """Positive stable variates with E exp(-s X) = exp(-s^theta) (Kanter)."""
    u = (gen.random(size) * (1.0 - 2e-16) + 1e-16) * np.pi
    e = np.maximum(gen.standard_exponential(size), 1e-300)
    log_a = (
        theta * np.log(np.sin(theta * u))
        + (1.0 - theta) * np.log(np.sin((1.0 - theta) * u))
        - np.log(np.sin(u))
    ) / (1.0 - theta)
    return np.exp(((1.0 - theta) / theta) * (log_a - np.log(e)))


class RejectionError(RuntimeError):
    pass


_REJECTION_ROUNDS = 10_000


def _check_tempered_acceptance(theta, kappa, durations):
    """Raise before any draw when the longest cell is likely to stall.

    A stable proposal over a cell of length dt is accepted with probability
    p = exp(-kappa^theta dt); the sampler gives up when one increment of
    that cell stays unaccepted after every round with probability above 1/2.
    """
    longest = float(np.max(durations, initial=0.0))
    accept = math.exp(-(kappa**theta) * longest)
    if accept < 1.0 and _REJECTION_ROUNDS * math.log1p(-accept) > math.log(0.5):
        raise RejectionError(
            f"tempered-stable rejection sampler stalled: acceptance rate {accept:.3e} "
            f"per proposal over a cell of length {longest:.3g} is too low for "
            f"{_REJECTION_ROUNDS} rounds; reduce the step size or kappa"
        )


def _tempered_stable_increments(theta, kappa, durations, gen, shape):
    """Exponentially tilted stable increments by rejection on the stable sampler."""
    _check_tempered_acceptance(theta, kappa, durations)
    out = np.empty(shape)
    remaining = np.ones(shape, dtype=bool)
    scales = np.broadcast_to(durations ** (1.0 / theta), shape)
    total_proposals = 0
    total_accepted = 0
    for _ in range(_REJECTION_ROUNDS):
        idx = np.nonzero(remaining)
        n_left = idx[0].size
        if n_left == 0:
            break
        proposal = scales[idx] * _standard_positive_stable(theta, gen, n_left)
        accept = gen.random(n_left) <= np.exp(-kappa * proposal)
        total_proposals += n_left
        total_accepted += int(accept.sum())
        take = (idx[0][accept],) if len(idx) == 1 else (idx[0][accept], idx[1][accept])
        out[take] = proposal[accept]
        remaining[take] = False
    else:
        rate = total_accepted / max(total_proposals, 1)
        raise RejectionError(
            f"tempered-stable rejection sampler stalled: acceptance rate {rate:.3e} "
            f"over {total_proposals} proposals; reduce the step size or kappa"
        )
    return out


def sample_subordinator_increments(bf: BernsteinFunction, durations, gen, n_paths=None):
    """Independent subordinator increments over the given durations.

    Returns shape (len(durations),) for n_paths=None, else
    (n_paths, len(durations)).
    """
    durations = np.asarray(durations, dtype=float)
    if np.any(durations < 0):
        raise ValueError("durations must be nonnegative")
    shape = durations.shape if n_paths is None else (n_paths,) + durations.shape
    if isinstance(bf, LinearBernstein):
        return np.broadcast_to(durations, shape).copy()
    if isinstance(bf, StableBernstein):
        scale = durations ** (1.0 / bf.theta)
        return scale * _standard_positive_stable(bf.theta, gen, shape)
    if isinstance(bf, GammaBernstein):
        shape_param = np.broadcast_to(bf.a * durations, shape)
        return gen.gamma(shape=shape_param, scale=1.0 / bf.b)
    if isinstance(bf, TemperedStableBernstein):
        return _tempered_stable_increments(bf.theta, bf.kappa, durations, gen, shape)
    raise ValueError(f"unsupported Bernstein variant {type(bf).__name__}")


def sample_subordinator(bf: BernsteinFunction, grid: TimeGrid, rng, initial_value=0.0) -> SubordinatorPath:
    """Sample a subordinator path on the grid.

    ``initial_value`` lets a continuation grid (starting at the horizon of a
    previous path) pick up where that path ended, so both pieces form one
    jointly sampled path.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    inc = sample_subordinator_increments(bf, grid.step_sizes, gen)
    values = initial_value + np.concatenate(([0.0], np.cumsum(inc)))
    return SubordinatorPath(grid=grid, values=values)


def _window_averages(comb_times, comb_values, query_left, epsilon):
    """(1/eps) * integral over [q, q+eps] of the step path, batched over rows.

    comb_values has shape (n, len(comb_times)); query_left are knots of
    comb_times (the base grid).  The cumulative integral of a step function
    is piecewise linear, so both endpoints evaluate exactly.
    """
    dt = np.diff(comb_times)
    cum = np.concatenate(
        [np.zeros((comb_values.shape[0], 1)), np.cumsum(comb_values[:, :-1] * dt, axis=1)],
        axis=1,
    )
    n_base = query_left.size
    left_idx = np.arange(n_base)
    q_right = query_left + epsilon
    right_idx = np.searchsorted(comb_times, q_right, side="right") - 1
    right_idx = np.clip(right_idx, 0, comb_times.size - 2)
    integral_right = cum[:, right_idx] + comb_values[:, right_idx] * (
        q_right - comb_times[right_idx]
    )
    integral_left = cum[:, left_idx]
    return (integral_right - integral_left) / epsilon


def regularized_values(base_times, comb_times, comb_values, epsilon):
    """Batched regularization core; comb_values shape (n, len(comb_times))."""
    if comb_times[-1] < base_times[-1] + epsilon - 1e-12:
        raise ValueError(
            "path does not reach the horizon plus epsilon; sample the "
            "subordinator on [0, T + epsilon] first"
        )
    avg = _window_averages(comb_times, comb_values, base_times, epsilon)
    return avg + epsilon * base_times


def regularize(path: SubordinatorPath, epsilon, extension: SubordinatorPath | None = None) -> RegularizedClock:
    """Sliding-window regularization: (1/eps) * integral_t^{t+eps} S + eps*t.

    ``extension`` continues the same sampled path on [T, T + eps]; its first
    value must match the path value at T.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base_times = path.grid.times
    horizon = base_times[-1]
    if extension is None:
        raise ValueError(
            "regularization needs the path on [T, T + epsilon]; sample on "
            "[0, T + epsilon] and pass the continuation as `extension`"
        )
    ext_times = extension.grid.times
    if abs(ext_times[0] - horizon) > 1e-12:
        raise ValueError("extension must start at the path horizon")
    if abs(extension.values[0] - path.values[-1]) > 1e-12:
        raise ValueError("extension must continue the sampled path values")
    comb_times = np.concatenate([base_times, ext_times[1:]])
    comb_values = np.concatenate([path.values, extension.values[1:]])[None, :]
    values = regularized_values(base_times, comb_times, comb_values, epsilon)[0]
    return RegularizedClock(grid=path.grid, values=values, epsilon=epsilon)


def bm_increments(clock_values, dimension, gen):
    """Gaussian increments with per-cell variance equal to the clock increment.

    clock_values has shape (..., M+1); the result has shape (..., M, d) and
    the draws are those of ``standard_normal((..., M, d))``.  Its memory is
    ordered (M, d, ...): for a batch of n paths, ``dw[:, i, :]`` is an
    F-contiguous (n, d) block, so each step's arithmetic runs on contiguous
    length-n columns.  A 1-D clock keeps the plain (M, d) layout.
    """
    clock_values = np.asarray(clock_values, dtype=float)
    gaps = np.diff(clock_values, axis=-1)
    if np.any(gaps < 0):
        raise ValueError("clock increments must be nonnegative")
    normals = gen.standard_normal(gaps.shape + (dimension,))
    paths = gaps.ndim - 1
    buffer = np.empty(gaps.shape[-1:] + (dimension,) + gaps.shape[:-1])
    # iterate in the buffer's order: the inner loop then runs over paths,
    # not over the d coordinates of the draw order
    np.multiply(
        normals.transpose((paths, paths + 1) + tuple(range(paths))),
        np.moveaxis(np.sqrt(gaps), -1, 0)[:, None],
        out=buffer, order="C",
    )
    return buffer.transpose(tuple(range(2, 2 + paths)) + (0, 1))


def sample_timechanged_bm(clock, dimension, rng) -> TimeChangedBMPath:
    """Brownian increments along a SubordinatorPath or RegularizedClock."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    inc = bm_increments(clock.values, dimension, gen)
    return TimeChangedBMPath(grid=clock.grid, dimension=dimension, increments=inc)


def brownian_at_clocks(clock_value_arrays, dimension, gen):
    """Evaluate one Brownian path at several interleaved clock arrays.

    All arrays see the same underlying Brownian motion: increments are drawn
    on the union of the requested clock values, so comparisons across
    regularization levels use fixed noise.
    """
    pool = np.unique(np.concatenate([np.concatenate(([0.0], np.ravel(c))) for c in clock_value_arrays]))
    gaps = np.diff(pool)
    if np.any(gaps < 0):
        raise ValueError("clock values must be nonnegative")
    steps = gen.standard_normal((gaps.size, dimension)) * np.sqrt(gaps)[:, None]
    walk = np.vstack([np.zeros((1, dimension)), np.cumsum(steps, axis=0)])
    out = []
    for c in clock_value_arrays:
        idx = np.searchsorted(pool, np.ravel(c))
        out.append(walk[idx].reshape(np.shape(c) + (dimension,)))
    return out


@dataclass(frozen=True)
class ClockLaw:
    """Law of the driving clock plus the regularization used for coupling.

    ``sample_raw`` draws the subordinator itself (the time change in the
    underlying equation).  ``sample_coupling`` draws the strictly increasing
    clock used by the coupled construction: the identity for the linear
    variant (already absolutely continuous), the window-regularized path
    otherwise.
    """

    bernstein: BernsteinFunction
    epsilon: float = 0.05

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def is_deterministic(self) -> bool:
        return isinstance(self.bernstein, LinearBernstein)

    def sample_raw(self, grid: TimeGrid, gen, n_paths: int):
        inc = sample_subordinator_increments(self.bernstein, grid.step_sizes, gen, n_paths)
        return np.concatenate([np.zeros((n_paths, 1)), np.cumsum(inc, axis=1)], axis=1)

    def _extended_times(self, grid: TimeGrid):
        h_last = grid.times[-1] - grid.times[-2]
        n_ext = max(1, int(math.ceil(self.epsilon / h_last - 1e-12)))
        extra = grid.times[-1] + h_last * np.arange(1, n_ext + 1)
        return np.concatenate([grid.times, extra])

    def sample_coupling(self, grid: TimeGrid, gen, n_paths: int):
        if self.is_deterministic:
            return np.broadcast_to(grid.times, (n_paths, grid.times.size)).copy()
        comb_times = self._extended_times(grid)
        durations = np.diff(comb_times)
        inc = sample_subordinator_increments(self.bernstein, durations, gen, n_paths)
        comb_values = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(inc, axis=1)], axis=1)
        return regularized_values(grid.times, comb_times, comb_values, self.epsilon)
