"""Sampling of subordinator paths, regularized clocks, and time-changed
Brownian increments on a grid.

Paths are treated as piecewise constant between grid points (cadlag
convention); the sliding-window regularization integrates that step
function exactly.  All samplers draw from counter-based Philox streams so
that a (master_seed, stream id) pair reproduces the same draws bit-exactly
regardless of scheduling.

Clock assembly is the hot layer of every stable-clock run, so it works on
blocks of about 32 K values that stay in cache: Kanter's transform of the
stable sampler runs per block in a few reused buffers, with its sines from
a reflected odd polynomial (``_sin_reflected``, within 2 ulp) instead of
``np.sin``, and the coupling clock is summed and regularized per block of
rows into one preallocated column-major array.  Every draw is made before
the blocked arithmetic, so blocking moves no draw.  ``bm_increments`` draws
its path-major normals per block of rows too, so a chunk holds its clock and
its noise and no other path-sized array.
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


# Elements per block of the clock arithmetic (256 KB of float64): the
# temporaries of one block stay in cache between the passes over it.
_BLOCK = 1 << 15

# sin r = r + r z P(z), z = r^2, on 0 <= r <= pi/2; P(z) = c1 + c2 z + ...
# + c8 z^7 is the Chebyshev fit of (sin(sqrt z)/sqrt z - 1)/z made with
# mpmath.chebyfit at 50 digits, rounded to double (fit error 3.4e-19).
_SIN_COEFFS = (
    -0.16666666666666666,
    0.008333333333333316,
    -0.00019841269841254974,
    2.755731921916321e-06,
    -2.5052107616993125e-08,
    1.6058977312265895e-10,
    -7.643970290470771e-13,
    2.731444688085806e-15,
)
_PI_LO = 1.2246467991473532e-16  # pi - np.pi


def _sin_reflected(a, out=None):
    """sin a for 0 <= a <= pi, within 2 ulp of the correctly rounded value.

    Reflects to r = min(a, pi - a) <= pi/2, with pi - a carried beyond
    double precision so that the relative accuracy holds as a -> pi, then
    evaluates the odd polynomial by Horner's rule in ufuncs.  On a block
    that stays in cache it takes about two thirds of the time of ``np.sin``
    on builds where that is the scalar libm sine.
    """
    r = np.subtract(np.pi, a)
    r += _PI_LO
    np.minimum(a, r, out=r)
    z = r * r
    p = np.multiply(z, _SIN_COEFFS[-1], out=out)
    for c in _SIN_COEFFS[-2::-1]:
        p += c
        p *= z
    p *= r
    p += r
    return p


def _standard_positive_stable(theta, gen, size):
    """Positive stable variates with E exp(-s X) = exp(-s^theta) (Kanter).

    All uniforms are drawn first, then all exponentials; the transform then
    runs over blocks of ``_BLOCK`` values and writes into the uniforms.
    """
    u = gen.random(size)
    e = gen.standard_exponential(size)
    flat_u = u.reshape(-1)
    flat_e = e.reshape(-1)
    acc = np.empty(min(flat_u.size, _BLOCK))
    term = np.empty_like(acc)
    arg = np.empty_like(acc)
    for start in range(0, flat_u.size, _BLOCK):
        ub = flat_u[start:start + _BLOCK]
        eb = flat_e[start:start + _BLOCK]
        k = ub.size
        ac, tm, ag = acc[:k], term[:k], arg[:k]
        ub *= 1.0 - 2e-16
        ub += 1e-16
        ub *= np.pi
        # log A(u) = (theta log sin(theta u) + (1 - theta) log sin((1 - theta) u)
        #             - log sin u) / (1 - theta)
        np.log(_sin_reflected(np.multiply(ub, theta, out=ag), out=ac), out=ac)
        ac *= theta
        np.log(_sin_reflected(np.multiply(ub, 1.0 - theta, out=ag), out=tm), out=tm)
        tm *= 1.0 - theta
        ac += tm
        ac -= np.log(_sin_reflected(ub, out=tm), out=tm)
        ac /= 1.0 - theta
        ac -= np.log(np.maximum(eb, 1e-300, out=tm), out=tm)
        ac *= (1.0 - theta) / theta
        np.exp(ac, out=ub)
    return u


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
        out = _standard_positive_stable(bf.theta, gen, shape)
        out *= durations ** (1.0 / bf.theta)
        return out
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


def _rows_per_block(width):
    """Rows of a width-wide array that make a block of about ``_BLOCK`` elements."""
    return max(1, _BLOCK // width)


def regularized_values(base_times, comb_times, comb_values, epsilon, out=None):
    """Batched regularization core; comb_values shape (n, len(comb_times)).

    Row i of the result is (1/eps) * integral over [t, t+eps] of the step
    path comb_values[i], plus eps*t, at the base times t, which must be the
    first knots of comb_times.  The cumulative integral of a step function is
    piecewise linear, so both window ends evaluate exactly.  Rows are
    processed in blocks of about ``_BLOCK`` elements, and the result is
    column-major unless ``out`` is given.
    """
    if comb_times[-1] < base_times[-1] + epsilon - 1e-12:
        raise ValueError(
            "path does not reach the horizon plus epsilon; sample the "
            "subordinator on [0, T + epsilon] first"
        )
    comb_values = np.asarray(comb_values, dtype=float)
    n_rows, width = comb_values.shape
    n_base = base_times.size
    dt = np.diff(comb_times)
    q_right = base_times + epsilon
    right_idx = np.searchsorted(comb_times, q_right, side="right") - 1
    right_idx = np.clip(right_idx, 0, width - 2)
    offset = q_right - comb_times[right_idx]
    floor = epsilon * base_times
    if out is None:
        out = np.empty((n_rows, n_base), order="F")
    step = _rows_per_block(width)
    cum = np.empty((min(step, n_rows), width))
    cum[:, 0] = 0.0
    for start in range(0, n_rows, step):
        values = comb_values[start:start + step]
        c = cum[: values.shape[0]]
        np.multiply(values[:, :-1], dt, out=c[:, 1:])
        np.cumsum(c[:, 1:], axis=1, out=c[:, 1:])
        window = values[:, right_idx]
        window *= offset
        window += c[:, right_idx]
        window -= c[:, :n_base]
        window /= epsilon
        window += floor
        out[start:start + step] = window
    return out


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
    The normals are path-major, so drawing them per block of rows moves no
    draw; each block is scaled straight into the result.
    """
    clock_values = np.asarray(clock_values, dtype=float)
    if np.any(clock_values[..., 1:] < clock_values[..., :-1]):
        raise ValueError("clock increments must be nonnegative")
    rows = clock_values.reshape(-1, clock_values.shape[-1])
    m, paths = rows.shape[1] - 1, clock_values.ndim - 1
    buffer = np.empty((m, dimension, rows.shape[0]))
    step = _rows_per_block(m * dimension)
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        normals = gen.standard_normal((block.shape[0], m, dimension))
        np.multiply(normals.transpose(1, 2, 0), np.sqrt(np.diff(block)).T[:, None], out=buffer[:, :, start:start + step])
    return buffer.reshape((m, dimension) + clock_values.shape[:-1]).transpose(tuple(range(2, 2 + paths)) + (0, 1))


def sample_timechanged_bm(clock, dimension, rng) -> TimeChangedBMPath:
    """Brownian increments along a SubordinatorPath or RegularizedClock."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    inc = bm_increments(clock.values, dimension, gen)
    return TimeChangedBMPath(grid=clock.grid, dimension=dimension, increments=inc)


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
        out = np.empty((n_paths, grid.times.size))
        out[:, 0] = 0.0
        np.cumsum(inc, axis=1, out=out[:, 1:])
        return out

    def _extended_times(self, grid: TimeGrid):
        h_last = grid.times[-1] - grid.times[-2]
        n_ext = max(1, int(math.ceil(self.epsilon / h_last - 1e-12)))
        extra = grid.times[-1] + h_last * np.arange(1, n_ext + 1)
        return np.concatenate([grid.times, extra])

    def sample_coupling(self, grid: TimeGrid, gen, n_paths: int):
        """Coupling clocks of shape (n_paths, M+1).

        A regularized clock is column-major: the steppers read one clock
        column per step.  Its rows are summed and regularized in blocks of
        about ``_BLOCK`` elements, after all increments are drawn.
        """
        if self.is_deterministic:
            return np.broadcast_to(grid.times, (n_paths, grid.times.size)).copy()
        comb_times = self._extended_times(grid)
        inc = sample_subordinator_increments(self.bernstein, np.diff(comb_times), gen, n_paths)
        out = np.empty((n_paths, grid.times.size), order="F")
        step = _rows_per_block(comb_times.size)
        values = np.empty((min(step, n_paths), comb_times.size))
        values[:, 0] = 0.0
        for start in range(0, n_paths, step):
            block = inc[start:start + step]
            v = values[: block.shape[0]]
            np.cumsum(block, axis=1, out=v[:, 1:])
            regularized_values(grid.times, comb_times, v, self.epsilon, out=out[start:start + step])
        return out
