"""Model definitions and the Euler integrator for equations of the form

    X_t = X_0 + int_0^t b_s(X_s) ds + int_0^t sigma_s dW_{S(s)} + V_t.

W is a standard d-dimensional Brownian motion with generator Delta/2: over a
step its increment has covariance equal to the clock increment times I.  With
zero drift and the linear clock this gives, e.g., P_T sin = e^{-T/2} sin.

Drifts carry a one-sided Lipschitz bound K_t, diffusions an inverse-norm
bound lambda_t; both bounds feed the certified inequality constants.  Drift
and observable callables must accept batched states of shape (..., d) so
that Monte Carlo replication stays vectorized.  The steppers keep batched
states column-major, so these callables may receive F-ordered (n, d)
arrays: element-wise drifts and ``x @ M.T`` work unchanged, but a callable
that reads the raw buffer (``tobytes``, ``np.frombuffer``,
``ravel(order="K")``) sees the coordinates in another order.

Drift-step interface.  A model is anything with ``dim``, ``perturbation``,
``diffusion`` (``apply`` and ``apply_inverse``), ``k_bound(t)``,
``lambda_bound(t)`` and ``drift_step(t, h, states, method)``, which maps
batched states over one step of size h before the noise is added.
``SdeModel`` steps by explicit Euler or, for ``method="semi_implicit"``, by
the drift resolvent; the Galerkin ``SemilinearModel`` steps by exponential
Euler whatever the method.  ``euler_steps`` is then the one plain stepper
and ``coupling._coupled_core`` the one coupled stepper for both kinds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .parallel import map_path_chunks
from .pathgen import ClockLaw, RngStream, TimeGrid, bm_increments
from .stats import MCEstimate

__all__ = [
    "DriftModel",
    "DiffusionModel",
    "PerturbationModel",
    "SdeModel",
    "Trajectory",
    "IntegrationError",
    "integrate",
    "semigroup_estimate",
    "terminal_states",
    "make_model",
]


# Largest state magnitude a stepper accepts.  Beyond it |x|^2 overflows, so
# distances, weights and quadratic observables are garbage even while the
# states stay finite, as an unstable explicit step on a stiff drift gives.
_STATE_BOUND = 1e150


class IntegrationError(RuntimeError):
    """Raised when stepping produces non-finite or out-of-bound states."""

    def __init__(self, step_index, n_failed=1):
        super().__init__(
            f"non-finite state or |x| > {_STATE_BOUND:g} at step {step_index} in "
            f"{n_failed} path(s); the drift may be stiff or the grid too coarse"
        )
        self.step_index = step_index
        self.n_failed = n_failed

    def __reduce__(self):
        # rebuilt from its fields, so it crosses a worker process's pipe
        return type(self), (self.step_index, self.n_failed)


def _check_states(step_index, *states):
    """Raise ``IntegrationError`` when an entry is NaN or beyond ``_STATE_BOUND``.

    Each (n, d) array costs one abs and one max; a NaN max fails the test.
    """
    if all(np.abs(s).max() <= _STATE_BOUND for s in states):
        return
    ok = np.all([np.all(np.abs(s) <= _STATE_BOUND, axis=-1) for s in states], axis=0)
    raise IntegrationError(step_index=step_index, n_failed=int((~ok).sum()))


@dataclass(frozen=True)
class DriftModel:
    """Drift b_t(x) with a one-sided Lipschitz bound K_t.

    ``func(t, x)`` must accept x of shape (..., d) and return the same shape.
    ``one_sided_bound(t)`` returns K_t with
    <b_t(x) - b_t(y), x - y> <= K_t |x - y|^2.

    ``implicit_solve(t, h, rhs)`` returns the resolvent y with
    y - h b_t(y) = rhs for batched rhs.  It is required for the
    semi-implicit drift step (explicit Euler can blow up for superlinear
    drifts under unbounded noise kicks); without it that step raises
    ValueError.
    """

    func: callable
    one_sided_bound: callable
    implicit_solve: callable | None = None


@dataclass(frozen=True)
class DiffusionModel:
    """Invertible diffusion sigma_t with operator-norm bound on its inverse.

    ``matrix(t)`` returns a scalar (isotropic), a vector (diagonal) or a
    d x d matrix.  Scalar and diagonal sigma act element-wise, so wide
    diagonal systems need no matrix product.
    """

    matrix: callable
    inverse: callable
    inverse_norm_bound: callable  # lambda_t >= ||sigma_t^{-1}||

    @classmethod
    def isotropic(cls, scale):
        if scale <= 0:
            raise ValueError("isotropic diffusion needs a positive scale")
        return cls.diagonal(scale)

    @classmethod
    def diagonal(cls, sigma):
        sigma = np.asarray(sigma, dtype=float)
        bound = float(np.max(1.0 / np.abs(sigma)))
        return cls(
            matrix=lambda t: sigma,
            inverse=lambda t: 1.0 / sigma,
            inverse_norm_bound=lambda t: bound,
        )

    @classmethod
    def constant(cls, mat):
        mat = np.asarray(mat, dtype=float)
        inv = np.linalg.inv(mat)
        bound = float(np.linalg.norm(inv, 2))
        return cls(
            matrix=lambda t: mat,
            inverse=lambda t: inv,
            inverse_norm_bound=lambda t: bound,
        )

    def apply(self, t, vecs):
        mat = np.asarray(self.matrix(t))
        return mat * vecs if mat.ndim < 2 else vecs @ mat.T

    def apply_inverse(self, t, vecs):
        mat = np.asarray(self.matrix(t))
        return vecs / mat if mat.ndim < 2 else vecs @ np.asarray(self.inverse(t)).T


@dataclass(frozen=True)
class PerturbationModel:
    """Additive perturbation path V_t with V_0 = 0.

    The perturbation is zero (``func`` is None) or a deterministic function
    of time.
    """

    dim: int
    func: callable | None = None

    @classmethod
    def zero(cls, dim):
        return cls(dim=dim)

    @classmethod
    def from_function(cls, func, dim):
        v0 = np.asarray(func(0.0), dtype=float)
        if not np.allclose(v0, 0.0, atol=1e-12):
            raise ValueError("perturbation must start at V_0 = 0")
        return cls(dim=dim, func=func)

    def values_on(self, grid: TimeGrid):
        if self.func is None:
            return np.zeros((grid.times.size, self.dim))
        return np.stack([np.asarray(self.func(t), dtype=float) for t in grid.times])


@dataclass(frozen=True)
class SdeModel:
    """Bundle of drift, diffusion, and perturbation on R^d."""

    dim: int
    drift: DriftModel
    diffusion: DiffusionModel
    perturbation: PerturbationModel
    label: str = "custom"
    params: dict = field(default_factory=dict)

    def k_bound(self, t):
        return self.drift.one_sided_bound(t)

    def lambda_bound(self, t):
        return self.diffusion.inverse_norm_bound(t)

    def drift_step(self, t, h, states, method="euler"):
        """States after the drift over [t, t + h], before the noise.

        Method "euler" is the explicit step with the drift at the left
        endpoint.  Method "semi_implicit" moves through the resolvent
        (y - h b(y) = x), which stays stable for strongly contracting or
        superlinear drifts where the explicit step can oscillate or blow up;
        it needs the drift's ``implicit_solve``.
        """
        if method == "euler":
            return states + np.asarray(self.drift.func(t, states), dtype=float) * h
        if method == "semi_implicit":
            if self.drift.implicit_solve is None:
                raise ValueError("semi-implicit stepping needs a drift with implicit_solve")
            return np.asarray(self.drift.implicit_solve(t, h, states), dtype=float)
        raise ValueError(f"unknown integration method {method!r}")


@dataclass(frozen=True)
class Trajectory:
    grid: TimeGrid
    states: np.ndarray  # (M+1, d)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "states", states)
        if states.shape[0] != self.grid.times.size:
            raise ValueError("states and grid have different lengths")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory contains non-finite states")

    @property
    def terminal(self):
        return self.states[-1]

    def to_csv(self, file_path):
        d = self.states.shape[1]
        with open(file_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"X_{j + 1}" for j in range(d)])
            for t, row in zip(self.grid.times, self.states):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def euler_steps(model: SdeModel, x0s, grid: TimeGrid, dw, keep_path=False, method="euler"):
    """One-step integrators over a batch of paths sharing the grid.

    x0s has shape (n, d) and dw shape (n, M, d).  Each step is the model's
    ``drift_step`` plus the noise sigma dW and the perturbation increment.
    States are kept column-major, matching the (M, d, n) memory order of
    ``bm_increments``.
    """
    times = grid.times
    steps = grid.step_sizes
    states = np.array(x0s, dtype=float, order="F")
    v_values = model.perturbation.values_on(grid)
    history = [states.copy()] if keep_path else None
    for i in range(grid.n_steps):
        t, h = times[i], steps[i]
        noise = model.diffusion.apply(t, dw[:, i, :])
        dv = v_values[i + 1] - v_values[i]
        states = model.drift_step(t, h, states, method) + noise + dv
        _check_states(i, states)
        if keep_path:
            history.append(states.copy())
    if keep_path:
        return np.stack(history, axis=1)  # (n, M+1, d)
    return states


def integrate(x0, model: SdeModel, bm, grid: TimeGrid | None = None, method="euler") -> Trajectory:
    """Integrate one path of the equation driven by the given increments."""
    grid = grid or bm.grid
    if not np.array_equal(grid.times, bm.grid.times):
        raise ValueError("noise path and grid are not aligned")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != model.dim:
        raise ValueError("initial condition dimension does not match the model")
    path = euler_steps(model, x0[None, :], grid, bm.increments[None, :, :], keep_path=True, method=method)
    return Trajectory(grid=grid, states=path[0])


def terminal_states(model: SdeModel, x0, grid: TimeGrid, clock_law: ClockLaw, n_paths, stream: RngStream, workers=1, method="euler"):
    """Terminal values X_T for n_paths independent (S, W) draws.

    Paths are generated in fixed-size chunks with one counter-based stream
    per chunk, so the result is independent of worker count.  Each chunk
    draws its raw clocks, then the Gaussian increments, then steps with
    ``euler_steps``.  A start x0 of shape (d,) gives an (n_paths, d) array;
    K starts of shape (K, d) give (n_paths, K, d), all K driven by the same
    clock and noise on each path (common random numbers), with [:, k, :]
    equal bit for bit to a single-start call from x0[k] on the same stream.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    starts = x0.reshape(-1, x0.shape[-1])

    def run_chunk(gen, count):
        clock = clock_law.sample_raw(grid, gen, count)
        dw = bm_increments(clock, model.dim, gen)
        # stored (K, d, n) and returned as its column-major (n, K * d) view,
        # which keeps its layout through a worker's pipe and np.concatenate
        finals = np.empty((len(starts), model.dim, count))
        for k, start in enumerate(starts):
            x0s = np.broadcast_to(start, (count, model.dim))
            finals[k] = euler_steps(model, x0s, grid, dw, method=method).T
        return finals.reshape(-1, count).T

    rows = map_path_chunks(n_paths, stream, run_chunk, workers)
    if x0.ndim == 1:
        return rows
    # (n, K, d) view of the joined (K, d, n) storage: every [:, k, :] block
    # is column-major like a single-start result
    return rows.T.reshape(len(starts), model.dim, n_paths).transpose(2, 0, 1)


def semigroup_estimate(f, x0, model: SdeModel, clock_law: ClockLaw, grid: TimeGrid, n_paths, stream: RngStream, workers=1, method="euler") -> MCEstimate:
    """Monte Carlo estimate of E f(X_T(x0)).

    The observable must be bounded measurable (caller contract) and accept
    batched states of shape (n, d).
    """
    if n_paths < 2:
        raise ValueError("need at least two paths for a standard error")
    finals = terminal_states(model, x0, grid, clock_law, n_paths, stream, workers=workers, method=method)
    return MCEstimate.from_samples(np.asarray(f(finals), dtype=float))


def _double_well_resolvent(t, h, rhs):
    """Real root y of y (1 - h) + h y^3 = rhs, componentwise, for 0 < h < 1.

    For 0 < h < 1 the cubic is strictly increasing in y, so the root is
    unique.  With k = sqrt((1 - h) / (3 h)) the identity
    sinh(3u) = 4 sinh(u)^3 + 3 sinh(u) gives it in closed form:

        y = 2 k sinh(arcsinh(rhs / (2 h k^3)) / 3).

    For h >= 1 the cubic is not monotone and the resolvent not unique, so a
    step outside (0, 1) raises ValueError.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"double-well resolvent needs a step 0 < h < 1, got h={h}")
    k = math.sqrt((1.0 - h) / (3.0 * h))
    # 2 h k^3 = 2 k (1 - h) / 3, which stays finite for tiny h
    u = np.arcsinh(np.asarray(rhs, dtype=float) * (1.5 / (k * (1.0 - h))))
    return 2.0 * k * np.sinh(u / 3.0)


def make_model(name, dim=1, sigma_scale=1.0, perturbation=None, **params) -> SdeModel:
    """Built-in model zoo addressable by name.

    * ``zero``        b = 0, K = 0
    * ``ou``          b = -rate * x, K = -rate
    * ``double_well`` b = x - x^3 componentwise, K = 1; its semi-implicit
      step needs every step size h < 1
    * ``rotating``    d = 2, skew rotation plus contraction, K = -contraction

    All zoo drifts are locally Lipschitz; merely continuous drifts with a
    one-sided bound are outside the zoo because explicit Euler has no
    guaranteed rate for them.
    """
    diffusion = DiffusionModel.isotropic(sigma_scale)
    perturbation = perturbation or PerturbationModel.zero(dim)
    if name == "zero":
        drift = DriftModel(
            func=lambda t, x: np.zeros_like(x),
            one_sided_bound=lambda t: 0.0,
            implicit_solve=lambda t, h, rhs: rhs,
        )
    elif name == "ou":
        rate = float(params.pop("rate", 1.0))
        if rate <= 0:
            raise ValueError("ou rate must be positive")
        drift = DriftModel(
            func=lambda t, x, _a=rate: -_a * x,
            one_sided_bound=lambda t, _a=rate: -_a,
            implicit_solve=lambda t, h, rhs, _a=rate: rhs / (1.0 + _a * h),
        )
        params = {"rate": rate, **params}
    elif name == "double_well":
        drift = DriftModel(
            func=lambda t, x: x - x * x * x,
            one_sided_bound=lambda t: 1.0,
            implicit_solve=_double_well_resolvent,
        )
    elif name == "rotating":
        if dim != 2:
            raise ValueError("rotating model is two-dimensional")
        omega = float(params.pop("omega", 1.0))
        contraction = float(params.pop("contraction", 0.5))
        if contraction <= 0:
            raise ValueError("rotating model needs a positive contraction")
        mat = np.array([[-contraction, -omega], [omega, -contraction]])
        # (M @ x.T).T keeps column-major batches column-major; x @ M.T
        # gives the same bits but returns C order
        drift = DriftModel(
            func=lambda t, x, _m=mat: (_m @ x.T).T,
            one_sided_bound=lambda t, _c=contraction: -_c,
            implicit_solve=lambda t, h, rhs, _m=mat: (np.linalg.inv(np.eye(2) - h * _m) @ rhs.T).T,
        )
        params = {"omega": omega, "contraction": contraction, **params}
    else:
        raise ValueError(f"unknown model {name!r}")
    if params and name in ("zero", "double_well"):
        raise ValueError(f"model {name!r} takes no extra parameters: {sorted(params)}")
    return SdeModel(
        dim=dim,
        drift=drift,
        diffusion=diffusion,
        perturbation=perturbation,
        label=name,
        params={"sigma_scale": sigma_scale, **params},
    )
