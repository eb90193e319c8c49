"""Spectral truncation of a semilinear equation with damping operator A,
the stochastic convolution driven by the subordinated noise, and the
dimension-free behaviour of the Harnack certificates across truncation
levels.

The per-mode picture: A e_j = -rho_j e_j, and the mild solution damps each
mode exponentially between steps.  The exponential-Euler scheme

    X_{i+1} = e^{-rho h} X_i + phi(rho h) h F(t_i, X_i) + sigma dB_S + dV,
    phi(z) = (1 - e^{-z}) / z

stays stable for stiff high modes without shrinking the step.  The diagonal
restriction on sigma keeps the inverse bound explicit; non-diagonal
operators are rejected as unsupported.

``SemilinearModel`` implements the drift-step interface of ``sde``: its
``drift_step`` is the exponential-Euler map above and its ``diffusion``
applies the diagonal sigma element-wise.  The plain stepper
``sde.euler_steps``, ``sde.terminal_states`` and the coupling in
``coupling`` therefore run on the truncation directly, with the same
exponential-Euler step on both sides of every transfer identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .certify import harnack_rate_constant, log_harnack_certificate
from .pathgen import ClockLaw, RngStream, SubordinatorPath, TimeGrid, sample_timechanged_bm
from .sde import DiffusionModel, PerturbationModel, Trajectory, integrate
from .stats import weighted_slope

__all__ = [
    "SpectrumModel",
    "SemilinearModel",
    "stochastic_convolution",
    "integrate_mild",
    "DimensionFreeResult",
    "dimension_free_check",
]


@dataclass(frozen=True)
class SpectrumModel:
    """Truncated eigenvalues 0 <= rho_1 <= ... <= rho_n of the damping operator."""

    eigenvalues: np.ndarray
    growth: dict | None = None

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eig)
        if eig.ndim != 1 or eig.size < 1:
            raise ValueError("need at least one eigenvalue")
        if np.any(eig < 0) or np.any(np.diff(eig) < 0):
            raise ValueError("eigenvalues must be nonnegative and nondecreasing")

    @classmethod
    def from_power_law(cls, n, gamma_exp):
        if n < 1 or gamma_exp <= 0:
            raise ValueError("need n >= 1 and a positive growth exponent")
        idx = np.arange(1, n + 1, dtype=float)
        return cls(eigenvalues=idx**gamma_exp, growth={"kind": "poly", "gamma": float(gamma_exp)})

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def hs_integral(self, t) -> float:
        """Truncated value of int_0^t sum_j exp(-2 rho_j s) ds."""
        rho = self.eigenvalues
        out = np.where(rho > 0, (1.0 - np.exp(-2.0 * rho * t)) / np.where(rho > 0, 2.0 * rho, 1.0), t)
        return float(out.sum())

    def hs_series_converges(self):
        """Whether the full (untruncated) law keeps the diagnostic finite.

        For the polynomial law rho_j = j^gamma the series sums 1/(2 j^gamma)
        and converges iff gamma > 1.  Unknown laws return None.
        """
        if self.growth and self.growth.get("kind") == "poly":
            return self.growth["gamma"] > 1.0
        return None


def _phi(z):
    """(1 - exp(-z)) / z with the removable singularity filled in."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    big = z > 1e-8
    out[big] = -np.expm1(-z[big]) / z[big]
    small = ~big
    out[small] = 1.0 - z[small] / 2.0 + z[small] ** 2 / 6.0
    return out


@dataclass(frozen=True)
class SemilinearModel:
    """Truncated semilinear model: damping spectrum, Lipschitz forcing, diagonal noise."""

    spectrum: SpectrumModel
    force: callable  # (t, states (.., n)) -> (.., n)
    force_lipschitz: callable  # K_s with |F_s(x) - F_s(y)| <= K_s |x - y|
    sigma_diag: np.ndarray
    perturbation: PerturbationModel | None = None
    label: str = "semilinear"
    params: dict = field(default_factory=dict)
    diffusion: DiffusionModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma_diag, dtype=float)
        if sigma.ndim == 0:
            sigma = np.full(self.spectrum.n_modes, float(sigma))
        if sigma.ndim != 1:
            raise ValueError(
                "unsupported configuration: sigma must be mode-diagonal "
                "(a scalar or a vector of per-mode factors)"
            )
        if sigma.size != self.spectrum.n_modes:
            raise ValueError("sigma diagonal length must match the mode count")
        if np.any(sigma == 0):
            raise ValueError("sigma must be invertible: no zero diagonal entries")
        object.__setattr__(self, "sigma_diag", sigma)
        object.__setattr__(self, "diffusion", DiffusionModel.diagonal(sigma))
        if self.perturbation is None:
            object.__setattr__(self, "perturbation", PerturbationModel.zero(self.spectrum.n_modes))

    @property
    def dim(self) -> int:
        return self.spectrum.n_modes

    def k_bound(self, t):
        """One-sided bound of the full drift A x + F(x): the damping only helps."""
        return self.force_lipschitz(t) - float(self.spectrum.eigenvalues[0])

    def lambda_bound(self, t):
        return self.diffusion.inverse_norm_bound(t)

    def drift_step(self, t, h, states, method="euler"):
        """Exponential-Euler drift e^{-rho h} x + phi(rho h) h F(t, x).

        The scheme handles its own stiffness, so ``method`` does not apply.
        """
        del method
        rho = self.spectrum.eigenvalues
        forcing = _phi(rho * h) * h * np.asarray(self.force(t, states), dtype=float)
        return np.exp(-rho * h) * states + forcing


def stochastic_convolution(spectrum: SpectrumModel, sigma_diag, clock: SubordinatorPath, grid: TimeGrid = None, rng=None) -> Trajectory:
    """One path of int_0^t e^{(t-s)A} sigma dW_{S(s)} by exponentially damped sums."""
    model = SemilinearModel(
        spectrum=spectrum,
        force=lambda t, x: np.zeros_like(x),
        force_lipschitz=lambda t: 0.0,
        sigma_diag=sigma_diag,
        label="convolution",
    )
    return integrate_mild(np.zeros(spectrum.n_modes), model, clock, grid=grid, rng=rng)


def integrate_mild(x0, model: SemilinearModel, clock: SubordinatorPath, grid: TimeGrid = None, rng=None) -> Trajectory:
    """One mild-solution path driven by a sampled subordinator clock."""
    return integrate(x0, model, sample_timechanged_bm(clock, model.dim, rng), grid)


@dataclass(frozen=True)
class DimensionFreeResult:
    dims: tuple
    reports: tuple
    trend_slope: float
    trend_stderr: float
    rhs_constant: float
    dimension_free_label: bool

    @property
    def no_negative_trend(self) -> bool:
        return self.trend_slope >= -3.0 * max(self.trend_stderr, 1e-15)

    def to_dict(self):
        return {
            "dims": list(self.dims),
            "reports": [r.to_dict() for r in self.reports],
            "trend_slope": self.trend_slope,
            "trend_stderr": self.trend_stderr,
            "rhs_constant": self.rhs_constant,
            "no_negative_trend": self.no_negative_trend,
            "dimension_free_label": self.dimension_free_label,
        }


def dimension_free_check(model_family, f, x, y, horizon, dims, clock_law: ClockLaw, n_paths, stream: RngStream, grid: TimeGrid = None, workers=1) -> DimensionFreeResult:
    """Log-Harnack certificates across truncation levels with one shared cost.

    ``model_family(n)`` builds the n-mode model; ``f`` must be a cylinder
    observable reading at most min(dims) coordinates, and the initial points
    are given in those cylinder coordinates (zero elsewhere).  The certified
    cost constant depends only on (lambda, K, clock), so it is computed once
    and reused verbatim; the measured slack must then show no worsening
    trend as the dimension grows.
    """
    dims = tuple(int(n) for n in dims)
    cylinder = getattr(f, "cylinder_dim", None)
    if cylinder is None or cylinder > min(dims):
        raise ValueError(
            "dimension-free checks need a cylinder observable reading at most "
            f"min(dims) = {min(dims)} coordinates"
        )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size > min(dims) or y.size > min(dims):
        raise ValueError("initial points must live in the cylinder coordinates")
    grid = grid or TimeGrid.uniform(horizon, 250)

    reference = model_family(dims[0])
    rate = harnack_rate_constant(
        reference, clock_law, horizon, n_paths=max(1000, n_paths // 5),
        stream=stream.child(purpose="dimfree-rate"), workers=workers,
    )
    label = True
    converges = reference.spectrum.hs_series_converges()
    if converges is False:
        warnings.warn(
            "Hilbert-Schmidt diagnostic diverges for the full spectrum law; "
            "the result is reported without the dimension-free label",
            stacklevel=2,
        )
        label = False

    reports = []
    for n in dims:
        model = model_family(n)
        if abs(model.lambda_bound(0.0) - reference.lambda_bound(0.0)) > 1e-12:
            raise ValueError("the inverse-noise bound must be uniform in the dimension")
        x_n = np.zeros(n)
        x_n[: x.size] = x
        y_n = np.zeros(n)
        y_n[: y.size] = y
        reports.append(
            log_harnack_certificate(
                f, x_n, y_n, horizon, model, clock_law, n_paths,
                stream.child(purpose=f"dimfree-n{n}"), grid=grid, workers=workers,
                rate_result=rate,
            )
        )

    slacks = np.array([r.slack for r in reports])
    errors = np.array([r.slack_stderr for r in reports])
    slope, slope_stderr = weighted_slope(np.asarray(dims, dtype=float), slacks, errors)
    return DimensionFreeResult(
        dims=dims,
        reports=tuple(reports),
        trend_slope=slope,
        trend_stderr=slope_stderr,
        rhs_constant=rate.infimum.mean,
        dimension_free_label=label,
    )
