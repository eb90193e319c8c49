"""Monte Carlo estimates with delta-method transforms, and the small
reductions built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and sample count.

    The transforms below propagate the stderr by the delta method; products
    and sums treat their operands as independent.
    """

    mean: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("estimate needs at least one sample")
        if not math.isnan(self.stderr) and self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    @classmethod
    def exact(cls, value, n=1):
        """Wrap a deterministic quantity as an estimate with zero stderr."""
        return cls(mean=float(value), stderr=0.0, n=n)

    @classmethod
    def from_samples(cls, values):
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 0:
            raise ValueError("no samples")
        mean = float(values.mean())
        if n == 1 or not np.all(np.isfinite(values)):
            stderr = math.inf if not np.all(np.isfinite(values)) else math.nan
            return cls(mean=mean, stderr=stderr, n=n)
        sd = float(values.std(ddof=1))
        return cls(mean=mean, stderr=sd / math.sqrt(n), n=n)

    def log(self):
        """Delta-method log transform.

        First-order bias of log of a mean is folded into the stderr rather
        than shifting the point value.
        """
        if self.mean <= 0:
            raise ValueError("log transform needs a positive mean")
        se = self.stderr / self.mean
        bias = self.stderr**2 / (2.0 * self.mean**2)
        return MCEstimate(mean=math.log(self.mean), stderr=se + bias, n=self.n)

    def power(self, p):
        """Delta-method power transform, second-order bias folded into stderr."""
        m = self.mean
        se = abs(p) * abs(m) ** (p - 1) * self.stderr
        bias = abs(p * (p - 1) / 2.0) * abs(m) ** (p - 2) * self.stderr**2
        return MCEstimate(mean=m**p, stderr=se + bias, n=self.n)

    def times(self, other):
        """Product of two independent estimates with propagated stderr (inf
        when a squared term overflows)."""
        mean = self.mean * other.mean
        try:
            var = (
                self.mean**2 * other.stderr**2
                + other.mean**2 * self.stderr**2
                + self.stderr**2 * other.stderr**2
            )
        except OverflowError:
            var = math.inf
        return MCEstimate(mean=mean, stderr=math.sqrt(var), n=min(self.n, other.n))

    def plus(self, other):
        """Sum of two independent estimates, stderrs combined in quadrature."""
        return MCEstimate(
            mean=self.mean + other.mean,
            stderr=math.hypot(self.stderr, other.stderr),
            n=min(self.n, other.n),
        )

    def scaled(self, c):
        return MCEstimate(mean=c * self.mean, stderr=abs(c) * self.stderr, n=self.n)

    def to_dict(self):
        return {"mean": self.mean, "stderr": self.stderr, "n": self.n}


def weighted_slope(x, y, stderr):
    """Inverse-variance weighted least-squares slope of y on x, with its stderr.

    Standard errors below 1e-15 are clamped there, so an exact point gets a
    large but finite weight.
    """
    w = 1.0 / np.maximum(stderr, 1e-15) ** 2
    x_bar = np.sum(w * x) / np.sum(w)
    denom = np.sum(w * (x - x_bar) ** 2)
    return float(np.sum(w * (x - x_bar) * y) / denom), float(1.0 / math.sqrt(denom))
