"""Monte Carlo estimates with mergeable sufficient statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and sample count.

    Two estimates can be merged through their sufficient statistics
    (n, sum, sum of squares); merging is associative, so reductions over
    path chunks give the same result in any grouping.
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

    def _moments(self):
        # Recover (n, sum, sum of squares) from mean/stderr.
        s1 = self.n * self.mean
        var = self.stderr**2 * self.n  # sample variance, ddof=1
        s2 = var * (self.n - 1) + s1**2 / self.n
        return self.n, s1, s2

    def merge(self, other):
        na, s1a, s2a = self._moments()
        nb, s1b, s2b = other._moments()
        n = na + nb
        s1 = s1a + s1b
        s2 = s2a + s2b
        mean = s1 / n
        if n > 1:
            var = max(0.0, (s2 - s1**2 / n) / (n - 1))
            stderr = math.sqrt(var / n)
        else:
            stderr = math.nan
        return MCEstimate(mean=mean, stderr=stderr, n=n)

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
        """Product of two independent estimates with propagated stderr."""
        mean = self.mean * other.mean
        var = (
            self.mean**2 * other.stderr**2
            + other.mean**2 * self.stderr**2
            + self.stderr**2 * other.stderr**2
        )
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


def variance_estimate(values) -> MCEstimate:
    """Unbiased sample variance with its own standard error.

    stderr uses the standard fourth-moment formula
    var(s^2) = (m4 - s^4 (n-3)/(n-1)) / n.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 4:
        raise ValueError("variance stderr needs at least 4 samples")
    centered = values - values.mean()
    s2 = float(centered.dot(centered) / (n - 1))
    m4 = float(np.mean(centered**4))
    var_of_var = max(0.0, (m4 - s2**2 * (n - 3) / (n - 1)) / n)
    return MCEstimate(mean=s2, stderr=math.sqrt(var_of_var), n=n)
