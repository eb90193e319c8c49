"""Named observable registry shared by the certificates and the runner.

Observables accept batched states of shape (n, d) and return shape (n,).
Arbitrary user code is not accepted in configs; the fixed names below cover
the oracle cases (exponentials for Gaussian closed forms, bounded positive
functions for the inequality checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Observable", "get_observable", "OBSERVABLE_NAMES"]


@dataclass(frozen=True)
class Observable:
    name: str
    fn: callable
    sup_norm: float | None
    cylinder_dim: int | None  # reads only the first m coordinates; None = all
    params: dict = field(default_factory=dict)

    def __call__(self, states):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return np.asarray(self.fn(states), dtype=float)

    def describe(self):
        out = {"name": self.name}
        out.update(self.params)
        return out


OBSERVABLE_NAMES = ("const", "sin1", "bump", "exp_a", "capnorm")


def get_observable(name, dim, **params) -> Observable:
    """Build a registry observable for states in R^dim.

    * ``const``   f = 1
    * ``sin1``    f(z) = 2 + sin(z_1), strictly positive and bounded
    * ``bump``    f(z) = exp(-|z_m|^2) over the first m coordinates
                  (``coords`` parameter, default all)
    * ``exp_a``   f(z) = exp(<a, z>) over the first dim coordinates, so a
                  wider state is read by its cylinder; unbounded, used for
                  Gaussian oracles
    * ``capnorm`` f(z) = min(1, |z|), bounded but vanishing at the origin
    """
    if name == "const":
        return Observable(
            name=name,
            fn=lambda z: np.ones(z.shape[0]),
            sup_norm=1.0,
            cylinder_dim=0,
        )
    if name == "sin1":
        return Observable(
            name=name,
            fn=lambda z: 2.0 + np.sin(z[:, 0]),
            sup_norm=3.0,
            cylinder_dim=1,
        )
    if name == "bump":
        coords = int(params.pop("coords", dim))
        if params:
            raise ValueError(f"bump takes only 'coords', got {sorted(params)}")
        if not 1 <= coords <= dim:
            raise ValueError("bump coords must lie in [1, dim]")
        return Observable(
            name=name,
            fn=lambda z, _m=coords: np.exp(-np.einsum("ij,ij->i", z[:, :_m], z[:, :_m])),
            sup_norm=1.0,
            cylinder_dim=coords if coords < dim else None,
            params={"coords": coords},
        )
    if name == "exp_a":
        direction = params.pop("direction", None)
        if params:
            raise ValueError(f"exp_a takes only 'direction', got {sorted(params)}")
        if direction is None:
            direction = np.zeros(dim)
            direction[0] = 1.0
        else:
            direction = np.asarray(direction, dtype=float)
        if direction.size != dim:
            raise ValueError("exp_a direction must match the state dimension")
        nonzero = np.nonzero(direction)[0]
        cylinder = int(nonzero[-1]) + 1 if nonzero.size else 0
        return Observable(
            name=name,
            fn=lambda z, _a=direction: np.exp(z[:, :_a.size] @ _a),
            sup_norm=None,
            cylinder_dim=cylinder if cylinder < dim else None,
            params={"direction": direction.tolist()},
        )
    if name == "capnorm":
        return Observable(
            name=name,
            fn=lambda z: np.minimum(1.0, np.linalg.norm(z, axis=1)),
            sup_norm=1.0,
            cylinder_dim=None,
        )
    raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLE_NAMES}")
