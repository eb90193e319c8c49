"""Isolated kernel rates at fixed shapes.

Each rate is the median of a few timed calls after one untimed call, on
inputs drawn from a fixed Philox seed, so the figures do not depend on the
workload or the run seed.  A rate predicts the ``wall_s`` move of the
workload whose layer share that kernel dominates.  A kernel whose function
no longer exists reads 0.0 and is listed as absent.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from subharnack import bernstein, certify, coupling, galerkin, pathgen, sde

# (paths, steps) per size; the d = 64 galerkin kernel uses a sixteenth of
# the paths so that its noise tensor stays at 17 MB.
SHAPES = {"full": (2048, 256), "warmup": (64, 16)}
REPEATS = {"full": 5, "warmup": 2}


class CountingGenerator:
    """Delegates to a numpy Generator and counts exponential draws.

    The tempered-stable sampler draws one standard exponential per
    proposal, so the count is the number of proposals.
    """

    def __init__(self, gen):
        self._gen = gen
        self.proposals = 0

    def standard_exponential(self, size=None, *args, **kwargs):
        self.proposals += int(np.prod(size)) if size is not None else 1
        return self._gen.standard_exponential(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _median_seconds(fn, repeats):
    fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _gen():
    return pathgen.RngStream(20121203, purpose="bench-kernels").generator()


def measure(size="full"):
    """Kernel rates by metric name, and the list of absent kernels."""
    n, m = SHAPES[size]
    repeats = REPEATS[size]
    grid = pathgen.TimeGrid.uniform(1.0, m)
    h = grid.step_sizes
    gen = _gen()
    clock_values = np.concatenate([np.zeros((n, 1)), np.cumsum(np.full((n, m), 1.0 / m), axis=1)], axis=1)
    out = {}
    absent = []

    def rate(metric, fn, units_of_work, scale=1e9):
        try:
            out[metric] = _median_seconds(fn, repeats) / units_of_work * scale
        except AttributeError as exc:
            out[metric] = 0.0
            absent.append(f"{metric}: {exc}")

    variants = {
        "linear": bernstein.LinearBernstein(),
        "stable": bernstein.StableBernstein(0.75),
        "gamma": bernstein.GammaBernstein(4.0, 4.0),
        "tempered": bernstein.TemperedStableBernstein(0.75, 1.0),
    }
    for label, bf in variants.items():
        rate(f"pathgen.increments.{label}.ns_per_step",
             lambda _bf=bf: pathgen.sample_subordinator_increments(_bf, h, gen, n), n * m)

    counting = CountingGenerator(_gen())
    pathgen.sample_subordinator_increments(variants["tempered"], h, counting, n)
    out["pathgen.tempered.accept_ratio"] = n * m / max(counting.proposals, 1)

    law = pathgen.ClockLaw(variants["stable"], epsilon=0.05)
    n_ext = -(-m // 20)  # extension steps covering epsilon = 0.05
    comb_times = np.concatenate([grid.times, 1.0 + np.arange(1, n_ext + 1) / m])
    comb_values = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(pathgen.sample_subordinator_increments(
            variants["stable"], np.diff(comb_times), gen, n), axis=1)], axis=1)
    rate("pathgen.regularize.ns_per_step",
         lambda: pathgen.regularized_values(grid.times, comb_times, comb_values, 0.05), n * m)
    rate("pathgen.gaussian.ns_per_value",
         lambda: pathgen.bm_increments(clock_values, 8, gen), n * m * 8)

    ou = sde.make_model("ou", dim=2)
    dw2 = pathgen.bm_increments(clock_values, 2, gen)
    x2 = np.broadcast_to(np.array([1.0, 0.0]), (n, 2))
    rate("sde.euler.d2.ns_per_path_step", lambda: sde.euler_steps(ou, x2, grid, dw2), n * m)

    ramp = sde.PerturbationModel.from_function(lambda t: np.array([0.5 * t]), 1)
    dw_model = sde.make_model("double_well", dim=1, perturbation=ramp)
    dw1 = pathgen.bm_increments(clock_values, 1, gen)
    x1 = np.ones((n, 1))
    rate("sde.semi_implicit.d1.ns_per_path_step",
         lambda: sde.euler_steps(dw_model, x1, grid, dw1, method="semi_implicit"), n * m)

    d_clock = np.diff(clock_values, axis=1)
    rate("coupling.coupled.d2.ns_per_path_step",
         lambda: coupling._coupled_core(ou, [1.0, 0.0], [0.0, 0.0], grid, d_clock, dw2, 1e-6), n * m)

    wide = galerkin.SemilinearModel(
        spectrum=galerkin.SpectrumModel.from_power_law(64, 2.0),
        force=lambda t, z: np.zeros_like(z),
        force_lipschitz=lambda t: 0.0,
        sigma_diag=1.0,
    )
    n_wide = max(1, n // 16)
    db = pathgen.bm_increments(clock_values[:n_wide], 64, gen)
    rate("galerkin.mild.d64.ns_per_path_step",
         lambda: galerkin.mild_steps(wide, np.zeros((n_wide, 64)), grid, db), n_wide * m)

    t_idx = np.arange(m // 8, m + 1, m // 8)
    stream = pathgen.RngStream(20121203, purpose="bench-rate-partials")
    rate("certify.rate_partials.ns_per_path_step",
         lambda: certify._weighted_partials(ou, law, grid.times, t_idx, n, stream, 1), n * m)

    rate("bernstein.inverse_moment.ms_per_call",
         lambda: bernstein.inverse_moment(variants["stable"], 1.0, 1.0), 1, scale=1e3)
    return out, absent
