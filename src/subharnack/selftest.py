"""Fast self-check of the numerical core, runnable as ``subharnack selftest``.

A reduced-size subset of the acceptance checks: closed-form moment oracles,
sampler fidelity against the Laplace transform, the exponential-martingale
normalization of the coupling weight, stream determinism across worker
counts, and the sharp Gaussian log-Harnack case.  Designed to finish within
about a minute.
"""

from __future__ import annotations

import math

import numpy as np

from . import bernstein as bn
from . import certify, coupling, sde
from .observables import get_observable
from .pathgen import ClockLaw, RngStream, TimeGrid, sample_subordinator_increments

__all__ = ["run_selftest", "SELFTEST_CHECKS"]


def _check_moment_oracle():
    worst = 0.0
    lin = bn.LinearBernstein()
    for k in (1, 2, 3):
        for t in (0.5, 1.0, 2.0):
            worst = max(worst, abs(bn.inverse_moment(lin, k, t) - t ** (-k)))
    if worst > 1e-9:
        return False, f"linear moment error {worst:.2e} exceeds 1e-9"
    st = bn.StableBernstein(0.5)
    err = abs(bn.inverse_moment(st, 1, 1.0) - math.gamma(3.0))
    if err > 1e-6:
        return False, f"stable moment error {err:.2e} exceeds 1e-6"
    return True, f"max linear error {worst:.2e}"


def _check_sampler_fidelity():
    st = bn.StableBernstein(0.75)
    gen = RngStream(2024, purpose="selftest-fidelity").generator()
    draws = sample_subordinator_increments(st, np.array([1.0]), gen, 20_000)[:, 0]
    emp = np.exp(-draws)
    ref = float(bn.laplace_transform(st, 1.0, 1.0))
    z = (emp.mean() - ref) / (emp.std(ddof=1) / math.sqrt(emp.size))
    if abs(z) > 3.0:
        return False, f"laplace-transform z-score {z:+.2f} outside [-3, 3]"
    return True, f"laplace z {z:+.2f}"


def _check_weight_normalization():
    model = sde.make_model("ou", dim=1, rate=1.0)
    law = ClockLaw(bn.LinearBernstein())
    grid = TimeGrid.uniform(1.0, 200)
    batch = coupling.run_coupled_batch(
        model, [1.0], [0.0], grid, law, 8000,
        RngStream(2024, purpose="selftest-weight"), delta_couple=1e-6,
    )
    est = batch.weight_normalization()
    z = (est.mean - 1.0) / est.stderr
    if abs(z) > 3.0:
        return False, f"E[R] z-score {z:+.2f} outside [-3, 3]"
    return True, f"E[R] = {est.mean:.4f} (z {z:+.2f})"


def _determinism_probe(workers):
    model = sde.make_model("ou", dim=2, rate=1.0)
    law = ClockLaw(bn.StableBernstein(0.75))
    grid = TimeGrid.uniform(1.0, 50)
    return sde.terminal_states(
        model, [1.0, 0.0], grid, law, 9000,
        RngStream(2024, purpose="selftest-determinism"), workers=workers,
    )


def _check_determinism():
    first = _determinism_probe(workers=1)
    second = _determinism_probe(workers=4)
    if not np.array_equal(first, second):
        return False, "terminal states differ between worker counts"
    return True, "bit-identical across 1 and 4 workers"


def _check_sharp_log_harnack():
    model = sde.make_model("zero", dim=2)
    law = ClockLaw(bn.LinearBernstein())
    f = get_observable("exp_a", 2, direction=[1.0, 0.0])
    report = certify.log_harnack_certificate(
        f, [0.0, 0.0], [1.0, 0.0], TimeGrid.uniform(1.0, 50), model, law, 20_000,
        RngStream(2024, purpose="selftest-sharp"),
    )
    if report.verdict != "certified" or abs(report.z_score) > 3.0:
        return False, f"verdict {report.verdict}, z {report.z_score:+.2f}"
    return True, f"z {report.z_score:+.2f}, lhs {report.lhs.mean:.4f}, rhs {report.rhs.mean:.4f}"


SELFTEST_CHECKS = (
    ("moment-oracle", _check_moment_oracle),
    ("sampler-fidelity", _check_sampler_fidelity),
    ("weight-normalization", _check_weight_normalization),
    ("determinism", _check_determinism),
    ("sharp-log-harnack", _check_sharp_log_harnack),
)


def run_selftest(out=print):
    """Run all checks, print a pass/fail table, and return an exit status."""
    failures = []
    for name, check in SELFTEST_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        out(f"{status}  {name:24s} {detail}")
        if not ok:
            failures.append(name)
    if failures:
        out(f"selftest failed: {', '.join(failures)}")
        return 1
    out("selftest passed")
    return 0
