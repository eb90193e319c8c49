"""The benchmark's metrics: name, unit, better direction and, for each
per-layer metric, the end-to-end metric and workloads it should move.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions and adds the regression bounds; a test keeps the two in step.
"""

from __future__ import annotations

from .trace import LAYERS, ROOT

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("wall_s_w2", "s", "lower"),
    ("path_steps_per_s", "1/s", "higher"),
    ("t_to_se_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("peak_rss_mb_w2", "MB", "lower"),
    ("pass_frac", "ratio", "higher"),
)

KERNELS = (
    ("pathgen.increments.linear.ns_per_step", "ns", "lower"),
    ("pathgen.increments.stable.ns_per_step", "ns", "lower"),
    ("pathgen.increments.gamma.ns_per_step", "ns", "lower"),
    ("pathgen.increments.tempered.ns_per_step", "ns", "lower"),
    ("pathgen.tempered.accept_ratio", "ratio", "higher"),
    ("pathgen.regularize.ns_per_step", "ns", "lower"),
    ("pathgen.gaussian.ns_per_value", "ns", "lower"),
    ("sde.euler.d2.ns_per_path_step", "ns", "lower"),
    ("sde.semi_implicit.d1.ns_per_path_step", "ns", "lower"),
    ("coupling.coupled.d2.ns_per_path_step", "ns", "lower"),
    ("galerkin.mild.d64.ns_per_path_step", "ns", "lower"),
    ("certify.rate_partials.ns_per_path_step", "ns", "lower"),
    ("bernstein.inverse_moment.ms_per_call", "ms", "lower"),
)

PER_LAYER = (
    tuple(
        (f"{layer}.{field}", unit, "lower")
        for layer in LAYERS
        for field, unit in (("self_s", "s"), ("share", "ratio"), ("calls", "count"))
    )
    + (
        (f"{ROOT}.unattributed.share", "ratio", "lower"),
        ("pathgen.gaussian.bytes_per_chunk", "B-computed", "lower"),
        ("parallel.chunks", "count", "higher"),
        ("parallel.busy_frac_w2", "ratio", "higher"),
        ("coupling.ess_frac", "ratio", "higher"),
        ("coupling.max_weight_share", "ratio", "lower"),
        ("coupling.coupling_fraction", "ratio", "higher"),
        ("coupling.t_to_se_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    )
    + KERNELS
)

# Which end-to-end metric a per-layer metric should move, and where.  Keys
# are metric-name prefixes; the longest matching prefix applies.
PREDICTIONS = {
    "pathgen.clock": "wall_s on every workload (cumulative sums of clock increments)",
    "pathgen.increments": "wall_s on certify-log-ou-stable (Kanter) and transfer-dw-gamma (gamma)",
    "pathgen.regularize": "wall_s on couple-ou-stable and transfer-dw-gamma; nothing on certify or galerkin",
    "pathgen.gaussian": "wall_s and peak_rss_mb on galerkin-dimfree; certify-log-ou-stable second",
    "sde.euler_steps": "wall_s on certify-log-ou-stable (explicit) and transfer-dw-gamma (resolvent)",
    "coupling.coupled_core": "wall_s and path_steps_per_s on couple-ou-stable and transfer-dw-gamma; "
                             "nothing on the other two",
    "coupling.batch": "wall_s and peak_rss_mb on couple-ou-stable (normals drawn inline, dw scaling)",
    "certify.rate_partials": "below 1% everywhere: a control that should move no end-to-end metric",
    "galerkin.mild_steps": "wall_s on galerkin-dimfree only",
    "stats.reduce": "peak_rss_mb once reductions stream per chunk",
    "parallel": "wall_s_w2 on every workload; galerkin-dimfree runs one chunk (busy_frac_w2 near 0.5)",
    f"{ROOT}.unattributed": "wall_s on the CLI workloads (validation, report writing)",
    "coupling.ess_frac": "t_to_se_s on couple-ou-stable; coupling.t_to_se_s on transfer-dw-gamma",
    "coupling.max_weight_share": "t_to_se_s on couple-ou-stable; coupling.t_to_se_s on transfer-dw-gamma",
    "coupling.coupling_fraction": "t_to_se_s on couple-ou-stable and transfer-dw-gamma",
    "coupling.t_to_se_s": "time to a weighted estimate of stated precision (E[R] or estimator A)",
    "trace": "nothing: tracing cost of this benchmark",
    "pathgen.increments.linear": "nothing: no workload runs the linear clock",
    "pathgen.increments.stable": "wall_s on certify-log-ou-stable, couple-ou-stable and galerkin-dimfree",
    "pathgen.increments.gamma": "wall_s on transfer-dw-gamma",
    "pathgen.increments.tempered": "nothing: no workload runs the tempered clock",
    "pathgen.tempered": "nothing: no workload runs the tempered clock",
    "sde.euler.d2": "wall_s on certify-log-ou-stable",
    "sde.semi_implicit.d1": "wall_s on transfer-dw-gamma",
    "coupling.coupled.d2": "wall_s on couple-ou-stable",
    "galerkin.mild.d64": "wall_s on galerkin-dimfree",
    "certify.rate_partials.ns_per_path_step": "nothing measurable: rate partials stay below 1% of any workload",
    "bernstein.inverse_moment": "nothing: no workload runs the quadrature oracle",
}


def prediction(name):
    matches = [key for key in PREDICTIONS if name == key or name.startswith(key + ".")]
    return PREDICTIONS[max(matches, key=len)] if matches else ""
