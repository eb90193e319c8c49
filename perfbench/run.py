"""Benchmark of ``subharnack``: four Monte Carlo workloads, end-to-end
metrics with tracing off, and a separate traced run for per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload couple-ou-stable --seed 0 --seconds 24 --trace 0

``--trace 0`` runs the workload in six fresh child processes, in the order
1 worker, 2 workers, three times over.  Each child times calls until its
sixth of ``--seconds`` is spent; the 2-worker child after a 1-worker
child repeats that child's calls, in turn, at least once each.  Every call
uses its own master seed derived from ``--seed``, every output passes the
workload's gates, and the 1- and 2-worker outputs of each call must be
bit-identical.  The report holds the end-to-end metrics: medians over
calls and over children.  The speed of the same call on a shared host
drifts by a fifth or more over tens of seconds; alternating the worker
counts in short children spreads the calls behind each metric over the
whole run, so that both see the same drift.

``--trace 1`` runs one 1-worker child that times each call untraced and
then again with spans around each layer boundary (``perfbench.trace``),
and then measures the isolated kernel rates (``perfbench.kernels``), plus
one 2-worker child that replays the calls and sums chunk busy time.  The
report holds the per-layer metrics.

The program is loaded from ``src/`` next to this directory; the benchmark's
own process generates the inputs (``perfbench.specs``) and never imports
the program.  The last line of standard output is the JSON result; the
exit status is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import metrics, specs, trace  # noqa: E402

DEADLINE_S = 170.0
CALLS_PER_CHILD = 50
PINNED_POOLS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
# Rounds of a 1-worker child then a 2-worker child in a plain run.
PLAIN_ROUNDS = 3
# Share of --seconds each child spends on timed calls: one round's child in
# a plain run; in a traced run, one child alternating untraced and traced
# calls, and a 2-worker replay of its calls.
PLAIN_CHILD_SHARE = 1.0 / (2 * PLAIN_ROUNDS)
TRACE_CHILD_SHARE = 0.4


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child processes against one deadline, one at a time."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update({name: "1" for name in PINNED_POOLS})
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def child(self, request):
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise ChildFailed("no time left before the deadline")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.child", json.dumps(request)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise ChildFailed(f"child exited with status {proc.returncode}")
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise ChildFailed("child printed no result") from exc


class Tally:
    """Gated outputs attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def reps(self, label, records):
        for rec in records:
            if "error" in rec:
                self.record(f"{label} seed {rec['seed']}", False, rec["error"])
                continue
            for name, ok, detail in rec["gates"]:
                self.record(f"{label} seed {rec['seed']} {name}", ok, detail)

    def identical(self, label, reference, other):
        """One gate per call in ``other``: its digest matches ``reference``'s."""
        digests = {rec["seed"]: rec.get("digest") for rec in reference}
        for rec in other:
            expected = digests.get(rec["seed"])
            self.record(f"{label} seed {rec['seed']}",
                        expected is not None and rec.get("digest") == expected,
                        f"{rec.get('digest')} != {expected}")

    @property
    def failed(self):
        return len(self.failures)


def _walls(records):
    return [rec["wall_s"] for rec in records if "error" not in rec]



def _mean_square(values):
    values = [v for v in values if v is not None]
    return sum(v * v for v in values) / len(values) if values else None


def _request(name, seed, size, workers, seeds, budget, mode, min_calls=1):
    return {
        "min_calls": min_calls,
        "workload": name,
        "inputs": specs.workload_inputs(name, size),
        "warmup_inputs": specs.workload_inputs(name, "warmup"),
        "workers": workers,
        "seeds": seeds,
        "budget_s": budget,
        "mode": mode,
        "size": size,
    }


def run_plain(runner, tally, name, seed, seconds, size):
    """End-to-end metrics: rounds of a 1-worker child then a 2-worker replay."""
    w1, w2 = [], []
    next_index = 0
    for _ in range(PLAIN_ROUNDS):
        seeds = [specs.sub_seed(seed, k) for k in range(next_index, next_index + CALLS_PER_CHILD)]
        first = runner.child(_request(name, seed, size, 1, seeds, seconds * PLAIN_CHILD_SHARE, "plain"))
        ran = [rec["seed"] for rec in first["reps"]]
        next_index += len(ran)
        replay = (ran * CALLS_PER_CHILD)[:CALLS_PER_CHILD]
        second = runner.child(_request(name, seed, size, 2, replay, seconds * PLAIN_CHILD_SHARE,
                                       "plain", min_calls=len(ran)))
        tally.reps("1 worker", first["reps"])
        tally.reps("2 workers", second["reps"])
        tally.identical("1 vs 2 workers bit-identical", first["reps"], second["reps"])
        w1.append(first)
        w2.append(second)

    inputs = specs.workload_inputs(name, size)
    reps_w1 = [rec for child in w1 for rec in child["reps"]]
    reps_w2 = [rec for child in w2 for rec in child["reps"]]
    wall_s = statistics.median(_walls(reps_w1))
    mean_sq_se = _mean_square(rec.get("headline_se") for rec in reps_w1)
    target = specs.WORKLOADS[name]["target_se"]
    values = {
        "setup_s": statistics.median(child["setup_s"] for child in w1 + w2),
        "wall_s": wall_s,
        "wall_s_w2": statistics.median(_walls(reps_w2)),
        "path_steps_per_s": specs.path_steps(name, inputs) / wall_s,
        "t_to_se_s": wall_s * mean_sq_se / target**2 if mean_sq_se else None,
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in w1),
        "peak_rss_mb_w2": statistics.median(child["peak_rss_mb"] for child in w2),
        "pass_frac": (tally.attempted - tally.failed) / max(tally.attempted, 1),
    }
    info = {
        "walls_w1": [round(w, 4) for w in _walls(reps_w1)],
        "walls_w2": [round(w, 4) for w in _walls(reps_w2)],
        "setups": [round(child["setup_s"], 4) for child in w1 + w2],
        "versions": w1[0]["versions"],
    }
    return values, info


def run_traced(runner, tally, name, seed, seconds, size):
    """Per-layer metrics: a traced 1-worker child and a 2-worker busy-time child."""
    seeds = [specs.sub_seed(seed, k) for k in range(CALLS_PER_CHILD)]
    traced = runner.child(_request(name, seed, size, 1, seeds, seconds * TRACE_CHILD_SHARE, "trace"))
    ran = [rec["seed"] for rec in traced["reps"]]
    busy = runner.child(_request(name, seed, size, 2, ran, None, "busy"))
    tally.reps("untraced", traced["reps"])
    tally.reps("traced", traced["traced_reps"])
    tally.reps("2 workers", busy["reps"])
    tally.identical("traced vs untraced bit-identical", traced["reps"], traced["traced_reps"])
    tally.identical("1 vs 2 workers bit-identical", traced["reps"], busy["reps"])

    n_traced = len(traced["traced_reps"])
    layers = traced["layers"]
    total = sum(entry["self_s"] for entry in layers.values())
    values = {}
    for layer in trace.LAYERS:
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = entry["self_s"] / n_traced
        values[f"{layer}.share"] = entry["self_s"] / total
        values[f"{layer}.calls"] = entry["calls"] / n_traced
    values[f"{trace.ROOT}.unattributed.share"] = layers.get(trace.ROOT, {"self_s": 0.0})["self_s"] / total
    values["pathgen.gaussian.bytes_per_chunk"] = traced["max_gaussian_bytes"]
    values["parallel.chunks"] = traced["chunks"] / n_traced
    busy_fracs = [rec["busy_frac"] for rec in busy["reps"] if "busy_frac" in rec]
    values["parallel.busy_frac_w2"] = statistics.median(busy_fracs) if busy_fracs else None

    wall_s = statistics.median(_walls(traced["reps"]))
    traced_wall = statistics.median(_walls(traced["traced_reps"]))
    weights = [rec["weights"] for rec in traced["traced_reps"] if "weights" in rec]
    not_run = []
    for key in ("ess_frac", "max_weight_share", "coupling_fraction"):
        values[f"coupling.{key}"] = statistics.median(w[key] for w in weights) if weights else 0.0
    mean_sq_se = _mean_square(rec.get("weighted_se") for rec in traced["reps"])
    target = specs.WORKLOADS[name]["target_se"]
    values["coupling.t_to_se_s"] = wall_s * mean_sq_se / target**2 if mean_sq_se else 0.0
    if not weights:
        not_run.append("coupling weights (no coupled batch in this workload)")
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / wall_s - 1.0
    values.update(traced["kernels"])
    info = {
        "calls_traced": n_traced,
        "versions": traced["versions"],
        "absent": traced["absent"],
        "not_run": not_run + [f"{layer} (no span in this workload)"
                              for layer in trace.LAYERS if layer not in layers],
    }
    return values, info


def _git_commit():
    """Commit of the checkout from .git, without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(name, seed, size, versions):
    return {
        "git_commit": _git_commit(),
        "subharnack": versions.get("subharnack"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": name,
        "seed": seed,
        "size": size,
        "inputs_sha256": {wl: specs.inputs_sha256(wl, seed, size) for wl in specs.WORKLOADS},
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None, size="full"):
    """Run one workload; ``size="warmup"`` shrinks every input (for tests)."""
    args = _parse(argv)
    if not (ROOT / "src" / "subharnack" / "__init__.py").is_file():
        print(f"perfbench: no subharnack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + DEADLINE_S)
    tally = Tally()
    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    runs = run_traced if args.trace else run_plain
    try:
        values, info = runs(runner, tally, args.workload, args.seed, args.seconds, size)
    except (ChildFailed, statistics.StatisticsError, ZeroDivisionError) as exc:
        tally.record("run", False, f"{type(exc).__name__}: {exc}")
        values, info = {}, {"versions": {}}
    finally:
        try:
            (ROOT / ".perfbench_out").rmdir()
        except OSError:
            pass

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, size, info.pop("versions"))))
    print("run " + json.dumps(info))
    out = {}
    for metric, unit, _better in catalogue:
        value = values.get(metric)
        if value is None:
            tally.record(f"metric {metric}", False, "not measured")
            continue
        out[metric] = {"value": value, "unit": unit}
        note = metrics.prediction(metric) if args.trace else ""
        print(f"  {metric:<44} {value:>16.6g} {unit:<10} {note}")
    print(f"gates: {tally.attempted - tally.failed}/{tally.attempted} passed, "
          f"fail_frac {tally.failed / max(tally.attempted, 1):.4g}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
