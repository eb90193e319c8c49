"""One measured process: set-up, then timed calls of one workload.

Run as ``python -m perfbench.child '<json request>'`` from the repository
root, with ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP pools pinned to
one thread (``perfbench.run`` does both).  The last line of standard output
is one JSON object with the results.

Request keys: ``workload``, ``inputs`` and ``warmup_inputs`` (from
``perfbench.specs``), ``workers``, ``seeds`` (master seeds, one per timed
call), ``budget_s`` (start no call that would end past this many seconds
of calls; ``null`` runs every seed), ``min_calls`` (calls made whatever the
budget), ``mode`` and ``size``.

Modes:

* ``plain``  timed calls with tracing off;
* ``busy``   timed calls with chunk busy time summed across worker threads;
* ``trace``  untraced and traced calls of each seed in turn, then the
  isolated kernel rates.

Set-up time runs from the first line of this module, before the program
is imported, to the end of one warm-up call at the warm-up sizes.
"""

from __future__ import annotations

import time

SETUP_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import subharnack  # noqa: E402

from . import kernels, trace, workloads  # noqa: E402


def _timed_calls(prepared, seeds, out_dir, call, budget=None, min_calls=1):
    """One record per call; a call that raises is recorded, not fatal.

    Once ``min_calls`` calls are made, no call starts that would end, at
    the duration of the last one, past ``budget`` seconds.
    """
    records = []
    started = time.perf_counter()
    for seed in seeds:
        if len(records) >= max(1, min_calls) and budget is not None:
            if time.perf_counter() - started + records[-1].get("wall_s", 0.0) > budget:
                break
        record = {"seed": seed}
        try:
            result, record["wall_s"], extra = call(seed)
            record.update(extra)
            record.update(workloads.check(prepared, result, out_dir))
        except Exception as exc:  # a failed call is counted by the parent
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        records.append(record)
    return records


def _plain_call(prepared, workers, out_dir):
    def call(seed):
        t0 = time.perf_counter()
        result = workloads.call(prepared, seed, workers, out_dir)
        return result, time.perf_counter() - t0, {}

    return call


def _busy_call(prepared, workers, out_dir):
    def call(seed):
        meter = trace.BusyMeter()
        with trace.patched(meter.wrapper, trace.map_targets()):
            t0 = time.perf_counter()
            result = workloads.call(prepared, seed, workers, out_dir)
            wall = time.perf_counter() - t0
        return result, wall, {"busy_frac": meter.busy_s / (workers * wall)}

    return call


def _traced_call(prepared, out_dir, tracer, absent):
    def call(seed):
        with trace.patched(tracer.wrapper) as missing:
            t0 = time.perf_counter()
            with tracer.span(trace.ROOT):
                result = workloads.call(prepared, seed, 1, out_dir)
            wall = time.perf_counter() - t0
        absent.update(missing)
        extra = {}
        if tracer.batches:
            extra["weights"] = workloads.weight_diagnostics(tracer.batches[-1])
            tracer.batches.clear()
        return result, wall, extra

    return call


def _trace(request, prepared, out_dir, result):
    """Untraced and traced calls alternate, so drift does not read as overhead."""
    tracer = trace.Tracer()
    absent = set()
    plain = _plain_call(prepared, 1, out_dir)
    traced = _traced_call(prepared, out_dir, tracer, absent)
    reps, traced_reps = [], []
    started = time.perf_counter()
    for seed in request["seeds"]:
        if reps and time.perf_counter() - started + 2 * traced_reps[-1].get("wall_s", 0.0) > request["budget_s"]:
            break
        reps += _timed_calls(prepared, [seed], out_dir, plain)
        traced_reps += _timed_calls(prepared, [seed], out_dir, traced)
    rates, kernels_absent = kernels.measure(request["size"])
    result.update(
        reps=reps,
        traced_reps=traced_reps,
        layers=tracer.layer_stats(),
        chunks=tracer.chunks,
        max_gaussian_bytes=tracer.max_gaussian_bytes,
        kernels=rates,
        absent=sorted(absent) + kernels_absent,
    )


def main(argv):
    request = json.loads(argv[1])
    workers = request["workers"]
    out_dir = Path.cwd() / ".perfbench_out" / f"child-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workloads.prepare(request["workload"], request["inputs"])
        warm = workloads.prepare(request["workload"], request["warmup_inputs"])
        workloads.call(warm, request["seeds"][0], workers, out_dir)
        result = {
            "setup_s": time.perf_counter() - SETUP_STARTED,
            "versions": {"subharnack": subharnack.__version__, "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
        }
        if request["mode"] == "trace":
            _trace(request, prepared, out_dir, result)
        else:
            make_call = _busy_call if request["mode"] == "busy" else _plain_call
            result["reps"] = _timed_calls(
                prepared, request["seeds"], out_dir, make_call(prepared, workers, out_dir),
                budget=request["budget_s"], min_calls=request["min_calls"],
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
