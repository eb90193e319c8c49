"""Spans around the layer-boundary functions of ``subharnack``, installed
from outside the program by replacing module and class attributes.

Every call site in the package resolves these names at call time (module
globals, class attributes), so one replacement per import site catches
every call.  ``patched`` restores each replaced attribute on exit, also on
error; a name that no longer exists is reported as absent and skipped.

Self time of a span is its duration minus the time covered by its child
spans.  Chunk bodies passed to ``map_index_chunks`` get a span named after
the layer that called the map, so work done inline in a chunk (the normals
drawn in ``run_coupled_batch``, for example) counts for that layer and not
for the scheduler.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from contextlib import contextmanager

ROOT = "workload"
MAP_LAYER = "parallel.map"

# (module, attribute path, layer).  A function imported under the same name
# into several modules is listed once per module that calls it.
TARGETS = (
    ("subharnack.pathgen", "ClockLaw.sample_raw", "pathgen.clock"),
    ("subharnack.pathgen", "ClockLaw.sample_coupling", "pathgen.clock"),
    ("subharnack.pathgen", "sample_subordinator_increments", "pathgen.increments"),
    ("subharnack.certify", "sample_subordinator_increments", "pathgen.increments"),
    ("subharnack.pathgen", "regularized_values", "pathgen.regularize"),
    ("subharnack.pathgen", "bm_increments", "pathgen.gaussian"),
    ("subharnack.sde", "bm_increments", "pathgen.gaussian"),
    ("subharnack.coupling", "bm_increments", "pathgen.gaussian"),
    ("subharnack.galerkin", "bm_increments", "pathgen.gaussian"),
    ("subharnack.sde", "euler_steps", "sde.euler_steps"),
    ("subharnack.coupling", "_coupled_core", "coupling.coupled_core"),
    ("subharnack.coupling", "run_coupled_batch", "coupling.batch"),
    ("subharnack.certify", "_weighted_partials", "certify.rate_partials"),
    ("subharnack.galerkin", "mild_steps", "galerkin.mild_steps"),
    ("subharnack.stats", "MCEstimate.from_samples", "stats.reduce"),
    ("subharnack.observables", "Observable.__call__", "stats.reduce"),
    ("subharnack.parallel", "map_index_chunks", MAP_LAYER),
    ("subharnack.sde", "map_index_chunks", MAP_LAYER),
    ("subharnack.coupling", "map_index_chunks", MAP_LAYER),
    ("subharnack.certify", "map_index_chunks", MAP_LAYER),
    ("subharnack.galerkin", "map_index_chunks", MAP_LAYER),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


def _resolve(module_name, path):
    """(owner, attribute, raw value) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)  # keeps classmethod objects intact
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def _rewrap(raw, wrap):
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    return wrap(raw)


@contextmanager
def patched(make_wrapper, targets=TARGETS):
    """Replace each target with ``make_wrapper(layer, function)``.

    Yields the list of ``module:path`` targets that were absent.
    """
    saved = []
    absent = []
    try:
        for module_name, path, layer in targets:
            found = _resolve(module_name, path)
            if found is None:
                absent.append(f"{module_name}:{path}")
                continue
            owner, attr, raw = found
            setattr(owner, attr, _rewrap(raw, lambda fn, _layer=layer: make_wrapper(_layer, fn)))
            saved.append((owner, attr, raw))
        yield absent
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Tracer:
    """In-memory spans: [layer, start, end, parent index, counts as a call]."""

    def __init__(self):
        self.spans = []
        self.chunks = 0
        self.max_gaussian_bytes = 0
        self.batches = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer, counts_call=True):
        stack = self._stack()
        record = [layer, time.perf_counter(), None, stack[-1] if stack else None, counts_call]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def _caller_layer(self):
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else ROOT

    def wrapper(self, layer, fn):
        if layer == MAP_LAYER:
            return self._map_wrapper(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if layer == "pathgen.gaussian":
                self.max_gaussian_bytes = max(self.max_gaussian_bytes, 8 * math.prod(result.shape))
            elif layer == "coupling.batch":
                self.batches.append(result)
            return result

        return traced

    def _map_wrapper(self, fn):
        @functools.wraps(fn)
        def traced_map(total, chunk_size, chunk_fn, *args, **kwargs):
            caller = self._caller_layer()

            def chunk(*chunk_args):
                with self.span(caller, counts_call=False):
                    return chunk_fn(*chunk_args)

            self.chunks += -(-total // chunk_size)
            with self.span(MAP_LAYER):
                return fn(total, chunk_size, chunk, *args, **kwargs)

        return traced_map

    def layer_stats(self):
        """Per layer: total self time, and calls; the root layer included."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = {}
        for index, (layer, start, end, _, counts_call) in enumerate(self.spans):
            entry = stats.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child_time[index]
            entry["calls"] += int(counts_call)
        return stats


class BusyMeter:
    """Sums the time worker threads spend inside chunk bodies."""

    def __init__(self):
        self.busy_s = 0.0
        self._lock = threading.Lock()

    def wrapper(self, layer, fn):
        del layer

        @functools.wraps(fn)
        def timed_map(total, chunk_size, chunk_fn, *args, **kwargs):
            def chunk(*chunk_args):
                started = time.perf_counter()
                try:
                    return chunk_fn(*chunk_args)
                finally:
                    elapsed = time.perf_counter() - started
                    with self._lock:
                        self.busy_s += elapsed

            return fn(total, chunk_size, chunk, *args, **kwargs)

        return timed_map


def map_targets(targets=TARGETS):
    return tuple(t for t in targets if t[2] == MAP_LAYER)
