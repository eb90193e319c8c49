"""Deterministic fan-out of path simulations over a worker pool.

Work is split into fixed-size index chunks; each chunk derives its own
random stream from its chunk index and writes results into a preallocated
slice.  Reductions therefore do not depend on scheduling, and any worker
count reproduces the single-threaded result bit for bit.  Worker threads
overlap only the time numpy spends inside an array operation with the GIL
released.  On a 2-core Xeon, two 8192-path transfer-dw-gamma chunks
(double well, gamma clock, 250 steps) on two threads took 0.6-0.7 of
their serial time for the clock and Gaussian draws, but 1.1-1.2 for the
plain step loop and 1.2-1.45 for the coupled one: those loops make many
numpy calls of a few microseconds each, so the two threads mostly trade
the lock.

Modules never pick a worker count on their own; the experiment runner
passes one down (``SUBHARNACK_WORKERS``, default single-threaded).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fixed chunk size is part of the reproducibility contract: chunk index i
# seeds stream (master_seed, i) regardless of how chunks map to workers.
CHUNK_SIZE = 8192


def worker_count_from_env(environ=None) -> int:
    env = os.environ if environ is None else environ
    raw = env.get("SUBHARNACK_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"SUBHARNACK_WORKERS must be an integer, got {raw!r}") from exc
    return max(1, workers)


def map_index_chunks(total, chunk_size, fn, workers=1):
    """Call fn(chunk_index, start, stop) over [0, total) in fixed chunks."""
    if total <= 0:
        raise ValueError("need a positive number of items")
    ranges = [
        (i, start, min(start + chunk_size, total))
        for i, start in enumerate(range(0, total, chunk_size))
    ]
    if workers <= 1 or len(ranges) == 1:
        for chunk_index, start, stop in ranges:
            fn(chunk_index, start, stop)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in ranges]
        for future in futures:
            future.result()


def map_path_chunks(n_paths, stream, chunk_fn, workers=1):
    """Rows of ``chunk_fn(gen, count)`` for n_paths paths in fixed chunks.

    Every chunked path loop runs through here: chunk i draws from the
    Philox generator of ``stream.child(replicate=i)``, and the rows of every
    chunk are joined in chunk-index order, so the result does not depend on
    the worker count.  ``chunk_fn`` returns an array, or a dict of arrays,
    with ``count`` leading rows.
    """
    parts = [None] * -(-n_paths // CHUNK_SIZE)

    def run_chunk(chunk_index, start, stop):
        gen = stream.child(replicate=chunk_index).generator()
        parts[chunk_index] = chunk_fn(gen, stop - start)

    map_index_chunks(n_paths, CHUNK_SIZE, run_chunk, workers)
    if isinstance(parts[0], dict):
        return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    return np.concatenate(parts)
