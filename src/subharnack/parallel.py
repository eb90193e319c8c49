"""Deterministic fan-out of path simulations over forked worker processes.

Work is split into fixed-size index chunks.  Chunk i derives its own random
stream from its index, and results come back in chunk-index order, so
reductions do not depend on scheduling and any worker count reproduces the
single-process result bit for bit.

With width W = min(workers, chunks, usable CPUs), the calling process runs
chunks 0, W, 2W, ... itself, and forked child k (1 <= k < W) runs chunks
k, k + W, ....  A child pickles its ``[(index, result)]`` list, or the
exception it raised, into a pipe and always leaves through ``os._exit``.
The parent drains every pipe before it reaps, so a large result cannot
deadlock, and it raises the exception of the lowest-index failing chunk,
as a serial run would.  Every child is reaped on every path out of a call;
one still running on an error path is killed first.  A call stays inline
when it has one chunk, when ``workers <= 1``, or where ``os.fork`` does
not exist.

Fork rather than a spawned pool: chunk closures and lambda-built models
reach the child as copied memory, so nothing is pickled on the way in.
Processes rather than threads: the step loops make many numpy calls of a
few microseconds each, and on a 2-core Xeon two threads took 1.1-1.45 of
their serial time there because they mostly traded the GIL.  The package
starts no Python threads.  numpy's BLAS library may run a thread pool of
its own; a fork copies only the calling thread, as multiprocessing's fork
start method does, and Python 3.12 and later warn of it with a
DeprecationWarning.

A child's exception reaches the parent with the child's formatted
traceback as its ``__cause__``.  Chunk results cross the pipe by pickle,
and older numpy releases pickle an array that is neither C- nor
F-contiguous in C order, so ``map_path_chunks`` accepts no such layout.

Modules never pick a worker count on their own; the experiment runner
passes one down (``SUBHARNACK_WORKERS`` worker processes, default 1).
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback

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


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_child(fn, ranges, write_fd):
    """Body of a forked worker; never returns."""
    status = 1
    try:
        try:
            done = []
            for index, start, stop in ranges:
                done.append((index, fn(index, start, stop)))
            payload = (None, done)
        except Exception as exc:
            payload = (index, (exc, traceback.format_exc()))
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def map_index_chunks(total, chunk_size, fn, workers=1):
    """Results of fn(chunk_index, start, stop) over [0, total) in fixed
    chunks, in chunk-index order."""
    if total <= 0:
        raise ValueError("need a positive number of items")
    ranges = [
        (i, start, min(start + chunk_size, total))
        for i, start in enumerate(range(0, total, chunk_size))
    ]
    width = min(workers, len(ranges), _usable_cpus())
    if width <= 1 or not hasattr(os, "fork"):
        return [fn(*chunk) for chunk in ranges]
    results = [None] * len(ranges)
    failures = []
    pids = []
    pipes = {}  # pid -> read end not yet drained
    try:
        for k in range(1, width):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_child(fn, ranges[k::width], write_fd)
            os.close(write_fd)
            pids.append(pid)
            pipes[pid] = read_fd
        try:
            for chunk in ranges[::width]:
                results[chunk[0]] = fn(*chunk)
        except Exception as exc:
            failures.append((chunk[0], exc))
        for pid in pids:
            with os.fdopen(pipes.pop(pid), "rb") as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"worker process {pid} ended without a result")
            failed_index, payload = pickle.loads(data)
            if failed_index is None:
                for index, result in payload:
                    results[index] = result
            else:
                exc, child_traceback = payload
                exc.__cause__ = RuntimeError(f"in worker process {pid}:\n{child_traceback}")
                failures.append((failed_index, exc))
    finally:
        for pid in pids:
            if pid in pipes:
                os.close(pipes.pop(pid))
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def map_path_chunks(n_paths, stream, chunk_fn, workers=1):
    """Rows of ``chunk_fn(gen, count)`` for n_paths paths in fixed chunks.

    Every chunked path loop runs through here: chunk i draws from the
    Philox generator of ``stream.child(replicate=i)``, and the rows of every
    chunk are joined in chunk-index order, so the result does not depend on
    the worker count.  ``chunk_fn`` returns an array, or a dict of arrays,
    with ``count`` leading rows; each array must be C- or F-contiguous, so
    that it keeps its memory order through a worker's pipe.
    """

    def run_chunk(chunk_index, start, stop):
        gen = stream.child(replicate=chunk_index).generator()
        part = chunk_fn(gen, stop - start)
        for array in part.values() if isinstance(part, dict) else (part,):
            if not (array.flags.c_contiguous or array.flags.f_contiguous):
                raise ValueError("chunk results must be C- or F-contiguous arrays")
        return part

    parts = map_index_chunks(n_paths, CHUNK_SIZE, run_chunk, workers)
    if isinstance(parts[0], dict):
        return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    return np.concatenate(parts)
