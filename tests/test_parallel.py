import importlib
import inspect
import os
import pickle
import pkgutil
import time

import numpy as np
import pytest

import subharnack
from subharnack import bernstein as bn
from subharnack import cli, parallel, sde
from subharnack import pathgen as pg
from subharnack.parallel import CHUNK_SIZE, map_index_chunks, map_path_chunks

# one instance of every exception class the package defines
EXCEPTION_SAMPLES = {
    bn.InfiniteMomentError: bn.InfiniteMomentError("E[S^-k] diverges"),
    bn.QuadratureError: bn.QuadratureError("integrand does not fall"),
    cli.ConfigError: cli.ConfigError("config field $.grid: bad"),
    pg.RejectionError: pg.RejectionError("stalled at acceptance rate 1e-9"),
    sde.IntegrationError: sde.IntegrationError(12, 3),
}


def package_exception_classes():
    found = set()
    for info in pkgutil.iter_modules(subharnack.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"subharnack.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__.startswith("subharnack"):
                found.add(obj)
    return found


class TestExceptionsCrossProcesses:
    def test_every_package_exception_has_a_sample(self):
        assert package_exception_classes() == set(EXCEPTION_SAMPLES)

    @pytest.mark.parametrize("cls", list(EXCEPTION_SAMPLES), ids=lambda cls: cls.__name__)
    def test_pickle_round_trip(self, cls):
        exc = EXCEPTION_SAMPLES[cls]
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        assert vars(copy) == vars(exc)

    def test_short_chunk_failure_matches_serial(self, two_cpus):
        # h * rate = 16.4 blows up the 100 paths that start at 1; the full
        # chunk starts at 0 and stays there
        model = sde.make_model("ou", dim=1, rate=4096.0)
        grid = pg.TimeGrid.uniform(1.0, 250)

        def chunk_fn(gen, count):
            x0 = np.full((count, 1), float(count < CHUNK_SIZE))
            return sde.euler_steps(model, x0, grid, np.zeros((count, grid.n_steps, 1)))

        errors = []
        for workers in (1, 2):
            with pytest.raises(sde.IntegrationError) as err:
                map_path_chunks(CHUNK_SIZE + 100, pg.RngStream(5), chunk_fn, workers)
            errors.append(err.value)
        assert [type(e) for e in errors] == [sde.IntegrationError] * 2
        assert str(errors[0]) == str(errors[1])
        assert errors[0].n_failed == errors[1].n_failed == 100
        assert errors[0].step_index == errors[1].step_index


def deep_failure(index):
    raise ValueError(f"chunk {index}")


def failing_at(bad):
    """Chunk body: returns (index, pid), and raises in the chunks of ``bad``."""

    def fn(index, start, stop):
        if index in bad:
            raise ValueError(f"chunk {index}")
        return index, os.getpid()

    return fn


class TestForkedMap:
    def test_results_in_chunk_order_and_spread_over_processes(self, two_cpus):
        out = map_index_chunks(5, 1, failing_at(()), workers=2)
        assert [index for index, _ in out] == [0, 1, 2, 3, 4]
        pids = [pid for _, pid in out]
        assert pids[0::2] == [os.getpid()] * 3
        assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_dict_results_identical_at_any_worker_count(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)

        def chunk_fn(gen, count):
            return {"a": gen.standard_normal((count, 2)), "b": gen.integers(0, 9, count)}

        ref = map_path_chunks(2 * CHUNK_SIZE + 7, pg.RngStream(3), chunk_fn, 1)
        out = map_path_chunks(2 * CHUNK_SIZE + 7, pg.RngStream(3), chunk_fn, workers)
        assert out.keys() == ref.keys()
        assert all(np.array_equal(out[key], ref[key]) for key in ref)

    @pytest.mark.parametrize(
        "bad, raised",
        [((1, 2), 1), ((2, 3), 2), ((0,), 0), ((3,), 3)],
        ids=["child-before-parent", "parent-before-child", "parent-only", "child-only"],
    )
    def test_lowest_failing_chunk_raises(self, two_cpus, bad, raised):
        with pytest.raises(ValueError, match=f"^chunk {raised}$"):
            map_index_chunks(4, 1, failing_at(bad), workers=2)

    def test_child_traceback_is_the_cause(self, two_cpus):
        def fn(index, start, stop):
            if index == 1:
                deep_failure(index)
            return index

        with pytest.raises(ValueError, match="^chunk 1$") as err:
            map_index_chunks(2, 1, fn, workers=2)
        cause = str(err.value.__cause__)
        assert cause.startswith("in worker process ")
        assert "in deep_failure" in cause and "ValueError: chunk 1" in cause

    def test_width_capped_at_usable_cpus(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        ref = map_index_chunks(3, 1, failing_at(()), workers=1)
        assert map_index_chunks(3, 1, failing_at(()), workers=64) == ref
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert map_index_chunks(3, 1, failing_at(()), workers=64) == ref

    def test_inline_where_fork_is_missing(self, two_cpus, monkeypatch):
        monkeypatch.delattr(os, "fork")
        out = map_index_chunks(3, 1, failing_at(()), workers=2)
        assert [pid for _, pid in out] == [os.getpid()] * 3


class TestChunkLayout:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_contiguous_result_is_refused(self, two_cpus, workers):
        def chunk_fn(gen, count):
            return {"ok": np.zeros(count), "strided": np.zeros((2, count, 3)).transpose(1, 0, 2)}

        with pytest.raises(ValueError, match="C- or F-contiguous"):
            map_path_chunks(CHUNK_SIZE + 7, pg.RngStream(6), chunk_fn, workers)


class TestReaping:
    # the autouse fixture in conftest.py fails each of these tests if a
    # worker is left running or unreaped

    def test_child_that_dies_without_result(self, two_cpus):
        parent = os.getpid()

        def fn(index, start, stop):
            if os.getpid() != parent:
                os._exit(3)
            return index

        with pytest.raises(RuntimeError, match="ended without a result"):
            map_index_chunks(2, 1, fn, workers=2)

    def test_unloadable_payload_kills_running_child(self, monkeypatch):
        # chunk 1's result fails to unpickle in the parent while the worker
        # of chunk 2 still sleeps; that worker is killed, not waited for
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)

        class Unloadable:
            def __reduce__(self):
                return int, ("not a number",)

        def fn(index, start, stop):
            if index == 1:
                return Unloadable()
            if index == 2:
                time.sleep(60)
            return index

        started = time.perf_counter()
        with pytest.raises(ValueError, match="not a number"):
            map_index_chunks(3, 1, fn, workers=3)
        assert time.perf_counter() - started < 30

    def test_parent_interrupt_kills_running_child(self, two_cpus):
        def fn(index, start, stop):
            if index == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            map_index_chunks(2, 1, fn, workers=2)
        assert time.perf_counter() - started < 30
