"""Puts the absolute ``src`` directory first on ``sys.path`` and first in
``PYTHONPATH``, so that ``subharnack`` imports in this process and in every
``python -m subharnack`` child, whatever the child's working directory.

Other ``PYTHONPATH`` entries are kept, made absolute against the directory
pytest was started from; a relative ``PYTHONPATH=src`` would otherwise point
nowhere in a child started with ``cwd=tmp_path``.

Every test must also leave no child process behind: a forked worker that is
still running or was never reaped fails the test that started it.  A test
that compares worker counts uses ``two_cpus``, so that a call at two or more
workers forks on any host, and ``c_order_pipe`` makes the workers' pipe
lose the layout of arrays that are neither C- nor F-contiguous.
"""

import os
import pickle
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

if sys.path[:1] != [SRC]:
    sys.path.insert(0, SRC)

_entries = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in _entries if p != SRC])


@pytest.fixture
def two_cpus(monkeypatch):
    """Forks one worker at workers >= 2 whatever the host's CPU count."""
    from subharnack import parallel

    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)


@pytest.fixture
def c_order_pipe(monkeypatch):
    """Workers pickle at protocol 4, which sends an array that is neither C-
    nor F-contiguous in C order, as older numpy releases do at every
    protocol."""
    monkeypatch.setattr(pickle, "HIGHEST_PROTOCOL", 4)


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process (waitpid gave pid {pid})")
