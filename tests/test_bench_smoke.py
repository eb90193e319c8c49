"""The benchmark's call path, at warm-up size, under tier-1.

``perfbench.workloads`` calls the public API the way the benchmark does, so
a signature change that breaks a workload fails here instead of in a bench
run.  Each workload runs just over one chunk of paths, so that its 2-worker
call forks, and must pass every gate of ``perfbench.workloads.check`` with
the same digest at 1 and 2 workers.

``perfbench.kernels`` calls private kernels (``_weighted_partials``,
``_coupled_core``, ``euler_steps(method=)``) that the traced run times; at
warm-up size every one of them must run, and only the stale
``galerkin.mild.d64`` kernel, whose function is gone, may be absent.

The CLI workloads, the ``moments`` experiment and the selftest's moment
check must also load no scipy module on a cold start: the package runs on
numpy alone, and ``import scipy.special`` takes 0.2-0.3 s and ``import
scipy.integrate`` 0.65 s, against a benchmark ``setup_s`` of about 0.26 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench import kernels, specs, workloads  # noqa: E402
from subharnack.parallel import CHUNK_SIZE  # noqa: E402


def _smoke_inputs(name):
    inputs = specs.workload_inputs(name, "warmup")
    sized = inputs["mc"] if specs.WORKLOADS[name]["kind"] == "cli" else inputs
    sized["n_paths"] = CHUNK_SIZE + 100
    return inputs


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("name", list(specs.WORKLOADS))
def test_workload_gates_pass_and_digests_match_across_workers(name, tmp_path):
    prepared = workloads.prepare(name, _smoke_inputs(name))
    for seed in range(3):
        digests = []
        for workers in (1, 2):
            out_dir = tmp_path / f"s{seed}-w{workers}"
            out_dir.mkdir()
            checked = workloads.check(prepared, workloads.call(prepared, seed, workers, out_dir), out_dir)
            failed = [gate for gate in checked["gates"] if not gate[1]]
            assert failed == [], (seed, workers, failed)
            digests.append(checked["digest"])
        assert digests[0] == digests[1], seed


def test_cli_workloads_load_no_scipy_module(tmp_path):
    script = f"""
import json
import sys
sys.path.append({ROOT!r})
from perfbench import specs
from subharnack import cli, selftest
for name in ("certify-log-ou-stable", "galerkin-dimfree"):
    config = specs.workload_inputs(name, "warmup")
    config["mc"]["seed"] = 0
    config["output"] = {{"dir": name}}
    assert cli.run_config(config, workers=1, base_dir={str(tmp_path)!r}) == 0, name
moments = {{"schema": cli.SCHEMA_VERSION, "experiment": "moments", "mc": {{"n_paths": 2, "seed": 0}},
           "clock": {{"type": "tempered_stable", "theta": 0.6, "kappa": 1.0}},
           "moments": {{"k": 1.5, "t": 0.5}}, "output": {{"dir": "moments"}}}}
assert cli.run_config(moments, workers=1, base_dir={str(tmp_path)!r}) == 0
assert selftest._check_moment_oracle()[0]
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_traced_kernels_run_at_warmup_size():
    _, absent = kernels.measure("warmup")
    assert [entry.split(":")[0] for entry in absent] == ["galerkin.mild.d64.ns_per_path_step"]
