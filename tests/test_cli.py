import json
import math
import subprocess
import sys

import numpy as np
import pytest

from subharnack import cli, pathgen, selftest


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def base_moments_config(out_dir="out"):
    return {
        "schema": "subharnack/1",
        "experiment": "moments",
        "clock": {"type": "linear"},
        "moments": {"k": 1, "t": 2},
        "mc": {"n_paths": 2, "seed": 0},
        "output": {"dir": out_dir},
    }


def sharp_config(n_paths=20_000, seed=42, out_dir="out"):
    return {
        "schema": "subharnack/1",
        "experiment": "certify-log",
        "model": {"name": "zero", "dim": 2},
        "clock": {"type": "linear"},
        "grid": {"horizon": 1.0, "steps": 100},
        "mc": {"n_paths": n_paths, "seed": seed},
        "observable": {"name": "exp_a", "direction": [1.0, 0.0]},
        "points": {"x": [0.0, 0.0], "y": [1.0, 0.0]},
        "output": {"dir": out_dir},
    }


class TestValidation:
    def test_valid_config_passes(self):
        cli.validate_config(base_moments_config())

    def test_schema_version_required(self):
        config = base_moments_config()
        config["schema"] = "subharnack/9"
        with pytest.raises(cli.ConfigError, match=r"\$\.schema"):
            cli.validate_config(config)

    def test_unknown_keys_rejected(self):
        config = base_moments_config()
        config["extra_block"] = {}
        with pytest.raises(cli.ConfigError, match="extra_block"):
            cli.validate_config(config)

    def test_malformed_theta_names_field(self):
        config = base_moments_config()
        config["clock"] = {"type": "stable", "theta": 1.5}
        with pytest.raises(cli.ConfigError, match="theta"):
            cli.validate_config(config)

    def test_missing_experiment_block(self):
        config = base_moments_config()
        del config["moments"]
        with pytest.raises(cli.ConfigError, match="moments"):
            cli.validate_config(config)


class TestRunExperiments:
    def test_moments_report_value(self, tmp_path):
        status = cli.run_config(base_moments_config(), base_dir=tmp_path)
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["value"] == pytest.approx(0.5, abs=1e-9)
        assert report["stderr"] == 0.0

    def test_moments_infinite_signal(self, tmp_path):
        config = base_moments_config()
        config["clock"] = {"type": "gamma", "a": 1.0, "b": 1.0}
        config["moments"] = {"k": 2, "t": 1}
        status = cli.run_config(config, base_dir=tmp_path)
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["infinite"] is True
        assert report["value"] is None

    def test_certify_log_sharp_case(self, tmp_path):
        status = cli.run_config(sharp_config(), base_dir=tmp_path)
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == "certified"
        assert abs(report["z_score"]) <= 3.0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "certified" in summary

    def test_config_error_exit_code(self, tmp_path):
        config = base_moments_config()
        config["clock"] = {"type": "stable", "theta": 1.5}
        assert cli.run_config(config, base_dir=tmp_path) == 64

    def test_model_config_error_exit_code(self, tmp_path, capsys):
        # passes the schema; make_model rejects it while building the model
        config = {
            "schema": "subharnack/1",
            "experiment": "simulate",
            "model": {"name": "rotating", "dim": 3},
            "clock": {"type": "linear"},
            "grid": {"horizon": 1.0, "steps": 10},
            "mc": {"n_paths": 100, "seed": 0},
            "observable": {"name": "sin1"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 64
        assert "config error" in capsys.readouterr().err

    def test_parameter_the_model_does_not_read_is_config_error(self, tmp_path, capsys):
        # the schema allows rate on every model; only ou reads it
        config = {
            "schema": "subharnack/1",
            "experiment": "simulate",
            "model": {"name": "rotating", "dim": 2, "rate": 3},
            "clock": {"type": "linear"},
            "grid": {"horizon": 1.0, "steps": 10},
            "mc": {"n_paths": 100, "seed": 0},
            "observable": {"name": "sin1"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 64
        assert "does not take the parameters ['rate']" in capsys.readouterr().err

    def test_repeated_rate_check_horizon_is_config_error(self, tmp_path, capsys):
        # four equal horizons leave the log-log slope undefined
        config = {
            "schema": "subharnack/1",
            "experiment": "rate-check",
            "rate_check": {"theta": 0.5, "horizons": [0.5, 0.5, 0.5, 0.5]},
            "mc": {"n_paths": 100, "seed": 0},
            "output": {"dir": "rate"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 64
        assert "config error" in capsys.readouterr().err

    def test_repeated_galerkin_dim_is_config_error(self, tmp_path, capsys):
        # two equal dims leave the trend slope undefined
        config = {
            "schema": "subharnack/1",
            "experiment": "galerkin-check",
            "clock": {"type": "linear"},
            "grid": {"horizon": 1.0, "steps": 8},
            "galerkin": {"dims": [4, 4]},
            "points": {"x": [0.0], "y": [1.0]},
            "mc": {"n_paths": 100, "seed": 0},
            "output": {"dir": "gal"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 64
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def stiff_config(model, steps):
        return {
            "schema": "subharnack/1",
            "experiment": "certify-log",
            "model": model,
            "clock": {"type": "stable", "theta": 0.75},
            "grid": {"horizon": 1.0, "steps": steps},
            "mc": {"n_paths": 2000, "seed": 0},
            "observable": {"name": "sin1"},
            "points": {"x": [0.0] * model["dim"], "y": [1.0] + [0.0] * (model["dim"] - 1)},
            "output": {"dir": "stiff"},
        }

    @pytest.mark.parametrize(
        "model, steps",
        [
            # h * rate = 2.4: the states grow 1.4x per step yet stay under
            # the state bound, and the run read "certified"
            ({"name": "ou", "dim": 1, "rate": 300.0}, 125),
            ({"name": "ou", "dim": 1, "rate": 300.0}, 149),  # h * rate = 2.013
            # bound h (c^2 + omega^2) >= 2 c: h >= 2 / 401 = 0.0049875
            ({"name": "rotating", "dim": 2, "contraction": 1.0, "omega": 20.0}, 200),
        ],
        ids=["ou-2.4", "ou-just-over", "rotating-just-over"],
    )
    def test_unstable_explicit_euler_grid_is_config_error(self, tmp_path, capsys, model, steps):
        assert cli.run_config(self.stiff_config(model, steps), base_dir=tmp_path) == 64
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "explicit Euler is unstable" in err
        assert not (tmp_path / "stiff").exists()

    @pytest.mark.parametrize(
        "model, steps",
        [
            ({"name": "ou", "dim": 1, "rate": 300.0}, 151),  # h * rate = 1.987
            ({"name": "rotating", "dim": 2, "contraction": 1.0, "omega": 20.0}, 201),
        ],
        ids=["ou-just-under", "rotating-just-under"],
    )
    def test_stable_explicit_euler_grid_runs(self, tmp_path, capsys, model, steps):
        status = cli.run_config(self.stiff_config(model, steps), base_dir=tmp_path)
        assert status != 64, capsys.readouterr().err
        assert (tmp_path / "stiff" / "report.json").exists()

    def test_double_well_steps_by_its_resolvent(self, tmp_path, capsys):
        # explicit Euler blew up under the stable clock's kicks (exit 70)
        status = cli.run_config(self.stiff_config({"name": "double_well", "dim": 1}, 50), base_dir=tmp_path)
        assert status == 0, capsys.readouterr().err

    def test_double_well_unit_step_is_config_error(self, tmp_path, capsys):
        # the resolvent needs h < 1; at h = 1 explicit Euler has
        # |1 + h (-2)| = 1 at the wells, and the run read "certified"
        config = self.stiff_config({"name": "double_well", "dim": 1}, 1)
        assert cli.run_config(config, base_dir=tmp_path) == 64
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "double-well resolvent needs every step h < 1" in err
        assert not (tmp_path / "stiff").exists()

    def test_certify_log_on_every_model_and_clock(self, tmp_path, capsys):
        # a model that one of the CLI runners cannot step fails here
        clock_params = {"linear": {}, "stable": {"theta": 0.75}, "gamma": {"a": 4.0, "b": 4.0},
                        "tempered_stable": {"theta": 0.6, "kappa": 1.0}}
        failed = []
        for name in cli.CONFIG_SCHEMA["properties"]["model"]["properties"]["name"]["enum"]:
            dim = 2 if name == "rotating" else 1
            for kind in cli._CLOCK_SCHEMA["properties"]["type"]["enum"]:
                config = self.stiff_config({"name": name, "dim": dim}, 50)
                config["clock"] = {"type": kind, **clock_params[kind]}
                config["output"] = {"dir": f"{name}-{kind}"}
                status = cli.run_config(config, base_dir=tmp_path)
                if status != 0:
                    failed.append((name, kind, status, capsys.readouterr().err.strip()))
        assert failed == []

    def test_stalled_sampler_exit_code(self, tmp_path, capsys, monkeypatch):
        # acceptance probability exp(-kappa^theta h) is 0 here, so the stall
        # is known before any proposal (the 10,000 rounds took 11 s on a
        # 2-core Xeon)
        def no_proposals(*args, **kwargs):
            raise AssertionError("a stable proposal was drawn")

        monkeypatch.setattr(pathgen, "_standard_positive_stable", no_proposals)
        config = {
            "schema": "subharnack/1",
            "experiment": "simulate",
            "model": {"name": "ou", "dim": 1},
            "clock": {"type": "tempered_stable", "theta": 0.75, "kappa": 1e6},
            "grid": {"horizon": 1.0, "steps": 1},
            "mc": {"n_paths": 16384, "seed": 0},
            "observable": {"name": "sin1"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 70
        err = capsys.readouterr().err
        assert "stalled" in err and "acceptance rate" in err
        assert len(err.strip().splitlines()) == 1

    def test_simulate_with_paths_csv(self, tmp_path):
        config = {
            "schema": "subharnack/1",
            "experiment": "simulate",
            "model": {"name": "ou", "dim": 2, "rate": 1.0},
            "clock": {"type": "stable", "theta": 0.75},
            "grid": {"horizon": 1.0, "steps": 50},
            "mc": {"n_paths": 2000, "seed": 7},
            "observable": {"name": "sin1"},
            "points": {"x": [1.0, 0.0]},
            "output": {"dir": "sim", "paths_csv": True},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 0
        report = json.loads((tmp_path / "sim" / "report.json").read_text())
        assert report["estimate"]["stderr"] > 0
        lines = (tmp_path / "sim" / "paths.csv").read_text().strip().splitlines()
        assert lines[0] == "t,X_1,X_2"
        assert len(lines) == 52

    def test_couple_reports_normalization(self, tmp_path):
        config = {
            "schema": "subharnack/1",
            "experiment": "couple",
            "model": {"name": "ou", "dim": 1, "rate": 1.0},
            "clock": {"type": "linear"},
            "grid": {"horizon": 1.0, "steps": 200},
            "mc": {"n_paths": 4000, "seed": 3},
            "observable": {"name": "bump"},
            "points": {"x": [1.0], "y": [0.0]},
            "certify": {"delta_couple": 1e-6},
            "output": {"dir": "couple", "paths_csv": True},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 0
        report = json.loads((tmp_path / "couple" / "report.json").read_text())
        wn = report["weight_normalization"]
        assert abs(wn["mean"] - 1.0) < 3.0 * wn["stderr"]
        assert report["coupling_fraction"] > 0.99
        lines = (tmp_path / "couple" / "paths.csv").read_text().strip().splitlines()
        assert lines[0] == "path_id,tau_time,log_weight,f_XT"
        assert len(lines) == 4001

    def test_rate_check_exit_codes(self, tmp_path):
        config = {
            "schema": "subharnack/1",
            "experiment": "rate-check",
            "rate_check": {"theta": 0.5, "horizons": [0.1, 0.2, 0.4, 0.8]},
            "mc": {"n_paths": 20_000, "seed": 5},
            "output": {"dir": "rate"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 0
        report = json.loads((tmp_path / "rate" / "report.json").read_text())
        assert report["consistent"] is True
        assert report["fitted_slope"] == pytest.approx(-2.0, abs=3.0 * report["slope_stderr"])

    def test_rate_check_linear_clock(self, tmp_path):
        # theta = 1 is the linear clock S(T) = T: slope exactly -1, no noise
        config = {
            "schema": "subharnack/1",
            "experiment": "rate-check",
            "rate_check": {"theta": 1.0, "horizons": [0.1, 0.2, 0.4, 0.8]},
            "mc": {"n_paths": 100, "seed": 5},
            "output": {"dir": "rate"},
        }
        assert cli.main(["run", str(write_config(tmp_path, "rate.json", config))]) == 0
        report = json.loads((tmp_path / "rate" / "report.json").read_text())
        assert report["fitted_slope"] == pytest.approx(-1.0, abs=1e-9)
        assert report["slope_stderr"] == 0.0

    def test_verdict_exit_mapping(self):
        assert cli._verdict_exit("certified") == 0
        assert cli._verdict_exit("violated") == 2
        assert cli._verdict_exit("inconclusive") == 3

    @staticmethod
    def heavy_gradient_config(theta, seed):
        return {
            "schema": "subharnack/1",
            "experiment": "certify-gradient",
            "model": {"name": "ou", "dim": 2},
            "clock": {"type": "stable", "theta": theta},
            "grid": {"horizon": 1.0, "steps": 40},
            "mc": {"n_paths": 9000, "seed": seed},
            "observable": {"name": "exp_a", "direction": [1.0, 0.0]},
            "points": {"x": [1.0, 0.0]},
        }

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_non_finite_slack_is_inconclusive(self, tmp_path, seed):
        # exp(X_1) under a theta = 0.4 clock: the variance side overflows
        # and the slack is NaN, which must not read as certified
        config = self.heavy_gradient_config(0.4, seed)
        assert cli.run_config(config, base_dir=tmp_path) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == "inconclusive"
        assert report["notes"] == ["slack or its standard error is not finite"]

    def test_overflowing_fourth_moment_is_inconclusive(self, tmp_path, capsys):
        # under a theta = 0.75 clock the variance of exp(X_1) stays finite
        # but its square and fourth moment overflow: the variance stderr is
        # inf, so the report is inconclusive, not a numeric failure
        config = self.heavy_gradient_config(0.75, 3)
        assert cli.run_config(config, base_dir=tmp_path) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == "inconclusive"
        assert report["notes"] == ["slack or its standard error is not finite"]
        assert math.isfinite(report["slack"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("theta, status, lines", [(0.4, 3, 0), (0.75, 3, 0)])
    def test_cli_prints_no_numpy_warnings(self, tmp_path, capsys, monkeypatch, two_cpus, workers, theta, status, lines):
        # the overflows above show in the verdict only; numpy's warnings
        # stay off stderr, also those of worker processes
        monkeypatch.setenv("SUBHARNACK_WORKERS", str(workers))
        path = write_config(tmp_path, "heavy.json", self.heavy_gradient_config(theta, 3))
        assert cli.main(["run", str(path)]) == status
        assert len(capsys.readouterr().err.splitlines()) == lines


def rejected_input_configs():
    """Schema-valid configs that the library rejects before any path runs."""
    def path_config(experiment, observable, model=None, points=None):
        model = model or {"name": "ou", "dim": 2}
        return {
            "schema": "subharnack/1",
            "experiment": experiment,
            "model": model,
            "clock": {"type": "stable", "theta": 0.75},
            "grid": {"horizon": 1.0, "steps": 20},
            "mc": {"n_paths": 2000, "seed": 0},
            "observable": observable,
            "points": points or {"x": [0.0] * model["dim"], "y": [1.0] + [0.0] * (model["dim"] - 1)},
            "output": {"dir": "rejected"},
        }

    def galerkin_config(observable, x):
        return {
            "schema": "subharnack/1",
            "experiment": "galerkin-check",
            "clock": {"type": "stable", "theta": 0.75},
            "grid": {"horizon": 1.0, "steps": 20},
            "galerkin": {"dims": [2, 4]},
            "observable": observable,
            "points": {"x": x, "y": [1.0]},
            "mc": {"n_paths": 2000, "seed": 0},
            "output": {"dir": "rejected"},
        }

    moments = base_moments_config(out_dir="rejected")
    moments["moments"] = {"k": 200, "t": 1}
    return {
        "exp_a-direction-too-short": (
            path_config("certify-log", {"name": "exp_a", "direction": [1.0]}),
            "exp_a direction must match the state dimension",
        ),
        "bump-coords-above-dim": (path_config("certify-log", {"name": "bump", "coords": 5}), "bump coords"),
        "bump-with-direction": (
            path_config("simulate", {"name": "bump", "direction": [1.0, 0.0]}), "bump takes only 'coords'",
        ),
        "coupling-bound-positive-K": (
            path_config("certify-coupling-bound", {"name": "sin1"}, model={"name": "double_well", "dim": 1}),
            "needs K <= 0; found K = 1",
        ),
        "coupling-bound-unbounded-f": (
            path_config("certify-coupling-bound", {"name": "exp_a"}), "needs a bounded observable",
        ),
        "galerkin-non-cylinder-f": (galerkin_config({"name": "capnorm"}, [0.0]), "cylinder observable"),
        "galerkin-x-beyond-cylinder": (
            galerkin_config({"name": "sin1"}, [0.0, 0.0, 0.0]), "initial points must live in the cylinder",
        ),
        "moment-order-200": (moments, "moment order k must stay below 170"),
    }


class TestExitCodeFollowsExceptionType:
    @pytest.mark.parametrize("case", list(rejected_input_configs()))
    def test_rejected_input_is_config_error(self, tmp_path, capsys, case):
        # each of these exited 70 as a numeric failure, though no path had run
        config, message = rejected_input_configs()[case]
        assert cli.run_config(config, base_dir=tmp_path) == 64
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]
        assert not (tmp_path / "rejected").exists()

    def test_malformed_worker_count_is_config_error(self, tmp_path, capsys, monkeypatch):
        # read outside both handlers, it ended in a traceback
        monkeypatch.setenv("SUBHARNACK_WORKERS", "abc")
        assert cli.run_config(base_moments_config(), base_dir=tmp_path) == 64
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: SUBHARNACK_WORKERS must be an integer, got 'abc'"]
        assert not (tmp_path / "out").exists()

    def test_wrong_length_velocity_is_config_error(self, tmp_path, capsys):
        config = rejected_input_configs()["bump-with-direction"][0]
        config["observable"] = {"name": "sin1"}
        config["model"]["perturbation"] = {"kind": "ramp", "velocity": [1.0]}
        assert cli.run_config(config, base_dir=tmp_path) == 64
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "perturbation V_t must have shape (2,)" in err

    def test_galerkin_check_with_exp_a(self, tmp_path, capsys):
        # exp_a built for min(dims) coordinates met the wider levels' states
        # in a matmul and exited 70
        config = {
            "schema": "subharnack/1",
            "experiment": "galerkin-check",
            "clock": {"type": "linear"},
            "grid": {"horizon": 1.0, "steps": 20},
            "galerkin": {"dims": [2, 4, 8]},
            "observable": {"name": "exp_a"},
            "points": {"x": [0.0], "y": [1.0]},
            "mc": {"n_paths": 2000, "seed": 0},
            "output": {"dir": "gal"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "gal" / "report.json").read_text())
        assert [r["verdict"] for r in report["reports"]] == ["certified"] * 3

    def test_rounded_coupling_clock_is_numeric_failure(self, tmp_path, capsys):
        # a library check on a computed clock, not on the config
        config = {
            "schema": "subharnack/1",
            "experiment": "couple",
            "model": {"name": "ou", "dim": 1},
            "clock": {"type": "stable", "theta": 0.2},
            "grid": {"horizon": 1.0, "steps": 50},
            "mc": {"n_paths": 2000, "seed": 0},
            "points": {"x": [1.0], "y": [0.0]},
            "output": {"dir": "couple"},
        }
        assert cli.run_config(config, base_dir=tmp_path) == 70
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure in couple: the regularized clock")
        assert not (tmp_path / "couple").exists()

    def test_moments_needs_no_mc_block(self, tmp_path):
        config = base_moments_config()
        del config["mc"]
        assert cli.run_config(config, base_dir=tmp_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["value"] == pytest.approx(0.5, abs=1e-9) and "seed" not in report

    def test_path_experiment_needs_its_mc_block(self, tmp_path, capsys):
        config = rejected_input_configs()["bump-with-direction"][0]
        del config["mc"]
        assert cli.run_config(config, base_dir=tmp_path) == 64
        assert capsys.readouterr().err.strip() == "config error: experiment 'simulate' needs config block(s): mc"


class TestReproducibility:
    def test_reports_identical_across_worker_counts(self, tmp_path, two_cpus):
        config = sharp_config(n_paths=10_000, out_dir="a")
        cli.run_config(config, workers=1, base_dir=tmp_path)
        first = json.loads((tmp_path / "a" / "report.json").read_text())
        config["output"]["dir"] = "b"
        cli.run_config(config, workers=4, base_dir=tmp_path)
        second = json.loads((tmp_path / "b" / "report.json").read_text())
        first.pop("runtime_seconds")
        second.pop("runtime_seconds")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_reports_identical_across_runs(self, tmp_path):
        config = base_moments_config(out_dir="m1")
        cli.run_config(config, base_dir=tmp_path)
        config2 = base_moments_config(out_dir="m2")
        cli.run_config(config2, base_dir=tmp_path)
        a = json.loads((tmp_path / "m1" / "report.json").read_text())
        b = json.loads((tmp_path / "m2" / "report.json").read_text())
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b

    def test_all_estimates_carry_stderr(self, tmp_path):
        cli.run_config(sharp_config(n_paths=2000, out_dir="se"), base_dir=tmp_path)
        report = json.loads((tmp_path / "se" / "report.json").read_text())
        assert "stderr" in report["lhs"] and "stderr" in report["rhs"]


class TestCommandLine:
    def test_run_subcommand(self, tmp_path):
        path = write_config(tmp_path, "m.json", base_moments_config())
        proc = subprocess.run(
            [sys.executable, "-m", "subharnack", "run", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_run_directory_batch(self, tmp_path):
        write_config(tmp_path, "a.json", base_moments_config(out_dir="out_a"))
        bad = base_moments_config(out_dir="out_b")
        bad["clock"] = {"type": "stable", "theta": 1.5}
        write_config(tmp_path, "b.json", bad)
        proc = subprocess.run(
            [sys.executable, "-m", "subharnack", "run", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 64
        assert "theta" in proc.stderr

    def test_moments_subcommand(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "subharnack", "moments",
                "--bernstein", "stable", "--theta", "0.75", "--k", "1", "--t", "0.5",
                "--out", str(tmp_path / "mom"),
            ],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "mom" / "report.json").read_text())
        expected = math.gamma(1 + 1 / 0.75) * 0.5 ** (-1 / 0.75)
        assert report["value"] == pytest.approx(expected, rel=1e-9)

    def test_moments_gamma_mean_just_above_its_threshold(self, tmp_path):
        # a t = 1.05: E[1/S(t)] = b / (a t - 1) = 80 is finite
        proc = subprocess.run(
            [
                sys.executable, "-m", "subharnack", "moments",
                "--bernstein", "gamma", "--a", "4", "--b", "4", "--k", "1", "--t", "0.2625",
                "--out", str(tmp_path / "mom"),
            ],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "mom" / "report.json").read_text())
        assert report["value"] == pytest.approx(80.0, rel=1e-12)

    def test_import_leaves_scipy_quadrature_unloaded(self):
        # the package runs on numpy alone; scipy is a test dependency
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, subharnack.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_jsonschema_unloaded(self):
        # only validate_config needs jsonschema, and it imports it when
        # called; a caller that never validates a config does not load it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, subharnack.cli; print('jsonschema' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_unreadable_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = subprocess.run(
            [sys.executable, "-m", "subharnack", "run", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 64


class TestSelftest:
    def test_passes_on_healthy_build(self, capsys):
        assert selftest.run_selftest() == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(selftest.SELFTEST_CHECKS)

    def test_fails_on_corrupted_rng_derivation(self, monkeypatch, capsys):
        # fault injection: make stream derivation time-dependent
        import itertools

        from subharnack import pathgen

        counter = itertools.count()

        def corrupted(self):
            return np.random.Generator(np.random.Philox(next(counter)))

        monkeypatch.setattr(pathgen.RngStream, "generator", corrupted)
        assert selftest.run_selftest() != 0
        out = capsys.readouterr().out
        assert "FAIL" in out and "determinism" in out

    def test_fails_on_broken_moment_oracle(self, monkeypatch, capsys):
        from subharnack import selftest as st

        original = st.bn.inverse_moment
        monkeypatch.setattr(
            st.bn, "inverse_moment", lambda bf, k, t, **kw: original(bf, k, t, **kw) + 1e-6
        )
        assert st.run_selftest() != 0
        out = capsys.readouterr().out
        assert "moment-oracle" in out.split("FAIL")[1]
