import ast
import json
import math
import runpy
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import dqdpulse.cli as cli
import dqdpulse.config as config
import dqdpulse.experiments as xp
from dqdpulse.algebra import TWO_PI
from dqdpulse.cli import main
from dqdpulse.config import ExperimentConfig, config_document, config_from_mapping
from dqdpulse.device import SCHEMES, frame_hamiltonian
from dqdpulse.dynamics import TRAJECTORY_CSV_HEADER, propagate_unitary, required_steps
from dqdpulse.experiments import build_schedule


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.scheme == "fsim_rect"

    @pytest.mark.parametrize(
        "flags, doc, grid_n",
        [
            ([], None, 5), (["--grid-n", "40"], None, 40),
            ([], {"grid_n": 40}, 40), (["--grid-n", "7"], {"grid_n": 40}, 7),
        ],
    )
    def test_default_grid_is_five(self, flags, doc, grid_n, tmp_path, monkeypatch):
        # the smallest grid exact under both conventions, unless a grid size is given
        assert ExperimentConfig().grid_n == 5
        seen = []
        reads, _ = cli.RUNS["simulate"][None]
        monkeypatch.setitem(cli.RUNS["simulate"], None, (reads, lambda cfg, writer, log: seen.append(cfg)))
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            flags = [*flags, "--config", str(tmp_path / "cfg.json")]
        main(["simulate", *flags, "--outdir", str(tmp_path / "out")])
        assert seen[0].grid_n == grid_n

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_mapping({"schem": "fsim_rect"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"rwa": "no"}, {"decoherence": "false"}, {"trajectory": 1}, {"n_reps": 2.5}, {"n_reps": True},
            {"grid_n": 2.5}, {"steps_per_period": "200"}, {"theta": "0.5"}, {"theta": False}, {"gate_time_ns": [45]},
            {"rabi_deltas": 0.05}, {"rabi_deltas": [0.05, True]}, {"phases": [0, 1, "2"]}, {"phases": [0, 1]}, {"device_file": 3},
            {"scheme": None}, {"convention": 1}, {"grid_n": None},
        ],
        ids=lambda doc: "-".join(f"{k}={v!r}" for k, v in doc.items()),
    )
    def test_wrong_json_type_is_a_one_line_error(self, doc, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: config key ") and repr(next(iter(doc))) in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_json_types_of_each_field_are_accepted(self, tmp_path):
        doc = {"theta": 1, "xi": 0.5, "gate_time_ns": None, "n_reps": 2, "grid_n": 7, "rabi_deltas": [0, 0.01]}
        cfg = config_from_mapping({**doc, "device_file": None, "phases": [0, 0.5, 1], "rwa": True})
        assert (cfg.theta, cfg.n_reps, cfg.grid_n, cfg.rabi_deltas, cfg.phases) == (1, 2, 7, (0, 0.01), (0, 0.5, 1))
        assert cfg.rwa is True
        shipped = Path(__file__).resolve().parent.parent / "configs" / "fsim_rect_n3.json"
        assert config_from_mapping(config_document(shipped, {})).n_reps == 3

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            ExperimentConfig(theta=2.0)
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="nope")

    def test_load_and_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "fsim_poly", "n_reps": 3, "grid_n": 12}))
        cfg = config_from_mapping(config_document(path, {}))
        assert cfg.scheme == "fsim_poly"
        cfg2 = config_from_mapping(config_document(path, {"grid_n": 5, "scheme": None}))
        assert cfg2.grid_n == 5
        assert cfg2.scheme == "fsim_poly"

    def test_digest_stable(self):
        assert ExperimentConfig().digest() == ExperimentConfig().digest()
        assert ExperimentConfig().digest() != ExperimentConfig(n_reps=2).digest()

    def test_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DQDPULSE_OUTDIR", str(tmp_path / "env_out"))
        monkeypatch.setenv("DQDPULSE_WORKERS", "3")
        cfg = ExperimentConfig()
        assert cfg.resolved_outdir().endswith("env_out")
        assert cfg.resolved_workers() == 3


class TestSchemeRegistry:
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_every_scheme_is_wired(self, name, tmp_path):
        assert ExperimentConfig(scheme=name).scheme == name
        assert main(["synthesize", "--scheme", name, "--samples", "5", "--outdir", str(tmp_path)]) == 0
        residuals = build_schedule(name).check_constraints()
        assert residuals and max(residuals.values()) <= 1e-8


class TestCliRuns:
    def test_invalid_config_is_a_one_line_error(self, tmp_path, capsys):
        rc = main(["synthesize", "--theta", "2", "--outdir", str(tmp_path / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and "theta" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "bad").exists()

    def test_steps_per_period_below_floor_is_a_one_line_error(self, tmp_path, capsys):
        rc = main(["simulate", "--steps-per-period", "0", "--outdir", str(tmp_path / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and "below the floor" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "flags", [["--grid-n", "4"], ["--grid-n", "3", "--convention", "paper"], ["--grid-n", "1"], ["--grid-n", "0"]]
    )
    def test_inexact_grid_is_a_one_line_error(self, flags, tmp_path, capsys):
        assert main(["simulate", *flags, "--outdir", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: inexact grid_n") and err.count("\n") == 1
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("flags", [["--grid-n", "3"], ["--grid-n", "10"], ["--grid-n", "10", "--convention", "paper"]])
    def test_exact_grid_runs(self, flags, tmp_path):
        assert main(["simulate", *flags, "--outdir", str(tmp_path)]) == 0
        assert len((tmp_path / "fidelity.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "argv, workers_env",
        [
            (["simulate", "--trajectory", "--samples", "0"], None),
            (["simulate", "--trajectory", "--samples", "-3"], None),
            (["synthesize", "--samples", "0"], None),
            (["synthesize", "--samples", "1"], None),
            (["sweep", "detuning", "--workers", "-2"], None),
            (["sweep", "detuning", "--n-values", "0"], None),
            (["sweep", "detuning", "--n-values", "1", "-1"], None),
            (["reproduce", "fig4c"], "0"),
            (["reproduce", "fig4c"], "two"),
            (["sweep", "phase"], "-1"),
        ],
        ids=[
            "simulate-samples-0", "simulate-samples-negative", "synthesize-samples-0", "synthesize-samples-1",
            "workers-negative", "n-values-0", "n-values-negative", "env-workers-0", "env-workers-text",
            "env-workers-negative",
        ],
    )
    def test_invalid_run_size_is_a_one_line_error(self, argv, workers_env, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DQDPULSE_OUTDIR", raising=False)
        monkeypatch.delenv("DQDPULSE_WORKERS", raising=False)
        if workers_env is not None:
            monkeypatch.setenv("DQDPULSE_WORKERS", workers_env)
        assert main([*argv, "--outdir", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and err.count("\n") == 1
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "rabi", "--n-reps", "3"], "--n-reps"),
            (["sweep", "rabi", "--workers", "2", "--steps-per-period", "100"], "--steps-per-period, --workers"),
            (["sweep", "eta", "--theta", "0.5"], "--theta"),
            (["sweep", "eta", "--grid-n", "5", "--workers", "2"], "--grid-n, --workers"),
            (["sweep", "detuning", "--scheme", "fsim_rect"], "--scheme"),
            (["sweep", "phase", "--rabi-deltas", "0.05"], "--rabi-deltas"),
        ],
        ids=["rabi-n-reps", "rabi-workers-steps", "eta-theta", "eta-grid", "detuning-scheme", "phase-rabi-deltas"],
    )
    def test_sweep_rejects_flags_it_does_not_read(self, argv, flag, tmp_path, capsys):
        assert main([*argv, "--outdir", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err == f"dqdpulse: error: sweep {argv[1]} does not read {flag}\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (
                ["reproduce", "fig1a", "--scheme", "bgate", "--n-reps", "3", "--steps-per-period", "400"],
                "--n-reps, --scheme, --steps-per-period",
            ),
            (["reproduce", "table1", "--steps-per-period", "400"], "--steps-per-period"),
        ],
        ids=["fig1a-gate-flags", "table1-steps"],
    )
    def test_reproduce_rejects_flags_it_does_not_read(self, argv, flag, tmp_path, capsys):
        assert main([*argv, "--outdir", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err == f"dqdpulse: error: reproduce {argv[1]} does not read {flag}\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "argv, doc, flag",
        [
            (["sweep", "rabi"], {"n_reps": 3}, "--n-reps"),
            (["sweep", "eta"], {"grid_n": 5, "workers": 2}, "--grid-n, --workers"),
            (["sweep", "detuning"], {"scheme": "fsim_rect"}, "--scheme"),
            (["sweep", "phase", "--rabi-deltas", "0.05"], {"workers": 1, "theta": 0.5}, "--rabi-deltas, --theta"),
            (
                ["reproduce", "fig1a"],
                {"scheme": "bgate", "n_reps": 3, "steps_per_period": 400},
                "--n-reps, --scheme, --steps-per-period",
            ),
            (["reproduce", "table1"], {"workers": 1, "steps_per_period": 400}, "--steps-per-period"),
        ],
        ids=["rabi-n-reps", "eta-grid", "detuning-scheme", "phase-flag-and-key", "fig1a-gate-keys", "table1-steps"],
    )
    def test_config_keys_are_checked_like_flags(self, argv, doc, flag, tmp_path, capsys):
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        assert main([*argv, "--config", str(tmp_path / "doc.json"), "--outdir", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err == f"dqdpulse: error: {argv[0]} {argv[1]} does not read {flag}\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--theta", "0", "--xi", "0"], "needs no exchange"),
            (["synthesize", "--theta", "0", "--xi", "0"], "needs no exchange"),
            (["simulate", "--gate-time-ns", "0"], "gate_time_ns"),
            (["synthesize", "--gate-time-ns", "-45"], "gate_time_ns"),
            (["simulate", "--gate-time-ns", "inf"], "gate_time_ns"),
            (["simulate", "--gate-time-ns", "nan"], "gate_time_ns"),
            (["simulate", "--theta", "nan"], "theta"),
            (["synthesize", "--theta", "nan"], "theta"),
            (["synthesize", "--scheme", "bgate", "--xi", "inf"], "xi"),
            (["simulate", "--scheme", "fsim_poly", "--eta", "nan"], "eta"),
            (["simulate", "--rabi-deltas", "nan"], "rabi delta"),
            (["simulate", "--no-decoherence", "--detuning-eps", "0", "nan"], "detuning eps"),
        ],
        ids=[
            "simulate-no-exchange", "synthesize-no-exchange", "gate-time-0", "gate-time-negative", "gate-time-inf",
            "gate-time-nan", "simulate-theta-nan", "synthesize-theta-nan", "xi-inf", "eta-nan", "rabi-delta-nan",
            "detuning-eps-nan",
        ],
    )
    def test_invalid_gate_parameters_are_a_one_line_error(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--outdir", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "bad").exists()

    def test_empty_outdir_variable_is_unset(self, tmp_path, monkeypatch, capsys):
        # DQDPULSE_OUTDIR= dqdpulse synthesize --samples 5
        monkeypatch.setenv("DQDPULSE_OUTDIR", "")
        monkeypatch.chdir(tmp_path)
        assert main(["synthesize", "--samples", "5"]) == 0
        assert len((tmp_path / "out" / "schedule_fsim_rect.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize("key", ["j_max_hz", "delta_e_z_hz"])
    def test_zero_device_constant_is_a_one_line_error(self, key, tmp_path, capsys):
        device = tmp_path / "device.json"
        device.write_text(json.dumps({key: 0}))
        rc = main(["synthesize", "--scheme", "fsim_rect", "--device-file", str(device), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and "must be positive" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, name", [("delta_e_z_hz", "delta_ez"), ("e_z_hz", "e_z"), ("t2_q1_s", "t2_q1")])
    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_infinite_device_constant_is_a_one_line_error(self, command, key, name, tmp_path, capsys):
        device = tmp_path / "device.json"
        device.write_text(json.dumps({key: math.inf}))  # written as Infinity
        assert main([command, "--device-file", str(device), "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"dqdpulse: error: {name} must be finite and nonnegative\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, content",
        [("--config", None), ("--device-file", None), ("--config", "[1]"), ("--device-file", "[]"), ("--config", "{")],
        ids=["config-missing", "device-missing", "config-list", "device-list", "config-truncated"],
    )
    def test_unreadable_document_is_a_one_line_error(self, flag, content, tmp_path, capsys):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_text(content)
        assert main(["synthesize", flag, str(path), "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and str(path) in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_run_failing_before_its_first_file_leaves_no_directory(self, tmp_path, capsys):
        assert main(["sweep", "rabi", "--scheme", "bgate", "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, doc, flag",
        [
            (["synthesize", "--workers", "2"], None, "--workers"),
            (["synthesize", "--grid-n", "7"], None, "--grid-n"),
            (
                ["synthesize", "--workers", "3", "--grid-n", "7", "--steps-per-period", "400", "--convention", "paper"],
                None,
                "--convention, --grid-n, --steps-per-period, --workers",
            ),
            (["simulate", "--workers", "2"], None, "--workers"),
            (["simulate"], {"n_values": [1]}, "--n-values"),
        ],
        ids=["synthesize-workers", "synthesize-grid", "synthesize-run-flags", "simulate-workers", "simulate-n-values-key"],
    )
    def test_synthesize_and_simulate_reject_what_they_do_not_read(self, argv, doc, flag, tmp_path, capsys):
        if doc is not None:
            (tmp_path / "doc.json").write_text(json.dumps(doc))
            argv = [*argv, "--config", str(tmp_path / "doc.json")]
        assert main([*argv, "--outdir", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == f"dqdpulse: error: {argv[0]} does not read {flag}\n"
        assert not (tmp_path / "bad").exists()

    def test_unknown_key_is_reported_as_unknown(self, tmp_path, capsys):
        (tmp_path / "doc.json").write_text(json.dumps({"schem": "bgate"}))
        assert main(["sweep", "eta", "--config", str(tmp_path / "doc.json"), "--outdir", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == "dqdpulse: error: unknown config keys: ['schem']\n"

    @pytest.mark.parametrize(
        "argv", [["synthesize"], ["simulate"], ["sweep", "rabi"], ["reproduce", "table1"]], ids=lambda argv: argv[0]
    )
    def test_quick_is_no_option(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as done:
            main([*argv, "--quick", "--outdir", str(tmp_path / "bad")])
        assert done.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["dqdpulse: error: unrecognized arguments: --quick"]
        assert not (tmp_path / "bad").exists()
        (tmp_path / "doc.json").write_text(json.dumps({"quick": True}))
        assert main([*argv, "--config", str(tmp_path / "doc.json"), "--outdir", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == "dqdpulse: error: unknown config keys: ['quick']\n"
        assert not (tmp_path / "bad").exists()

    def test_synthesize_writes_schedule_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "syn"
        rc = main(["synthesize", "--scheme", "bgate", "--outdir", str(out), "--samples", "41"])
        assert rc == 0
        lines = (out / "schedule_bgate.csv").read_text().strip().splitlines()
        assert lines[0] == "t_ns,j_over_2pi_MHz,J_over_2pi_MHz,psi_rad,By_over_2pi_MHz"
        assert len(lines) == 42
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        # j level in MHz: -3 pi / (2T) / 2pi
        assert first[1] == pytest.approx(-3 * math.pi / (2 * build_schedule("bgate").duration) / TWO_PI / 1e6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"][0]["rows"] == 41
        assert "config_hash" in manifest and "runtime_s" in manifest
        captured = capsys.readouterr().out
        assert "max|J|/2pi" in captured

    def test_synthesize_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["synthesize", "--scheme", "fsim_geometric", "--outdir", str(out)])
        csv1 = (out1 / "schedule_fsim_geometric.csv").read_bytes()
        csv2 = (out2 / "schedule_fsim_geometric.csv").read_bytes()
        assert csv1 == csv2
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["files"][0]["sha256"] == m2["files"][0]["sha256"]

    def test_simulate_quick_fidelity(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(
            [
                "simulate", "--scheme", "fsim_rect", "--rwa", "--no-decoherence",
                "--grid-n", "6", "--steps-per-period", "100", "--outdir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "fidelity.csv").read_text().strip().splitlines()
        assert lines[0].startswith("scheme,N,delta_Ez_over_2pi_MHz")
        assert len(lines) == 2
        fid = float(lines[1].split(",")[-1])
        assert fid > 0.999  # RWA frame, no decoherence: exact gate up to stepping

    def test_simulate_bgate_trajectory(self, tmp_path):
        out = tmp_path / "traj"
        rc = main(
            [
                "simulate", "--scheme", "bgate", "--no-decoherence", "--trajectory",
                "--samples", "31", "--outdir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t_ns,pop_00")
        assert len(lines) == 32
        first = [float(x) for x in lines[1].split(",")]
        # initial populations of (|00> + |01>)/sqrt(2)
        assert first[1] == pytest.approx(0.5, abs=1e-9)
        assert first[2] == pytest.approx(0.5, abs=1e-9)
        # the manifest says how: the Magnus-Filon step at its default budget,
        # on the floor's steps plus the nodes the sample times add
        (record,) = json.loads((out / "manifest.json").read_text())["propagations"]
        schedule = build_schedule("bgate")
        fmax = frame_hamiltonian(schedule, rwa=False).max_frequency_hz
        floor = required_steps(fmax, schedule.duration)
        assert floor <= record.pop("steps") <= floor + 31
        assert record == {
            "rabi_delta": 0.0,
            "detuning_eps": 0.0,
            "rule": "magnus_filon",
            "repetitions": 1,
            "steps_per_period": 50,
            "max_frequency_hz": fmax,
        }

    def test_reproduce_fig1a(self, tmp_path):
        out = tmp_path / "fig1a"
        rc = main(["reproduce", "fig1a", "--outdir", str(out)])
        assert rc == 0
        lines = (out / "fig1a.csv").read_text().strip().splitlines()
        assert lines[0] == "theta_rad,xi_rad,abs_JT_max_rad"
        assert len(lines) == 1 + 21 * 21

    def test_reproduce_fig4c_minimum_location(self, tmp_path):
        out = tmp_path / "fig4c"
        rc = main(["reproduce", "fig4c", "--outdir", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in (out / "fig4c.csv").read_text().strip().splitlines()[1:]]
        etas = np.array([float(r[0]) for r in rows])
        qs = np.array([float(r[1]) for r in rows])
        assert etas[np.argmin(qs)] == pytest.approx(-1.0 / 3.0, abs=0.011)

    def test_exit_code_reflects_invariants(self, tmp_path):
        # a valid run passes all invariant checks
        rc = main(["synthesize", "--scheme", "fsim_rect", "--outdir", str(tmp_path / "x")])
        assert rc == 0

    def test_failed_run_check_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("DQDPULSE_WORKERS", raising=False)
        runs = []

        def first_run_fails(*args, **kwargs):
            runs.append(propagate_unitary(*args, **kwargs))
            return replace(runs[-1], unitarity_defect=1.0) if len(runs) == 1 else runs[-1]

        monkeypatch.setattr(xp, "propagate_unitary", first_run_fails)
        rc = main(
            [
                "sweep", "detuning", "--detuning-eps", "0", "0.05", "--n-values", "1",
                "--workers", "1", "--outdir", str(tmp_path),
            ]
        )
        assert rc == 1 and len(runs) == 2
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1 and "[FAIL] unitarity_defect" in out

    def test_simulate_logs_pristine_constraints_once(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--scheme", "fsim_rect", "--rwa", "--no-decoherence", "--rabi-deltas", "0", "0.05",
                "--detuning-eps", "0", "0.01", "--outdir", str(tmp_path),
            ]
        )
        assert rc == 0
        checks = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert checks == ["[ok] fsim_rect_area", "[ok] fsim_rect_cosine_moment"] + ["[ok] unitarity_defect"] * 4


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestTrajectory:
    """``simulate --trajectory`` samples the run it reports, whatever the scheme."""

    # the floor budget, 50 steps per period, keeps the 76 ns pre-RWA B gate fast
    BGATE = ["simulate", "--scheme", "bgate", "--no-decoherence", "--steps-per-period", "50"]

    def test_bgate_propagates_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("sample_times"))
            return propagate_unitary(*args, **kwargs)

        monkeypatch.setattr(xp, "propagate_unitary", counted)
        assert main([*self.BGATE, "--trajectory", "--samples", "31", "--outdir", str(tmp_path)]) == 0
        assert len(calls) == 1 and len(calls[0]) == 31

    def test_bgate_path_is_the_sampled_run(self, tmp_path):
        assert main([*self.BGATE, "--trajectory", "--samples", "31", "--outdir", str(tmp_path)]) == 0
        schedule = build_schedule("bgate")
        times = np.linspace(0.0, schedule.duration, 31)
        res = propagate_unitary(
            frame_hamiltonian(schedule, rwa=False),
            schedule.duration,
            breakpoints=schedule.breakpoints,
            sample_times=times,
            steps_per_period=50,
        )
        psi = res.states @ (np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0))
        rho = psi[:, :, None] * psi[:, None, :].conj()
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        expected = np.column_stack([np.abs(psi) ** 2, *(np.abs(rho[:, i, j]) for i, j in pairs)])
        rows = _csv(tmp_path / "trajectory.csv")
        np.testing.assert_allclose(rows[:, 0], times * 1e9, rtol=0.0, atol=1e-9)  # 12 digits of ns
        np.testing.assert_allclose(rows[:, 1:], expected, rtol=0.0, atol=1e-12)

    def test_decohered_fsim_path(self, tmp_path):
        rc = main(["simulate", "--scheme", "fsim_rect", "--trajectory", "--samples", "21", "--outdir", str(tmp_path)])
        assert rc == 0
        pops = _csv(tmp_path / "trajectory.csv")[:, 1:5]
        assert pops.shape == (21, 4)
        np.testing.assert_allclose(pops[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(pops.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)

    def test_more_than_one_run_is_rejected(self, tmp_path, capsys):
        rc = main(["simulate", "--trajectory", "--rabi-deltas", "0", "0.05", "--outdir", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_bgate_csv_bytes_match_the_per_value_formatter(self, tmp_path, monkeypatch):
        # the rows as first written: one float() or abs() and one f-string per value
        runs = []

        def kept(*args, **kwargs):
            runs.append(propagate_unitary(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(xp, "propagate_unitary", kept)
        assert main([*self.BGATE, "--trajectory", "--samples", "201", "--outdir", str(tmp_path)]) == 0
        lines = [TRAJECTORY_CSV_HEADER]
        for t, rho in zip(runs[0].times, xp.state_path(runs[0])):
            values = [t * 1e9, *(float(rho[i, i].real) for i in range(4))]
            values += [float(abs(rho[i, j])) for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
            lines.append(",".join(f"{v:.12g}" for v in values))
        assert (tmp_path / "trajectory.csv").read_text() == "\n".join(lines) + "\n"

    def test_bgate_has_no_repetitions(self, tmp_path):
        assert main([*self.BGATE, "--n-reps", "2", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "fidelity.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[:2] == ["bgate", "1"]


class TestDeterminismAcrossWorkers:
    def test_detuning_sweep_bytes_identical(self, tmp_path):
        args = [
            "sweep", "detuning", "--detuning-eps", "-0.05", "0.05",
            "--n-values", "1", "--grid-n", "6",
        ]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(args + ["--outdir", str(out1), "--workers", "1"]) == 0
        assert main(args + ["--outdir", str(out2), "--workers", "2"]) == 0
        assert (out1 / "detuning_sweep.csv").read_bytes() == (out2 / "detuning_sweep.csv").read_bytes()

    def test_fig6_csv_and_checks_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("DQDPULSE_WORKERS", raising=False)
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["reproduce", "fig6", "--workers", workers, "--outdir", str(out)]) == 0
            runs.append(((out / "fig6.csv").read_bytes(), capsys.readouterr().out.splitlines()))
        assert runs[0] == runs[1]
        # 44 runs, plus the constraints of the geometric (3) and rectangular (2) schedules
        assert len(runs[0][1]) == 49


class TestReproduceFiguresScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"

    def run(self, monkeypatch, *args):
        calls = []
        monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), *args])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        return done.value.code, calls

    def test_each_target_gets_the_flags_it_reads(self, monkeypatch):
        code, calls = self.run(monkeypatch, "--grid-n", "10", "--workers", "2")
        assert code == 0
        assert calls == [
            ["reproduce", "fig1a", "--outdir", "out/fig1a"],
            ["reproduce", "fig4c", "--outdir", "out/fig4c"],
            ["reproduce", "fig4d", "--outdir", "out/fig4d", "--workers", "2"],
            ["reproduce", "fig5", "--outdir", "out/fig5", "--grid-n", "10", "--workers", "2"],
            ["reproduce", "fig6", "--outdir", "out/fig6", "--grid-n", "10", "--workers", "2"],
        ]
        for argv in calls:  # every argv parses, and its run reads each flag it is given
            reads = cli.RUNS["reproduce"][argv[1]][0]
            assert {a[2:].replace("-", "_") for a in argv[4:] if a.startswith("--")} <= reads

    def test_chosen_targets_and_outdir(self, monkeypatch):
        code, calls = self.run(monkeypatch, "fig5", "fig1a", "--outdir", "figs")
        assert code == 0
        assert calls == [
            ["reproduce", "fig5", "--outdir", "figs/fig5"],
            ["reproduce", "fig1a", "--outdir", "figs/fig1a"],
        ]

    @pytest.mark.parametrize("args", [["fig1a", "--workers", "2"], ["--scheme", "bgate"], ["table1"]])
    def test_rejects_flags_no_target_reads_and_unknown_targets(self, monkeypatch, capsys, args):
        code, calls = self.run(monkeypatch, *args)
        assert code == 2 and calls == []
        assert "error:" in capsys.readouterr().err


class TestReproduceTable1:
    def test_emits_twenty_rows(self, tmp_path):
        out = tmp_path / "t1"
        rc = main(["reproduce", "table1", "--outdir", str(out), "--workers", "2"])
        assert rc == 0
        lines = (out / "table1.csv").read_text().strip().splitlines()
        assert len(lines) == 21  # header + 2 schemes x N = 1..10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"][0]["rows"] == 20


def config_attribute_reads(config_source: str) -> dict[str, set[str]]:
    """ExperimentConfig field, property or method name -> the fields it reads
    off ``self``, following the methods and properties it uses."""
    (cls,) = [n for n in ast.parse(config_source).body if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig"]
    fields = {s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)}
    methods = {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}

    def reads(name: str, seen: set[str]) -> set[str]:
        if name in fields:
            return {name}
        seen.add(name)
        return set().union(
            *(
                reads(n.attr, seen)
                for n in ast.walk(methods[name])
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self"
                and n.attr not in seen
            )
        )

    return {name: reads(name, set()) for name in fields | set(methods)}


def undeclared(read: set[str], reads: set[str]) -> list[str]:
    """The fields of ``read`` missing from a run's ``reads``."""
    return sorted(read - reads)


def unread(read: set[str], reads: set[str]) -> list[str]:
    """The fields a run declares in ``reads`` that its body never reads."""
    return sorted(reads - read)


def body_reads(cli_source: str, body: str | int, attributes: dict[str, set[str]]) -> set[str]:
    """Config fields that ``body`` reads off its ``cfg``: the top-level
    function of that name, or the lambda that starts on that line.  The
    module's functions it calls are followed; ``"cfg"`` itself is a read when
    the config reaches any other call or binding, where its reads cannot be
    seen."""
    tree = ast.parse(cli_source)
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    if isinstance(body, int):
        (start,) = [n for n in ast.walk(tree) if isinstance(n, ast.Lambda) and n.lineno == body]
    else:
        start = defs[body]
    read, todo, seen = set(), [start], {body}
    while todo:
        fn = todo.pop()
        followed = set()  # the cfg names handed to a followed function or read through
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in defs:
                followed.update(id(a) for a in node.args)
                if node.func.id not in seen:
                    seen.add(node.func.id)
                    todo.append(defs[node.func.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
                followed.add(id(node.value))
                read |= attributes.get(node.attr, {node.attr})
        if any(isinstance(n, ast.Name) and n.id == "cfg" and id(n) not in followed for n in ast.walk(fn)):
            read.add("cfg")
    return read


def run_reads(cli_source: str, body, attributes: dict[str, set[str]]) -> set[str]:
    """Config fields a ``cli.RUNS`` body reads.  The body of a run of
    declared datasets (``cli._sweeps``) reads what the runner reads, with
    ``workers`` and ``grid_n`` only when the run declares them (the runner
    reads each only then), and what each dataset's declaration reads: the
    config the runner hands a declaration is followed into it.  Any other
    body is a top-level function or a partial of one."""
    fn = body.func if isinstance(body, partial) else body
    if fn is not cli._write_sweeps:
        return body_reads(cli_source, fn.__name__, attributes)
    files, reads = body.args
    read = body_reads(cli_source, "_write_sweeps", attributes) - {"cfg"} - ({"workers", "grid_n"} - reads)
    return read.union(*(body_reads(cli_source, declare.__code__.co_firstlineno, attributes) for _, _, declare in files))


def test_detector_follows_helpers_and_config_properties():
    config_source = (
        "@dataclass\nclass ExperimentConfig:\n    a: int = 1\n    b_ns: float = 1.0\n    unused: int = 0\n"
        "    @property\n    def b(self):\n        return self.b_ns\n"
        "    def c(self):\n        return self.b + self.a + self.c()\n"
    )
    attributes = config_attribute_reads(config_source)
    assert attributes["b"] == {"b_ns"} and attributes["c"] == {"a", "b_ns"}
    cli_source = (
        "def body(cfg, writer, log):\n    helper(cfg, writer, cfg.b)\n"
        "def helper(cfg, writer, x):\n    return cfg.c() + cfg.zz\n"
        "def leaky(cfg, writer, log):\n    writer.send(cfg)\n"
    )
    assert body_reads(cli_source, "body", attributes) == {"a", "b_ns", "zz"}
    assert body_reads(cli_source, "leaky", attributes) == {"cfg"}


def test_detector_follows_declarations():
    config_source = "@dataclass\nclass ExperimentConfig:\n    n: int = 5\n    rwa: bool = False\n    b: int = 0\n"
    attributes = config_attribute_reads(config_source)
    cli_source = (
        "def helper(cfg):\n    return cfg.b\n"
        "RUNS = {\n"
        "    'grid': ({'rwa'}, ('grid.csv', lambda cfg: sweep(cfg.n))),\n"
        "    'undeclared': ({'rwa'}, ('b.csv', lambda cfg: sweep(helper(cfg), cfg.rwa))),\n"
        "}\n"
    )
    grid, declaration = body_reads(cli_source, 4, attributes), body_reads(cli_source, 5, attributes)
    assert grid == {"n"} and declaration == {"b", "rwa"}
    assert undeclared(grid, {"n"}) == unread(grid, {"n"}) == []
    assert undeclared(grid, {"rwa"}) == ["n"] and unread(grid, {"rwa"}) == ["rwa"]
    assert undeclared(declaration, {"rwa"}) == ["b"] and unread(declaration, {"rwa"}) == []


def test_every_run_declares_exactly_the_config_fields_its_body_reads():
    # (read but not declared, declared but not read) of each run
    config_source = Path(config.__file__).read_text()
    attributes = config_attribute_reads(config_source)
    cli_source = Path(cli.__file__).read_text()
    found = {}
    for command, runs in cli.RUNS.items():
        for target, (reads, body) in runs.items():
            read = run_reads(cli_source, body, attributes)
            found[f"{command} {target}"] = (undeclared(read, reads), unread(read, reads))
    assert found == {name: ([], []) for name in found}
