import json
import math
from dataclasses import replace

import numpy as np
import pytest

import dqdpulse.cli as cli
import dqdpulse.experiments as xp
from dqdpulse.algebra import TWO_PI
from dqdpulse.cli import main
from dqdpulse.config import ExperimentConfig, config_document, config_from_mapping
from dqdpulse.device import SCHEMES, frame_hamiltonian
from dqdpulse.dynamics import propagate_unitary, required_steps
from dqdpulse.experiments import build_schedule


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.scheme == "fsim_rect"
        assert cfg.grid_n == 40

    def test_quick_downscales_grid(self):
        cfg = ExperimentConfig(quick=True)
        assert cfg.grid_n == 10

    @pytest.mark.parametrize(
        "flags, doc, grid_n",
        [(["--quick", "--grid-n", "40"], None, 40), (["--quick"], None, 10), (["--quick"], {"grid_n": 40}, 40)],
    )
    def test_quick_grid_only_when_no_grid_given(self, flags, doc, grid_n, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_synthesize", seen.append)
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            flags = [*flags, "--config", str(tmp_path / "cfg.json")]
        main(["synthesize", *flags])
        assert seen[0].quick and seen[0].grid_n == grid_n

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_mapping({"schem": "fsim_rect"})

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
        rc = main(["simulate", "--grid-n", "2", "--steps-per-period", "0", "--outdir", str(tmp_path / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dqdpulse: error: ") and "below the floor" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "argv, workers_env",
        [
            (["simulate", "--grid-n", "2", "--trajectory", "--samples", "0"], None),
            (["simulate", "--grid-n", "2", "--trajectory", "--samples", "-3"], None),
            (["synthesize", "--samples", "0"], None),
            (["synthesize", "--samples", "1"], None),
            (["sweep", "detuning", "--quick", "--workers", "-2"], None),
            (["sweep", "detuning", "--quick", "--n-values", "0"], None),
            (["sweep", "detuning", "--quick", "--n-values", "1", "-1"], None),
            (["reproduce", "fig4c"], "0"),
            (["reproduce", "fig4c"], "two"),
            (["sweep", "phase", "--quick"], "-1"),
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
            (["sweep", "eta", "--grid-n", "2", "--quick"], "--grid-n, --quick"),
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
            (["sweep", "eta"], {"grid_n": 2, "quick": True}, "--grid-n, --quick"),
            (["sweep", "detuning", "--quick"], {"scheme": "fsim_rect"}, "--scheme"),
            (["sweep", "phase", "--rabi-deltas", "0.05"], {"workers": 1, "theta": 0.5}, "--rabi-deltas, --theta"),
            (
                ["reproduce", "fig1a"],
                {"scheme": "bgate", "n_reps": 3, "steps_per_period": 400},
                "--n-reps, --scheme, --steps-per-period",
            ),
            (["reproduce", "table1"], {"quick": True, "steps_per_period": 400}, "--steps-per-period"),
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
                "--grid-n", "4", "--samples", "31", "--outdir", str(out),
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
                "sweep", "detuning", "--detuning-eps", "0", "0.05", "--n-values", "1", "--grid-n", "2",
                "--quick", "--workers", "1", "--outdir", str(tmp_path),
            ]
        )
        assert rc == 1 and len(runs) == 2
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1 and "[FAIL] unitarity_defect" in out

    def test_simulate_logs_pristine_constraints_once(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--scheme", "fsim_rect", "--rwa", "--no-decoherence", "--rabi-deltas", "0", "0.05",
                "--detuning-eps", "0", "0.01", "--grid-n", "2", "--outdir", str(tmp_path),
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
    BGATE = ["simulate", "--scheme", "bgate", "--no-decoherence", "--grid-n", "2", "--steps-per-period", "50"]

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
        rc = main(["simulate", "--scheme", "fsim_rect", "--trajectory", "--grid-n", "2", "--samples", "21",
                   "--outdir", str(tmp_path)])
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

    def test_bgate_has_no_repetitions(self, tmp_path):
        assert main([*self.BGATE, "--n-reps", "2", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "fidelity.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[:2] == ["bgate", "1"]


class TestDeterminismAcrossWorkers:
    def test_detuning_sweep_bytes_identical(self, tmp_path):
        args = [
            "sweep", "detuning", "--detuning-eps", "-0.05", "0.05",
            "--n-values", "1", "--grid-n", "6", "--quick",
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
            assert main(["reproduce", "fig6", "--grid-n", "2", "--workers", workers, "--outdir", str(out)]) == 0
            runs.append(((out / "fig6.csv").read_bytes(), capsys.readouterr().out.splitlines()))
        assert runs[0] == runs[1]
        # 44 runs, plus the constraints of the geometric (3) and rectangular (2) schedules
        assert len(runs[0][1]) == 49


class TestReproduceTable1:
    def test_quick_emits_twenty_rows(self, tmp_path):
        out = tmp_path / "t1"
        rc = main(["reproduce", "table1", "--quick", "--outdir", str(out), "--workers", "2"])
        assert rc == 0
        lines = (out / "table1.csv").read_text().strip().splitlines()
        assert len(lines) == 21  # header + 2 schemes x N = 1..10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"][0]["rows"] == 20
