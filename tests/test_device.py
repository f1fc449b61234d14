import json
import math

import numpy as np
import pytest

from dqdpulse.algebra import TWO_PI, hermiticity_defect
from dqdpulse.device import (
    DEFAULT_DEVICE,
    SCHEMES,
    DeviceParams,
    frame_hamiltonian,
    lab_hamiltonian,
    lab_hamiltonian_of_schedule,
    load_device_params,
    save_device_params,
)
from dqdpulse.experiments import build_schedule
from dqdpulse.pulses import (
    apply_detuning_error,
    apply_rabi_error,
    bgate_rectangular,
    detuning_perturbation,
    fsim_geometric,
    fsim_rectangular,
)

THETA, XI = math.pi / 4, math.pi / 2


def all_schedules():
    return [
        fsim_rectangular(THETA, XI, 45e-9, 2),
        fsim_geometric(THETA, XI, 158e-9),
        bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez),
    ]


class TestDeviceParams:
    def test_experimental_defaults(self):
        assert DEFAULT_DEVICE.e_z / TWO_PI == pytest.approx(20.64e9)
        assert DEFAULT_DEVICE.delta_ez / TWO_PI == pytest.approx(214e6)
        assert DEFAULT_DEVICE.j_max / TWO_PI == pytest.approx(19.7e6)
        assert DEFAULT_DEVICE.b_y_l0 / TWO_PI == pytest.approx(5e6)
        assert DEFAULT_DEVICE.b_y_r0 / TWO_PI == pytest.approx(55e6)
        assert DEFAULT_DEVICE.t2_q1 == 120e-6
        assert DEFAULT_DEVICE.t2_q2 == 61e-6
        assert DEFAULT_DEVICE.delta_ez < DEFAULT_DEVICE.e_z

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DeviceParams(e_z=-1.0)

    @pytest.mark.parametrize("value", [0.0, math.nan])
    @pytest.mark.parametrize("name", ["delta_ez", "j_max"])
    def test_rejects_zero_divisors(self, name, value):
        # gate times divide by delta_Ez (carrier cap) and J_max (exchange cap)
        with pytest.raises(ValueError, match=f"{name} must be"):
            DeviceParams(**{name: value})

    @pytest.mark.parametrize("name", ["e_z", "delta_ez", "j_max", "b_y_l0", "b_y_r0", "t2_q1", "t2_q2"])
    def test_rejects_infinite(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DeviceParams(**{name: math.inf})

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "device.json"
        save_device_params(DEFAULT_DEVICE, path)
        doc = json.loads(path.read_text())
        assert doc["e_z_hz"] == pytest.approx(20.64e9)
        assert doc["t2_q1_s"] == pytest.approx(120e-6)
        loaded = load_device_params(path)
        assert loaded == DEFAULT_DEVICE

    def test_json_applies_two_pi(self, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps({"e_z_hz": 1.0}))
        assert load_device_params(path).e_z == pytest.approx(TWO_PI)

    @pytest.mark.parametrize("content", [None, "[1.0]", "{"], ids=["missing", "list", "truncated"])
    def test_unreadable_json_names_the_path(self, content, tmp_path):
        path = tmp_path / "device.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ValueError, match="device file .*device.json"):
            load_device_params(path)

    def test_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps({"ez_hz": 1.0}))
        with pytest.raises(ValueError, match="unknown"):
            load_device_params(path)


class TestLabHamiltonian:
    def test_drives_off_diagonal(self):
        h = lab_hamiltonian(2.0, 0.5, 0.0)
        np.testing.assert_allclose(h, np.diag([2.0, -0.25, 0.25, -2.0]), atol=0)

    def test_hermitian_for_any_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = lab_hamiltonian(*rng.normal(size=5))
            assert hermiticity_defect(h) < 1e-15

    def test_exchange_entry(self):
        j = TWO_PI * 19.7e6
        h = lab_hamiltonian(DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez, j)
        assert h[1, 2].real == pytest.approx(math.pi * 19.7e6)

    def test_exchange_also_on_diagonal(self):
        h = lab_hamiltonian(1.0, 0.4, 0.2)
        assert h[1, 1] == pytest.approx(-(0.4 + 0.2) / 2)
        assert h[2, 2] == pytest.approx((0.4 - 0.2) / 2)


class TestFrameIdentity:
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_transform_matches_constructor(self, name):
        # U_frame^dag H_lab U_frame - i U_frame^dag dU/dt equals the rwa=False
        # frame Hamiltonian, with no identity shift (relative scale)
        rng = np.random.default_rng(17)
        spec = SCHEMES[name]
        schedule = build_schedule(name, n_reps=2)
        frame = spec.frame(schedule)
        h_of_t = frame_hamiltonian(schedule, rwa=False)
        scale = max(
            np.abs(h_of_t(t)).max() for t in rng.uniform(0, schedule.duration, 5)
        )
        for t in rng.uniform(0.0, schedule.duration, 100):
            lhs = frame.transform(lab_hamiltonian_of_schedule(schedule, t), t)
            defect = np.abs(lhs - h_of_t(t)).max() / scale
            assert defect < 1e-10

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_rwa_keeps_the_static_terms(self, name):
        # RWA drops terms and changes none: the nu = 0 part (the time average)
        # of the rwa=False terms equals that of the rwa=True terms, and every
        # rwa=True term is an rwa=False one
        schedule = apply_rabi_error(apply_detuning_error(build_schedule(name, n_reps=2), 0.03), 0.05)
        full, rwa = (frame_hamiltonian(schedule, flag).terms for flag in (False, True))

        def by_key(terms):
            return {(nu, sc): terms.mats[:, k] for k, (nu, sc) in enumerate(zip(terms.nus, terms.scaled))}

        kept, every = by_key(rwa), by_key(full)
        assert {key for key in kept if key[0] == 0.0} == {key for key in every if key[0] == 0.0}
        for key, mats in kept.items():
            np.testing.assert_array_equal(mats, every[key])
        assert set(every) - set(kept) and all(nu != 0.0 for nu, _ in set(every) - set(kept))

    def test_bgate_rwa_frame_is_the_static_part(self):
        # every kept B-gate term is static, so the RWA frame is the nu = 0
        # part (the time average) of the pre-RWA frame; its drive entry is
        # -i B e^{-i psi_1}
        schedule = build_schedule("bgate")
        full = frame_hamiltonian(schedule, rwa=False)
        static = full.terms.nus == 0.0
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.0, schedule.duration, 20):
            s = full.terms.segment_index(t)
            level = schedule.segments[s].level
            average = sum(m * (level if sc else 1.0) for m, sc in zip(full.terms.mats[s, static], full.terms.scaled[static]))
            h = frame_hamiltonian(schedule, rwa=True)(t)
            np.testing.assert_allclose(h, average, rtol=0.0, atol=1e-15 * np.abs(h).max())
            seg = schedule.segments[s]
            assert h[0, 1] == pytest.approx(-1j * seg.drive_amp * np.exp(-1j * seg.drive_phase), rel=1e-15)

    @pytest.mark.parametrize("rwa", [True, False])
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_detuning_error_adds_its_perturbation(self, name, rwa):
        schedule = build_schedule(name, n_reps=2)
        ts = np.linspace(0.0, schedule.duration, 97)
        pristine = frame_hamiltonian(schedule, rwa).matrices(ts)
        detuned = frame_hamiltonian(apply_detuning_error(schedule, 0.03), rwa).matrices(ts)
        c = schedule.controls
        expected = np.broadcast_to(detuning_perturbation(c.e_z, c.delta_ez, 0.03), pristine.shape)
        np.testing.assert_allclose(detuned - pristine, expected, rtol=0.0, atol=1e-12 * np.abs(pristine).max())

    def test_constructors_hermitian(self):
        rng = np.random.default_rng(4)
        for schedule in all_schedules():
            h_of_t = frame_hamiltonian(schedule, rwa=False)
            for t in rng.uniform(0.0, schedule.duration, 25):
                assert hermiticity_defect(h_of_t(t)) < 1e-9 * np.abs(h_of_t(t)).max()

    def test_spectrum_preserved_by_instantaneous_frame(self):
        # diagonal frame change + known shift leaves the spectrum intact
        schedule = fsim_rectangular(THETA, XI, 45e-9, 1)
        for t in (3e-9, 17e-9, 40e-9):
            h_lab = lab_hamiltonian_of_schedule(schedule, t)
            frame = SCHEMES["fsim_rect"].frame(schedule)
            u = frame.unitary(t)
            transformed = u.conj().T @ h_lab @ u
            np.testing.assert_allclose(
                np.linalg.eigvalsh(transformed), np.linalg.eigvalsh(h_lab), rtol=1e-12
            )


class TestFsimFrame:
    def test_rwa_coupling_is_half_envelope(self):
        schedule = fsim_rectangular(THETA, XI, 45e-9, 1)
        t = 0.4 * 45e-9
        h = frame_hamiltonian(schedule, rwa=True)(t)
        j = float(schedule.envelope(np.array([t]))[0])
        assert h[1, 2] == pytest.approx(j / 2)

    def test_rwa_residue_only_in_coupling(self):
        schedule = fsim_rectangular(THETA, XI, 45e-9, 1)
        for t in (1e-9, 11e-9, 30e-9):
            diff = frame_hamiltonian(schedule, rwa=False)(t) - frame_hamiltonian(schedule, rwa=True)(t)
            j = float(schedule.envelope(np.array([t]))[0])
            w = schedule.controls.delta_ez
            assert diff[1, 2] == pytest.approx(j * np.exp(-2j * w * t) / 2)
            diff[1, 2] = diff[2, 1] = 0.0
            assert np.abs(diff).max() == 0.0

    def test_counter_rotating_sign_flip(self):
        # at 2wt = pi the residue flips the sign of the coupling contribution
        schedule = fsim_rectangular(THETA, XI, 45e-9, 1)
        w = schedule.controls.delta_ez
        t = math.pi / (2 * w)
        h = frame_hamiltonian(schedule, rwa=False)(t)
        j = float(schedule.envelope(np.array([t]))[0])
        assert h[1, 2] == pytest.approx(j * (1 - 1) / 2, abs=1e-6 * abs(j))


class TestBgateFrame:
    def test_drive_off_pure_exchange(self):
        schedule = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        t = 10e-9
        h = frame_hamiltonian(schedule, rwa=True)(t)
        j = float(schedule.envelope(np.array([t]))[0])
        drive_free = h.copy()
        drive_free[0, 1] = drive_free[1, 0] = drive_free[2, 3] = drive_free[3, 2] = 0.0
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = j / 2
        np.testing.assert_allclose(drive_free, expected, atol=0)

    def test_drive_phase_pi_half_gives_real_entry(self):
        # -i B e^{-i pi/2} = -B
        schedule = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        t = 10e-9  # inside the B1 segment, psi_1 = pi/2
        h = frame_hamiltonian(schedule, rwa=True)(t)
        amp = schedule.segments[0].drive_amp
        assert h[0, 1] == pytest.approx(-amp)
        assert abs(h[0, 1].imag) < 1e-12 * abs(amp)

    def test_frame_frequencies_zero_the_diagonal(self):
        # omega1 + omega2 = 2 E_z and omega1 - omega2 = -delta_Ez
        schedule = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        seg = schedule.segments[0]
        omega2 = seg.drive_omega
        omega1 = 2 * schedule.controls.e_z - omega2
        assert omega1 - omega2 == pytest.approx(-schedule.controls.delta_ez)
        for t in (5e-9, 50e-9):
            h = frame_hamiltonian(schedule, rwa=False)(t)
            assert np.abs(np.diag(h)).max() == 0.0


class TestGeometricFrame:
    def test_coupling_phase(self):
        schedule = fsim_geometric(THETA, XI, 158e-9)
        t = 5e-9  # segment 1, psi = pi/2 -> coupling i j / 2
        h = frame_hamiltonian(schedule, rwa=True)(t)
        j = float(schedule.envelope(np.array([t]))[0])
        assert h[1, 2] == pytest.approx(1j * j / 2)

    def test_diagonal_at_carrier_zero(self):
        schedule = fsim_geometric(THETA, XI, 158e-9)
        # psi = pi/2 in segment 1, so the carrier cosine vanishes at t = 0
        h = frame_hamiltonian(schedule, rwa=True)(0.0)
        e_z = schedule.controls.e_z
        np.testing.assert_allclose(
            np.diag(h).real, [e_z, 0.0, 0.0, -e_z], atol=1e-6 * e_z
        )

    def test_block_decoupling(self):
        schedule = fsim_geometric(THETA, XI, 158e-9)
        for t in np.linspace(1e-9, 157e-9, 9):
            h = frame_hamiltonian(schedule, rwa=False)(float(t))
            for i in (0, 3):
                for j in (1, 2):
                    assert h[i, j] == 0.0
