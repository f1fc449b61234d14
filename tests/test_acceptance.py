"""Acceptance suite: the quantitative exit criteria of the artifact.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live).  Tolerances are pinned here, not configurable.  Reference
fidelities come from the benchmark table; everything else is checked
against independently computed oracles (quadrature, closed forms,
finite differences, exhaustive sampling).
"""

import math

import numpy as np
import pytest

from dqdpulse.algebra import gate_infidelity, phase_aligned_distance
from dqdpulse.device import DEFAULT_DEVICE, TimeDependentHamiltonian, frame_hamiltonian
from dqdpulse.dynamics import lindblad_superoperator, propagate_unitary
from dqdpulse.fidelity import analytic_rabi_fidelity, average_fidelity, build_grid
from dqdpulse.kak import (
    CanonicalParams,
    b_factor,
    b_gate,
    beta_params,
    canonical_gate,
    euler_zyz,
    local_invariants,
    synthesize_via_b,
)
from dqdpulse.pulses import (
    bgate_rectangular,
    fsim_geometric,
    fsim_polynomial,
    fsim_rectangular,
    optimize_eta,
)
from dqdpulse import experiments as xp
from dqdpulse.trajectories import (
    AzimuthTrajectory,
    TimeFunction,
    parameterized_hamiltonian,
    parameterized_propagator,
)

THETA, XI = math.pi / 4, math.pi / 2

TABLE1_RECT = {1: 0.9856, 2: 0.9963, 3: 0.9982}
TABLE1_POLY = {1: 0.9898, 3: 0.9985, 10: 0.9995}
TABLE1_TOL = 0.15e-2
TABLE1_TOL_QUICK = 0.30e-2


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def decohered_fidelity(scheme: str, n_reps: int, grid_n: int) -> float:
    rep = xp.table1_entry(scheme, n_reps, quick=(grid_n == 10))
    return rep.fidelity


class TestCriterion1TableOneRectangular:
    @pytest.mark.parametrize("n_reps", [1, 2, 3])
    def test_full_grid(self, n_reps):
        f = decohered_fidelity("fsim_rect", n_reps, 40)
        ref = TABLE1_RECT[n_reps]
        check(
            f"criterion 1 (rect N={n_reps}, n=40)",
            abs(f - ref) <= TABLE1_TOL,
            f"F = {f:.6f} vs {ref:.4f} +/- {TABLE1_TOL:.4f}",
        )

    @pytest.mark.parametrize("n_reps", [1, 2, 3])
    def test_quick_grid(self, n_reps):
        f = decohered_fidelity("fsim_rect", n_reps, 10)
        ref = TABLE1_RECT[n_reps]
        check(
            f"criterion 1 (rect N={n_reps}, quick n=10)",
            abs(f - ref) <= TABLE1_TOL_QUICK,
            f"F = {f:.6f} vs {ref:.4f} +/- {TABLE1_TOL_QUICK:.4f}",
        )


class TestCriterion2TableOneOptimal:
    @pytest.mark.parametrize("n_reps", [1, 3, 10])
    def test_full_grid(self, n_reps):
        f = decohered_fidelity("fsim_poly", n_reps, 40)
        ref = TABLE1_POLY[n_reps]
        check(
            f"criterion 2 (optimal N={n_reps}, n=40)",
            abs(f - ref) <= TABLE1_TOL,
            f"F = {f:.6f} vs {ref:.4f} +/- {TABLE1_TOL:.4f}",
        )


class TestCriterion3AnalyticRabiLaw:
    def test_sweep_matches_law(self):
        deltas = np.linspace(-0.1, 0.1, 11)
        rows = xp.rabi_sweep(deltas, grid_n=40)
        dev = max(abs(r["fidelity_numeric"] - r["fidelity_analytic"]) for r in rows)
        check(
            "criterion 3 (Delta sweep vs closed form)",
            dev <= 5e-3,
            f"max |F_num - F_law| = {dev:.2e} <= 5e-3",
        )
        # the closed-form law stays above 99.7% at the range edges; the
        # faithful simulation (which keeps the perturbation's middle-block
        # phase) sits ~1.2e-3 below it, inside the 5e-3 band
        law_edge = min(analytic_rabi_fidelity(0.1), analytic_rabi_fidelity(-0.1))
        check(
            "criterion 3 (law at |Delta| = 0.1)",
            law_edge > 0.997,
            f"F_law(+/-0.1) = {law_edge:.6f} > 0.997",
        )
        num_edge = min(rows[0]["fidelity_numeric"], rows[-1]["fidelity_numeric"])
        check(
            "criterion 3 (numeric floor at |Delta| = 0.1)",
            num_edge > 0.9955,
            f"F_num(+/-0.1) = {num_edge:.6f} > 0.9955",
        )


def _trig_fn(rng, amplitude, zero_at_origin=False):
    a = rng.normal(0.0, amplitude, 2)
    b = rng.normal(0.0, amplitude, 2)
    w = rng.uniform(0.3, 1.2, 2)
    off = -float(np.sum(b)) if zero_at_origin else 0.0

    def val(t):
        return off + sum(ai * np.sin(wi * t) + bi * np.cos(wi * t) for ai, bi, wi in zip(a, b, w))

    def der(t):
        return sum(ai * wi * np.cos(wi * t) - bi * wi * np.sin(wi * t) for ai, bi, wi in zip(a, b, w))

    return TimeFunction(val, der)


def _random_smooth_trajectory(seed, amplitude=0.35):
    rng = np.random.default_rng(seed)
    return AzimuthTrajectory(
        gamma1=_trig_fn(rng, amplitude, True),
        theta1=_trig_fn(rng, amplitude),
        phi1=_trig_fn(rng, amplitude),
        gamma2=_trig_fn(rng, amplitude, True),
        theta2=_trig_fn(rng, amplitude),
        phi2=_trig_fn(rng, amplitude),
        vphi2=_trig_fn(rng, amplitude),
        vphi3=_trig_fn(rng, amplitude),
        vphi4=_trig_fn(rng, amplitude),
    )


class TestCriterion4InverseEngineeringOracle:
    def test_duality_on_random_trajectories(self):
        worst = 0.0
        for seed in range(50):
            traj = _random_smooth_trajectory(seed)
            closed = parameterized_propagator(traj, 1.0)
            res = propagate_unitary(
                TimeDependentHamiltonian(batch=lambda ts: parameterized_hamiltonian(traj, ts), max_frequency_hz=0.0),
                1.0,
                steps=10_000,
            )
            assert res.rule == "midpoint"
            worst = max(worst, float(np.linalg.norm(res.final - closed)))
        check(
            "criterion 4 (propagator-generator duality, 50 trajectories)",
            worst <= 1e-8,
            f"worst Frobenius distance = {worst:.2e} <= 1e-8",
        )


class TestCriterion5PulseConstraints:
    def test_fsim_grid(self):
        thetas = np.linspace(-1.35, 1.35, 5)
        xis = np.linspace(-math.pi, math.pi, 5)
        worst = 0.0
        for theta in thetas:
            for xi in xis:
                for build in (
                    lambda: fsim_rectangular(theta, xi, 45e-9, 2),
                    lambda: fsim_polynomial(theta, xi, 50e-9, 2) if theta != 0.0 else None,
                    lambda: fsim_geometric(theta, xi, 158e-9),
                ):
                    sched = build()
                    if sched is None:
                        continue
                    worst = max(worst, max(sched.check_constraints().values()))
                    if sched.scheme == "fsim_geometric":
                        worst = max(worst, abs(sched.integrate_exchange() + xi))
        check(
            "criterion 5 (fSim defining integrals, 5x5 grid)",
            worst <= 1e-8,
            f"worst residual = {worst:.2e} <= 1e-8",
        )

    def test_bgate_areas(self):
        sched = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        res = sched.check_constraints()
        worst = max(res.values())  # legs encode Gamma = pi/4 and pi/8
        check(
            "criterion 5 (B-gate areas, Gamma in {pi/4, pi/8})",
            worst <= 1e-8,
            f"worst residual = {worst:.2e} <= 1e-8",
        )


class TestCriterion6EtaOptimum:
    def test_grid_minimum(self):
        eta_star, _ = optimize_eta(THETA, XI, 50e-9, 1, np.linspace(-1.0, 1.0, 201))
        check(
            "criterion 6 (q_s minimum over 201-point eta grid)",
            abs(eta_star - (-1.0 / 3.0)) <= 0.01,
            f"eta* = {eta_star:.4f} within -1/3 +/- 0.01",
        )


@pytest.fixture(scope="module")
def bgate_run():
    schedule = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
    h = frame_hamiltonian(schedule, rwa=False)
    switch = schedule.meta["switch"]
    full = propagate_unitary(
        h, schedule.duration, breakpoints=schedule.breakpoints, steps_per_period=100
    )
    seg1 = propagate_unitary(
        h, switch, breakpoints=schedule.breakpoints, steps_per_period=100
    )
    return full.final, seg1.final


class TestCriterion7BGateEndToEnd:

    def test_final_state(self, bgate_run):
        full, _ = bgate_run
        psi0 = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0)
        infid = 1.0 - abs(np.vdot(b_gate() @ psi0, full @ psi0)) ** 2
        check(
            "criterion 7 (pre-RWA final state vs B)",
            infid <= 1e-2,
            f"state infidelity = {infid:.2e} <= 1e-2",
        )

    def test_segment_propagators(self, bgate_run):
        full, seg1 = bgate_run
        seg2 = full @ seg1.conj().T
        inf1 = gate_infidelity(seg1, b_factor("B1", math.pi / 4))
        inf2 = gate_infidelity(seg2, b_factor("B2", math.pi / 8))
        check(
            "criterion 7 (segment propagators vs B1, B2)",
            max(inf1, inf2) <= 1e-2,
            f"gate infidelities (up to phase) = {inf1:.2e}, {inf2:.2e} <= 1e-2",
        )


class TestCriterion8GeometricScheme:
    def test_parallel_transport(self):
        schedule = fsim_geometric(THETA, XI, 158e-9)
        defect = xp.parallel_transport_defect(schedule, sample_count=1000)
        check(
            "criterion 8 (parallel transport, 1000 samples)",
            defect <= 1e-9,
            f"max |<b|H_c|b>| T = {defect:.2e} <= 1e-9 (dimensionless)",
        )

    def test_subspace_propagator(self):
        schedule = fsim_geometric(THETA, XI, 158e-9)
        h = frame_hamiltonian(schedule, rwa=True)
        res = propagate_unitary(
            h, schedule.duration, breakpoints=schedule.breakpoints, steps_per_period=400
        )
        block = res.final[1:3, 1:3]
        ref = np.array(
            [[math.cos(THETA), -1j * math.sin(THETA)], [-1j * math.sin(THETA), math.cos(THETA)]]
        )
        dist = phase_aligned_distance(block, ref)
        check(
            "criterion 8 (subspace propagator, RWA frame)",
            dist <= 1e-6,
            f"phase-aligned distance = {dist:.2e} <= 1e-6",
        )

    def test_robustness_ordering(self):
        rows = xp.robustness_comparison([0.1, -0.1], [0.1, -0.1], grid_n=40)
        by_key = {(r["scheme"], r["error_kind"], r["value"]): r["fidelity"] for r in rows}
        ok = True
        details = []
        for kind in ("rabi", "detuning"):
            for value in (0.1, -0.1):
                geo = by_key[("geometric", kind, value)]
                dyn = by_key[("dynamic", kind, value)]
                ok &= geo >= dyn
                details.append(f"{kind} {value:+.1f}: {geo:.4f} vs {dyn:.4f}")
        check(
            "criterion 8 (geometric >= dynamic at |error| = 0.1)",
            ok,
            "; ".join(details),
        )


class TestCriterion9StructuralInvariants:
    def test_suite(self):
        # unitarity of a pre-RWA propagation
        schedule = fsim_rectangular(THETA, XI, 45e-9, 3)
        res_u = propagate_unitary(
            frame_hamiltonian(schedule, rwa=False),
            schedule.duration,
            breakpoints=schedule.breakpoints,
        )
        # open-system trace and positivity on random states
        rng = np.random.default_rng(99)
        s_open = lindblad_superoperator(
            frame_hamiltonian(schedule, rwa=False),
            DEFAULT_DEVICE,
            schedule.duration,
            breakpoints=schedule.breakpoints,
        ).final
        trace_defect = 0.0
        min_eig = 0.0
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho0 = a @ a.conj().T
            rho0 /= np.trace(rho0)
            rho_t = (s_open @ rho0.ravel(order="F")).reshape(4, 4, order="F")
            trace_defect = max(trace_defect, abs(np.trace(rho_t) - 1.0))
            min_eig = min(min_eig, float(np.linalg.eigvalsh((rho_t + rho_t.conj().T) / 2).min()))
        # B factorization
        b_defect = float(np.abs(b_factor("B1", math.pi / 4) @ b_factor("B2", math.pi / 8) - b_gate()).max())
        # local-invariant invariance
        u = canonical_gate(CanonicalParams(0.8, 0.5, 0.2))
        gi_ref = np.array(local_invariants(u))
        inv_defect = 0.0
        for _ in range(20):
            ks = [euler_zyz(*rng.uniform(-math.pi, math.pi, 3)) for _ in range(4)]
            dressed = np.kron(ks[0], ks[1]) @ u @ np.kron(ks[2], ks[3])
            inv_defect = max(inv_defect, float(np.abs(np.array(local_invariants(dressed)) - gi_ref).max()))

        ok = (
            res_u.unitarity_defect <= 1e-9
            and trace_defect <= 1e-8
            and min_eig >= -1e-9
            and b_defect <= 1e-12
            and inv_defect <= 1e-9
        )
        check(
            "criterion 9 (structural invariants)",
            ok,
            f"unitarity {res_u.unitarity_defect:.1e}; trace {trace_defect:.1e}; "
            f"min eig {min_eig:.1e}; B factorization {b_defect:.1e}; invariants {inv_defect:.1e}",
        )


class TestCriterion10TwoBGateSynthesis:
    def test_twenty_random_targets(self):
        rng = np.random.default_rng(2718)
        worst = 0.0
        for k in range(20):
            c = np.sort(rng.uniform(0.0, math.pi / 2.0, 3))[::-1]
            res = synthesize_via_b(CanonicalParams(*c), restarts=20, seed=1000 + k)
            worst = max(worst, res.residual)
        check(
            "criterion 10 (two-B synthesis, 20 random targets)",
            worst <= 1e-6,
            f"worst residual = {worst:.2e} <= 1e-6",
        )

    def test_beta_spot_checks(self):
        b1_a, b2_a = beta_params(0.0, 0.0)
        b1_b, _ = beta_params(math.pi / 2, 0.0)
        # beta1 = pi sits at the arccos endpoint, where double precision
        # limits the attainable accuracy to ~sqrt(eps) ~ 3e-8
        ok = (
            abs(b1_a - 0.0) < 1e-12
            and abs(b2_a - math.pi / 2) < 1e-12
            and abs(b1_b - math.pi) < 1e-7
        )
        check(
            "criterion 10 (interaction-angle spot checks)",
            ok,
            f"beta1(0,0) = {b1_a:.2e}, beta2(0,0) = {b2_a:.6f}, beta1(pi/2,0) = {b1_b:.6f}",
        )


@pytest.fixture(scope="module")
def channel_n1():
    schedule = xp.build_schedule("fsim_poly", duration=50e-9, n_reps=1)
    return xp.gate_channel(schedule, rwa=False, decoherence=True).final, xp.fsim_target(schedule)


class TestCriterion11InitialPhaseSweeps:

    def test_phi3_flat(self, channel_n1):
        channel, target = channel_n1
        values = [0.0, 0.9, 2.2, math.pi]
        fids = [
            average_fidelity(channel, target, build_grid(40, (0.0, 0.0, v))).fidelity
            for v in values
        ]
        spread = max(fids) - min(fids)
        check(
            "criterion 11 (phi3 sweep flat)",
            spread <= 1e-4,
            f"spread = {spread:.2e} <= 1e-4",
        )

    def test_phi1_periodicity(self, channel_n1):
        channel, target = channel_n1
        worst = 0.0
        for phi1 in (0.4, 1.1):
            f_a = average_fidelity(channel, target, build_grid(40, (phi1, 0.0, 0.0))).fidelity
            f_b = average_fidelity(
                channel, target, build_grid(40, (phi1 + math.pi, 0.0, 0.0))
            ).fidelity
            worst = max(worst, abs(f_a - f_b))
        check(
            "criterion 11 (F(phi1) = F(phi1 + pi))",
            worst <= 1e-4,
            f"max |difference| = {worst:.2e} <= 1e-4",
        )

    def test_large_n_convergence(self):
        schedule = xp.build_schedule("fsim_poly", duration=50e-9, n_reps=10)
        channel = xp.gate_channel(schedule, rwa=False, decoherence=True).final
        target = xp.fsim_target(schedule)
        configs = [(0.0, 0.0, 0.0), (math.pi / 5, 0.0, 0.0), (0.0, math.pi / 3, 0.0), (math.pi / 4, 0.0, 0.0)]
        fids = [
            average_fidelity(channel, target, build_grid(40, phases)).fidelity
            for phases in configs
        ]
        dev = max(abs(f - 0.9995) for f in fids)
        check(
            "criterion 11 (large-N convergence to 99.95%)",
            dev <= 0.05e-2,
            f"max |F - 0.9995| = {dev:.2e} <= 5e-4 (F = {[f'{f:.5f}' for f in fids]})",
        )
