import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdpulse.algebra import phase_aligned_distance, unitarity_defect
from dqdpulse.kak import (
    CanonicalParams,
    b_factor,
    b_gate,
    beta_params,
    canonical_gate,
    euler_zyz,
    local_invariants,
    synthesize_via_b,
    weyl_coordinates,
)

B_REFERENCE = np.array(
    [
        [math.cos(math.pi / 8), 0, 0, 1j * math.sin(math.pi / 8)],
        [0, math.sin(math.pi / 8), 1j * math.cos(math.pi / 8), 0],
        [0, 1j * math.cos(math.pi / 8), math.sin(math.pi / 8), 0],
        [1j * math.sin(math.pi / 8), 0, 0, math.cos(math.pi / 8)],
    ],
    dtype=complex,
)


class TestCanonicalGate:
    def test_identity(self):
        np.testing.assert_allclose(canonical_gate(CanonicalParams(0, 0, 0)), np.eye(4), atol=0)

    def test_b_class(self):
        u = canonical_gate(CanonicalParams(math.pi / 2, math.pi / 4, 0.0))
        assert phase_aligned_distance(u, B_REFERENCE) < 1e-14

    def test_pure_xx_antidiagonal(self):
        u = canonical_gate(CanonicalParams(math.pi / 2, 0.0, 0.0))
        # exp(i pi/4 XX): |cos(pi/4)| diagonal and |sin(pi/4)| anti-diagonal
        assert abs(u[0, 0]) == pytest.approx(math.cos(math.pi / 4))
        assert abs(u[0, 3]) == pytest.approx(math.sin(math.pi / 4))
        assert abs(u[1, 2]) == pytest.approx(math.sin(math.pi / 4))

    def test_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = canonical_gate(CanonicalParams(*rng.uniform(-math.pi, math.pi, 3)))
            assert unitarity_defect(u) < 1e-13

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CanonicalParams(math.nan, 0.0, 0.0)


class TestBFactors:
    def test_b1_at_zero_is_minus_identity(self):
        np.testing.assert_allclose(b_factor("B1", 0.0), -np.eye(4), atol=0)

    def test_product_is_b(self):
        # matrix-multiplication oracle: the commuting exponentials compose to
        # the reference B matrix exactly
        prod = b_factor("B1", math.pi / 4) @ b_factor("B2", math.pi / 8)
        np.testing.assert_allclose(prod, B_REFERENCE, atol=1e-12)
        np.testing.assert_allclose(b_gate(), B_REFERENCE, atol=1e-12)

    def test_factor_relation(self):
        # the exponential definitions differ in the outer anti-diagonal sign
        # (the inner-sign variant fails the B1*B2 = B identity)
        g = 0.3
        b1, b2 = b_factor("B1", g), b_factor("B2", g)
        assert b2[0, 3] == pytest.approx(-b1[0, 3])
        assert b2[1, 2] == pytest.approx(b1[1, 2])

    def test_commute(self):
        b1, b2 = b_factor("B1", 0.4), b_factor("B2", 1.1)
        assert np.abs(b1 @ b2 - b2 @ b1).max() < 1e-14


class TestBetaParams:
    def test_origin(self):
        b1, b2 = beta_params(0.0, 0.0)
        assert b1 == pytest.approx(0.0)
        assert b2 == pytest.approx(math.pi / 2)

    def test_half_pi(self):
        # cos(beta1) = 1 - 4 * (1/2) * 1 = -1
        b1, _ = beta_params(math.pi / 2, 0.0)
        assert b1 == pytest.approx(math.pi)

    def test_domain_error(self):
        # cos c2 * cos c3 < 0 with cos(beta1) still in range
        with pytest.raises(ValueError, match="radicand"):
            beta_params(1.8, 1.2)
        # large c2 breaks the arccos domain first
        with pytest.raises(ValueError, match="outside"):
            beta_params(2.0, 0.0)

    def test_dcnot_edge(self):
        # just past c2 = pi/2 at c3 = 0 the radicand is 0/0; beta1 = pi there,
        # and at beta1 = pi the construction no longer depends on beta2
        assert beta_params(math.nextafter(math.pi / 2, 4.0), 0.0) == (math.pi, 0.0)
        b1, _ = beta_params(math.pi / 2, 0.0)
        assert abs(b1 - math.pi) < 1e-7

    def test_matches_printed_formulas(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c2, c3 = np.sort(rng.uniform(0.05, math.pi / 2 - 0.05, 2))[::-1]
            x = math.sin(c2 / 2) ** 2 * math.cos(c3 / 2) ** 2
            b1 = math.acos(1 - 4 * x)
            b2 = math.asin(math.sqrt(math.cos(c2) * math.cos(c3) / (1 - 2 * x)))
            assert beta_params(c2, c3) == pytest.approx((b1, b2), abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
    def test_even_in_both_arguments(self, c2, c3):
        try:
            ref = beta_params(c2, c3)
        except ValueError:
            return
        assert beta_params(-c2, c3) == pytest.approx(ref)
        assert beta_params(c2, -c3) == pytest.approx(ref)


class TestLocalInvariants:
    def test_identity_class(self):
        g = local_invariants(np.eye(4))
        assert g == pytest.approx((1.0, 0.0, 3.0))

    def test_invariance_under_locals(self):
        rng = np.random.default_rng(7)
        u = canonical_gate(CanonicalParams(0.7, 0.4, 0.1))
        ref = np.array(local_invariants(u))
        for _ in range(10):
            ks = [euler_zyz(*rng.uniform(-math.pi, math.pi, 3)) for _ in range(4)]
            dressed = np.kron(ks[0], ks[1]) @ u @ np.kron(ks[2], ks[3])
            assert np.abs(np.array(local_invariants(dressed)) - ref).max() < 1e-9

    def test_periodicity(self):
        c = CanonicalParams(0.3, 0.9, -0.5)
        shifted = CanonicalParams(0.3 + 2 * math.pi, 0.9, -0.5)
        a = np.array(local_invariants(canonical_gate(c)))
        b = np.array(local_invariants(canonical_gate(shifted)))
        assert np.abs(a - b).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            local_invariants(np.diag([1.0, 0.5, 1.0, 1.0]))


def _dressed(u, rng):
    ks = [euler_zyz(*rng.uniform(-math.pi, math.pi, 3)) for _ in range(4)]
    return np.kron(ks[0], ks[1]) @ u @ np.kron(ks[2], ks[3])


def tetrahedron_points(count, seed):
    """Seeded points of the chamber pi - c2 >= c1 >= c2 >= c3 >= 0."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        c1, c2, c3 = rng.uniform([0.0, 0.0, 0.0], [math.pi, math.pi / 2, math.pi / 2])
        if math.pi - c2 >= c1 >= c2 >= c3:
            points.append(CanonicalParams(c1, c2, c3))
    return points


NAMED_TARGETS = {
    "identity": (0.0, 0.0, 0.0),
    "cnot": (math.pi / 2, 0.0, 0.0),
    "b": (math.pi / 2, math.pi / 4, 0.0),
    "dcnot": (math.pi / 2, math.pi / 2, 0.0),
    "swap": (math.pi / 2, math.pi / 2, math.pi / 2),
    "off_chamber": (0.3, 0.9, -0.5),
    "shifted_2pi": (0.3 + 2 * math.pi, 0.9 - 2 * math.pi, -0.5),
}


class TestWeylCoordinates:
    def test_recovers_chamber_points_under_locals(self):
        rng = np.random.default_rng(11)
        for c in tetrahedron_points(50, seed=12):
            w = weyl_coordinates(_dressed(canonical_gate(c), rng))
            assert (w.c1, w.c2, w.c3) == pytest.approx((c.c1, c.c2, c.c3), abs=1e-9)

    @pytest.mark.parametrize("name", NAMED_TARGETS)
    def test_folds_into_chamber_with_same_invariants(self, name):
        u = canonical_gate(CanonicalParams(*NAMED_TARGETS[name]))
        w = weyl_coordinates(u)
        assert math.pi - w.c2 + 1e-12 >= w.c1 >= w.c2 - 1e-12 and w.c2 + 1e-12 >= w.c3 >= 0.0
        gi = np.array(local_invariants(canonical_gate(w)))
        assert np.abs(gi - np.array(local_invariants(u))).max() < 1e-12

    def test_off_chamber_fold(self):
        w = weyl_coordinates(canonical_gate(CanonicalParams(0.3, 0.9, -0.5)))
        assert (w.c1, w.c2, w.c3) == pytest.approx((math.pi - 0.9, 0.5, 0.3), abs=1e-12)


class TestSynthesis:
    def test_tetrahedron_points(self):
        worst = max(
            synthesize_via_b(c, seed=k).residual for k, c in enumerate(tetrahedron_points(200, seed=2026))
        )
        assert worst <= 1e-10

    @pytest.mark.parametrize("name", NAMED_TARGETS)
    def test_named_points(self, name):
        res = synthesize_via_b(CanonicalParams(*NAMED_TARGETS[name]), seed=1)
        assert res.converged
        assert res.residual <= 1e-10

    def test_same_seed_same_angles(self):
        c = CanonicalParams(1.1, 0.6, 0.2)
        a, b = synthesize_via_b(c, seed=9), synthesize_via_b(c, seed=9)
        assert a.angles.tobytes() == b.angles.tobytes()
        assert a.restarts_used == b.restarts_used >= 1

    def test_middle_angles_are_beta_params(self):
        c = CanonicalParams(0.3, 0.9, -0.5)
        res = synthesize_via_b(c)
        w = weyl_coordinates(canonical_gate(c))
        b1, b2 = beta_params(w.c2, w.c3)
        assert res.beta == (b1, b2)
        np.testing.assert_array_equal(res.angles[6:12], [0.0, -w.c1, 0.0, -b2, -b1, -b2])

    def test_twenty_targets_in_under_a_second(self):
        start = time.perf_counter()
        for k, c in enumerate(tetrahedron_points(20, seed=5)):
            synthesize_via_b(c, restarts=20, seed=1000 + k)
        assert time.perf_counter() - start < 1.0

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            synthesize_via_b(CanonicalParams(0.5, 0.2, 0.1), restarts=0)

    def test_b_itself_trivial(self):
        res = synthesize_via_b(CanonicalParams(math.pi / 2, math.pi / 4, 0.0), restarts=5, seed=3)
        assert res.converged
        assert res.residual < 1e-8

    def test_double_cnot_class(self):
        res = synthesize_via_b(CanonicalParams(math.pi / 2, math.pi / 2, 0.0), restarts=5, seed=4)
        assert res.residual < 1e-6
        # cross-check by local invariants of the synthesized circuit
        from dqdpulse.kak import _sandwich

        u = _sandwich(res.angles, b_gate())
        target = canonical_gate(CanonicalParams(math.pi / 2, math.pi / 2, 0.0))
        gi_u = np.array(local_invariants(u))
        gi_t = np.array(local_invariants(target))
        assert np.abs(gi_u - gi_t).max() < 1e-8

    def test_circuit_description(self):
        res = synthesize_via_b(CanonicalParams(0.6, 0.3, 0.1), restarts=5, seed=5)
        circuit = res.circuit()
        assert sum(1 for g in circuit if g["gate"] == "B") == 2
        assert sum(1 for g in circuit if g["gate"] == "local") == 6
        assert res.beta is not None


class TestCircuitJson:
    def test_serializes(self):
        import json

        from dqdpulse.kak import synthesis_to_json

        res = synthesize_via_b(CanonicalParams(0.5, 0.2, 0.1), restarts=3, seed=11)
        doc = json.loads(synthesis_to_json(res))
        assert doc["converged"]
        assert len(doc["gates"]) == 8
        assert doc["gates"][2]["gate"] == "B"
