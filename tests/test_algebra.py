import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dqdpulse.algebra import (
    Quaternion,
    azimuths_to_quaternions,
    batched_expm,
    complexify,
    gate_infidelity,
    hermiticity_defect,
    isoclinic_left,
    isoclinic_right,
    mat_exp_skew,
    phase_aligned_distance,
    realify,
    unitarity_defect,
)

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def random_hermitian(rng, scale=1.0):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * (a + a.conj().T) / 2.0


def exp_skew_real(hs, dt):
    """exp(-i H_k dt_k) through the real path: realified generator, real exponential."""
    return complexify(batched_expm(realify(-1j * hs * np.reshape(dt, (-1, 1, 1)))))


class TestMatExp:
    def test_zero_generator_is_identity(self):
        np.testing.assert_allclose(mat_exp_skew(np.zeros((4, 4)), 1.0), np.eye(4), atol=1e-15)

    def test_diagonal_generator(self):
        d = np.array([0.3, -1.2, 2.0, 0.7])
        u = mat_exp_skew(np.diag(d), 0.8)
        np.testing.assert_allclose(u, np.diag(np.exp(-1j * d * 0.8)), atol=1e-14)

    def test_matches_expm_oracle(self):
        # independent oracle: scipy's Pade-based expm of -i H dt
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_hermitian(rng)
            dt = rng.uniform(0.1, 2.0)
            np.testing.assert_allclose(
                mat_exp_skew(h, dt), expm(-1j * h * dt), atol=1e-11
            )

    def test_rejects_non_hermitian_with_defect(self):
        bad = np.eye(4) + 1e-3 * np.array([[0, 1, 0, 0]] * 4)
        with pytest.raises(ValueError, match="Hermitian"):
            mat_exp_skew(bad, 1.0)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = mat_exp_skew(random_hermitian(rng, 3.0), rng.uniform(0, 5))
            assert unitarity_defect(u) < 1e-10

    def test_substep_composition_second_order(self):
        # fixed H: product over n substeps equals the single step exactly
        # (commuting case); accuracy vs a rough 2-step split of a t-dependent
        # generator decays ~4x per halving
        rng = np.random.default_rng(3)
        h1, h2 = random_hermitian(rng), random_hermitian(rng)

        def midpoint(n):
            u = np.eye(4, dtype=complex)
            dt = 1.0 / n
            for k in range(n):
                t = (k + 0.5) * dt
                u = mat_exp_skew(h1 + t * h2, dt) @ u
            return u

        ref = midpoint(4096)
        errs = [np.linalg.norm(midpoint(n) - ref) for n in (32, 64, 128)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(7)
        hs = np.stack([random_hermitian(rng) for _ in range(6)])
        batch = exp_skew_real(hs, 0.3)
        for k in range(6):
            np.testing.assert_allclose(batch[k], mat_exp_skew(hs[k], 0.3), atol=1e-13)
        dts = rng.uniform(0.1, 0.5, 6)
        per_step = exp_skew_real(hs, dts)
        for k in range(6):
            np.testing.assert_allclose(per_step[k], mat_exp_skew(hs[k], dts[k]), atol=1e-13)


def hermitian_batch(rng, norms, dts):
    """Random Hermitian stack with ||H_k dt_k||_1 = norms[k]."""
    hs = np.stack([random_hermitian(rng) for _ in norms])
    one_norms = np.abs(hs * dts[:, None, None]).sum(axis=-2).max(axis=-1)
    return hs * (norms / one_norms)[:, None, None]


class TestBatchedTaylorExponential:
    # 1e-8 to 1e2 covers the unscaled series and up to 8 squarings
    NORMS = [1e-8, 1e-6, 3.4e-5, 5e-4, 1e-2, 0.3, 0.5, 0.7, 2.0, 10.0, 1e2]

    @staticmethod
    def assert_matches_references(hs, dts, out):
        for h, dt, u in zip(hs, dts, out):
            assert np.abs(u - mat_exp_skew(h, dt)).max() <= 1e-13
            assert np.abs(u - expm(-1j * h * dt)).max() <= 1e-13
            assert unitarity_defect(u) <= 1e-13

    @pytest.mark.parametrize("norm", NORMS)
    def test_one_norm_per_batch(self, norm):
        rng = np.random.default_rng(int(-math.log10(norm) * 10) + 100)
        dts = rng.uniform(0.5, 2.0, 12)
        hs = hermitian_batch(rng, np.full(12, norm), dts)
        self.assert_matches_references(hs, dts, exp_skew_real(hs, dts))

    def test_mixed_norms_and_steps_in_one_batch(self):
        # the scaling is set by the largest step; the smallest ones are squared with it
        rng = np.random.default_rng(17)
        norms = np.array(self.NORMS * 2)
        dts = rng.uniform(1e-3, 1e3, norms.size)
        hs = hermitian_batch(rng, norms, dts)
        self.assert_matches_references(hs, dts, exp_skew_real(hs, dts))

    def test_scalar_step_broadcasts(self):
        rng = np.random.default_rng(23)
        hs = hermitian_batch(rng, np.array([1e-4, 0.2, 4.0]), np.ones(3))
        self.assert_matches_references(hs, np.full(3, 0.7), exp_skew_real(hs, 0.7))

    def test_zero_generator_is_identity(self):
        out = exp_skew_real(np.zeros((5, 4, 4), dtype=complex), np.array([0.0, 1e-9, 1.0, 1e3, 1e9]))
        np.testing.assert_array_equal(out, np.broadcast_to(np.eye(4), (5, 4, 4)))


def plain_horner_expm(a):
    """batched_expm's series as first written: the strided 1-norm, and a fresh
    array for each Horner step and squaring."""
    nu = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    squarings = math.ceil(math.log2(nu / 0.5)) if nu > 0.5 else 0
    a, nu = a * 2.0**-squarings, nu * 2.0**-squarings
    m = 1
    while nu ** (m + 1) / math.factorial(m + 1) * math.exp(nu) > 2.0**-53:
        m += 1
    eye = np.eye(a.shape[-1])
    e = eye + a / m
    for k in range(m - 1, 0, -1):
        e = eye + (a @ e) / k
    for _ in range(squarings):
        e = e @ e
    return e


class TestExpmPasses:
    """The contiguous norm and in-place Horner steps give the plain series bit
    for bit: the same degree and squarings, at every norm and layout."""

    # 1e-5 and 1e-4 are the midpoint and Magnus-Filon steps; from 0.5 on squarings start
    NORMS = [1e-8, 1e-5, 1e-4, 1e-2, 0.3, 0.7, 5.0, 1e2]

    @staticmethod
    def layouts(a):
        yield "contiguous", a
        yield "transposed", np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
        yield "strided", np.repeat(a, 2, axis=-1)[..., ::2]
        yield "every other matrix", np.repeat(a, 2, axis=0)[::2]

    @pytest.mark.parametrize("norm", NORMS)
    def test_real_forms_match_the_plain_series(self, norm):
        rng = np.random.default_rng(int(-math.log10(norm) * 10) + 300)
        a = realify(-1j * hermitian_batch(rng, rng.uniform(0.1, 1.0, 256) * norm, np.ones(256)))
        expected = plain_horner_expm(a)
        for name, view in self.layouts(a):
            assert name == "contiguous" or not view.flags.c_contiguous
            out = batched_expm(view)
            assert out.shape == a.shape and out.dtype == np.dtype(float)
            np.testing.assert_array_equal(out, expected, err_msg=name)

    @pytest.mark.parametrize("norm", [1e-5, 0.3, 5.0])
    def test_complex_input_matches_the_plain_series(self, norm):
        a = random_complex(np.random.default_rng(int(norm * 10) + 310), 16, norm)
        np.testing.assert_array_equal(batched_expm(a), plain_horner_expm(a))
        np.testing.assert_array_equal(batched_expm(a.transpose(0, 2, 1)), plain_horner_expm(a.transpose(0, 2, 1)))

    def test_input_is_left_unchanged(self):
        a = realify(-1j * hermitian_batch(np.random.default_rng(320), np.full(4, 3.0), np.ones(4)))
        kept = a.copy()
        batched_expm(a)
        np.testing.assert_array_equal(a, kept)

    def test_empty_stack(self):
        assert batched_expm(np.zeros((0, 8, 8))).shape == (0, 8, 8)


def random_complex(rng, n, one_norm):
    """n random complex 4x4 matrices, neither Hermitian nor normal, of 1-norm ``one_norm``."""
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return a * (one_norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


class TestRealForm:
    def test_round_trip_and_layout(self):
        rng = np.random.default_rng(29)
        a = random_complex(rng, 5, 1.0)
        r = realify(a)
        assert r.shape == (5, 8, 8) and r.dtype == np.dtype(float)
        np.testing.assert_array_equal(r[:, :4, 4:], -a.imag)
        np.testing.assert_array_equal(complexify(r), a)

    def test_products_commute_with_realify(self):
        rng = np.random.default_rng(31)
        a, b = random_complex(rng, 20, 1.0), random_complex(rng, 20, 1.0)
        assert np.abs(realify(a) @ realify(b) - realify(a @ b)).max() <= 1e-14

    @pytest.mark.parametrize("one_norm", [1e-8, 1e-5, 0.3, 0.5, 2.0])
    def test_expm_commutes_with_realify(self, one_norm):
        # general matrices over the unscaled series and a few squarings
        rng = np.random.default_rng(int(one_norm * 1e3) + 37)
        a = random_complex(rng, 12, one_norm)
        complex_path = batched_expm(a)
        assert np.abs(batched_expm(realify(a)) - realify(complex_path)).max() <= 1e-14 * np.abs(complex_path).max()
        for m, e in zip(a, complex_path):
            assert np.abs(e - expm(m)).max() <= 1e-14 * np.abs(e).max()

    # propagation steps sit at 1-norms of 1e-5 to 1; at 1e2 eight squarings
    # amplify rounding to 3e-14, within the 1e-13 both paths keep to exp
    @pytest.mark.parametrize("one_norm", [1e-5, 1e-2, 0.5, 2.0, 10.0])
    def test_expm_of_skew_generators_commutes_with_realify(self, one_norm):
        rng = np.random.default_rng(int(one_norm * 10) + 41)
        hs = hermitian_batch(rng, np.full(12, one_norm), np.ones(12))
        assert np.abs(batched_expm(realify(-1j * hs)) - realify(batched_expm(-1j * hs))).max() <= 1e-14

    def test_expm_keeps_real_input_real(self):
        assert batched_expm(np.zeros((2, 8, 8))).dtype == np.dtype(float)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_expm_rejects_non_finite_input(self, bad):
        a = np.zeros((3, 8, 8))
        a[1, 2, 3] = bad
        with pytest.raises(ValueError, match="A has non-finite"):
            batched_expm(a)


class TestIsoclinic:
    def test_unit_quaternion_gives_identity(self):
        np.testing.assert_allclose(isoclinic_left(Quaternion(1, 0, 0, 0)), np.eye(4), atol=0)
        np.testing.assert_allclose(isoclinic_right(Quaternion(1, 0, 0, 0)), np.eye(4), atol=0)

    def test_pure_x_left_pattern(self):
        # direct substitution q = (0, 1, 0, 0) into the left pattern
        expected = np.array(
            [
                [0, -1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, -1],
                [0, 0, 1, 0],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(isoclinic_left(Quaternion(0, 1, 0, 0)), expected, atol=0)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            isoclinic_left(Quaternion(1.0, 0.5, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(angles, angles, angles, angles, angles, angles)
    def test_left_right_commute(self, g1, t1, p1, g2, t2, p2):
        q, p = azimuths_to_quaternions(g1, t1, p1, g2, t2, p2)
        left, right = isoclinic_left(q), isoclinic_right(p)
        assert np.abs(left @ right - right @ left).max() < 1e-12

    def test_so4_on_many_samples(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            q, p = azimuths_to_quaternions(*rng.uniform(0, 2 * math.pi, 6))
            u = isoclinic_left(q) @ isoclinic_right(p)
            assert np.abs(u.T @ u - np.eye(4)).max() < 1e-11
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-11)


class TestAzimuths:
    def test_gamma_zero_gives_unit_w(self):
        q, _ = azimuths_to_quaternions(0.0, 1.3, 0.2, 0.5, 0.1, 0.9)
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_forced_x_component(self):
        q, _ = azimuths_to_quaternions(math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert q.w == pytest.approx(0.0, abs=1e-16)
        assert q.x == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, angles, angles, angles, angles)
    def test_always_unit(self, g1, t1, p1, g2, t2, p2):
        q, p = azimuths_to_quaternions(g1, t1, p1, g2, t2, p2)
        assert q.is_unit(1e-12)
        assert p.is_unit(1e-12)


class TestDistances:
    def test_phase_aligned_distance_ignores_global_phase(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng)
        u = mat_exp_skew(h, 1.0)
        assert phase_aligned_distance(u, np.exp(1j * 0.7) * u) < 1e-13

    def test_gate_infidelity_zero_for_equal(self):
        assert gate_infidelity(np.eye(4), np.exp(0.3j) * np.eye(4)) == pytest.approx(0.0, abs=1e-15)


def test_hermiticity_defect_reports():
    m = np.array([[0, 1j], [1j, 0]])
    assert hermiticity_defect(m) > 1.0
