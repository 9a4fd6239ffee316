import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbuffer.errors import ContractViolationError, InputDomainError
from qbuffer.polarization import (
    AXIS_D,
    AXIS_H,
    AXIS_V,
    STATE_D,
    STATE_H,
    STATE_V,
    JonesOp,
    PolState,
    apply_depolarizing,
    apply_unitary,
    hwp_matrices,
    hwp_matrix,
    projection_probability,
)


def random_unitary(rng):
    """Haar-ish random 2x2 unitary via QR of a complex Gaussian matrix."""
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return JonesOp(q * (np.diag(r) / np.abs(np.diag(r))))


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return PolState.from_jones(v)


class TestHwpMatrix:
    def test_fast_axis_aligned_leaves_h_fixed(self):
        out = apply_unitary(STATE_H, hwp_matrix(0.0))
        np.testing.assert_allclose(out.rho, STATE_H.rho, atol=1e-12)

    def test_pi_over_8_maps_h_to_diagonal(self):
        # Oracle: explicit 2x2 matrix product with independently written
        # entries, not the library implementation.
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        u = np.array([[c, s], [s, -c]])
        expected = u @ STATE_H.rho @ u.conj().T
        out = apply_unitary(STATE_H, hwp_matrix(math.pi / 8))
        np.testing.assert_allclose(out.rho, expected, atol=1e-12)
        np.testing.assert_allclose(out.rho, STATE_D.rho, atol=1e-12)

    def test_quarter_turn_swaps_h_and_v(self):
        out = apply_unitary(STATE_H, hwp_matrix(math.pi / 4))
        np.testing.assert_allclose(out.rho, STATE_V.rho, atol=1e-12)

    @given(st.floats(-10.0, 10.0))
    def test_involution(self, theta):
        m = hwp_matrix(theta).m
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)

    @given(st.floats(-10.0, 10.0))
    def test_unitary(self, theta):
        assert hwp_matrix(theta).is_unitary(1e-12)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, "x",
                                       True, 1e308])
    def test_nonfinite_angle_rejected(self, theta):
        with pytest.raises(InputDomainError):
            hwp_matrix(theta)


class TestHwpMatrices:
    @given(st.lists(st.floats(-10.0, 10.0), max_size=70))
    def test_stack_equals_per_angle_matrices(self, angles):
        got = hwp_matrices(angles)
        assert got.shape == (len(angles), 2, 2)
        assert got.dtype == np.complex128
        if angles:
            assert np.array_equal(
                got, np.stack([hwp_matrix(a).m for a in angles]))

    def test_numpy_angles_match_floats(self):
        angles = np.linspace(0.0, math.pi / 2.0, 64)
        assert np.array_equal(hwp_matrices(angles),
                              hwp_matrices(angles.tolist()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x",
                                     True, 1e308])
    def test_nonfinite_angle_rejected(self, bad):
        with pytest.raises(InputDomainError, match="finite"):
            hwp_matrices([0.0, 0.3, bad])


class TestApplyUnitary:
    def test_identity_is_noop(self):
        out = apply_unitary(STATE_D, JonesOp.identity())
        np.testing.assert_allclose(out.rho, STATE_D.rho, atol=1e-15)

    def test_purity_preserved_for_random_unitaries(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = random_state(rng)
            u = random_unitary(rng)
            out = apply_unitary(s, u)
            assert np.trace(out.rho @ out.rho).real == pytest.approx(
                np.trace(s.rho @ s.rho).real, abs=1e-10)

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(12)
        s = apply_depolarizing(random_state(rng), 0.3)
        u = random_unitary(rng)
        out = apply_unitary(s, u)
        assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(out.rho),
                                   np.linalg.eigvalsh(s.rho), atol=1e-12)

    def test_non_unitary_rejected(self):
        lossy = JonesOp(np.array([[0.5, 0], [0, 0.5]]))
        with pytest.raises(ContractViolationError):
            apply_unitary(STATE_H, lossy)


class TestDepolarizing:
    def test_p_zero_is_identity(self):
        out = apply_depolarizing(STATE_D, 0.0)
        np.testing.assert_allclose(out.rho, STATE_D.rho, atol=1e-15)

    def test_p_one_is_maximally_mixed(self):
        for s in (STATE_H, STATE_D):
            out = apply_depolarizing(s, 1.0)
            np.testing.assert_allclose(out.rho, np.eye(2) / 2, atol=1e-15)

    def test_bloch_vector_scales_by_one_minus_p(self):
        out = apply_depolarizing(STATE_D, 0.25)
        assert np.linalg.norm(out.bloch_vector) == pytest.approx(
            0.75, abs=1e-12)

    def test_four_applications_reach_calibrated_shrink(self):
        # Constant chosen so a 0.955 launch visibility lands at 0.835 after
        # four cycles; oracle is repeated application of the channel.
        p = 1.0 - (0.835 / 0.955) ** 0.25
        s = STATE_D
        for _ in range(4):
            s = apply_depolarizing(s, p)
        length = np.linalg.norm(s.bloch_vector)
        assert length == pytest.approx((1.0 - p) ** 4, abs=1e-12)
        assert 0.955 * length == pytest.approx(0.835, abs=1e-9)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_composition(self, p1, p2):
        via_two = apply_depolarizing(apply_depolarizing(STATE_D, p1), p2)
        combined = 1.0 - (1.0 - p1) * (1.0 - p2)
        direct = apply_depolarizing(STATE_D, combined)
        np.testing.assert_allclose(via_two.rho, direct.rho, atol=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_domain(self, p):
        with pytest.raises(InputDomainError):
            apply_depolarizing(STATE_H, p)


class TestProjection:
    def test_h_onto_h(self):
        assert projection_probability(STATE_H, AXIS_H) == pytest.approx(1.0)

    def test_d_onto_h_is_half(self):
        assert projection_probability(STATE_D, AXIS_H) == pytest.approx(
            0.5, abs=1e-12)

    def test_depolarized_h_onto_h(self):
        p = 0.1
        out = apply_depolarizing(STATE_H, p)
        oracle = (1 - p) * 1.0 + p * 0.5
        assert projection_probability(out, AXIS_H) == pytest.approx(
            oracle, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_orthogonal_outputs_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        s = apply_depolarizing(random_state(rng), rng.random())
        u = random_unitary(rng).m
        p1 = projection_probability(s, u[:, 0])
        p2 = projection_probability(s, u[:, 1])
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_axis_rejected(self):
        with pytest.raises(InputDomainError):
            projection_probability(STATE_H, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("axis", [[math.nan, 1.0], [1.0, math.inf]])
    def test_non_finite_axis_rejected(self, axis):
        # The NaN axis used to give a nan probability.
        with pytest.raises(InputDomainError):
            projection_probability(STATE_H, np.array(axis))


class TestPolStateValidation:
    def test_trace_must_be_one(self):
        with pytest.raises(InputDomainError):
            PolState(np.eye(2))

    def test_hermiticity_required(self):
        with pytest.raises(InputDomainError):
            PolState(np.array([[0.5, 0.5], [-0.5, 0.5]]))

    def test_positivity_required(self):
        with pytest.raises(InputDomainError):
            PolState(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_zero_jones_vector_rejected(self):
        with pytest.raises(InputDomainError):
            PolState.from_jones([0.0, 0.0])

    def test_states_are_frozen(self):
        with pytest.raises(ValueError):
            STATE_H.rho[0, 0] = 0.0

    def test_pure_state_metrics(self):
        assert np.trace(STATE_V.rho @ STATE_V.rho).real == pytest.approx(
            1.0, abs=1e-12)
        assert np.linalg.norm(STATE_V.bloch_vector) == pytest.approx(
            1.0, abs=1e-12)
        np.testing.assert_allclose(STATE_D.bloch_vector, [1, 0, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(
            PolState.from_jones(AXIS_V).bloch_vector, [0, 0, -1], atol=1e-12)
