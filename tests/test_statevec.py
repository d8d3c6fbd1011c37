import math

import numpy as np
import pytest

from uqcm import (DensityMatrix, StateVector, fidelity_against_pure,
                  partial_trace, tensor_power)

SQ23 = math.sqrt(2 / 3)
SQ16 = math.sqrt(1 / 6)


def clone_output_state():
    """Three-qubit 1->2 cloner output for input |0>: sqrt(2/3)|000> + sqrt(1/6)(|011>+|101>)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = SQ23
    amps[0b011] = SQ16
    amps[0b101] = SQ16
    return StateVector(amps)


class TestTensorPower:
    def test_basis_state_squared(self):
        out = tensor_power(StateVector.basis(1, 0), 2)
        np.testing.assert_allclose(out.amps, [1, 0, 0, 0], atol=1e-15)

    def test_uniform_superposition(self):
        plus = StateVector.single_qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
        out = tensor_power(plus, 2)
        np.testing.assert_allclose(out.amps, [0.5] * 4, atol=1e-15)

    def test_general_state_cubed_matches_index_oracle(self):
        # oracle: amplitude of basis i is the product over bits of a (bit 0) or b (bit 1)
        a, b = 0.6, 0.8
        psi = StateVector.single_qubit(a, b)
        out = tensor_power(psi, 3)
        expected = np.array(
            [np.prod([b if (i >> (2 - q)) & 1 else a for q in range(3)]) for i in range(8)]
        )
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)
        assert abs(out.amps[0b101] - b * a * b) < 1e-15
        assert abs(out.amps[0b010] - a * b * a) < 1e-15

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError):
            tensor_power(StateVector.basis(1, 0), 0)


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho = partial_trace(bell, {0})
        np.testing.assert_allclose(rho.elements, np.eye(2) / 2, atol=1e-14)

    def test_product_state_is_pure(self):
        rho = partial_trace(StateVector.basis(2, 0b01), {1})
        np.testing.assert_allclose(rho.elements, [[0, 0], [0, 1]], atol=1e-15)

    def test_clone_output_marginal(self):
        rho = partial_trace(clone_output_state(), {0})
        np.testing.assert_allclose(rho.elements, np.diag([5 / 6, 1 / 6]), atol=1e-14)

    def test_density_matrix_input(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho = partial_trace(bell.density(), {1})
        np.testing.assert_allclose(rho.elements, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(amps / np.linalg.norm(amps))
        rho = partial_trace(state, {1, 3})
        assert abs(np.trace(rho.elements) - 1) < 1e-12

    def test_tensor_power_then_trace_recovers_factor(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = StateVector(z / np.linalg.norm(z))
        rho = partial_trace(tensor_power(psi, 3), {1})
        np.testing.assert_allclose(rho.elements, psi.density().elements, atol=1e-12)

    def test_marginals_are_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            amps = rng.normal(size=32) + 1j * rng.normal(size=32)
            state = StateVector(amps / np.linalg.norm(amps))
            rho = partial_trace(state, {0, 2})
            assert np.linalg.eigvalsh(rho.elements).min() >= -1e-10

    @pytest.mark.parametrize("keep", [set(), {0, 0}, {5}])
    def test_bad_keep_sets(self, keep):
        bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        with pytest.raises(ValueError):
            keep_list = [0, 0] if keep == {0, 0} else keep
            partial_trace(bell, keep_list)


class TestFidelity:
    def test_identical_pure_states(self):
        psi = StateVector.basis(1, 0)
        assert fidelity_against_pure(psi.density(), psi) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        psi = StateVector.single_qubit(0.6, 0.8)
        assert fidelity_against_pure(rho, psi) == pytest.approx(0.5, abs=1e-15)

    def test_clone_marginal_fidelity(self):
        rho = partial_trace(clone_output_state(), {0})
        assert fidelity_against_pure(rho, StateVector.basis(1, 0)) == pytest.approx(5 / 6, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_against_pure(DensityMatrix(np.eye(2) / 2), StateVector.basis(2, 0))


class TestValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError):
            StateVector.basis(21, 0)

    def test_rejects_bad_basis_index(self):
        with pytest.raises(ValueError):
            StateVector.basis(2, 4)

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_amps_are_read_only(self):
        state = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            state.amps[0] = 0.0
