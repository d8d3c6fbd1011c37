import math

import numpy as np
import pytest

from uqcm import (DensityMatrix, StateVector, fidelity_against_pure,
                  partial_trace, tensor_power)
from uqcm.statevec import MAX_QUBITS

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
        plus = StateVector(np.array([1, 1]) / math.sqrt(2))
        out = tensor_power(plus, 2)
        np.testing.assert_allclose(out.amps, [0.5] * 4, atol=1e-15)

    def test_general_state_cubed_matches_index_oracle(self):
        # oracle: amplitude of basis i is the product over bits of a (bit 0) or b (bit 1)
        a, b = 0.6, 0.8
        psi = StateVector(np.array([a, b]))
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
        np.testing.assert_allclose(rho.elements, np.outer(psi.amps, psi.amps.conj()), atol=1e-12)

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
        rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
        assert fidelity_against_pure(rho, psi) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        psi = StateVector(np.array([0.6, 0.8]))
        assert fidelity_against_pure(rho, psi) == pytest.approx(0.5, abs=1e-15)

    def test_clone_marginal_fidelity(self):
        rho = partial_trace(clone_output_state(), {0})
        assert fidelity_against_pure(rho, StateVector.basis(1, 0)) == pytest.approx(5 / 6, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_against_pure(DensityMatrix(np.eye(2) / 2), StateVector.basis(2, 0))

    def test_rejects_an_imaginary_part_beyond_drift(self):
        # Hermitian within ASSERT_ATOL, but <psi|rho|psi> = 1 + 2.5e-11j
        rho = DensityMatrix(np.array([[0.5, 0.5 + 5e-11j], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="non-negligible imaginary part"):
            fidelity_against_pure(rho, StateVector(np.array([1, 1]) / math.sqrt(2)))


class TestValidation:
    @pytest.mark.parametrize("amps", [[1.0, 1.0], [math.nan, 0.0], [math.inf, 0.0]])
    def test_rejects_unnormalized(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array(amps))

    @pytest.mark.parametrize("amps, message", [
        (np.eye(2), r"must be one-dimensional, got shape \(2, 2\)"),
        (np.array(1.0), r"must be one-dimensional, got shape \(\)"),
        (np.array([1.0]), "at least one qubit required"),
        (np.array([1.0, 0.0, 0.0]), "length 3 is not a power of two")])
    def test_rejects_amplitude_arrays_of_the_wrong_shape(self, amps, message):
        with pytest.raises(ValueError, match=message):
            StateVector(amps)

    def test_rejects_oversized_register(self):
        amps = np.zeros(2 ** (MAX_QUBITS + 1))
        amps[0] = 1.0
        message = f"{MAX_QUBITS + 1} qubits exceeds the dense-representation cap"
        with pytest.raises(ValueError, match=message):
            StateVector(amps)

    # refused before np.zeros, which would ask for 2^n_qubits amplitudes
    # (16 GiB at 30 qubits) or fail on the float 2^-1
    @pytest.mark.parametrize("n_qubits", [-1, 0, MAX_QUBITS + 1, 10 ** 6])
    def test_basis_refuses_n_qubits_before_allocating(self, monkeypatch, n_qubits):
        def no_alloc(*args, **kwargs):
            raise AssertionError("np.zeros called")
        monkeypatch.setattr(np, "zeros", no_alloc)
        message = f"^n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}$"
        with pytest.raises(ValueError, match=message):
            StateVector.basis(n_qubits, 0)

    def test_rejects_bad_basis_index(self):
        with pytest.raises(ValueError):
            StateVector.basis(2, 4)

    # numpy reads a bool index as a mask, so basis(2, True) would set every
    # amplitude, and it refuses a float index with a bare IndexError
    @pytest.mark.parametrize("n_qubits, index, name", [
        (2, True, "basis index"), (2, 1.0, "basis index"), (2, np.int64(1), "basis index"),
        (2.0, 1, "n_qubits"), (True, 0, "n_qubits")])
    def test_rejects_basis_arguments_that_are_not_ints(self, n_qubits, index, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            StateVector.basis(n_qubits, index)

    # a NaN or inf anywhere makes el - el^H NaN, so the Hermitian check is
    # the one that refuses it
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("el", [[[0.5, 0.5], [0.0, 0.5]], [[math.nan, 0.0], [0.0, 0.0]],
                                    [[1.0, math.nan], [math.nan, 0.0]],
                                    [[math.inf, 0.0], [0.0, 0.0]]])
    def test_density_rejects_non_hermitian(self, el):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.array(el))

    def test_density_rejects_a_shape_that_is_not_square(self):
        with pytest.raises(ValueError, match=r"shape \(2, 4\) is not \(2\^n, 2\^n\)"):
            DensityMatrix(np.zeros((2, 4)))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_amps_are_read_only(self):
        state = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            state.amps[0] = 0.0
