import math
import time
from itertools import combinations

import numpy as np
import pytest
from conftest import SWEEP
from oracle import ideal_output_by_kron, weight_components_by_kron

from uqcm import (CloneSpec, StateVector, alphas, basis_count, feasibility,
                  fidelity_against_pure, ideal_output,
                  partial_trace, theoretical_fidelity, weight_components)
from uqcm import cloner_math
from uqcm.cloner_math import AMP_EPS
from uqcm.simulator import haar_random_qubit
from uqcm.statevec import MAX_QUBITS

# the specs the synth-ladder benchmark synthesizes
SYNTH_LADDER = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5),
                (3, 6), (4, 8))


def all_specs(max_total_qubits: int, max_m: int = 8):
    return [CloneSpec(n, m) for n in range(1, max_m) for m in range(n + 1, max_m + 1)
            if 2 * m - n <= max_total_qubits]


class TestCloneSpec:
    def test_derived_counts(self):
        spec = CloneSpec(2, 4)
        assert spec.total_qubits == 6
        assert spec.prep_qubits == 4
        assert spec.d_prep == 16

    # bool is an int subclass: CloneSpec(True, 3) would print as True->3
    @pytest.mark.parametrize("n, m", [(0, 1), (1, 1), (2, 2), (3, 2), (True, 3), (2, True)])
    def test_rejects_bad_pairs(self, n, m):
        with pytest.raises((ValueError, TypeError)):
            CloneSpec(n, m)


class TestAlphas:
    def test_one_to_two(self):
        coeff = alphas(CloneSpec(1, 2))
        np.testing.assert_allclose(list(coeff), [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-15)
        # per-basis amplitude of the level-1 symmetric pair is sqrt(1/6)
        assert coeff[1] / math.sqrt(2) == pytest.approx(math.sqrt(1 / 6), abs=1e-15)

    def test_two_to_four(self):
        coeff = alphas(CloneSpec(2, 4))
        assert coeff[0] == pytest.approx(math.sqrt(3 / 5), abs=1e-15)
        assert coeff[1] / math.sqrt(math.comb(4, 1) * math.comb(2, 1)) == pytest.approx(
            math.sqrt(3 / 80), abs=1e-15)
        assert coeff[2] / math.sqrt(math.comb(4, 2) * math.comb(2, 2)) == pytest.approx(
            math.sqrt(1 / 60), abs=1e-15)

    def test_normalized_for_all_small_specs(self):
        for spec in all_specs(max_total_qubits=23, max_m=12):
            total = sum(v * v for v in alphas(spec))
            assert abs(total - 1.0) < 1e-12, spec


class TestIdealOutput:
    def test_one_to_two_zero_input(self):
        out = ideal_output(CloneSpec(1, 2), StateVector.basis(1, 0))
        expected = np.zeros(8)
        expected[0b000] = math.sqrt(2 / 3)
        expected[0b011] = math.sqrt(1 / 6)
        expected[0b101] = math.sqrt(1 / 6)
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)

    def test_two_to_four_zero_input_multiset(self):
        out = ideal_output(CloneSpec(2, 4), StateVector.basis(1, 0))
        nonzero = np.sort(np.abs(out.amps[np.abs(out.amps) > AMP_EPS]))
        expected = np.sort([math.sqrt(3 / 5)] + [math.sqrt(3 / 80)] * 8 + [math.sqrt(1 / 60)] * 6)
        assert nonzero.size == 15
        np.testing.assert_allclose(nonzero, expected, atol=1e-14)

    def test_one_input_is_bit_flip_of_zero_input(self):
        for spec in (CloneSpec(1, 3), CloneSpec(2, 4)):
            out0 = ideal_output(spec, StateVector.basis(1, 0)).amps
            out1 = ideal_output(spec, StateVector.basis(1, 1)).amps
            np.testing.assert_allclose(out1, out0[::-1], atol=1e-14)

    def test_superposition_input_clone_fidelity(self):
        psi = StateVector.single_qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
        out = ideal_output(CloneSpec(1, 2), psi)
        rho = partial_trace(out, {0})
        assert fidelity_against_pure(rho, psi) == pytest.approx(5 / 6, abs=1e-12)

    def test_machine_complement_flips_machine_register_only(self):
        # the 2->4 display puts sqrt(3/5) on machine |11>, the literal form on |00>
        spec = CloneSpec(2, 4)
        literal = ideal_output(spec, StateVector.basis(1, 0)).amps
        flipped = ideal_output(spec, StateVector.basis(1, 0), machine_complement=True).amps
        assert literal[0b000000] == pytest.approx(math.sqrt(3 / 5), abs=1e-14)
        assert flipped[0b000011] == pytest.approx(math.sqrt(3 / 5), abs=1e-14)
        # clone marginals are unaffected by the machine convention
        for q in range(4):
            a = partial_trace(StateVector(literal), {q}).elements
            b = partial_trace(StateVector(flipped), {q}).elements
            np.testing.assert_allclose(a, b, atol=1e-13)

    @pytest.mark.parametrize("nm", SWEEP)
    def test_machine_complement_reverses_the_machine_index(self, nm):
        # verify reads the complemented convention off one ideal output this way
        spec = CloneSpec(*nm)
        psis = [StateVector.basis(1, 0), StateVector.basis(1, 1)]
        psis += [haar_random_qubit(97, i) for i in range(3)]
        for psi in psis:
            plain = ideal_output(spec, psi).amps
            reversed_machine = plain.reshape(2 ** spec.m_out, -1)[:, ::-1].reshape(-1)
            assert np.array_equal(ideal_output(spec, psi, True).amps, reversed_machine)


class TestKronOracle:
    """The weight-table computation against the dense Kronecker-product oracle."""

    @pytest.mark.parametrize("machine_complement", [False, True])
    def test_basis_outputs_equal_oracle_bit_for_bit(self, machine_complement):
        # the prep angles and verify's basis-state errors read these outputs;
        # the closed form evaluated at w = N instead of flipping comp_0 is off
        # in the last bit at |1>
        specs = all_specs(max_total_qubits=12, max_m=12)
        assert len(specs) == 30
        for spec in specs:
            for b in (0, 1):
                psi = StateVector.basis(1, b)
                want = ideal_output_by_kron(spec, psi, machine_complement)
                assert np.array_equal(ideal_output(spec, psi, machine_complement).amps, want), \
                    (spec, b)

    @pytest.mark.parametrize("machine_complement", [False, True])
    def test_ideal_output_matches_oracle(self, machine_complement):
        psis = [StateVector.basis(1, 0), StateVector.basis(1, 1)]
        psis += [haar_random_qubit(4321, i) for i in range(5)]
        for spec in all_specs(max_total_qubits=12):
            for psi in psis:
                np.testing.assert_allclose(
                    ideal_output(spec, psi, machine_complement).amps,
                    ideal_output_by_kron(spec, psi, machine_complement),
                    rtol=0, atol=1e-14, err_msg=f"{spec} {psi.amps}")

    @pytest.mark.parametrize("nm", SYNTH_LADDER)
    def test_weight_components_match_oracle(self, nm):
        spec = CloneSpec(*nm)
        for machine_complement in (False, True):
            got = weight_components(spec, machine_complement)
            want = weight_components_by_kron(spec, machine_complement)
            # prep angles are solved from comp[0]: one ulp moves artifact bytes
            assert np.array_equal(got[0], want[0])
            for g, w in zip(got[1:], want[1:]):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("build", [
        weight_components,
        lambda spec: ideal_output(spec, StateVector.basis(1, 0)),
    ], ids=["weight_components", "ideal_output"])
    def test_oversized_spec_rejected_at_once(self, build):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"cap of {MAX_QUBITS} \(statevec\.MAX_QUBITS\)"):
            build(CloneSpec(1, 11))
        assert time.perf_counter() - t0 < 1.0


class TestTheoreticalFidelity:
    def test_known_values(self):
        assert theoretical_fidelity(CloneSpec(1, 2)) == pytest.approx(5 / 6, abs=1e-15)
        assert theoretical_fidelity(CloneSpec(2, 4)) == pytest.approx(7 / 8, abs=1e-15)
        assert theoretical_fidelity(CloneSpec(2, 4)) == pytest.approx(0.6 + 0.225 + 0.05, abs=1e-15)

    def test_three_to_four_between_known_bounds(self):
        f = theoretical_fidelity(CloneSpec(3, 4))
        assert 5 / 6 < f < 1
        # brute-force oracle: partial trace of the exact ideal output
        out = ideal_output(CloneSpec(3, 4), StateVector.basis(1, 0))
        rho = partial_trace(out, {0})
        assert fidelity_against_pure(rho, StateVector.basis(1, 0)) == pytest.approx(f, abs=1e-12)

    def test_matches_partial_trace_for_random_inputs(self):
        # universality of the ideal transformation: input-independent fidelity
        for spec in all_specs(max_total_qubits=12):
            want = theoretical_fidelity(spec)
            fids = []
            for i in range(50):
                psi = haar_random_qubit(1234, i)
                out = ideal_output(spec, psi)
                fids.append(fidelity_against_pure(partial_trace(out, {0}), psi))
            np.testing.assert_allclose(fids, want, atol=1e-10)
            assert np.var(fids) < 1e-20, spec


class TestBasisCount:
    def test_known_values(self):
        assert basis_count(CloneSpec(1, 2)) == 3   # 1*1 + 2*1
        assert basis_count(CloneSpec(2, 4)) == 15
        assert basis_count(CloneSpec(3, 6)) == 84
        assert basis_count(CloneSpec(3, 6)) == math.comb(9, 3)

    def test_matches_direct_enumeration(self):
        # oracle: count pairs (clone string of weight k, machine string of weight k)
        for spec in all_specs(max_total_qubits=14):
            n, m = spec.n_in, spec.m_out
            count = 0
            for k in range(m - n + 1):
                count += len(list(combinations(range(m), k))) * len(
                    list(combinations(range(m - n), k)))
            assert basis_count(spec) == count

    def test_matches_nonzero_amplitudes_of_ideal_output(self):
        for spec in all_specs(max_total_qubits=14):
            out = ideal_output(spec, StateVector.basis(1, 0))
            assert basis_count(spec) == int(np.sum(np.abs(out.amps) > AMP_EPS)), spec


class TestFeasibility:
    def test_single_input_always_fits(self):
        for m in range(2, 13):
            check = feasibility(CloneSpec(1, m))
            assert check.feasible_without_aux, m

    def test_two_to_four(self):
        check = feasibility(CloneSpec(2, 4))
        assert (check.feasible_without_aux, check.lhs, check.rhs) == (True, 15, 16)

    def test_three_to_six_overflows(self):
        check = feasibility(CloneSpec(3, 6))
        assert (check.feasible_without_aux, check.lhs, check.rhs) == (False, 84, 64)

    def test_two_to_three_sits_exactly_at_the_boundary(self):
        # the counting condition holds with equality here, leaving no spare basis
        check = feasibility(CloneSpec(2, 3))
        assert (check.feasible_without_aux, check.lhs, check.rhs) == (True, 4, 4)


class TestWeightComponents:
    def test_reconstructs_ideal_output(self):
        rng = np.random.default_rng(8)
        for spec in (CloneSpec(1, 3), CloneSpec(2, 4), CloneSpec(3, 4)):
            comps = weight_components(spec)
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z /= np.linalg.norm(z)
            a, b = z
            n = spec.n_in
            rebuilt = sum(a ** (n - w) * b ** w * comps[w] for w in range(n + 1))
            exact = ideal_output(spec, StateVector(z)).amps
            np.testing.assert_allclose(rebuilt, exact, atol=1e-11)

    @pytest.mark.parametrize("machine_complement", [False, True])
    def test_tables_past_the_dense_cap_have_binomial_norms(self, monkeypatch, machine_complement):
        def refuse(spec):
            raise AssertionError(f"{spec}: the weight tables must not need a dense check")

        monkeypatch.setattr(cloner_math, "_check_dense", refuse)
        for n, m in ((1, 40), (8, 40)):
            tables = cloner_math._weight_tables(CloneSpec(n, m), machine_complement)
            assert len(tables) == n + 1
            # each table entry stands for C(M, k) C(M-N, l) basis states
            # (as floats: up to C(40, 20) C(39, 19) ~ 1e22 states, past int64)
            states = np.outer([float(math.comb(m, k)) for k in range(m + 1)],
                              [float(math.comb(m - n, l)) for l in range(m - n + 1)])
            for w, table in enumerate(tables):
                assert abs(np.sum(states * table ** 2) - math.comb(n, w)) <= 1e-12, (n, m, w)

    def test_supports_are_disjoint_with_binomial_norms(self):
        for spec in (CloneSpec(2, 4), CloneSpec(3, 4)):
            comps = weight_components(spec)
            supports = [set(np.nonzero(np.abs(c) > AMP_EPS)[0]) for c in comps]
            for w1 in range(len(supports)):
                for w2 in range(w1 + 1, len(supports)):
                    assert not supports[w1] & supports[w2]
            for w, c in enumerate(comps):
                assert np.sum(c * c) == pytest.approx(math.comb(spec.n_in, w), abs=1e-10)
