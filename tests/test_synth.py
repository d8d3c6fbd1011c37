import hashlib

import numpy as np
import pytest
from oracle import input_state

from uqcm import (CloneSpec, RegisterLayout, StateVector, apply, cnot_cost, ideal_output,
                  reference_one_to_two, synthesize_cloner, verify)
from uqcm.circuit import FLIP_KINDS, to_json
from uqcm.ion_budget import formula_gate_count
from uqcm.statevec import MAX_QUBITS


class TestSynthesize:
    def test_one_to_two_shape(self, sweep_results):
        res = sweep_results[(1, 2)]
        assert res.circuit.n_qubits == 4
        assert res.n_aux == 0
        assert res.universal
        assert len(res.plan.moves) == 5
        counts = res.gate_counts()
        assert counts["prep"] == 4
        assert counts["total"] == counts["prep"] + counts["clone"]

    def test_roles_partition_and_order(self, sweep_results):
        res = sweep_results[(2, 4)]
        roles = res.circuit.roles
        assert roles["input"] == (0, 1)
        assert roles["blank"] == (2, 3)
        assert roles["machine"] == (4, 5)
        assert roles["ancilla-flag"] == (6,)

    def test_boundary_spec_falls_back_to_aux(self, sweep_results):
        res = sweep_results[(2, 3)]
        assert res.n_aux == 1
        assert res.circuit.roles["aux"] == (4,)

    def test_infeasible_spec_with_aux_synthesizes(self):
        res = synthesize_cloner(CloneSpec(3, 6))
        assert res.n_aux == 1
        assert res.circuit.n_qubits == 3 + 7 + 1

    def test_clone_stage_builds_each_distinct_gate_once(self, sweep_results):
        # equal gates of the cloning stage are one object; the stage follows
        # the 2^P - 1 preparation rotations
        for nm, res in sweep_results.items():
            clone = res.circuit.gates[2 ** res.layout.prep_qubits - 1:]
            assert {g.kind for g in clone} <= set(FLIP_KINDS), nm
            assert len({id(g) for g in clone}) == len(set(clone)), nm

    def test_synthesis_is_deterministic(self):
        a = synthesize_cloner(CloneSpec(2, 4))
        b = synthesize_cloner(CloneSpec(2, 4))
        assert to_json(a.circuit) == to_json(b.circuit)

    @pytest.mark.parametrize("nm, digest", [
        ((1, 4), "3b11e3170123a995f69516dc1cf42d48c0bc43ff89bd0f0b04f21154cd4e1f97"),
        ((2, 4), "cba12395ef077ed04f83a29e1c9f70041c03396fdbd8ac2ab39412f337f767ad"),
        ((3, 6), "e6e33a1d7d8741f15937aa30643d0b690b96c16bd08f7c536a17ba68b89fa04a"),
    ])
    def test_artifact_bytes_are_pinned(self, nm, digest):
        # a writer or synthesis change that moves a single byte of an emitted
        # circuit file fails here; re-pin only on a deliberate circuit change
        text = to_json(synthesize_cloner(CloneSpec(*nm)).circuit)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("nm, digest", [
        ((1, 5), "14249d7baad598c215ce4fc9a7395cc6322a319dc5b5738287a9fd9a49646a0d"),
        ((2, 4), "a91d76788db8eeb0d308abc299e3577e05a7e8eaecf0b8d6ef77d4bcd626a0cf"),
        ((3, 6), "13b7c4af9a93c159761a710d8f6cf5d31885faac8c4acdd336c45fd7c5c0ccf5"),
    ])
    def test_verify_report_bytes_are_pinned(self, nm, digest):
        # a simulation change that moves a single bit of an output amplitude
        # the report reads fails here, as does a synthesis change
        res = synthesize_cloner(CloneSpec(*nm))
        report = verify(res.spec, res.circuit, n_samples=5, seed=11,
                        gate_counts=res.gate_counts())
        assert hashlib.sha256(report.to_json().encode("ascii")).hexdigest() == digest

    def test_measured_counts_track_the_asymptotic_bound(self, sweep_results):
        # the paper's asymptotic count (eps = 1) is a floor on every measured
        # circuit and within a decade of it: measured/paper runs 1.75-9.38
        # over the sweep, since the circuit also routes the mixed input patterns
        for nm, res in sweep_results.items():
            measured = res.gate_counts()["total"]
            paper = formula_gate_count(res.spec, 1.0)
            assert paper <= measured < 10 * paper, (nm, measured, paper)

    def test_universal_flag_by_input_count(self, sweep_results):
        for (n, m), res in sweep_results.items():
            assert res.universal == (n == 1), (n, m)

    def test_basis_inputs_reach_ideal_output(self, sweep_results):
        for (n, m), res in sweep_results.items():
            layout = RegisterLayout.of(res.spec, res.circuit)
            for b in (0, 1):
                psi = StateVector.basis(1, b)
                out = apply(res.circuit, input_state(layout, psi))
                ideal = ideal_output(res.spec, psi, machine_complement=True).amps
                assert np.max(np.abs(out.amps - layout.embed(ideal))) < 1e-10, (n, m, b)

    def test_oversized_spec_rejected_before_synthesis(self):
        with pytest.raises(ValueError, match=rf"cap of {MAX_QUBITS} \(statevec\.MAX_QUBITS\)"):
            synthesize_cloner(CloneSpec(1, 11))

    def test_full_circuit_inverts(self, sweep_results):
        from uqcm import inverse
        rng = np.random.default_rng(55)
        res = sweep_results[(2, 4)]
        amps = rng.normal(size=2 ** res.circuit.n_qubits) * 1.0
        amps = (amps + 1j * rng.normal(size=amps.size))
        state = StateVector(amps / np.linalg.norm(amps))
        back = apply(inverse(res.circuit), apply(res.circuit, state))
        assert np.max(np.abs(back.amps - state.amps)) < 1e-10


class TestRegisterLayout:
    def test_round_trips_every_circuit(self, sweep_results):
        for res in sweep_results.values():
            layout = RegisterLayout.of(res.spec, res.circuit)
            assert layout == res.layout.register
            assert layout.roles() == res.circuit.roles
        ref = RegisterLayout.of(CloneSpec(1, 2), reference_one_to_two())
        assert ref == RegisterLayout(CloneSpec(1, 2), flag=False)
        assert ref.trailing == ()


class TestReferenceNetwork:
    def test_costs_six_cnots(self):
        assert cnot_cost(reference_one_to_two()) == 6

    def test_reproduces_the_ideal_output_exactly(self):
        circ = reference_one_to_two()
        for b in (0, 1):
            inp = StateVector.basis(1, b).tensor(StateVector.basis(2, 0))
            out = apply(circ, inp)
            ideal = ideal_output(CloneSpec(1, 2), StateVector.basis(1, b))
            np.testing.assert_allclose(out.amps, ideal.amps, atol=1e-12)
