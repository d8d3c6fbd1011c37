import hashlib

import numpy as np
import pytest
from oracle import embed_ideal, input_state

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
        ((1, 4), "f94de6d93b1b6c66b404baeb46485a3294dca8e244095dd6aa4d31d9097fc3cb"),
        ((2, 4), "4d0a17f82f31cb1ddaa344ccb999fe4130ec13c8967697d77b44ba59e3210d5b"),
        ((3, 6), "e0302c6ce704597658edbe074df6f04bb02ecaef1723fd5ccfce952ab0530aac"),
    ])
    def test_artifact_bytes_are_pinned(self, nm, digest):
        # a writer or synthesis change that moves a single byte of an emitted
        # circuit file fails here; re-pin only on a deliberate circuit change
        text = to_json(synthesize_cloner(CloneSpec(*nm)).circuit)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("nm, digest", [
        ((1, 5), "3b9d15b051ba7a18a2aa454cecd4fd41eaee69d2d9631279f6d567f97a91a9da"),
        ((2, 4), "c31236827990dd8747628025c7166b600632300ebd86b336a42bcce184c21320"),
        ((3, 6), "ea435e5a3b59692f411162dc9ce658d4557de8eb7af4af9550732e7f10dcc285"),
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
                assert np.max(np.abs(out.amps - embed_ideal(layout, ideal))) < 1e-10, (n, m, b)

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
