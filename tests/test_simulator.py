import dataclasses

import numpy as np
import pytest
from oracle import input_state

from uqcm import (Circuit, CloneSpec, Gate, RegisterLayout, StateVector, apply,
                  haar_random_qubit, partial_trace, reference_one_to_two,
                  theoretical_fidelity, verify)


def flag_residue(result, seed, samples=10):
    """Worst population outside |0> on the flag qubit over random inputs."""
    circuit = result.circuit
    layout = RegisterLayout.of(result.spec, circuit)
    flag = layout.roles()["ancilla-flag"][0]
    rows = np.array([input_state(layout, haar_random_qubit(seed, i)).amps
                     for i in range(samples)])
    worst = 0.0
    for out in apply(circuit, rows):
        rho = partial_trace(StateVector(out), {flag}).elements
        worst = max(worst, float(abs(rho[1, 1])))
    return worst


class TestHaarSampling:
    def test_deterministic_per_key(self):
        a = haar_random_qubit(42, 3)
        b = haar_random_qubit(42, 3)
        np.testing.assert_array_equal(a.amps, b.amps)
        c = haar_random_qubit(42, 4)
        assert np.max(np.abs(a.amps - c.amps)) > 1e-3

    def test_normalized(self):
        for i in range(25):
            assert abs(np.linalg.norm(haar_random_qubit(7, i).amps) - 1) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_every_seed_keys_its_own_stream(self):
        # a seed is taken mod 2^64 and goes into the key whole: read through
        # float64, -1, -3 and 2^64 - 1 all fell on seed 0's stream, and
        # 2^63 + 5 on 2^63's, each with a cast warning
        seeds = (-1, -2, 0, 2**63, 2**63 + 5)
        amps = [haar_random_qubit(seed, 0).amps for seed in seeds]
        for i in range(len(seeds)):
            for j in range(i):
                assert np.max(np.abs(amps[i] - amps[j])) > 1e-3, (seeds[i], seeds[j])
        np.testing.assert_array_equal(haar_random_qubit(-1, 4).amps,
                                      haar_random_qubit(2**64 - 1, 4).amps)

    @pytest.mark.parametrize("seed, index, amps", [
        (0, 0, "b8e64b97ac23b03fc738a903bfcce03f215384f32d78e6bfa28abef25584de3f"),
        (7, 5, "f79e87782adfd03f94be411210fbdd3fb99ee3c014c4e83fd3fb62302d6dd53f"),
        (2**63 + 5, 2**40, "9381942ba872dc3f37a318a70ec2dcbff04f3be2f5fd9cbf0fe247b0f5c7e8bf"),
        (-3, 2**64 - 2, "2ffd7d2db196d63fe70e1fc10beee0bf99a60fa7e49ea83f7571442481a5e83f"),
    ])
    def test_stream_is_pinned_to_the_bit(self, seed, index, amps):
        # the acceptance criteria draw their inputs from this stream, so a
        # change of generator, key or normalization would change their inputs
        assert haar_random_qubit(seed, index).amps.tobytes().hex() == amps

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, -3])
    def test_index_is_taken_mod_2_64(self, seed):
        # indices -2 .. 1 and 2^64 - 2 .. 2^64 + 1 are one run of the stream
        for index in range(-2, 2):
            np.testing.assert_array_equal(haar_random_qubit(seed, index).amps,
                                          haar_random_qubit(seed, index + 2**64).amps)
        assert np.max(np.abs(haar_random_qubit(seed, -1).amps
                             - haar_random_qubit(seed, 0).amps)) > 1e-3

    @pytest.mark.parametrize("seed, index, name", [
        (1.5, 0, "seed"), (True, 0, "seed"), (np.int64(1), 0, "seed"),
        (1, 0.7, "index"), (1, False, "index"), (1, 2.0, "index"),
    ])
    def test_key_that_is_not_an_int_rejected(self, seed, index, name):
        # a float was cut to an int: seed 1.5 gave seed 1's sample, and
        # index 0.7 index 0's
        value = seed if name == "seed" else index
        with pytest.raises(ValueError) as err:
            haar_random_qubit(seed, index)
        assert str(err.value) == f"{name} must be an int, got {value!r}"

    def test_mean_bloch_vector_is_small(self):
        total = np.zeros(3)
        n = 10_000
        for i in range(n):
            amps = haar_random_qubit(2026, i).amps
            rho = np.outer(amps, amps.conj())
            total += [2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
        assert np.linalg.norm(total / n) < 0.05


class TestVerifyReference:
    def test_reference_network_passes(self):
        spec = CloneSpec(1, 2)
        report = verify(spec, reference_one_to_two(), n_samples=100, seed=11)
        assert report.passed
        assert report.clone_fidelity_mean == pytest.approx(5 / 6, abs=1e-10)
        assert report.clone_fidelity_std < 1e-10
        assert report.gate_counts["total"] == 6

    @pytest.mark.parametrize("residue, passed", [(1e-13, True), (1e-11, False), (1e-10, False)])
    def test_ancilla_residue_is_held_to_its_own_tolerance(self, residue, passed):
        # criterion 3 allows the trailing qubits 1e-12, tighter than the 1e-9
        # the other checks get
        report = verify(CloneSpec(1, 2), reference_one_to_two(), n_samples=4, seed=11)
        assert report.passed
        edited = dataclasses.replace(report, ancilla_purity_error=residue)
        assert edited.passed is passed
        assert edited.to_dict()["passed"] is passed

    def test_two_routes_same_clone_marginals(self, sweep_results):
        # the hand-made network and the synthesized circuit realize one transformation
        spec = CloneSpec(1, 2)
        ref = reference_one_to_two()
        syn = sweep_results[(1, 2)].circuit
        for i in range(50):
            psi = haar_random_qubit(500, i)
            out_ref = apply(ref, psi.tensor(StateVector.basis(2, 0)))
            out_syn = apply(syn, psi.tensor(StateVector.basis(3, 0)))
            for clone in (0, 1):
                r1 = partial_trace(out_ref, {clone}).elements
                r2 = partial_trace(out_syn, {clone}).elements
                assert np.max(np.abs(r1 - r2)) < 1e-10


class TestVerifySynthesized:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_single_input_specs_pass(self, sweep_results, m):
        spec = CloneSpec(1, m)
        res = sweep_results[(1, m)]
        report = verify(spec, res.circuit, n_samples=50, seed=13,
                        gate_counts=res.gate_counts())
        assert report.passed, report.format_table()
        assert report.clone_fidelity_mean == pytest.approx(
            theoretical_fidelity(spec), abs=1e-9)
        assert report.clone_fidelity_std < 1e-9
        assert report.max_state_error < 1e-9
        assert report.ancilla_purity_error < 1e-12

    def test_multi_input_specs_are_basis_exact_but_not_universal(self, sweep_results):
        # a fixed basis shuffle cannot merge amplitudes, so with two or more
        # inputs the circuit is exact on computational inputs only
        for nm in ((2, 3), (2, 4), (3, 4)):
            res = sweep_results[nm]
            report = verify(res.spec, res.circuit, n_samples=30, seed=17)
            assert report.max_state_error < 1e-9, nm
            assert not res.universal
            assert report.clone_fidelity_std > 1e-3, nm
            assert not report.passed
            # the flag returns to |0> for every input; the full aux register
            # only when the populated bases fit the aux-clean slice
            assert flag_residue(res, seed=17) < 1e-12, nm
            if res.n_aux == 0 or nm == (2, 3):
                assert report.ancilla_purity_error < 1e-12, nm

    def test_report_serializes(self, sweep_results):
        res = sweep_results[(1, 2)]
        report = verify(res.spec, res.circuit, n_samples=5, seed=1)
        data = report.to_dict()
        assert data["passed"] and data["n_in"] == 1 and data["m_out"] == 2
        assert "paper" in data["gate_counts"] and "bound" not in data["gate_counts"]
        assert "clone fidelity mean" in report.format_table()

    def test_role_mismatch_rejected(self, sweep_results):
        with pytest.raises(ValueError):
            verify(CloneSpec(1, 3), sweep_results[(1, 2)].circuit, n_samples=1)

    @pytest.mark.parametrize("name, value", [
        ("n_samples", True), ("n_samples", 2.0), ("n_samples", "5"),
        ("seed", 1.5), ("seed", False), ("seed", None),
    ])
    def test_samples_and_seed_must_be_ints(self, name, value):
        # True ran as one sample and 2.0 or seed=1.5 raised a bare TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            verify(CloneSpec(1, 2), reference_one_to_two(), **{name: value})

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_output_rejected(self, monkeypatch, bad):
        # NaN fails every comparison, so the norm check must read `not drift <= tol`
        monkeypatch.setattr("uqcm.simulator.apply", lambda circuit, rows: rows * bad)
        with pytest.raises(ValueError, match="Dicke-row output is not normalized"):
            verify(CloneSpec(1, 2), reference_one_to_two(), n_samples=1)

    def test_spec_over_the_dense_cap_is_refused_before_the_circuit_runs(self, monkeypatch):
        # 1->12 needs 23 qubits; the batch of its Dicke rows alone would be
        # 2 x 2^24 amplitudes on the flagged register
        def no_run(circuit, rows):
            raise AssertionError("apply called on an over-cap spec")
        monkeypatch.setattr("uqcm.simulator.apply", no_run)
        spec = CloneSpec(1, 12)
        layout = RegisterLayout(spec)
        empty = Circuit(layout.n_qubits, (), layout.roles())
        with pytest.raises(ValueError, match="dense-representation cap"):
            verify(spec, empty, n_samples=1)

    @pytest.mark.parametrize("n_aux", [2, 9])
    def test_register_over_the_dense_cap_is_refused_before_the_circuit_runs(
            self, monkeypatch, n_aux):
        # 1->10 fits the cap on 19 qubits, but its file may declare more aux:
        # with 9 and the flag, the Dicke rows alone would take 16 GiB
        def no_run(circuit, rows):
            raise AssertionError("apply called on an over-cap register")
        monkeypatch.setattr("uqcm.simulator.apply", no_run)
        layout = RegisterLayout(CloneSpec(1, 10), n_aux=n_aux)
        wide = Circuit(layout.n_qubits, (), layout.roles())
        with pytest.raises(ValueError, match=f"^cannot verify a {19 + n_aux + 1}-qubit register: "
                                             "above the dense-representation cap of 20"):
            verify(layout.spec, wide, n_samples=1)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_needs_at_least_one_sample(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            verify(CloneSpec(1, 2), reference_one_to_two(), n_samples=n_samples)

    def test_given_total_is_not_recomputed(self, sweep_results, monkeypatch):
        def no_cost(circuit):
            raise AssertionError("cnot_cost called although a total was given")
        monkeypatch.setattr("uqcm.simulator.cnot_cost", no_cost)
        res = sweep_results[(1, 2)]
        report = verify(res.spec, res.circuit, n_samples=2, seed=1,
                        gate_counts={"prep": 1, "clone": 2, "total": 3})
        assert report.gate_counts["total"] == 3

    def test_deterministic_given_seed(self, sweep_results):
        res = sweep_results[(1, 3)]
        r1 = verify(res.spec, res.circuit, n_samples=10, seed=3)
        r2 = verify(res.spec, res.circuit, n_samples=10, seed=3)
        assert r1.to_json() == r2.to_json()

    def test_samples_and_seed_change_no_number(self, sweep_results):
        # both are only recorded: the statistics are exact, not sampled
        res = sweep_results[(2, 4)]
        base = verify(res.spec, res.circuit, n_samples=1, seed=0).to_dict()
        for n_samples, seed in ((1, 5), (1000, 0), (7, -2**70)):
            got = verify(res.spec, res.circuit, n_samples=n_samples, seed=seed).to_dict()
            assert (got.pop("n_samples"), got.pop("seed")) == (n_samples, seed)
            assert got == {k: v for k, v in base.items() if k not in ("n_samples", "seed")}


class TestExactStatistics:
    @pytest.mark.parametrize("nm, mean", [
        ((2, 3), 7 / 9), ((2, 4), 0.7375), ((3, 4), 0.805),
        ((3, 5), 15617 / 22500),   # 0.694088888889
        ((2, 5), 0.696),
    ])
    def test_paper_route_means_are_exact(self, sweep_results, nm, mean):
        # Haar means of the N >= 2 shortfall (criterion 7); 50 samples read
        # 0.755, 0.718, 0.782, 0.666 and 0.675
        res = sweep_results[nm]
        report = verify(res.spec, res.circuit, gate_counts=res.gate_counts())
        assert abs(report.clone_fidelity_mean - mean) <= 1e-12
        assert report.clone_fidelity_std > 1e-2
        assert report.superposition_state_error > 0.4

    def test_single_input_spread_is_centred(self, sweep_results):
        # E[F^2] - m^2 leaves about 1e-8 of rounding; centring first does not
        for nm, res in sweep_results.items():
            if nm[0] == 1:
                report = verify(res.spec, res.circuit, gate_counts=res.gate_counts())
                assert report.clone_fidelity_std < 1e-12, nm
                assert report.superposition_state_error < 1e-12, nm

    @pytest.mark.parametrize("nm", [(3, 6), (4, 8)])
    def test_circuit_runs_once_on_the_dicke_rows(self, monkeypatch, nm):
        # N+1 rows, not the 2^N input patterns: 4 for 3->6, 5 for 4->8
        from uqcm import simulator, synthesize_cloner
        res = synthesize_cloner(CloneSpec(*nm))
        shapes = []

        def recording(circuit, rows):
            shapes.append(rows.shape)
            return apply(circuit, rows)

        monkeypatch.setattr(simulator, "apply", recording)
        verify(res.spec, res.circuit, n_samples=50, seed=1, gate_counts=res.gate_counts())
        assert shapes == [(nm[0] + 1, 2 ** res.circuit.n_qubits)]

    def test_superposition_check_takes_one_phase_for_all_rows(self):
        # Z on the input first (utheta at 0) negates the output of |1> but not
        # that of |0>: each basis input stays exact up to its own phase, a
        # superposition does not
        ref = reference_one_to_two()
        z_first = Circuit(3, (Gate("utheta", 0, theta=0.0),) + ref.gates, ref.roles)
        report = verify(CloneSpec(1, 2), z_first)
        assert report.max_state_error < 1e-12
        assert report.superposition_state_error > 0.5
        assert not report.passed

def test_three_to_six_aux_variant_is_basis_exact():
    from uqcm import synthesize_cloner
    res = synthesize_cloner(CloneSpec(3, 6))
    report = verify(res.spec, res.circuit, n_samples=5, seed=19)
    assert report.max_state_error < 1e-9
    assert flag_residue(res, seed=19, samples=5) < 1e-12


def test_clone_marginals_equal_on_basis_inputs(sweep_results):
    for nm, res in sweep_results.items():
        m = res.spec.m_out
        layout = RegisterLayout.of(res.spec, res.circuit)
        for b in (0, 1):
            out = apply(res.circuit, input_state(layout, StateVector.basis(1, b)))
            rhos = [partial_trace(out, {q}).elements for q in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    assert np.max(np.abs(rhos[i] - rhos[j])) < 1e-10, (nm, b)


def test_one_to_seven_verifies_fifty_samples():
    # 14 qubits and 32 673 gates: affordable because verify runs the circuit
    # once on the two Dicke rows, not once per sample
    from uqcm import synthesize_cloner
    spec = CloneSpec(1, 7)
    res = synthesize_cloner(spec)
    report = verify(spec, res.circuit, n_samples=50, seed=23, gate_counts=res.gate_counts())
    assert report.passed, report.format_table()
    assert report.clone_fidelity_mean == pytest.approx(theoretical_fidelity(spec), abs=1e-9)
    assert report.clone_fidelity_std < 1e-9


def test_four_to_eight_aux_variant_is_basis_exact():
    # 14 qubits, 63 083 gates and 5 Dicke rows: one batched run, each run of
    # flips one basis permutation (some 40 s one flip at a time).
    # N >= 2 is not universal (criterion 7), so the verdict is not asserted,
    # and neither is the report's residue over aux and flag: the aux register
    # is not clean on superposed inputs here.  The basis-state error covers
    # the trailing qubits (they must end in |0>), and the flag returns to |0>
    # for every input.
    from uqcm import synthesize_cloner
    from uqcm.simulator import PASS_TOL
    spec = CloneSpec(4, 8)
    res = synthesize_cloner(spec)
    assert res.n_aux > 0
    report = verify(spec, res.circuit, n_samples=3, seed=29, gate_counts=res.gate_counts())
    assert report.max_state_error < PASS_TOL, report.format_table()
    assert flag_residue(res, seed=29, samples=3) < PASS_TOL
