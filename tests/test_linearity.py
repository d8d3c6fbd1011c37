"""Differential tests of the fast simulation path against the slow oracle.

``apply``, which moves each run of flips as one basis permutation worked out
on bit-planes and updates each group of rotations on one target and control
set at once, must give the same bits as the masked ``apply_by_mask`` on
random, flip-heavy and multiplexed circuits, one state or a batch of rows at
a time; and ``verify``, which runs the circuit once on the 2^N input patterns
and combines the outputs linearly, must give the report that one oracle run
per sample gives.
"""
import numpy as np
import pytest
from oracle import (apply_by_mask, flip_heavy_circuit, multiplexed_circuit, random_circuit,
                    verify_per_sample)

from uqcm import circuit as circuit_module
from uqcm import (Circuit, CloneSpec, Gate, RegisterLayout, StateVector, apply,
                  reference_one_to_two, verify)


def random_rows(k, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, 2 ** n)) + 1j * rng.normal(size=(k, 2 ** n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def assert_apply_matches_mask(circ, k, seed):
    rows = random_rows(k, circ.n_qubits, seed)
    before = rows.copy()
    batch = apply(circ, rows)
    np.testing.assert_array_equal(rows, before)   # the input is not modified
    assert batch.shape == rows.shape
    for row, got in zip(rows, batch):
        want = apply_by_mask(circ, StateVector(row)).amps
        np.testing.assert_array_equal(apply(circ, StateVector(row)).amps, want)
        np.testing.assert_array_equal(got, want)


def assert_slice_matches_mask(n, n_gates, k, seed):
    assert_apply_matches_mask(random_circuit(n, n_gates, seed), k, seed + 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_slice_apply_matches_mask_oracle(n):
    for seed in range(4):
        assert_slice_matches_mask(n, n_gates=40, k=1 + seed % 3, seed=1000 * n + seed)


def test_slice_apply_matches_mask_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(n=st.integers(1, 8), n_gates=st.integers(0, 30),
                      k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def check(n, n_gates, k, seed):
        assert_slice_matches_mask(n, n_gates, k, seed)

    check()


@pytest.mark.parametrize("n", range(1, 11))
def test_flip_runs_match_mask_oracle(n):
    # n < 3: a bit-plane shorter than one byte
    for seed in range(16):
        circ = flip_heavy_circuit(n, n_gates=60, seed=2000 * n + seed)
        assert_apply_matches_mask(circ, k=1 + seed % 4, seed=seed)


def count_rotation_groups(monkeypatch):
    """Record the size of each grouped rotation update ``apply`` makes."""
    sizes = []
    grouped = circuit_module._group_update

    def counting(out, gates, *args):
        sizes.append(len(gates))
        return grouped(out, gates, *args)

    monkeypatch.setattr(circuit_module, "_group_update", counting)
    return sizes


@pytest.mark.parametrize("n", range(3, 11))
def test_rotation_groups_match_mask_oracle(n, monkeypatch):
    sizes = count_rotation_groups(monkeypatch)
    for seed in range(8):
        circ = multiplexed_circuit(n, seed=4000 * n + seed)
        assert_apply_matches_mask(circ, k=1 + seed % 4, seed=seed)
    assert sizes   # the grouped update ran, not only the single-gate one


def test_prep_tree_levels_are_one_update_each(sweep_results, monkeypatch):
    # level L of the preparation tree is 2^(L-1) rotations on one target and
    # control set.  Levels 3 and up are one update each, prep_qubits - 2 in
    # all; levels 1 and 2 (one and two gates) go gate by gate, and the cloning
    # stage (flips only) adds none
    sizes = count_rotation_groups(monkeypatch)
    for nm, res in sweep_results.items():
        sizes.clear()
        apply(res.circuit, np.zeros((2, 2 ** res.circuit.n_qubits), dtype=complex))
        assert sizes == [2 ** (lev - 1) for lev in range(3, res.layout.prep_qubits + 1)], nm


@pytest.mark.parametrize("n", range(1, 8))
def test_flip_only_circuit_permutes_basis_states(n):
    circ = flip_heavy_circuit(n, n_gates=80, seed=3000 + n, rotation_share=0.0)
    basis = np.eye(2 ** n, dtype=complex)
    out = apply(circ, basis)
    np.testing.assert_array_equal(basis, np.eye(2 ** n))
    # each basis input lands on one basis output, and no two on the same one
    assert set(np.unique(out)) <= {0, 1}
    np.testing.assert_array_equal(np.sum(out, axis=1), np.ones(2 ** n))
    np.testing.assert_array_equal(np.sum(out, axis=0), np.ones(2 ** n))
    for i in (0, 2 ** n - 1):
        np.testing.assert_array_equal(out[i], apply_by_mask(circ, StateVector(basis[i])).amps)


def test_batch_shape_must_match_register():
    circ = Circuit(2, (Gate("x", 0),))
    for bad in (np.zeros(4), np.zeros((2, 8)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply(circ, bad)


def assert_reports_match(spec, circuit, n_samples, seed, gate_counts=None):
    fast = verify(spec, circuit, n_samples=n_samples, seed=seed,
                  gate_counts=gate_counts).to_dict()
    slow = verify_per_sample(spec, circuit, n_samples=n_samples, seed=seed,
                             gate_counts=gate_counts).to_dict()
    assert fast.keys() == slow.keys()
    for key, value in slow.items():
        if isinstance(value, float):
            assert abs(fast[key] - value) <= 1e-12, (key, fast[key], value)
        else:
            assert fast[key] == value, key
    return fast


def test_linear_verify_matches_per_sample_on_sweep(sweep_results):
    for res in sweep_results.values():
        assert_reports_match(res.spec, res.circuit, 10, 11, res.gate_counts())


def test_linear_verify_matches_per_sample_on_reference():
    assert_reports_match(CloneSpec(1, 2), reference_one_to_two(), 40, 11)


def test_linear_verify_matches_per_sample_on_random_circuit():
    # no structure to lean on: a wrong pattern order or coefficient shows up
    # in fidelities that differ widely from sample to sample
    layout = RegisterLayout(CloneSpec(2, 3), n_aux=1)
    circ = random_circuit(layout.n_qubits, 60, seed=5, roles=layout.roles())
    report = assert_reports_match(layout.spec, circ, 20, 3)
    assert report["clone_fidelity_std"] > 1e-2
    assert report["ancilla_purity_error"] > 1e-2
