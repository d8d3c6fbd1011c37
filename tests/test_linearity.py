"""Differential tests of the fast simulation path against the slow oracle.

``apply``, which moves each run of flips as one basis permutation worked out
as an affine map of the index bits and a table of swaps, and updates each
group of rotations on one target and control set at once, must give the same
bits as the masked ``apply_by_mask`` on random, flip-heavy and multiplexed
circuits, one state or a batch of rows at a time; each flip run, of every
shape of flip and of a synthesized circuit, must give the basis permutation
that composing its gates one index array at a time gives.  The sampled
oracle ``verify_sampled``, which runs the circuit once on the 2^N input
patterns and combines the outputs linearly, must give the report that one
mask-oracle run per sample gives; its Haar inputs, drawn for a whole chunk of
samples from one re-keyed generator, must be the bits one fresh generator per
sample draws, and its chunks are sized so that neither their outputs nor
their residue matrices outgrow the budget.  The exact ``verify``, which runs
the circuit once on the N+1 Dicke rows, must agree with the sampled
statistics within their own bounds, and a layout whose single residue matrix
would outgrow the budget is refused.
"""
from itertools import groupby

import numpy as np
import pytest
from oracle import (apply_by_mask, flip_heavy_circuit, flip_sources_by_gate, haar_qubit_by_key,
                    multiplexed_circuit, random_circuit, verify_per_sample, verify_sampled)

from uqcm import circuit as circuit_module
from uqcm import simulator
from uqcm import (Circuit, CloneSpec, Control, Gate, RegisterLayout, StateVector, apply,
                  reference_one_to_two, synthesize_cloner, verify)
from uqcm.circuit import FLIP_KINDS


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
    for seed in range(16):
        circ = flip_heavy_circuit(n, n_gates=60, seed=2000 * n + seed)
        assert_apply_matches_mask(circ, k=1 + seed % 4, seed=seed)


@pytest.mark.parametrize("nm", [(1, 5), (3, 6), (1, 6)])
def test_synthesized_flip_runs_match_gate_by_gate_oracle(nm):
    # the full-pattern mcx gadgets of the permutation stage, on 10 to 12 qubits
    circ = synthesize_cloner(CloneSpec(*nm)).circuit
    runs = [tuple(run) for flips, run in groupby(circ.gates, lambda g: g.kind in FLIP_KINDS)
            if flips]
    assert runs and circ.gates[-len(runs[-1]):] == runs[-1]   # the stage ends the circuit
    for run in runs:
        np.testing.assert_array_equal(circuit_module._flip_sources(run, circ.n_qubits),
                                      flip_sources_by_gate(run, circ.n_qubits))


@pytest.mark.parametrize("n", range(1, 9))
def test_flip_runs_of_every_shape_match_gate_by_gate_oracle(n):
    # x and one-control flips of either polarity change only the affine map;
    # full-pattern mcx swap one pair in the table while it is a list, and
    # flips with 2 to n-2 controls swap many on an array, before and after
    # full-pattern ones
    rng = np.random.default_rng(n)
    for _ in range(12):
        gates = []
        for _ in range(40):
            target, *others = (int(q) for q in rng.permutation(n))
            c = int(rng.choice([0, 1, n - 1, rng.integers(n)]))
            controls = tuple(Control(q, bool(rng.integers(2))) for q in others[:c])
            kind = ("x", "mcx", "cnot")[int(rng.integers(2 + (len(controls) == 1)))]
            gates.append(Gate.of(kind, target, controls))
        run = tuple(gates)
        np.testing.assert_array_equal(circuit_module._flip_sources(run, n),
                                      flip_sources_by_gate(run, n))


@pytest.mark.parametrize("n", range(1, 13))
def test_flips_on_dirty_controls_match_gate_by_gate_oracle(n):
    # a one-control flip changes its control's image, so a later flip with
    # two or more controls that names that qubit, as a positive or a
    # negative control, must read its image, not its unit index; full-pattern
    # mcx and flips with 2 to n-2 controls both meet such qubits here
    rng = np.random.default_rng(500 + n)
    met = 0
    for _ in range(8):
        gates, dirty = [], set()
        for _ in range(30):
            target, *others = (int(q) for q in rng.permutation(n))
            named = [q for q in others if q in dirty]
            if n >= 3 and named and rng.random() < 0.5:
                c = n - 1 if n == 3 or rng.random() < 0.5 else int(rng.integers(2, n - 1))
                first = named[int(rng.integers(len(named)))]
                qs = [first] + [q for q in others if q != first][:c - 1]
                controls = tuple(Control(q, bool(rng.integers(2))) for q in qs)
                gates.append(Gate.of("mcx", target, controls))
                met += 1
            elif others and rng.random() < 0.8:
                gates.append(Gate.of("cnot", target, (Control(others[0], bool(rng.integers(2))),)))
                dirty.add(others[0])
            else:
                gates.append(Gate("x", target))
        run = tuple(gates)
        np.testing.assert_array_equal(circuit_module._flip_sources(run, n),
                                      flip_sources_by_gate(run, n))
    assert met > 0 or n < 3


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
    assert max(sizes) > 1   # the multiplexed runs went as groups, not gate by gate


@pytest.mark.parametrize("n", range(3, 9))
def test_rotations_listing_their_controls_in_any_order_go_as_one_group(n, monkeypatch):
    # one target and one set of control qubits, every polarity pattern once,
    # each gate built from the controls rotated one place from the last
    # gate's list, which it does not keep: one update, which must give the
    # bits the gate-by-gate oracle gives
    sizes = count_rotation_groups(monkeypatch)
    rng = np.random.default_rng(600 + n)
    for c in range(1, n):
        target, *qs = (int(q) for q in rng.permutation(n)[:c + 1])
        gates = []
        for j, pattern in enumerate(rng.permutation(2 ** c)):
            controls = [Control(q, bool(pattern >> i & 1)) for i, q in enumerate(qs)]
            kind = ("roty", "utheta")[int(rng.integers(2))]
            gates.append(Gate.of(kind, target, tuple(controls[j % c:] + controls[:j % c]),
                                 float(rng.uniform(-np.pi, np.pi))))
        assert len({g.control_mask for g in gates}) == 1
        sizes.clear()
        assert_apply_matches_mask(Circuit(n, tuple(gates)), k=2, seed=c)
        assert sizes == [2 ** c] * 3   # the batch, then each row alone


def test_prep_tree_levels_are_one_update_each(sweep_results, monkeypatch):
    # level L of the preparation tree is 2^(L-1) rotations on one target and
    # control set.  Every level, the lone uncontrolled rotation of level 1
    # too, is one update, prep_qubits in all, and the cloning stage (flips
    # only) adds none
    sizes = count_rotation_groups(monkeypatch)
    for nm, res in sweep_results.items():
        sizes.clear()
        apply(res.circuit, np.zeros((2, 2 ** res.circuit.n_qubits), dtype=complex))
        assert sizes == [2 ** (lev - 1) for lev in range(1, res.layout.prep_qubits + 1)], nm


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
    fast = verify_sampled(spec, circuit, n_samples=n_samples, seed=seed,
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


def assert_exact_within_sampled_bounds(spec, circuit, n_samples, seed):
    """The exact report against the sampled one on the same circuit: the
    sample mean within 5 standard errors of the exact mean; the sampled
    symmetry error and residue at most N+1 times the exact ones, since
    sum_w |c_w| <= sqrt(N+1) bounds each sample's combination of the Dicke
    rows; the same verdict; and the same basis-state error, to the bit."""
    exact = verify(spec, circuit, n_samples=n_samples, seed=seed)
    sampled = verify_sampled(spec, circuit, n_samples=n_samples, seed=seed)
    bound = 5 * exact.clone_fidelity_std / n_samples ** 0.5 + 1e-12
    assert abs(sampled.clone_fidelity_mean - exact.clone_fidelity_mean) <= bound
    n_rows = spec.n_in + 1
    assert sampled.clone_symmetry_error <= n_rows * exact.clone_symmetry_error + 1e-12
    assert sampled.ancilla_purity_error <= n_rows * exact.ancilla_purity_error + 1e-12
    assert sampled.passed == exact.passed
    assert sampled.max_state_error == exact.max_state_error
    return exact


def test_exact_verify_agrees_with_sampled_on_sweep(sweep_results):
    for nm, res in sweep_results.items():
        exact = assert_exact_within_sampled_bounds(res.spec, res.circuit, 200, 31)
        assert exact.passed == (nm[0] == 1), nm


def test_exact_verify_agrees_with_sampled_on_reference():
    assert assert_exact_within_sampled_bounds(
        CloneSpec(1, 2), reference_one_to_two(), 200, 31).passed


def test_exact_verify_agrees_with_sampled_on_random_circuit():
    layout = RegisterLayout(CloneSpec(2, 3), n_aux=1)
    circ = random_circuit(layout.n_qubits, 60, seed=5, roles=layout.roles())
    exact = assert_exact_within_sampled_bounds(layout.spec, circ, 200, 31)
    assert exact.clone_fidelity_std > 1e-2
    assert exact.ancilla_purity_error > 1e-2


def oracle_rows(seed, start, stop):
    return np.array([haar_qubit_by_key(seed, i).amps for i in range(start, stop)])


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, -3])
@pytest.mark.parametrize("start, stop", [(0, 1), (5, 300), (2**40, 2**40 + 3), (2**64 - 2, 2**64 + 1)])
def test_batch_sampler_matches_one_generator_per_key(seed, start, stop):
    rows = simulator._haar_rows(seed, start, stop)
    assert rows.shape == (stop - start, 2)
    assert rows.tobytes() == oracle_rows(seed, start, stop).tobytes()


def record_chunks(monkeypatch):
    """Record the (start, stop) of each chunk of Haar inputs ``verify`` draws."""
    chunks = []

    def rows(seed, start, stop):
        chunks.append((start, stop))
        return oracle_rows(seed, start, stop)

    monkeypatch.setattr(simulator, "_haar_rows", rows)
    return chunks


def test_verify_draws_the_oracle_inputs_chunk_by_chunk(monkeypatch):
    # the 1->2 network run as a (failing) 1->9 cloner on 17 qubits is
    # verified 8 samples at a time, so 20 samples take three chunks
    layout = RegisterLayout(CloneSpec(1, 9), flag=False)
    circ = Circuit(layout.n_qubits, reference_one_to_two().gates, layout.roles())
    fast = verify_sampled(layout.spec, circ, n_samples=20, seed=-5).to_dict()
    chunks = record_chunks(monkeypatch)
    assert verify_sampled(layout.spec, circ, n_samples=20, seed=-5).to_dict() == fast
    assert chunks == [(0, 8), (8, 16), (16, 20)]


def test_residue_matrices_share_the_chunk_budget(monkeypatch):
    # 1->2 on 12 qubits, 9 of them aux and flag: one sample's 2^9 x 2^9
    # residue matrix outweighs its 2^12 amplitudes, so chunks hold 4 samples
    layout = RegisterLayout(CloneSpec(1, 2), n_aux=8)
    circ = Circuit(layout.n_qubits, reference_one_to_two().gates, layout.roles())
    chunks = record_chunks(monkeypatch)
    assert verify_sampled(layout.spec, circ, n_samples=10, seed=3).passed
    assert chunks == [(0, 4), (4, 8), (8, 10)]


def test_residue_check_too_wide_for_the_budget_is_rejected(monkeypatch):
    # 13 aux qubits and a flag would need a 2^14 x 2^14 matrix per sample
    # (32 GiB for the 8 samples a 17-qubit chunk holds); refused before any run
    layout = RegisterLayout(CloneSpec(1, 2), n_aux=13)
    circ = Circuit(layout.n_qubits, reference_one_to_two().gates, layout.roles())

    def no_run(*args):
        raise AssertionError("the circuit ran")

    monkeypatch.setattr(simulator, "apply", no_run)
    monkeypatch.setattr(simulator, "_haar_rows", no_run)
    with pytest.raises(ValueError, match="on 14 aux and flag qubits"):
        verify(layout.spec, circ, n_samples=2)
