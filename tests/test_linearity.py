"""Differential tests of the fast simulation path against the slow oracle.

``apply``, which moves each run of flips as one basis permutation worked out
as an affine map of the index bits and a table of swaps, and updates each
group of rotations on one target and control set at once, must give the same
bits as the masked ``apply_by_mask`` on random, flip-heavy and multiplexed
circuits, one state or a batch of rows at a time; each flip run, of every
shape of flip and of a synthesized circuit, must give the basis permutation
that composing its gates one index array at a time gives.  The exact
``verify`` runs the circuit once on the N+1 Dicke rows: the combination of
those outputs that it reads as a Haar sample's output must be the mask
oracle's output at that sample, and its report must agree with
``verify_per_sample``, one mask-oracle run per Haar sample, within the
sampled statistics' own bounds.  A layout whose (w, w') residue block would
outgrow the budget is refused, and one whose block just fits is checked.
"""
import math
from itertools import groupby

import numpy as np
import pytest
from oracle import (apply_by_mask, flip_heavy_circuit, flip_sources_by_gate, input_state,
                    multiplexed_circuit, random_circuit, verify_per_sample)

from uqcm import circuit as circuit_module
from uqcm import simulator
from uqcm import (Circuit, CloneSpec, Control, Gate, RegisterLayout, StateVector, apply,
                  haar_random_qubit, reference_one_to_two, synthesize_cloner, verify)
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


def assert_linear_outputs_match_per_sample(monkeypatch, spec, circuit, n_samples, seed):
    """The N+1 Dicke-row outputs out_w that ``verify`` runs the circuit to,
    recorded from its one call of ``apply``, combined as sum_w c_w out_w with
    c_w = sqrt(C(N, w)) a^(N-w) b^w, must be the mask oracle's output on
    psi^(x)N (x) |0...0> at each Haar sample psi = a|0> + b|1>."""
    calls = []

    def recorded(circ, rows):
        outs = apply(circ, rows)
        calls.append((rows.shape, outs))
        return outs

    monkeypatch.setattr(simulator, "apply", recorded)
    verify(spec, circuit, n_samples=n_samples, seed=seed)
    monkeypatch.undo()
    (shape, outs), = calls
    assert shape == (spec.n_in + 1, 2 ** circuit.n_qubits)
    layout = RegisterLayout.of(spec, circuit)
    n_in = spec.n_in
    for i in range(n_samples):
        psi = haar_random_qubit(seed, i)
        a, b = psi.amps
        coef = np.array([math.sqrt(math.comb(n_in, w)) * a ** (n_in - w) * b ** w
                         for w in range(n_in + 1)])
        want = apply_by_mask(circuit, input_state(layout, psi)).amps
        assert np.max(np.abs(coef @ outs - want)) <= 1e-12, (spec, i)


def test_linear_verify_matches_per_sample_on_sweep(monkeypatch, sweep_results):
    for res in sweep_results.values():
        assert_linear_outputs_match_per_sample(monkeypatch, res.spec, res.circuit, 10, 11)


def test_linear_verify_matches_per_sample_on_reference(monkeypatch):
    assert_linear_outputs_match_per_sample(
        monkeypatch, CloneSpec(1, 2), reference_one_to_two(), 40, 11)


def test_linear_verify_matches_per_sample_on_random_circuit(monkeypatch):
    # no structure to lean on: a wrong row order, pattern order or
    # coefficient gives a different output at almost every sample
    layout = RegisterLayout(CloneSpec(2, 3), n_aux=1)
    circ = random_circuit(layout.n_qubits, 60, seed=5, roles=layout.roles())
    assert_linear_outputs_match_per_sample(monkeypatch, layout.spec, circ, 20, 3)


def assert_exact_within_sampled_bounds(spec, circuit, n_samples, seed):
    """The exact report against the per-sample oracle's on the same circuit:
    the sample mean within 5 standard errors of the exact mean; the sampled
    symmetry error and residue at most N+1 times the exact ones, since
    sum_w |c_w| <= sqrt(N+1) bounds each sample's combination of the Dicke
    rows; the same verdict; and the same basis-state error, to the bit."""
    exact = verify(spec, circuit, n_samples=n_samples, seed=seed)
    sampled = verify_per_sample(spec, circuit, n_samples=n_samples, seed=seed)
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
        exact = assert_exact_within_sampled_bounds(res.spec, res.circuit, 10, 31)
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


def test_residue_check_too_wide_for_the_budget_is_rejected(monkeypatch):
    # 13 aux qubits and a flag would need a 2^14 x 2^14 block per (w, w')
    # pair of Dicke rows; refused before any run
    layout = RegisterLayout(CloneSpec(1, 2), n_aux=13)
    circ = Circuit(layout.n_qubits, reference_one_to_two().gates, layout.roles())

    def no_run(*args):
        raise AssertionError("the circuit ran")

    monkeypatch.setattr(simulator, "apply", no_run)
    with pytest.raises(ValueError, match=r"on 14 aux and flag qubits: each \(w, w'\) residue "
                                         r"block of 2\^14 x 2\^14 entries exceeds"):
        verify(layout.spec, circ, n_samples=2)


def test_residue_check_at_the_budget_is_run():
    # 9 aux qubits and a flag: each (w, w') block has 2^10 x 2^10 = 2^20
    # entries, the whole budget, so the check runs; one more aux is refused
    layout = RegisterLayout(CloneSpec(1, 2), n_aux=9)
    circ = Circuit(layout.n_qubits, reference_one_to_two().gates, layout.roles())
    report = verify(layout.spec, circ, n_samples=2)
    assert report.passed
    assert report.ancilla_purity_error < 1e-12
    wider = RegisterLayout(CloneSpec(1, 2), n_aux=10)
    with pytest.raises(ValueError, match="on 11 aux and flag qubits"):
        verify(wider.spec, Circuit(wider.n_qubits, circ.gates, wider.roles()), n_samples=2)
