import importlib
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

import uqcm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_export_resolves():
    missing = [name for name in uqcm.__all__ if not hasattr(uqcm, name)]
    assert not missing
    assert len(set(uqcm.__all__)) == len(uqcm.__all__)


def test_every_traced_name_resolves_at_its_call_site():
    # the benchmark's traced run wraps each of these names where its caller
    # looks it up; a rename or deletion there would break only that run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, *_ in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert spans.TARGETS
    assert not missing


@pytest.fixture
def bench_run(monkeypatch):
    """``perfbench/run.py`` loaded by path, with one set-up round per measure."""
    monkeypatch.syspath_prepend(str(PERFBENCH))   # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    return run


def test_traced_benchmark_runs_and_counts(bench_run):
    # the traced run calls the library through the counter hooks of spans.py,
    # which read the wrapped calls' arguments and results; a signature change
    # there would otherwise fail only in the benchmark's own tests
    import workloads
    synth_ladder = replace(workloads.WORKLOADS["synth-ladder"],
                           specs=((1, 2), (2, 3)), feasible_cells=None)
    verify_many = replace(workloads.WORKLOADS["verify-many"], specs=((1, 2),), samples=3)
    synth, _ = bench_run.measure(synth_ladder, seed=3, seconds=0, trace=True)
    verify, _ = bench_run.measure(verify_many, seed=3, seconds=0, trace=True)
    for result in (synth, verify):
        assert result["correct"] and result["failed"] == 0
    value = {name: entry["value"] for name, entry in synth["metrics"].items()}
    assert value["perm.moves"] > 0 and value["prep.gates"] > 0
    assert value["circuit.json_bytes"] > 0
    value = {name: entry["value"] for name, entry in verify["metrics"].items()}
    assert value["simulator.samples"] > 0 and value["circuit.apply.amp_visits"] > 0
