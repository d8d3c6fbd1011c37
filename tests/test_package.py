import ast
import importlib
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

import uqcm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    """``perfbench/spans.py`` loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_export_resolves():
    missing = [name for name in uqcm.__all__ if not hasattr(uqcm, name)]
    assert not missing
    assert len(set(uqcm.__all__)) == len(uqcm.__all__)


def test_no_unused_imports():
    # a module-level import must be read in its module, or be a name the
    # benchmark's traced run wraps there
    traced = {(module, path.split(".")[0]) for module, path, *_ in load_spans().TARGETS}
    unused = []
    for path in sorted(Path(uqcm.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = f"uqcm.{path.stem}"
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (module, name) not in traced:
                        unused.append(f"{module}: {name}")
    assert not unused


def test_no_instance_is_built_around_its_constructor():
    # every Gate goes through its checked __init__: no module makes an
    # instance with object.__new__ or fills a slot through a descriptor's
    # __set__, which would let a second, unchecked gate constructor come back
    found = []
    for path in sorted(Path(uqcm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "__set__" or node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found


def test_no_cache_outlives_a_call():
    # a memo lives for one call (a dict or _Memo it builds), so nothing one
    # call works out is kept for the next: no module wraps a function or
    # property in functools' lru_cache, cache or cached_property
    caches = {"lru_cache", "cache", "cached_property"}
    found = []
    for path in sorted(Path(uqcm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # an imported name, a bare name or an attribute such as functools.cache
            named = (node.name.rpartition(".")[2] if isinstance(node, ast.alias)
                     else node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute) else None)
            if named in caches:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found


def test_every_traced_name_resolves_at_its_call_site():
    # the benchmark's traced run wraps each of these names where its caller
    # looks it up; a rename or deletion there would break only that run
    spans = load_spans()
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
