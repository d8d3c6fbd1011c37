"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "synth-ladder": replace(workloads.WORKLOADS["synth-ladder"],
                            specs=((1, 2), (1, 3), (1, 4), (2, 3)), feasible_cells=None),
    "verify-wide": replace(workloads.WORKLOADS["verify-wide"], specs=((1, 3), (2, 3)), samples=1),
    "verify-many": replace(workloads.WORKLOADS["verify-many"], specs=((1, 2),), samples=3),
}


def test_declared_workloads_and_metrics_match_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace):
    result, lines = run.measure(TINY[name], seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace else {**run.END_TO_END, **run.REPORTED}
    for metric, unit in units.items():
        assert any(line.split()[:1] == [metric] and f" {unit} " in f"{line} " for line in lines), metric
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in run.END_TO_END)
    json.dumps(result)


def test_layers_land_where_the_workloads_say():
    synth, _ = run.measure(TINY["synth-ladder"], seed=3, seconds=0, trace=True)
    wide, _ = run.measure(TINY["verify-wide"], seed=3, seconds=0, trace=True)
    assert synth["metrics"]["circuit.apply.calls"]["value"] == 0
    assert synth["metrics"]["cloner_math.weight_components.calls"]["value"] == 2 * 4
    assert wide["metrics"]["circuit.apply.calls"]["value"] > 0
    assert wide["metrics"]["simulator.samples"]["value"] == 2


def test_exact_counts_repeat():
    def exact(trace):
        result, lines = run.measure(TINY["synth-ladder"], seed=5, seconds=0, trace=trace)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            return {k: metrics[k] for k in ("perm.moves", "circuit.json_bytes", "prep.gates")}
        cells = next(line for line in lines if line.startswith("feasible_cells"))
        return {**{k: metrics[k] for k in ("cnot_eq_prep", "cnot_eq_clone")},
                "feasible_cells": cells.split()[1]}

    assert exact(False) == exact(False)
    assert exact(True) == exact(True)


def test_wrong_pin_counts_as_a_failed_op(monkeypatch):
    monkeypatch.setitem(workloads.PINNED_COUNTS, (1, 4), (427, 62, 8_609))
    result, lines = run.measure(TINY["synth-ladder"], seed=3, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] == 1
    assert any("pinned" in line for line in lines)


def test_times_are_rescaled_by_the_kernel(monkeypatch):
    import calib
    monkeypatch.setattr(calib, "sample", lambda: calib.REF_S / 2)   # a machine at half speed
    result, lines = run.measure(TINY["verify-many"], seed=3, seconds=0, trace=False)
    wall = json.loads(next(line for line in lines if line.startswith("# pass wall times s:"))
                      .split(":", 1)[1])
    assert result["metrics"]["pass_s"]["value"] == pytest.approx(2 * wall[0], rel=1e-2)


def test_tracer_restores_the_library():
    import uqcm.prep
    import uqcm.simulator
    before = (uqcm.simulator.apply, uqcm.prep.BasisLayout.__dict__["packed"])
    run.measure(TINY["verify-many"], seed=3, seconds=0, trace=True)
    assert (uqcm.simulator.apply, uqcm.prep.BasisLayout.__dict__["packed"]) == before


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
