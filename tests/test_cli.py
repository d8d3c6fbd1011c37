import json

import pytest

from uqcm import CloneSpec, __version__, synthesize_cloner
from uqcm.circuit import Circuit, RegisterLayout, to_json
from uqcm.cli import main


def empty_one_to_two():
    # laid out as a 1->2 cloner, but with no gates: wrong on every input
    return Circuit(4, (), RegisterLayout(CloneSpec(1, 2)).roles())


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynth:
    def test_writes_circuit_and_reports_feasibility(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["synth", "-N", "1", "-M", "2", "--artifacts", str(tmp_path)], capsys)
        assert code == 0
        assert "feasible: 3 <= 4" in out
        written = list(tmp_path.glob("cloner_N1_M2_*.json"))
        assert len(written) == 1
        data = json.loads(written[0].read_text())
        assert data["schema"] == "uqcm-circuit/1"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["synth", "-N", "2", "-M", "4", "--artifacts", str(tmp_path)]
        run_cli(args, capsys)
        artifact = next(tmp_path.glob("*.json"))
        first = artifact.read_bytes()
        run_cli(args, capsys)
        assert artifact.read_bytes() == first

    def test_infeasible_without_aux_flag(self, tmp_path, capsys):
        # 84 populated bases overflow the 2^6 prep register: one aux qubit is
        # added without being asked for, and the artifact name records it
        code, out, _ = run_cli(
            ["synth", "-N", "3", "-M", "6", "--artifacts", str(tmp_path)], capsys)
        assert code == 0
        assert "aux=1" in out
        assert "84 > 64 (aux variant used)" in out
        assert [p.name for p in tmp_path.iterdir()] == [f"cloner_N3_M6_aux1_v{__version__}.json"]
        # the paper's gate-count formula at epsilon = 1
        assert "gates paper:    36267.5" in out.splitlines()
        assert "bound" not in out

    @pytest.mark.parametrize("m_out, aux, line", [
        (3, 1, "feasible: 4 <= 4 (aux variant used)"),
        (4, 0, "feasible: 15 <= 16"),
    ])
    def test_aux_suffix_follows_the_built_register(self, tmp_path, capsys, m_out, aux, line):
        # 2->3 meets the paper's <= at equality, which leaves no free basis,
        # so its register gets an aux qubit; 2->4 fits with one to spare
        code, out, _ = run_cli(
            ["synth", "-N", "2", "-M", str(m_out), "--artifacts", str(tmp_path)], capsys)
        assert code == 0
        assert f"aux={aux}" in out
        assert line in out.splitlines()

    def test_aux_allowed_even_when_unneeded(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["synth", "-N", "2", "-M", "4", "--artifacts", str(tmp_path)], capsys)
        assert code == 0
        assert "aux=0" in out  # 15 bases fit in the 2^4 prep register
        assert [p.name for p in tmp_path.iterdir()] == [f"cloner_N2_M4_aux0_v{__version__}.json"]

    def test_removed_flags_are_rejected(self, capsys):
        # the register size follows from the spec, gates are counted under
        # one cost model, and scan measures by default
        for argv in (["synth", "-N", "2", "-M", "4", "--aux"],
                     ["verify", "-N", "2", "-M", "4", "--aux"],
                     ["count", "-N", "2", "-M", "4", "--aux"],
                     ["scan", "--aux"],
                     ["scan", "--measured"],
                     ["scan", "--gamma1", "-5"]):
            code, _, err = run_cli(argv, capsys)
            assert code == 1, argv
            assert "unrecognized arguments" in err, argv


class TestVerify:
    def test_verify_passes_for_one_to_two(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["verify", "-N", "1", "-M", "2", "--samples", "40", "--seed", "7"], capsys)
        assert code == 0
        assert "0.833333333" in out
        assert "PASS" in out

    def test_verify_uses_cached_artifact(self, tmp_path, capsys):
        # the artifact synth writes is what verify --circuit reads back
        path = tmp_path / "one_to_three.json"
        run_cli(["synth", "-N", "1", "-M", "3", "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["verify", "-N", "1", "-M", "3", "--samples", "10",
             "--circuit", str(path)], capsys)
        assert code == 0
        assert "PASS" in out

    def test_verify_ignores_a_stale_artifact(self, tmp_path, monkeypatch, capsys):
        # without --circuit, verify checks a fresh synthesis, not whatever
        # sits at synth's default output path
        monkeypatch.chdir(tmp_path)
        stale = tmp_path / "uqcm-artifacts" / f"cloner_N1_M2_aux0_v{__version__}.json"
        stale.parent.mkdir()
        stale.write_text(to_json(empty_one_to_two()))
        code, out, _ = run_cli(["verify", "-N", "1", "-M", "2", "--samples", "10"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_corrupted_circuit_file(self, tmp_path, capsys):
        # unparsable JSON, and single-field edits of the synthesized 1->2
        # circuit: each is an input error (exit 1), not a traceback, a
        # verification FAIL (exit 2) or a silently coerced index
        # (gate 0 is a rotation, gate 1's control is qubit 1)
        good = to_json(synthesize_cloner(CloneSpec(1, 2)).circuit)
        edits = [lambda d: d["gates"][-1].update(target=-1),
                 lambda d: d["gates"][-1]["controls"][0].update(q=-2),
                 lambda d: d["gates"][-1]["controls"][0].update(polarity="sideways"),
                 lambda d: d.update(n_qubits="4"),
                 lambda d: d["gates"][-1].update(target="1"),
                 lambda d: d["gates"][0].update(theta="0.5"),
                 lambda d: d["gates"][1]["controls"][0].update(q=1.5),
                 lambda d: d["gates"][0].update(target=1.5),
                 lambda d: d["gates"][0].update(theta=float("nan")),
                 lambda d: d.update(roles=[])]
        # no gates and no roles, so only the register check rejects it
        texts = ["{ not json", "[]", '{"schema": "uqcm-circuit/1", "n_qubits": -3, "gates": []}']
        for edit in edits:
            data = json.loads(good)
            edit(data)
            texts.append(json.dumps(data))
        bad = tmp_path / "broken.json"
        for text in texts:
            bad.write_text(text)
            code, _, err = run_cli(
                ["verify", "-N", "1", "-M", "2", "--circuit", str(bad)], capsys)
            assert code == 1, text[:200]
            assert "cannot load circuit" in err, text[:200]

    def test_verification_failure_exit_code(self, tmp_path, capsys):
        broken = tmp_path / "empty.json"
        broken.write_text(to_json(empty_one_to_two()))
        code, out, _ = run_cli(
            ["verify", "-N", "1", "-M", "2", "--samples", "10",
             "--circuit", str(broken)], capsys)
        assert code == 2
        assert "FAIL" in out

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["verify", "-N", "1", "-M", "2", "--samples", "10",
             "--json-out", str(report_path)], capsys)
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["passed"] is True
        assert data["schema"] == "uqcm-verification/2"
        assert data["gate_counts"]["paper"] == pytest.approx(41.53230594569169, rel=1e-12)
        assert "bound" not in data["gate_counts"]


class TestScanAndBudget:
    def test_threshold_column(self, capsys):
        code, out, _ = run_cli(["scan", "--species", "all", "--no-measured"], capsys)
        assert code == 0
        assert "0.721747" in out and "0.083944" in out and "2.575" in out

    def test_explicit_gate_override(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--species", "Ca+", "-N", "1", "-M", "2", "--gates", "6",
             "--no-measured"], capsys)
        assert code == 0
        assert "0.0623487" in out

    def test_unknown_species(self, capsys):
        code, _, err = run_cli(["scan", "--species", "Xx+"], capsys)
        assert code == 1
        assert "available" in err and "Ca+" in err

    def test_species_db_flag(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text(
            '{"schema": "uqcm-species/1", "species": [{"name": "Yb+", '
            '"omega1_per_s": 1e15, "omega2_per_s": 3e15, "gamma2_per_s": 2e7}]}')
        code, out, _ = run_cli(
            ["scan", "--species", "Yb+", "--species-db", str(db), "--no-measured",
             "-N", "1", "-M", "2"], capsys)
        assert code == 0
        assert "Yb+" in out

    def test_budget_reports_p_min(self, capsys):
        code, out, _ = run_cli(
            ["budget", "-N", "1", "-M", "2", "--species", "Ca+", "--gates", "6"], capsys)
        assert code == 0
        assert "p_min=0.0623487" in out

    def test_count_command(self, capsys):
        code, out, _ = run_cli(["count", "-N", "2", "-M", "4"], capsys)
        assert code == 0
        assert "bases populated: 15" in out
        assert "15 <= 16" in out
        lines = out.splitlines()
        assert "gates paper: 1411.46" in lines
        assert [ln for ln in lines if "measured" in ln] == [
            "measured: prep=180 clone=4130 total=4310"]


class TestValidationErrors:
    def test_bad_spec_rejected(self, capsys):
        code, _, err = run_cli(["synth", "-N", "2", "-M", "2"], capsys)
        assert code == 1

    def test_scan_requires_paired_spec_flags(self, capsys):
        code, _, err = run_cli(["scan", "-N", "1", "--species", "Ca+"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["budget", "-N", "1", "-M", "2", "--species", "Ca+", "--gates", "-5"],
        ["scan", "-N", "1", "-M", "2", "--species", "Ca+", "--gates", "-5"],
        ["budget", "-N", "1", "-M", "2", "--species", "Ca+", "--gamma1", "-1",
         "--omega1", "1e6"],
        ["budget", "-N", "1", "-M", "2", "--species", "Ca+", "--omega1", "0"],
        ["budget", "-N", "1", "-M", "2", "--species", "Ca+", "--omega1=-1e6"],
        ["scan", "--species", "Ca+", "--gates", "5"],
        ["scan", "-N", "1", "-M", "2", "--species", "Ca+", "--eta-list", "0"],
    ])
    def test_bad_physics_inputs_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""  # rejected before any part of the report

    @pytest.mark.parametrize("flag, value, message", [
        ("--omega1", "-1e6", "omega1_rabi must be positive"),
        ("--eta", "-1e-2", "eta must lie in (0, 1]"),
    ])
    def test_negative_exponent_value_reaches_range_check(self, flag, value, message, capsys):
        # a value, not an unknown option: argparse alone would say "expected
        # one argument"
        code, out, err = run_cli(
            ["budget", "-N", "1", "-M", "2", "--species", "Ca+", flag, value], capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "-inf", "-nan"])
    @pytest.mark.parametrize("command", [
        ["budget", "-N", "1", "-M", "2"],
        ["scan", "--no-measured"],
    ])
    def test_threshold_must_be_finite_and_positive(self, command, value, capsys):
        # nan made every cell "not feasible" and inf every cell feasible
        code, out, err = run_cli(command + ["--eta", "1", "--threshold", value], capsys)
        assert code == 1
        assert err.startswith("error: --threshold: ")
        assert out == ""

    @pytest.mark.parametrize("species", [
        '[]',
        '{"name": "X+", "omega1_per_s": 1e15, "gamma2_per_s": 1e7}',
        '{"name": "X+", "omega1_per_s": 1e15, "omega2_per_s": "2e15", "gamma2_per_s": 1e7}',
        '{"name": "X+", "omega1_per_s": NaN, "omega2_per_s": 2e15, "gamma2_per_s": 1e7}',
        '{"name": "X+", "omega1_per_s": true, "omega2_per_s": 2e15, "gamma2_per_s": 1e7}',
    ])
    @pytest.mark.parametrize("command", ["budget", "scan"])
    def test_malformed_species_db_rejected(self, tmp_path, capsys, species, command):
        # a top-level list, a missing rate, a string, NaN or bool rate
        db = tmp_path / "db.json"
        db.write_text(species if species == "[]" else
                      '{"schema": "uqcm-species/1", "species": [%s]}' % species)
        code, out, err = run_cli(
            [command, "-N", "1", "-M", "2", "--species-db", str(db), "--gates", "6"], capsys)
        assert code == 1
        assert err.startswith("error: ") and "db.json" in err
        assert out == ""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_verify_needs_a_sample(self, samples, capsys):
        code, _, err = run_cli(["verify", "-N", "1", "-M", "2", "--samples", samples], capsys)
        assert code == 1
        assert "n_samples" in err

    def test_missing_species_db(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code, _, err = run_cli(["scan", "--species-db", str(missing), "--no-measured"], capsys)
        assert code == 1
        assert err.startswith("error: ") and "absent.json" in err
