import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from uqcm import (CloneSpec, TrapParams, cloning_time, elementary_gate_time,
                  emission_probability, feasibility_scan, feasibility_threshold,
                  lhs_mmax, load_species, min_emission_probability)
from uqcm.ion_budget import IonSpecies, formula_gate_count, render_scan_table, scan_to_json

SPEC12 = CloneSpec(1, 2)


@pytest.fixture(scope="module")
def species():
    return load_species()


def golden_minimum(f, lo, hi, iters=120):
    """Golden-section search over log-bracketed x; independent of any calculus."""
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return f((a + b) / 2)


def numeric_min_over_x(spec, sp, params, override=None):
    def f(x):
        return emission_probability(spec, sp, params, omega1_rabi=x * math.sqrt(params.gamma1),
                                    gate_count_override=override).p_total
    # bracket by decade scan, then refine
    xs = [10.0 ** k for k in range(-6, 30)]
    vals = [f(x) for x in xs]
    k = int(np.argmin(vals))
    return golden_minimum(f, xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)])


class TestGateTime:
    def test_worked_value(self):
        params = TrapParams(eta=0.01)
        tau = elementary_gate_time(SPEC12, params, 1e6)
        assert tau == pytest.approx(4 * math.pi * math.sqrt(3) / 1e4, rel=1e-12)
        assert tau == pytest.approx(2.177e-3, rel=1e-3)

    def test_doubling_rabi_halves_time(self):
        params = TrapParams(eta=0.05)
        assert elementary_gate_time(SPEC12, params, 2e6) == pytest.approx(
            elementary_gate_time(SPEC12, params, 1e6) / 2, rel=1e-12)

    @pytest.mark.parametrize("omega1_rabi", [0.0, -1e6, math.nan, math.inf, -math.inf])
    def test_rabi_frequency_must_be_finite_and_positive(self, omega1_rabi):
        with pytest.raises(ValueError, match="omega1_rabi must be finite and positive"):
            elementary_gate_time(SPEC12, TrapParams(), omega1_rabi)

    def test_register_size_scaling(self):
        params = TrapParams(eta=0.02)
        t4 = elementary_gate_time(CloneSpec(2, 3), params, 1e6)   # 2M-N = 4
        t1_like = 4 * math.pi / (0.02 * 1e6)
        assert t4 == pytest.approx(2 * t1_like, rel=1e-12)


class TestCloningTime:
    def test_override_is_linear_in_gates(self):
        params = TrapParams(eta=0.01)
        tau = elementary_gate_time(SPEC12, params, 1e6)
        assert cloning_time(SPEC12, params, 1e6, gate_count_override=6) == pytest.approx(
            6 * tau, rel=1e-12)
        assert cloning_time(SPEC12, params, 1e6, gate_count_override=0) == 0.0

    def test_formula_count_worked_value(self):
        # epsilon * 2^6 * 1 * (1/4 + 1/sqrt(2 pi)) for the 1->2 pair
        want = 100 * 64 * (0.25 + 1 / math.sqrt(2 * math.pi))
        assert formula_gate_count(SPEC12, 100.0) == pytest.approx(want, rel=1e-12)
        params = TrapParams(eta=0.01, epsilon=100.0)
        tau = elementary_gate_time(SPEC12, params, 1e6)
        assert cloning_time(SPEC12, params, 1e6) == pytest.approx(tau * want, rel=1e-12)

    def test_paper_count_closed_form(self):
        # G = eps 2^(2M+2) (M-N)^2 (2^-2N + 1/sqrt(pi M)) at eps = 1, and the
        # figures synth, count and verify print for it
        for (n, m), shown in (((2, 4), "1411.46"), ((3, 6), "36267.5")):
            want = 2 ** (2 * m + 2) * (m - n) ** 2 * (2.0 ** (-2 * n) + 1 / math.sqrt(math.pi * m))
            got = formula_gate_count(CloneSpec(n, m), 1.0)
            assert got == pytest.approx(want, rel=1e-12), (n, m)
            assert f"{got:.6g}" == shown

    def test_negative_gate_count_rejected(self, species):
        params = TrapParams()
        with pytest.raises(ValueError, match="nonnegative"):
            cloning_time(SPEC12, params, 1e6, gate_count_override=-5)
        with pytest.raises(ValueError, match="nonnegative"):
            min_emission_probability(SPEC12, species["Ca+"], params, gate_count_override=-5)

    @pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf, True, False,
                                       np.float64("nan"),
                                       pytest.param(10 ** 400, id="int-past-float-max")])
    def test_non_finite_or_bool_gate_count_rejected(self, species, count):
        # a NaN count would give a NaN p_min, which the scan then calls not
        # feasible without saying why; a bool is not a count; an int too
        # large for a float overflowed in the arithmetic
        params = TrapParams()
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cloning_time(SPEC12, params, 1e6, gate_count_override=count)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            min_emission_probability(SPEC12, species["Ca+"], params, gate_count_override=count)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            feasibility_scan([species["Ca+"]], params, [SPEC12], measured_counts={(1, 2): count})


class TestEmissionProbability:
    def test_requires_gamma1(self):
        params = TrapParams()
        with pytest.raises(ValueError):
            emission_probability(SPEC12, load_species()["Ca+"], params, omega1_rabi=1.0)

    @pytest.mark.parametrize("gamma1", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_gamma1_rejected(self, gamma1):
        with pytest.raises(ValueError, match="gamma1 must be finite and positive"):
            TrapParams(gamma1=gamma1)

    @pytest.mark.parametrize("field", ["epsilon", "delta2"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_epsilon_and_delta2_must_be_finite_and_positive(self, field, value):
        # nan and inf passed a bare `<= 0` test: delta2 = inf gave p_min = 0
        with pytest.raises(ValueError, match="epsilon and delta2 must be finite and positive"):
            TrapParams(**{field: value})

    def test_linear_in_run_time(self, species):
        params = TrapParams(gamma1=1.0)
        p1 = emission_probability(SPEC12, species["Ca+"], params, omega1_rabi=1e5,
                                  gate_count_override=6)
        p2 = emission_probability(SPEC12, species["Ca+"], params, omega1_rabi=1e5,
                                  gate_count_override=12)
        assert p2.p_total == pytest.approx(2 * p1.p_total, rel=1e-12)
        assert p2.p1 == pytest.approx(2 * p1.p1, rel=1e-12)

    def test_stable_level_two_emits_nothing(self, species):
        sp = replace(species["Ca+"], gamma2=1e-30)
        params = TrapParams(gamma1=1.0)
        probs = emission_probability(SPEC12, sp, params, omega1_rabi=1e5, gate_count_override=6)
        assert probs.p2 == pytest.approx(0.0, abs=1e-40)

    @pytest.mark.parametrize("x", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_nonpositive_x(self, species, x):
        params = TrapParams(gamma1=1.0)
        # at gamma1 = 1 the operating point x is omega1_rabi itself
        with pytest.raises(ValueError, match="omega1_rabi must be finite and positive"):
            emission_probability(SPEC12, species["Ca+"], params, omega1_rabi=x)

    def test_optimum_matches_analytic_minimum(self, species):
        # oracle: min over x of a/x + b x is 2 sqrt(a b); probe the curve directly
        params = TrapParams(gamma1=1.0)
        analytic = min_emission_probability(SPEC12, species["Ca+"], params,
                                            gate_count_override=6)
        numeric = numeric_min_over_x(SPEC12, species["Ca+"], params, override=6)
        assert numeric == pytest.approx(analytic, rel=1e-12)


class TestMinimumEmission:
    def test_worked_values_frozen(self, species):
        params = TrapParams(eta=0.01, delta2=1e13)
        p_ca = min_emission_probability(SPEC12, species["Ca+"], params,
                                        gate_count_override=6)
        p_ba = min_emission_probability(SPEC12, species["Ba+"], params,
                                        gate_count_override=6)
        assert p_ca == pytest.approx(0.06234873548775412, rel=1e-12)
        assert p_ba == pytest.approx(0.017475710838338508, rel=1e-12)

    def test_scales_inversely_with_lamb_dicke(self, species):
        p1 = min_emission_probability(SPEC12, species["Ca+"], TrapParams(eta=0.01),
                                      gate_count_override=6)
        p2 = min_emission_probability(SPEC12, species["Ca+"], TrapParams(eta=0.02),
                                      gate_count_override=6)
        assert p1 == pytest.approx(2 * p2, rel=1e-12)

    @pytest.mark.parametrize("name", ["Ca+", "Hg+", "Ba+"])
    def test_analytic_equals_numeric_for_all_specs(self, species, name):
        sp = species[name]
        specs = [CloneSpec(n, m) for n in (1, 2, 3) for m in range(n + 1, 7)]
        params = TrapParams(eta=0.01, gamma1=1.0)
        for spec in specs:
            analytic = min_emission_probability(spec, sp, params)
            numeric = numeric_min_over_x(spec, sp, params)
            assert numeric == pytest.approx(analytic, rel=1e-9), (name, spec)

    def test_independent_of_gamma1(self, species):
        sp = species["Ba+"]
        vals = []
        for gamma1 in (1e-3, 1.0, 1e3):
            params = TrapParams(eta=0.01, gamma1=gamma1)
            vals.append(numeric_min_over_x(CloneSpec(2, 3), sp, params))
        assert max(vals) - min(vals) < 1e-12 * max(vals)


class TestThresholdTable:
    def test_reproduced_within_one_percent(self, species):
        params = TrapParams(eta=0.01, epsilon=100.0, delta2=1e13)
        for name, printed in (("Ca+", 0.72), ("Hg+", 0.084), ("Ba+", 2.58)):
            got = feasibility_threshold(species[name], params)
            assert got == pytest.approx(printed, rel=0.01), name

    def test_lhs_worked_value(self):
        assert lhs_mmax(SPEC12) == pytest.approx(31.15, rel=0.002)

    def test_lhs_monotone_in_outputs(self):
        for n in (1, 2, 3):
            vals = [lhs_mmax(CloneSpec(n, m)) for m in range(n + 1, n + 11)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m", [511, 600])
    def test_lhs_past_a_float_is_refused(self, m):
        # 2.0 ** (2 M) raised an OverflowError from M = 512, and at M = 511
        # the product became inf
        with pytest.raises(ValueError, match=f"^1->{m}: the circuit factor .* overflows a float"):
            lhs_mmax(CloneSpec(1, m))

    def test_two_to_three_exceeds_every_species_threshold(self, species):
        params = TrapParams(eta=0.01, epsilon=100.0, delta2=1e13)
        lhs = lhs_mmax(CloneSpec(2, 3))
        for sp in species.values():
            assert lhs > feasibility_threshold(sp, params)


class TestScan:
    def test_empty_specs_give_empty_table(self, species):
        rows = feasibility_scan(list(species.values()), TrapParams(), specs=[])
        assert rows == []

    def test_default_eta_finds_nothing_feasible(self, species):
        specs = [CloneSpec(n, m) for n in (1, 2) for m in range(n + 1, 5)]
        rows = feasibility_scan(list(species.values()), TrapParams(eta=0.01), specs)
        assert all(not r.feasible_formula for r in rows)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, species, threshold):
        with pytest.raises(ValueError, match="threshold must be finite and above 0"):
            feasibility_scan([species["Ca+"]], TrapParams(eta=1.0), [SPEC12],
                             threshold=threshold)

    def test_measured_counts_reported(self, species):
        rows = feasibility_scan([species["Ca+"]], TrapParams(eta=0.01), [SPEC12],
                                measured_counts={(1, 2): 6})
        row = rows[0]
        assert row.gates_measured == 6
        assert row.p_min_measured == pytest.approx(0.062349, rel=1e-4)
        assert row.feasible_measured
        assert "Ca+" in render_scan_table(rows)

    def test_json_rows_carry_the_row_fields(self, species):
        rows = feasibility_scan([species["Ca+"]], TrapParams(eta=0.01), [SPEC12, CloneSpec(2, 3)],
                                measured_counts={(1, 2): 6})
        data = json.loads(scan_to_json(rows))
        assert data["schema"] == "uqcm-scan/2"
        fields = {"species", "n_in", "m_out", "eta", "p_min_formula", "feasible_formula",
                  "gates_measured", "p_min_measured", "feasible_measured"}
        assert [set(r) for r in data["rows"]] == [fields, fields]
        assert data["rows"][0]["gates_measured"] == 6
        assert data["rows"][1]["gates_measured"] is None

    def test_optimistic_lamb_dicke_unlocks_small_cloners(self, species, sweep_results):
        # measured circuit sizes + eta = 1: the 1->2 pair works for Ca+ and
        # both 1->2 and 2->3 work for Ba+
        measured = {nm: sweep_results[nm].gate_counts()["total"]
                    for nm in ((1, 2), (2, 3))}
        rows = feasibility_scan([species["Ca+"], species["Ba+"]],
                                TrapParams(eta=1.0), [SPEC12, CloneSpec(2, 3)],
                                measured_counts=measured)
        verdicts = {(r.species, r.n_in, r.m_out): r.feasible_measured for r in rows}
        assert verdicts[("Ca+", 1, 2)]
        assert verdicts[("Ba+", 1, 2)]
        assert verdicts[("Ba+", 2, 3)]


class TestDimensionalConsistency:
    def test_gate_time_carries_inverse_rate_units(self, species):
        # rescaling every rate by the same factor rescales times inversely...
        lam = 7.3
        params = TrapParams(eta=0.01)
        assert elementary_gate_time(SPEC12, params, lam * 1e6) == pytest.approx(
            elementary_gate_time(SPEC12, params, 1e6) / lam, rel=1e-12)

    def test_probabilities_are_scale_free(self, species):
        # ...while probabilities, built from rate ratios, stay put
        lam = 7.3
        sp = species["Ca+"]
        scaled = IonSpecies(name="Ca+s", omega1=sp.omega1 * lam, omega2=sp.omega2 * lam,
                            gamma2=sp.gamma2 * lam)
        params = TrapParams(eta=0.01, delta2=1e13, gamma1=2.0)
        params_scaled = TrapParams(eta=0.01, delta2=1e13 * lam, gamma1=2.0 * lam)
        p = min_emission_probability(SPEC12, sp, params, gate_count_override=6)
        p_scaled = min_emission_probability(SPEC12, scaled, params_scaled,
                                            gate_count_override=6)
        assert p_scaled == pytest.approx(p, rel=1e-12)
        e = emission_probability(SPEC12, sp, params, omega1_rabi=1e4 * math.sqrt(params.gamma1),
                                 gate_count_override=6)
        e_scaled = emission_probability(SPEC12, scaled, params_scaled,
                                        omega1_rabi=1e4 * math.sqrt(lam)
                                        * math.sqrt(params_scaled.gamma1),
                                        gate_count_override=6)
        assert e_scaled.p_total == pytest.approx(e.p_total, rel=1e-12)


class TestSpeciesDatabase:
    def test_packaged_values(self, species):
        assert species["Ca+"].omega1 == 2.62e15
        assert species["Hg+"].gamma2 == 5.26e8
        assert species["Ba+"].omega2 == 4.14e15

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "db.json"
        path.write_text(
            '{"schema": "uqcm-species/1", "species": [{"name": "X+", '
            '"omega1_per_s": 1e15, "omega2_per_s": 2e15, "gamma2_per_s": 1e7}]}')
        monkeypatch.setenv("UQCM_SPECIES_DB", str(path))
        db = load_species()
        assert list(db) == ["X+"]

    def test_repeated_name_names_file_and_row(self, tmp_path):
        # a second row of one name is an error, not a silent replacement of the first
        data = json.loads(resources.files("uqcm.data").joinpath("ion_species.json").read_text())
        first = next(i for i, row in enumerate(data["species"]) if row["name"] == "Ca+")
        data["species"].append({**data["species"][first], "omega1_per_s": 1.0})
        path = tmp_path / "db.json"
        path.write_text(json.dumps(data))
        row = len(data["species"]) - 1
        with pytest.raises(ValueError, match=f"species row {row}: Ca\\+ repeats the name") as info:
            load_species(path)
        assert str(path) in str(info.value)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            IonSpecies(name="bad", omega1=-1.0, omega2=1.0, gamma2=1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), "1e15", True, None, 0])
    def test_rejects_rates_that_are_not_finite_positive_numbers(self, rate):
        with pytest.raises(ValueError, match="omega2 must be a finite positive number"):
            IonSpecies(name="bad", omega1=1e15, omega2=rate, gamma2=1e7)

    @pytest.mark.parametrize("text, message", [
        ('[]', "not a uqcm-species/1 object"),
        ('{"schema": "uqcm-species/1", "species": {}}', "with a 'species' list"),
        ('{"schema": "uqcm-species/1", "species": [1]}', "species row 0: needs the keys"),
        ('{"schema": "uqcm-species/1", "species": [{"name": "X+", "omega1_per_s": 1e15, '
         '"gamma2_per_s": 1e7}]}', "species row 0: needs the keys .*omega2_per_s"),
        ('{"schema": "uqcm-species/1", "species": [{"name": "X+", "omega1_per_s": 1e15, '
         '"omega2_per_s": "2e15", "gamma2_per_s": 1e7}]}', "species row 0: X\\+: omega2"),
        ('{"schema": "uqcm-species/1", "species": [{"name": "X+", "omega1_per_s": NaN, '
         '"omega2_per_s": 2e15, "gamma2_per_s": 1e7}]}', "species row 0: X\\+: omega1"),
        ('{ not json', "db.json"),
    ])
    def test_malformed_file_names_file_and_row(self, tmp_path, text, message):
        path = tmp_path / "db.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            load_species(path)
        assert str(path) in str(info.value)
