"""Spontaneous-emission budget of a trapped-ion cloning run.

Three-level model: the qubit lives on a metastable 0-1 transition driven at
Rabi frequency Omega_1; the drive laser also couples level 0 to a fast-
decaying auxiliary level 2 (rate Gamma_2, detuning Delta_2).  Emission from
level 1 falls with laser intensity while emission through level 2 grows with
it, so the total has an intensity-independent minimum.  That minimum, not
any laser parameter, decides which (N, M) cloners are feasible.

All quantities are SI: angular frequencies and rates in 1/s, times in s,
probabilities dimensionless.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from importlib import resources

from .cloner_math import CloneSpec

SPECIES_ENV_VAR = "UQCM_SPECIES_DB"
DEFAULT_FEASIBLE_THRESHOLD = 0.1


@dataclass(frozen=True)
class IonSpecies:
    """Atomic constants of one candidate ion."""

    name: str
    omega1: float             # 0-1 transition angular frequency [1/s]
    omega2: float             # 0-2 transition angular frequency [1/s]
    gamma2: float             # decay rate of level 2 [1/s]
    level0: str = ""
    level1: str = ""
    level2: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"species name must be a string, got {self.name!r}")
        for attr in ("omega1", "omega2", "gamma2"):
            v = getattr(self, attr)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0 < v < math.inf):
                raise ValueError(f"{self.name}: {attr} must be a finite positive number, got {v!r}")


@dataclass(frozen=True)
class TrapParams:
    """Trap and drive parameters.

    ``gamma1`` (decay of the qubit's upper level) is needed only for
    intensity-resolved emission curves; the optimal-intensity minimum is
    independent of it.  ``epsilon`` is the proportionality factor between
    the asymptotic gate-count formula and actual circuit sizes.
    """

    eta: float = 0.01          # Lamb-Dicke parameter
    epsilon: float = 100.0     # gate-count proportionality factor
    delta2: float = 1e13       # detuning from level 2 [1/s]
    gamma1: float | None = None

    def __post_init__(self) -> None:
        for attr in ("eta", "epsilon", "delta2", "gamma1"):
            if type(getattr(self, attr)) is bool:
                raise ValueError(f"{attr} must be a number, not a bool")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        # chained against inf, so NaN and inf fail where `<= 0` lets them by
        if not (0 < self.epsilon < math.inf and 0 < self.delta2 < math.inf):
            raise ValueError("epsilon and delta2 must be finite and positive")
        if self.gamma1 is not None and not 0 < self.gamma1 < math.inf:
            raise ValueError("gamma1 must be finite and positive")


_SPECIES_KEYS = ("name", "omega1_per_s", "omega2_per_s", "gamma2_per_s")


def load_species(path: str | os.PathLike | None = None) -> dict[str, IonSpecies]:
    """Species database; packaged data unless a path or env override is given.

    A malformed file raises ``ValueError`` naming the file and the row."""
    if path is None:
        path = os.environ.get(SPECIES_ENV_VAR)
    if path is None:
        source = "packaged species data"
        text = resources.files("uqcm.data").joinpath("ion_species.json").read_text()
    else:
        source = os.fspath(path)
        with open(path) as fh:
            text = fh.read()
    where, out = source, {}
    try:
        data = json.loads(text)
        if not (isinstance(data, dict) and data.get("schema") == "uqcm-species/1"
                and isinstance(data.get("species"), list)):
            raise ValueError("not a uqcm-species/1 object with a 'species' list")
        for i, row in enumerate(data["species"]):
            where = f"{source}: species row {i}"
            if not (isinstance(row, dict) and all(k in row for k in _SPECIES_KEYS)):
                raise ValueError(f"needs the keys {', '.join(_SPECIES_KEYS)}")
            species = IonSpecies(row["name"], row["omega1_per_s"], row["omega2_per_s"],
                                 row["gamma2_per_s"], row.get("level0", ""),
                                 row.get("level1", ""), row.get("level2", ""))
            if species.name in out:
                raise ValueError(f"{species.name} repeats the name of an earlier row")
            out[species.name] = species
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return out


def elementary_gate_time(spec: CloneSpec, params: TrapParams, omega1_rabi: float) -> float:
    """Duration of one two-qubit gate: 4 pi sqrt(2M-N) / (eta Omega_1).

    The sqrt factor is the Rabi-frequency dilution over the 2M-N ions
    sharing the vibrational bus.
    """
    if not 0 < omega1_rabi < math.inf:
        raise ValueError("omega1_rabi must be finite and positive")
    return 4 * math.pi * math.sqrt(spec.total_qubits) / (params.eta * omega1_rabi)


def formula_gate_count(spec: CloneSpec, epsilon: float) -> float:
    """Asymptotic CNOT count epsilon 2^(2M+2) (M-N)^2 (2^-2N + 1/sqrt(pi M)),
    written as 4 epsilon lhs_mmax(spec) / (2M-N)."""
    return 4 * epsilon * lhs_mmax(spec) / spec.total_qubits


def _gate_count(spec: CloneSpec, params: TrapParams,
                override: int | float | None) -> float:
    """The override if given, else the formula count; a count that is
    negative, not finite (an int past the largest float too) or a bool raises."""
    count = formula_gate_count(spec, params.epsilon) if override is None else override
    if type(count) is bool or not 0 <= count <= sys.float_info.max:
        raise ValueError(f"gate count must be finite and nonnegative, got {count!r}")
    return count


def cloning_time(spec: CloneSpec, params: TrapParams, omega1_rabi: float,
                 gate_count_override: int | float | None = None) -> float:
    """Total sequential run time: elementary gate time times the gate count."""
    return elementary_gate_time(spec, params, omega1_rabi) \
        * _gate_count(spec, params, gate_count_override)


@dataclass(frozen=True)
class EmissionProbabilities:
    p1: float       # emission from the qubit's upper level during the run
    p2: float       # emission via the off-resonant auxiliary level
    p_total: float


def emission_probability(spec: CloneSpec, species: IonSpecies, params: TrapParams,
                         omega1_rabi: float,
                         gate_count_override: int | float | None = None) -> EmissionProbabilities:
    """Spontaneous-emission probabilities at Rabi frequency ``omega1_rabi``
    (operating point x = Omega_1/sqrt(Gamma_1) = omega1_rabi/sqrt(gamma1)).

    p1 = (1/2) 2 Gamma_1 (2M-N) T  (half the qubits sit in the upper level),
    p2 = (Omega_2^2 / 8 Delta_2^2) 2 Gamma_2 T, with Omega_2 eliminated via
    Omega_1^2/Gamma_1 = (omega_2/omega_1)^3 Omega_2^2/Gamma_2.
    """
    if params.gamma1 is None:
        raise ValueError("params.gamma1 is required for intensity-resolved probabilities")
    gamma1 = params.gamma1
    t_run = cloning_time(spec, params, omega1_rabi, gate_count_override)
    p1 = gamma1 * spec.total_qubits * t_run
    omega2_sq = omega1_rabi ** 2 * (species.omega1 / species.omega2) ** 3 \
        * species.gamma2 / gamma1
    p2 = omega2_sq / (8 * params.delta2 ** 2) * 2 * species.gamma2 * t_run
    return EmissionProbabilities(p1=p1, p2=p2, p_total=p1 + p2)


def min_emission_probability(spec: CloneSpec, species: IonSpecies, params: TrapParams,
                             gate_count_override: int | float | None = None) -> float:
    """Intensity-optimal total emission probability (independent of Gamma_1).

    For a gate count G:
      (4 pi / eta) G (2M-N) (w1/w2)^(3/2) (Gamma_2/Delta_2).
    With the asymptotic count G = 4 eps lhs_mmax / (2M-N) this is
      (16 pi eps / eta) lhs_mmax (w1/w2)^(3/2) (Gamma_2/Delta_2)
        = lhs_mmax(spec) / feasibility_threshold(species, params).
    """
    count = _gate_count(spec, params, gate_count_override)
    ratio = (species.omega1 / species.omega2) ** 1.5
    return (4 * math.pi / params.eta) * count * spec.total_qubits \
        * ratio * species.gamma2 / params.delta2


def feasibility_threshold(species: IonSpecies, params: TrapParams) -> float:
    """Species-side bound that the circuit factor must stay below.

    (eta / (2^4 pi epsilon)) (omega_2/omega_1)^(3/2) (Delta_2/Gamma_2).
    """
    return (params.eta / (2 ** 4 * math.pi * params.epsilon)
            * (species.omega2 / species.omega1) ** 1.5
            * params.delta2 / species.gamma2)


def lhs_mmax(spec: CloneSpec) -> float:
    """Circuit-side factor 2^(2M) (2M-N) (M-N)^2 (2^-2N + 1/sqrt(pi M)),
    or a ValueError naming the spec where that is not a finite float."""
    n, m = spec.n_in, spec.m_out
    try:
        factor = (2.0 ** (2 * m) * spec.total_qubits * (m - n) ** 2
                  * (2.0 ** (-2 * n) + 1.0 / math.sqrt(math.pi * m)))
    except OverflowError:
        factor = math.inf
    if not math.isfinite(factor):
        raise ValueError(f"{spec}: the circuit factor 2^(2M) (2M-N) (M-N)^2 "
                         f"(2^-2N + 1/sqrt(pi M)) overflows a float")
    return factor


@dataclass(frozen=True)
class ScanRow:
    species: str
    n_in: int
    m_out: int
    eta: float
    p_min_formula: float
    feasible_formula: bool
    gates_measured: int | None = None
    p_min_measured: float | None = None
    feasible_measured: bool | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def check_threshold(threshold: float) -> None:
    """ValueError unless ``threshold`` is a finite p_min bound above 0."""
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and above 0, got {threshold!r}")


def feasibility_scan(species_list, params: TrapParams, specs, etas=(None,),
                     measured_counts=None,
                     threshold: float = DEFAULT_FEASIBLE_THRESHOLD) -> list[ScanRow]:
    """Minimum emission probability per (species, spec, eta) cell.

    ``measured_counts`` optionally maps (N, M) to a measured circuit size in
    CNOT-equivalents; cells with a measured count also report the measured
    variant.  Feasible means p_min below ``threshold``, a finite number above 0.
    """
    check_threshold(threshold)
    measured_counts = measured_counts or {}
    rows: list[ScanRow] = []
    for eta in etas:
        cell_params = params if eta is None else replace(params, eta=eta)
        for species in species_list:
            for spec in specs:
                p_formula = min_emission_probability(spec, species, cell_params)
                row = ScanRow(
                    species=species.name, n_in=spec.n_in, m_out=spec.m_out,
                    eta=cell_params.eta, p_min_formula=p_formula,
                    feasible_formula=p_formula < threshold)
                key = (spec.n_in, spec.m_out)
                if key in measured_counts:
                    g = measured_counts[key]
                    p_meas = min_emission_probability(spec, species, cell_params,
                                                      gate_count_override=g)
                    row = replace(row, gates_measured=g, p_min_measured=p_meas,
                                  feasible_measured=p_meas < threshold)
                rows.append(row)
    return rows


def render_scan_table(rows: list[ScanRow]) -> str:
    """Aligned-column text table of a feasibility scan."""
    header = ["ion", "N", "M", "eta", "p_min(formula)", "ok",
              "gates", "p_min(measured)", "ok"]
    body = []
    for r in rows:
        body.append([
            r.species, str(r.n_in), str(r.m_out), f"{r.eta:g}",
            f"{r.p_min_formula:.6g}", "yes" if r.feasible_formula else "no",
            "-" if r.gates_measured is None else str(r.gates_measured),
            "-" if r.p_min_measured is None else f"{r.p_min_measured:.6g}",
            "-" if r.feasible_measured is None else ("yes" if r.feasible_measured else "no"),
        ])
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def scan_to_json(rows: list[ScanRow]) -> str:
    return json.dumps({"schema": "uqcm-scan/2", "rows": [r.to_dict() for r in rows]},
                      indent=2, sort_keys=True)
