"""uqcm: synthesis, exact simulation, and trapped-ion feasibility analysis
of N-to-M universal quantum cloning circuits."""

__version__ = "0.1.0"

from .circuit import Circuit, Control, Gate, RegisterLayout, apply, cnot_cost, inverse
from .cloner_math import (CloneSpec, FeasibilityCheck, alphas, basis_count, feasibility,
                          ideal_output, theoretical_fidelity, weight_components)
from .ion_budget import (EmissionProbabilities, IonSpecies, ScanRow, TrapParams,
                         cloning_time, elementary_gate_time, emission_probability,
                         feasibility_scan, feasibility_threshold, lhs_mmax,
                         load_species, min_emission_probability)
from .perm import (PermutationPlan, PermutationSpec, PlanError, ScheduleError,
                   SynthesisError, build_permutation, compile_moves, schedule,
                   validate_plan)
from .prep import (AngleTree, BasisLayout, PrepTarget, emit_prep_circuit,
                   prep_for_spec, solve_angles)
from .simulator import VerificationReport, haar_random_qubit, verify
from .statevec import (DensityMatrix, StateVector, fidelity_against_pure,
                       partial_trace, tensor_power)
from .synth import SynthesisResult, reference_one_to_two, synthesize_cloner

__all__ = [
    "__version__",
    "AngleTree", "BasisLayout", "Circuit", "CloneSpec",
    "Control", "DensityMatrix", "EmissionProbabilities", "FeasibilityCheck",
    "Gate", "IonSpecies", "PermutationPlan", "PermutationSpec",
    "PlanError", "PrepTarget", "RegisterLayout", "ScanRow", "ScheduleError",
    "StateVector", "SynthesisError", "SynthesisResult", "TrapParams",
    "VerificationReport",
    "alphas", "apply", "basis_count", "build_permutation", "cloning_time",
    "cnot_cost", "compile_moves", "elementary_gate_time", "emission_probability",
    "emit_prep_circuit", "feasibility", "feasibility_scan", "feasibility_threshold",
    "fidelity_against_pure", "haar_random_qubit", "ideal_output",
    "inverse", "lhs_mmax", "load_species", "min_emission_probability",
    "partial_trace", "prep_for_spec", "reference_one_to_two", "schedule",
    "solve_angles", "synthesize_cloner", "tensor_power",
    "theoretical_fidelity", "validate_plan", "verify", "weight_components",
]
