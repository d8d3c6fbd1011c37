"""End-to-end cloner synthesis: preparation stage + cloning stage + roles.

A synthesized circuit carries the ``RegisterLayout`` of its spec, with the
aux qubits of its preparation register and one flag qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Control, Gate, RegisterLayout, cnot_cost
from .cloner_math import CloneSpec
from .perm import (PermutationPlan, PermutationSpec, build_permutation, compile_moves,
                   schedule, validate_plan)
from .prep import BasisLayout, emit_prep_circuit, prep_for_spec, solve_angles


@dataclass(frozen=True)
class SynthesisResult:
    spec: CloneSpec
    circuit: Circuit
    layout: BasisLayout
    permutation: PermutationSpec
    plan: PermutationPlan
    prep_cost: int   # cnot_cost of the preparation stage
    clone_cost: int  # cnot_cost of the cloning stage

    @property
    def n_aux(self) -> int:
        return self.layout.register.n_aux

    @property
    def universal(self) -> bool:
        """True iff the routing reproduces the ideal transformation for
        arbitrary superposition inputs, not only computational ones."""
        return self.permutation.universal_routing

    def gate_counts(self) -> dict[str, int]:
        return {"prep": self.prep_cost, "clone": self.clone_cost,
                "total": self.prep_cost + self.clone_cost}


def synthesize_cloner(spec: CloneSpec) -> SynthesisResult:
    """Build the full cloning circuit for ``spec``.

    The preparation register grows beyond 2(M-N) qubits exactly when the
    populated bases would otherwise leave no free basis (``BasisLayout.packed``).
    """
    layout = BasisLayout.packed(spec)
    perm = build_permutation(layout)
    plan = schedule(perm)
    validate_plan(perm, plan)

    register = layout.register
    # the tree's qubits follow the inputs on the cloner register
    prep_stage = emit_prep_circuit(solve_angles(prep_for_spec(layout)), offset=spec.n_in)
    clone_stage = compile_moves(plan)
    circuit = Circuit(register.n_qubits, prep_stage.gates + clone_stage.gates, register.roles())
    return SynthesisResult(
        spec=spec, circuit=circuit, layout=layout, permutation=perm, plan=plan,
        prep_cost=cnot_cost(prep_stage), clone_cost=cnot_cost(clone_stage))


def reference_one_to_two() -> Circuit:
    """Hand-optimized three-qubit 1->2 cloning network (six CNOTs).

    Two rotation-entangle rounds prepare the blank and machine qubits, then
    four CNOTs distribute the input.  Kept as an independent route to the
    same transformation for cross-checking synthesized circuits.
    """
    t1 = math.acos(1 / math.sqrt(5)) / 2
    t2 = math.acos(math.sqrt(5) / 3) / 2
    t3 = math.acos(2 / math.sqrt(5)) / 2
    gates = (
        Gate("roty", 1, (), t1),
        Gate("cnot", 2, (Control(1, True),)),
        Gate("roty", 2, (), t2),
        Gate("cnot", 1, (Control(2, True),)),
        Gate("roty", 1, (), t3),
        Gate("cnot", 1, (Control(0, True),)),
        Gate("cnot", 2, (Control(0, True),)),
        Gate("cnot", 0, (Control(1, True),)),
        Gate("cnot", 0, (Control(2, True),)),
    )
    return Circuit(3, gates, RegisterLayout(CloneSpec(1, 2), flag=False).roles())
