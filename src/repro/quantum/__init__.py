"""Quantum circuit simulation substrate (the TorchQuantum-like engine)."""

from .circuit import (
    Instruction,
    ParamOp,
    ParamSlot,
    ParameterizedCircuit,
    QuantumCircuit,
    const,
    feature,
    weight,
)
from .gates import (
    GATES,
    gate_gradients,
    gate_matrix,
    gate_num_params,
    gate_num_qubits,
    is_parameterized,
)
from .operators import PauliString, PauliSum, group_commuting
from .statevector import (
    apply_matrix,
    circuit_unitary,
    expectation_pauli_sum,
    expectation_z,
    expectation_z_all,
    probabilities,
    run_circuit,
    run_parameterized,
    state_fidelity,
    zero_state,
)
from .fusion import FusedCircuit, fuse_circuit
from .autodiff import (
    adjoint_gradient,
    finite_difference_gradient,
    parameter_shift_jacobian,
)
from .measurement import MeasurementPlan, sample_counts

__all__ = [
    "Instruction",
    "ParamOp",
    "ParamSlot",
    "ParameterizedCircuit",
    "QuantumCircuit",
    "const",
    "feature",
    "weight",
    "GATES",
    "gate_gradients",
    "gate_matrix",
    "gate_num_params",
    "gate_num_qubits",
    "is_parameterized",
    "PauliString",
    "PauliSum",
    "group_commuting",
    "apply_matrix",
    "circuit_unitary",
    "expectation_pauli_sum",
    "expectation_z",
    "expectation_z_all",
    "probabilities",
    "run_circuit",
    "run_parameterized",
    "state_fidelity",
    "zero_state",
    "FusedCircuit",
    "fuse_circuit",
    "adjoint_gradient",
    "finite_difference_gradient",
    "parameter_shift_jacobian",
    "MeasurementPlan",
    "sample_counts",
]
