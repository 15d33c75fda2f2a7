"""Device noise models.

A :class:`NoiseModel` plays the role of the Qiskit noise model built from IBMQ
calibration data: it attaches depolarizing + thermal-relaxation channels to
every instruction, applies readout confusion at measurement time, and can also
produce the cheap "success rate" estimate the paper uses for circuits that are
too large for noisy classical simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..quantum.circuit import Instruction, QuantumCircuit
from .channels import (
    depolarizing_kraus,
    readout_confusion_matrix,
    thermal_relaxation_kraus,
)

__all__ = ["QubitNoiseParameters", "NoiseModel"]


@dataclass(frozen=True)
class QubitNoiseParameters:
    """Calibration values for a single physical qubit.

    Times are in microseconds; error values are probabilities.
    """

    t1: float
    t2: float
    readout_p01: float  # P(read 1 | prepared 0)
    readout_p10: float  # P(read 0 | prepared 1)
    single_qubit_error: float

    @property
    def readout_error(self) -> float:
        return 0.5 * (self.readout_p01 + self.readout_p10)


@dataclass
class NoiseModel:
    """Per-qubit and per-edge noise description of a device.

    ``two_qubit_errors`` is keyed by sorted physical-qubit pairs.  Durations
    are in microseconds and follow typical IBMQ transmon values.
    """

    qubits: Dict[int, QubitNoiseParameters]
    two_qubit_errors: Dict[Tuple[int, int], float]
    single_qubit_duration: float = 0.035
    two_qubit_duration: float = 0.30
    readout_duration: float = 1.0
    default_two_qubit_error: float = 0.02

    # -- construction ------------------------------------------------------

    @classmethod
    def ideal(cls, n_qubits: int) -> "NoiseModel":
        """A noiseless model (useful for noise-unaware baselines)."""
        qubits = {
            q: QubitNoiseParameters(
                t1=1e9, t2=1e9, readout_p01=0.0, readout_p10=0.0, single_qubit_error=0.0
            )
            for q in range(n_qubits)
        }
        return cls(qubits=qubits, two_qubit_errors={}, default_two_qubit_error=0.0)

    @classmethod
    def uniform(
        cls,
        n_qubits: int,
        single_qubit_error: float = 5e-4,
        two_qubit_error: float = 1e-2,
        readout_error: float = 2e-2,
        t1: float = 80.0,
        t2: float = 70.0,
        edges: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> "NoiseModel":
        """A homogeneous model — handy for tests and controlled sweeps."""
        qubits = {
            q: QubitNoiseParameters(
                t1=t1,
                t2=t2,
                readout_p01=readout_error,
                readout_p10=readout_error,
                single_qubit_error=single_qubit_error,
            )
            for q in range(n_qubits)
        }
        edge_errors: Dict[Tuple[int, int], float] = {}
        if edges is not None:
            for a, b in edges:
                edge_errors[_edge_key(a, b)] = two_qubit_error
        model = cls(qubits=qubits, two_qubit_errors=edge_errors)
        model.default_two_qubit_error = two_qubit_error
        return model

    # -- error lookup ------------------------------------------------------

    def n_qubits(self) -> int:
        return max(self.qubits) + 1 if self.qubits else 0

    def single_qubit_error(self, qubit: int) -> float:
        return self.qubits[qubit].single_qubit_error

    def two_qubit_error(self, qubit_a: int, qubit_b: int) -> float:
        return self.two_qubit_errors.get(
            _edge_key(qubit_a, qubit_b), self.default_two_qubit_error
        )

    def readout_error(self, qubit: int) -> float:
        return self.qubits[qubit].readout_error

    def instruction_error(self, instruction: Instruction) -> float:
        """Total error probability attributed to one instruction."""
        if len(instruction.qubits) == 1:
            return self.single_qubit_error(instruction.qubits[0])
        return self.two_qubit_error(*instruction.qubits[:2])

    # -- density-matrix channels -------------------------------------------

    def channels_for(
        self, instruction: Instruction
    ) -> List[Tuple[List[np.ndarray], Tuple[int, ...]]]:
        """Kraus channels to apply after ``instruction``."""
        channels: List[Tuple[List[np.ndarray], Tuple[int, ...]]] = []
        qubits = instruction.qubits
        if len(qubits) == 1:
            error = self.single_qubit_error(qubits[0])
            duration = self.single_qubit_duration
        else:
            error = self.two_qubit_error(*qubits[:2])
            duration = self.two_qubit_duration
        if error > 0:
            channels.append((depolarizing_kraus(error, len(qubits)), qubits))
        for qubit in qubits:
            params = self.qubits.get(qubit)
            if params is None:
                continue
            if params.t1 < 1e6:
                channels.append(
                    (
                        thermal_relaxation_kraus(params.t1, params.t2, duration),
                        (qubit,),
                    )
                )
        return channels

    # -- readout -------------------------------------------------------------

    def apply_readout_error(self, probabilities: np.ndarray, n_qubits: int):
        """Apply per-qubit confusion matrices to a probability vector, or to
        every row of a ``(rows, 2**n_qubits)`` stack, and renormalize."""
        probs = np.asarray(probabilities, dtype=float)
        lead = probs.shape[:-1]
        probs = probs.reshape(lead + (2,) * n_qubits)
        for qubit in range(n_qubits):
            params = self.qubits.get(qubit)
            if params is None:
                continue
            confusion = readout_confusion_matrix(params.readout_p01, params.readout_p10)
            axis = len(lead) + qubit
            probs = np.tensordot(confusion, probs, axes=([1], [axis]))
            probs = np.moveaxis(probs, 0, axis)
        flat = probs.reshape(lead + (-1,))
        flat = np.clip(flat, 0.0, None)
        return flat / flat.sum(axis=-1, keepdims=True)

    # -- success-rate estimation ---------------------------------------------

    def circuit_success_rate(
        self, circuit: QuantumCircuit, include_readout: bool = True
    ) -> float:
        """Product of per-gate success probabilities (the paper's ``r_overall``).

        This is the fast estimator used for circuits too large to simulate
        with the full noise model: ``l_augmented = l_noise_free / r_overall``.
        """
        rate = 1.0
        for instruction in circuit.instructions:
            rate *= 1.0 - self.instruction_error(instruction)
        if include_readout:
            for qubit in range(circuit.n_qubits):
                params = self.qubits.get(qubit)
                if params is not None:
                    rate *= 1.0 - params.readout_error
        return max(rate, 1e-12)

    # -- reductions ----------------------------------------------------------

    def reduced(self, physical_qubits: Sequence[int]) -> "NoiseModel":
        """Restrict the model to a subset of physical qubits.

        The returned model is re-indexed to ``0..k-1`` following the order of
        ``physical_qubits`` — this is how large-device noise is applied to the
        small register actually touched by a compiled circuit.
        """
        index = {phys: i for i, phys in enumerate(physical_qubits)}
        qubits = {
            index[phys]: self.qubits[phys]
            for phys in physical_qubits
            if phys in self.qubits
        }
        edges: Dict[Tuple[int, int], float] = {}
        for (a, b), error in self.two_qubit_errors.items():
            if a in index and b in index:
                edges[_edge_key(index[a], index[b])] = error
        model = NoiseModel(
            qubits=qubits,
            two_qubit_errors=edges,
            single_qubit_duration=self.single_qubit_duration,
            two_qubit_duration=self.two_qubit_duration,
            readout_duration=self.readout_duration,
            default_two_qubit_error=self.default_two_qubit_error,
        )
        return model

    def average_error_summary(self) -> Dict[str, float]:
        """Average single-qubit, two-qubit and readout error (Fig. 21 rows)."""
        single = float(
            np.mean([q.single_qubit_error for q in self.qubits.values()])
        )
        readout = float(np.mean([q.readout_error for q in self.qubits.values()]))
        if self.two_qubit_errors:
            two = float(np.mean(list(self.two_qubit_errors.values())))
        else:
            two = self.default_two_qubit_error
        return {
            "single_qubit_error": single,
            "two_qubit_error": two,
            "readout_error": readout,
        }


def _edge_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)
