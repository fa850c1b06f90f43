"""Gate constants, state-vector application, and the W-gate identity table.

A Gate is its label and its unitary matrix; its arity is read from the
matrix.  Which gates a circuit slot may hold is circuit.Circuit's decision.

Two-qubit gates use the convention that the control qubit sits on the left
(more significant) wire.  Qubit 1 is the most significant bit of a basis
label, so a state on n qubits indexes amplitudes by int("q1 q2 ... qn", 2).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

IDENTITY_TOL = 1e-12
UNITARY_TOL = 1e-9

_SQ2 = 1.0 / np.sqrt(2.0)


class InvalidTargetError(ValueError):
    """Targets of a gate sequence out of range or repeated."""


@dataclass(frozen=True)
class Gate:
    """A named unitary; its arity is read from the matrix's side, 2^arity."""

    label: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        side = m.shape[0] if m.ndim == 2 else 0
        if m.shape != (side, side) or side < 2 or side & (side - 1):
            raise ValueError(f"{self.label}: matrix shape {m.shape} is not 2^k x 2^k, k >= 1")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(side)))
        if dev > UNITARY_TOL:
            raise ValueError(f"{self.label}: not unitary (deviation {dev:.3g})")

    @property
    def arity(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def controlled(gate: Gate) -> Gate:
    """One extra control wire on the left of `gate`."""
    d = len(gate.matrix)
    m = np.eye(2 * d, dtype=complex)
    m[d:, d:] = gate.matrix
    return Gate("C" + gate.label, m)


I1 = Gate("I", np.eye(2))
Z = Gate("Z", [[1, 0], [0, -1]])
X = Gate("X", [[0, 1], [1, 0]])
H = Gate("H", np.array([[1, 1], [1, -1]]) * _SQ2)
# 45-degree real rotation: the action of W on its target when the control is |1>.
HY = Gate("Hy", np.array([[1, -1], [1, 1]]) * _SQ2)
# Real version of Pauli Y (= XZ, i.e. -i times the usual Y).
Y = Gate("Y", [[0, -1], [1, 0]])

SWAP = Gate("S", [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
W = Gate(
    "W",
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, _SQ2, -_SQ2],
        [0, 0, _SQ2, _SQ2],
    ],
)
CX = Gate("CX", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

TOFFOLI = Gate("T", np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]])
CCY = controlled(controlled(Y))  # on the real Y above


REGISTER_BYTES = 2**30  # memory budget of one 2^n-amplitude complex register


def check_register_size(n: int) -> None:
    """Refuse, before anything is allocated, a register over REGISTER_BYTES."""
    most = (REGISTER_BYTES // 16).bit_length() - 1
    if n > most:
        raise ValueError(f"a {n}-qubit register needs 16 * 2^{n} bytes; "
                         f"at most {most} qubits fit in {REGISTER_BYTES} bytes")


@dataclass(frozen=True)
class QubitState:
    """Normalized 2^n amplitude vector for the logical register."""

    n: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", a)
        if a.shape != (2**self.n,):
            raise ValueError(f"amplitude vector has shape {a.shape}, expected ({2**self.n},)")
        norm = np.sum(np.abs(a) ** 2)
        if not abs(norm - 1.0) <= UNITARY_TOL:  # NaN fails too
            raise ValueError(f"state not normalized: |amps|^2 = {norm}")

    @classmethod
    def basis(cls, bits: str) -> "QubitState":
        n = len(bits)
        check_register_size(n)
        amps = np.zeros(2**n, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(n, amps)


def apply_unitary(amps: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a k-qubit unitary on 1-based target qubits to the amplitude
    vector `amps`, or to each column of a matrix of them: on np.eye(2**n) it
    gives the unitary's dense n-qubit matrix."""
    k = len(targets)
    psi = amps.reshape([2] * n + [-1])
    axes = [t - 1 for t in targets]
    # tensordot contracts the gate's column indices with the target axes,
    # placing the result axes first; move them back where they belong.
    gate = matrix.reshape([2] * (2 * k))
    psi = np.tensordot(gate, psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(amps.shape)


# --- identity synthesis ----------------------------------------------------
#
# A GateSequence is a sequence of (Gate, targets) in matrix-product order:
# the LAST element is applied to the state first.  This lets the table below
# read exactly like the algebra it implements.

GateSequence = Sequence[tuple[Gate, tuple[int, ...]]]


def sequence_matrix(seq: GateSequence, n: int) -> np.ndarray:
    """Dense n-qubit product of a gate sequence (matrix-product order)."""
    out = np.eye(2**n, dtype=complex)
    for gate, targets in seq:
        if any(t < 1 or t > n for t in targets) or len(set(targets)) != len(targets):
            raise InvalidTargetError(f"bad targets {targets} for n={n}")
        out = out @ apply_unitary(np.eye(2**n), gate.matrix, targets, n)
    return out


def _rep(gate: Gate, targets: tuple[int, ...], k: int) -> tuple:
    return ((gate, targets),) * k


_SWAP12 = ((SWAP, (1, 2)),)

# name -> (gate sequence, the gate it must reproduce); each sequence is a
# tuple, so no reader can change the table.
IDENTITIES: dict[str, tuple[GateSequence, Gate]] = {
    "Z": (_rep(W, (1, 2), 4) + _SWAP12 + _rep(W, (1, 2), 4) + _SWAP12 + _rep(W, (1, 2), 4),
          Gate("IxZ", np.diag([1, -1, 1, -1]))),
    # W equals Hy controlled on the left qubit; this is the ancilla realization
    # of Hy (control held at |1>) stated as an exact matrix identity.
    "Hy": (((W, (1, 2)),), controlled(HY)),
    "H": (((HY, (1,)), (Z, (1,))), H),
    "X": (((H, (1,)), (Z, (1,)), (H, (1,))), X),
    "CX": (_rep(W, (1, 2), 2) + _SWAP12 + _rep(W, (1, 2), 6) + _SWAP12
           + _rep(W, (1, 2), 2) + _SWAP12 + _rep(W, (1, 2), 6), CX),
    "Y": (((X, (1,)), (Z, (1,))), Y),
    "L2Y_TH": (((TOFFOLI, (1, 2, 3)), (H, (3,)), (TOFFOLI, (1, 2, 3)), (H, (3,))), CCY),
    "L2Y_W": (((X, (1,)), (X, (2,)), (Y, (3,)))
              + _rep(W, (1, 3), 3)
              + ((CX, (1, 2)),)
              + _rep(W, (2, 3), 3)
              + ((CX, (1, 2)),)
              + _rep(W, (2, 3), 3)
              + ((X, (2,)), (X, (1,))), CCY),
    "W^8": (_rep(W, (1, 2), 8), Gate("II", np.eye(4))),
}


def check_identity(seq: GateSequence, target: Gate) -> float:
    """Max-abs entry of (product of `seq` minus `target`); sequence_matrix
    refuses a sequence that touches a qubit past the target's."""
    return float(np.max(np.abs(sequence_matrix(seq, target.arity) - target.matrix)))
