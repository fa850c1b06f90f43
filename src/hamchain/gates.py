"""Gate constants, state-vector application, and the W-gate identity table.

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
    """Gate targets out of range, repeated, or of the wrong arity."""


@dataclass(frozen=True)
class Gate:
    """A named unitary on `arity` qubits."""

    label: str
    arity: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        dim = 2**self.arity
        if m.shape != (dim, dim):
            raise ValueError(f"{self.label}: matrix shape {m.shape} != 2^{self.arity}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(dim)))
        if dev > UNITARY_TOL:
            raise ValueError(f"{self.label}: not unitary (deviation {dev:.3g})")


def _gate(label, matrix):
    m = np.asarray(matrix, dtype=complex)
    arity = int(round(np.log2(m.shape[0])))
    return Gate(label, arity, m)


I1 = _gate("I", np.eye(2))
Z = _gate("Z", [[1, 0], [0, -1]])
X = _gate("X", [[0, 1], [1, 0]])
H = _gate("H", np.array([[1, 1], [1, -1]]) * _SQ2)
# 45-degree real rotation: the action of W on its target when the control is |1>.
HY = _gate("Hy", np.array([[1, -1], [1, 1]]) * _SQ2)
# Real version of Pauli Y (= XZ, i.e. -i times the usual Y).
Y = _gate("Y", [[0, -1], [1, 0]])

SWAP = _gate("S", [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
W = _gate(
    "W",
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, _SQ2, -_SQ2],
        [0, 0, _SQ2, _SQ2],
    ],
)
CX = _gate("CX", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

TOFFOLI = _gate("T", np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]])
# Control-Control-Y on the real Y above.
_ccy = np.eye(8, dtype=complex)
_ccy[6:, 6:] = Y.matrix
CCY = _gate("CCY", _ccy)


def controlled(gate: Gate) -> Gate:
    """One extra control wire on the left of `gate`."""
    d = 2**gate.arity
    m = np.eye(2 * d, dtype=complex)
    m[d:, d:] = gate.matrix
    return Gate("C" + gate.label, gate.arity + 1, m)


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


def apply_gate(state: QubitState, gate: Gate, targets: tuple[int, ...]) -> QubitState:
    """Return `state` with `gate` applied on the given 1-based target qubits."""
    if len(targets) != gate.arity:
        raise InvalidTargetError(f"{gate.label} has arity {gate.arity}, got targets {targets}")
    if len(set(targets)) != len(targets):
        raise InvalidTargetError(f"repeated target in {targets}")
    if any(t < 1 or t > state.n for t in targets):
        raise InvalidTargetError(f"targets {targets} out of range 1..{state.n}")
    return QubitState(state.n, apply_unitary(state.amps, gate.matrix, targets, state.n))


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
          _gate("IxZ", np.kron(np.eye(2), Z.matrix))),
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
}


def check_identity(seq: GateSequence, target: Gate) -> float:
    """Max-abs entry of (product of `seq` minus `target`); sequence_matrix
    refuses a sequence that touches a qubit past the target's."""
    return float(np.max(np.abs(sequence_matrix(seq, target.arity) - target.matrix)))
