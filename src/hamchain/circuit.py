"""Nearest-neighbor round circuits: text format, simulation, gate-set rewriting.

A circuit is R rounds over n qubits.  Round r holds one gate per position
i = 1..n-1 acting on qubits (i, i+1); unfilled slots are identity.  Gates
apply round by round, left to right within a round.  One-qubit gates at slot
i act on qubit i (promoted with an identity on qubit i+1); the Toffoli is
allowed in the text format and acts on (i, i+1, i+2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates
from .gates import Gate, QubitState

GATE_NAMES: dict[str, Gate] = {
    "I": gates.I1,
    "W": gates.W,
    "S": gates.SWAP,
    "H": gates.H,
    "X": gates.X,
    "Z": gates.Z,
    "Y": gates.Y,
    "CX": gates.CX,
    "T": gates.TOFFOLI,
}


class CircuitParseError(ValueError):
    """Malformed circuit text."""


class UnsupportedGateError(ValueError):
    """Gate outside the set a machine or rewrite pass accepts."""


def _slot_targets(gate: Gate, i: int) -> tuple[int, ...]:
    return tuple(range(i, i + gate.arity))


@dataclass
class Circuit:
    """R rounds of nearest-neighbor gates over n qubits."""

    n: int
    rounds: int
    gates: dict[tuple[int, int], Gate] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 qubits for nearest-neighbor slots")
        if self.rounds < 1:
            raise ValueError("need at least 1 round")
        for (r, i), g in self.gates.items():
            if not (1 <= r <= self.rounds):
                raise ValueError(f"round {r} outside 1..{self.rounds}")
            if not (1 <= i <= self.n - 1):
                raise ValueError(f"position {i} outside 1..{self.n - 1}")
            if i + g.arity - 1 > self.n:
                raise ValueError(f"{g.label} at position {i} runs past qubit {self.n}")

    def gate_at(self, r: int, i: int) -> Gate:
        return self.gates.get((r, i), gates.I1)

    def slot_matrix(self, r: int, i: int) -> np.ndarray:
        """The 4x4 unitary of slot (r, i) on qubits (i, i+1)."""
        g = self.gate_at(r, i)
        if g.arity == 1:
            return np.kron(g.matrix, np.eye(2))
        if g.arity == 2:
            return g.matrix
        raise UnsupportedGateError(f"{g.label} is not a two-qubit slot gate")

    def applications(self) -> list[tuple[Gate, tuple[int, ...]]]:
        """All non-identity gates in application order (first applied first)."""
        out = []
        for r in range(1, self.rounds + 1):
            for i in range(1, self.n):
                g = self.gate_at(r, i)
                if g.label != "I":
                    out.append((g, _slot_targets(g, i)))
        return out


def parse_circuit(text: str) -> Circuit:
    n = rounds = None
    entries: dict[tuple[int, int], Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].upper()
        try:
            if key == "QUBITS" and len(parts) == 2:
                n = int(parts[1])
            elif key == "ROUNDS" and len(parts) == 2:
                rounds = int(parts[1])
            elif key == "GATE" and len(parts) == 4:
                name = parts[1].upper()
                if name not in GATE_NAMES:
                    raise CircuitParseError(
                        f"line {lineno}: unknown gate {parts[1]!r}; names: {sorted(GATE_NAMES)}"
                    )
                r, i = int(parts[2]), int(parts[3])
                if (r, i) in entries:
                    raise CircuitParseError(f"line {lineno}: slot ({r},{i}) filled twice")
                if name != "I":
                    entries[(r, i)] = GATE_NAMES[name]
            else:
                raise CircuitParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
        except ValueError as exc:
            if isinstance(exc, CircuitParseError):
                raise
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
    if n is None or rounds is None:
        raise CircuitParseError("missing QUBITS or ROUNDS header")
    try:
        return Circuit(n, rounds, entries)
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from exc


def serialize_circuit(c: Circuit) -> str:
    lines = [f"QUBITS {c.n}", f"ROUNDS {c.rounds}"]
    for r in range(1, c.rounds + 1):
        for i in range(1, c.n):
            g = c.gate_at(r, i)
            if g.label != "I":
                lines.append(f"GATE {g.label} {r} {i}")
    return "\n".join(lines) + "\n"


def simulate_circuit(circuit: Circuit, initial: QubitState) -> QubitState:
    """Apply every gate round by round, left to right within a round."""
    if initial.n != circuit.n:
        raise ValueError(f"state has {initial.n} qubits, circuit has {circuit.n}")
    state = initial
    for g, targets in circuit.applications():
        state = gates.apply_gate(state, g, targets)
    return state


# --- gate-set rewriting -----------------------------------------------------

# Per-slot expansions into {W, S} words on (i, i+1), in APPLICATION order.
# Z: conjugate the 14-application word (which yields Z on the right qubit)
# with swaps so the result acts on the slot's left qubit, like every other
# one-qubit slot gate.
_Z_WORD = [gates.SWAP] + list(reversed([g for g, _ in gates.synth("Z")])) + [gates.SWAP]
_CX_WORD = list(reversed([g for g, _ in gates.synth("CX")]))

REWRITABLE = {"Z": _Z_WORD, "CX": _CX_WORD}
NATIVE = {"W", "S", "I"}


def rewrite_to_ws(circuit: Circuit) -> Circuit:
    """Rewrite a circuit into the {W, S, I} gate set, one gate per round.

    Only gates with an exact ancilla-free two-qubit expansion are accepted:
    W and S pass through, Z becomes a 16-application word, CX a 19-application
    word.  H, X, and Y have no exact expansion confined to one slot (their
    known realizations hold an ancilla wire at |1>), so they are rejected.
    """
    apps: list[tuple[Gate, int]] = []
    for g, targets in circuit.applications():
        i = targets[0]
        if g.label in NATIVE:
            apps.append((g, i))
        elif g.label in REWRITABLE:
            apps.extend((w, i) for w in REWRITABLE[g.label])
        else:
            raise UnsupportedGateError(
                f"{g.label} at round slot {targets} has no exact {{W,S}} expansion "
                f"on its own qubit pair; rewritable gates: {sorted(set(REWRITABLE) | NATIVE)}"
            )
    rounds = max(1, len(apps))
    return Circuit(circuit.n, rounds, {(r, i): g for r, (g, i) in enumerate(apps, 1)})

