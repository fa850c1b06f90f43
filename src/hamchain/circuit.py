"""Nearest-neighbor round circuits: text format, simulation, gate-set rewriting.

A circuit is R rounds over n qubits.  Round r holds one gate per position
i = 1..n-1 acting on qubits (i, i+1); unfilled slots are identity.  Gates
apply round by round, left to right within a round.  One-qubit gates at slot
i act on qubit i; the Toffoli acts on (i, i+1, i+2).  It parses and
simulates, but no machine fires it: ham5 refuses it (five_state.first_config)
and ham8 takes only {W, S, I}.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    def applications(self) -> list[tuple[Gate, tuple[int, ...]]]:
        """All non-identity gates in application order (first applied first),
        read from the stored gates, not from every slot."""
        return [(g, _slot_targets(g, i)) for (_, i), g in sorted(self.gates.items())
                if g.label != "I"]


def parse_circuit(text: str) -> Circuit:
    """The circuit of `text`.  Each header is given once, and every GATE
    line, I included, names a slot in range that no other line names."""
    headers: dict[str, int] = {}
    entries: dict[tuple[int, int], tuple[Gate, int]] = {}  # slot -> (gate, line number)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].upper()
        try:
            if key in ("QUBITS", "ROUNDS") and len(parts) == 2:
                value = int(parts[1])
                if key in headers:
                    raise CircuitParseError(f"line {lineno}: second {key} header")
                headers[key] = value
            elif key == "GATE" and len(parts) == 4:
                name = parts[1].upper()
                if name not in GATE_NAMES:
                    raise CircuitParseError(
                        f"line {lineno}: unknown gate {parts[1]!r}; names: {sorted(GATE_NAMES)}"
                    )
                r, i = int(parts[2]), int(parts[3])
                if (r, i) in entries:
                    raise CircuitParseError(f"line {lineno}: slot ({r},{i}) filled twice")
                entries[(r, i)] = GATE_NAMES[name], lineno
            else:
                raise CircuitParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
        except ValueError as exc:
            if isinstance(exc, CircuitParseError):
                raise
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
    n, rounds = headers.get("QUBITS"), headers.get("ROUNDS")
    if n is None or rounds is None:
        raise CircuitParseError("missing QUBITS or ROUNDS header")
    try:
        Circuit(n, rounds)
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from exc
    for slot, (g, lineno) in entries.items():
        try:
            Circuit(n, rounds, {slot: g})  # range-checks the slot, an identity one too
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
    return Circuit(n, rounds, {slot: g for slot, (g, _) in entries.items() if g.label != "I"})


def serialize_circuit(c: Circuit) -> str:
    lines = [f"QUBITS {c.n}", f"ROUNDS {c.rounds}"]
    lines += [f"GATE {g.label} {r} {i}" for (r, i), g in sorted(c.gates.items())
              if g.label != "I"]
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
_Z_WORD = [gates.SWAP] + [g for g, _ in reversed(gates.IDENTITIES["Z"][0])] + [gates.SWAP]
_CX_WORD = [g for g, _ in reversed(gates.IDENTITIES["CX"][0])]

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

