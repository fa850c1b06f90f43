"""Five-state rewrite machine on an open chain: odd sites carry movement
symbols, even sites carry qubit placeholders, and a single cursor-like symbol
ferries the qubit block rightward one block per round, firing one two-qubit
gate per adjacent pair as it sweeps.

Logical qubit values are never stored in a configuration; placeholders keep
their left-to-right order, so placeholder rank = logical qubit index.  Block
boundaries are not symbols but a fixed register of flags, built once by
first_config: the rule table compiles at import into machine.Rule values
whose boundary keys are conditions on that register, and `machine.Stepper`
steps it either way.  A history keeps each rule-1 event under its step.  A
slot's gate term carries its gate on the slot's qubit pair, which holds
every slot gate circuit.Circuit admits; machine.fire applies it.  The
scheme's interface (walk.scheme_module) is first_config, closed_forms, cells
and history; ham5 has no ring.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit
from .gates import Gate
from .machine import History, Machine, Rule, RuleEngineError

# odd-site symbols
MOV = ">"  # right-mover
MOVLE = "<"  # left-mover (also swaps placeholder and blank)
TUR = "T"  # turn-around
BUL = "."  # bullet spacer
PLUS = "+"  # plus spacer
# even-site symbols
Q = "q"  # qubit placeholder
G = "g"  # gate-qubit placeholder
BLANK = "_"  # unborn/dead

ODD_SYMBOLS = frozenset({MOV, MOVLE, TUR, BUL, PLUS})
EVEN_SYMBOLS = frozenset({Q, G, BLANK})


@dataclass(frozen=True)
class Config5:
    """Per site its symbol and its fixed flag, "+" if a block boundary
    follows the site, else "-"; n sets a gate event's block width 2n."""

    n: int
    flags: tuple[str, ...]
    symbols: tuple[str, ...]

    ring = False

    def __post_init__(self):
        if len(self.symbols) != len(self.flags):
            raise ValueError(f"expected {len(self.flags)} symbols, got {len(self.symbols)}")
        syms = self.symbols
        if ODD_SYMBOLS.issuperset(syms[0::2]) and EVEN_SYMBOLS.issuperset(syms[1::2]):
            return
        for i, sym in enumerate(self.symbols, 1):
            family = ODD_SYMBOLS if i % 2 == 1 else EVEN_SYMBOLS
            if sym not in family:
                raise ValueError(f"site {i}: symbol {sym!r} not allowed on this parity")

    def dump(self, step: int) -> str:
        toks = []
        for sym, flag in zip(self.symbols, self.flags):
            toks.append(sym)
            if flag == "+":
                toks.append("|")
        return f"{step}\t" + " ".join(toks) + "\n"

    @property
    def registers(self) -> tuple:
        """The rewritten symbols, then the fixed boundary flags."""
        return self.symbols, self.flags

    def rebuild(self, registers) -> Config5:
        return Config5(self.n, self.flags, registers[0])


@dataclass(frozen=True)
class GateEvent:
    """A rule-1 firing: gate U_{round,position} on logical qubits (i, i+1)."""

    round: int
    position: int
    forward: bool

    @property
    def qubits(self) -> tuple[int, int]:
        return (self.position, self.position + 1)

    def gate(self, circuit) -> tuple[Gate, tuple[int, int]]:
        """(the circuit's gate at this slot, its logical pair); machine.fire
        applies it."""
        return circuit.gate_at(self.round, self.position), self.qubits


def cells(n: int, R: int, ring: bool = False) -> int:
    """Sites of the chain of an n-qubit, R-round circuit; a ring is refused."""
    if ring:
        raise ValueError("ham5 has only the open chain, not boundary 'periodic-x'")
    return 1 + 2 * n * R


def first_config(circuit: Circuit, ring: bool = False) -> Config5:
    """The turn-around, the qubit block, then R-1 empty blocks; a ring is
    refused (cells)."""
    n, R = circuit.n, circuit.rounds
    cells(n, R, ring)
    syms = [TUR] + [Q, PLUS] * (n - 1) + [Q, BUL] + [BLANK, BUL] * (n * (R - 1))
    flags = (("+",) + ("-",) * (2 * n - 1)) * R + ("-",)
    return Config5(n, flags, tuple(syms))


# Rewrite rules over windows of three consecutive sites (s, s+1, s+2).
# Each entry: (name, lhs, rhs, boundary key).  The key states which window
# offset must (+) or must not (-) sit just before a block boundary; None
# means the rule never consults the flags.  Rule "1" fires a gate.
_RULES = (
    ("1", (G, PLUS, Q), (Q, PLUS, G), None),
    ("2", (G, BUL, BLANK), (Q, TUR, BLANK), ("+", 1)),
    ("3", (TUR, BLANK, BUL), (MOVLE, BLANK, BUL), None),
    ("4", (Q, MOVLE, BLANK), (BLANK, MOVLE, Q), None),
    ("5a", (PLUS, BLANK, MOVLE), (MOVLE, BLANK, PLUS), None),
    ("5b", (BUL, BLANK, MOVLE), (BUL, BLANK, TUR), None),
    ("6a", (TUR, Q, PLUS), (BUL, G, PLUS), ("+", 0)),
    ("6b", (TUR, Q, PLUS), (BUL, Q, MOV), ("-", 0)),
    ("7a", (MOV, Q, PLUS), (PLUS, Q, MOV), None),
    ("7b", (MOV, Q, BUL), (PLUS, Q, TUR), ("-", 2)),
)

# Every rule window holds one of these on both of its sides.
LIVE5 = frozenset({G, TUR, MOVLE, MOV})


def _event(c: Config5, s: int, rule: Rule, forward: bool) -> GateEvent | None:
    """The gate (round, position) of a rule-1 firing whose window starts at
    site s: its block's round and its pair within the block."""
    if rule.name != "1":
        return None
    r = (s - 2) // (2 * c.n) + 1
    i = (s - 2 - 2 * c.n * (r - 1)) // 2 + 1
    return GateEvent(round=r, position=i, forward=forward)


# Register 0 holds the symbols, register 1 the boundary flags.
MACHINE = Machine(
    (Rule(name, tuple((0, k, sym) for k, sym in enumerate(lhs)),
          tuple((0, k, sym) for k, sym in enumerate(rhs)),
          () if bkey is None else ((1, bkey[1], bkey[0]),))
     for name, lhs, rhs, bkey in _RULES),
    LIVE5, _event)


def history(circuit: Circuit, ring: bool = False) -> History:
    """enumerate_history5 of `circuit`; a ring is refused (cells)."""
    cells(circuit.n, circuit.rounds, ring)
    return enumerate_history5(circuit.n, circuit.rounds)


def enumerate_history5(n: int, R: int) -> History:
    return History.record(first_config(Circuit(n, R)), MACHINE)


def closed_forms(n: int, R: int, r: int) -> tuple[int, int]:
    """(T, step of the last gate of rounds 1..r) of the R-round history."""
    return step_count_formula5(n, R), last_gate_step5(n, r)


def step_count_formula5(n: int, R: int) -> int:
    """Transition count T = (R-1)(3n^2+n+1) + n of the R-round history.

    Tally of forward rule firings.  Round 1 fires rule 6a once and rule 1
    n-1 times: n transitions.  Each of the R-1 later rounds fires

      rule 2 and rule 6a once each, rule 1 n-1 times   ->  n + 1
      rules 3 and 5b n times each                      ->  2n
      rule 4 n^2 times, rule 5a n(n-1) times           ->  2n^2 - n
      rules 6b and 7b n-1 times each                   ->  2n - 2
      rule 7a (n-1)(n-2) times                         ->  n^2 - 3n + 2

    which sums to 3n^2+n+1.  Every later round repeats round 2 shifted by
    one block, because the boundary keys depend only on (i-1) mod 2n; in the
    reference trace for n=3, R=2 round 2 spans steps 3..34, 31 transitions.

    Erratum: the closed form quoted for this machine, (R-1)(3n^2+n) + n + 1,
    has slope 3n^2+n in R.  It equals T only at R=2 and falls short of it
    by R-2 elsewhere (it exceeds T by one at R=1).
    """
    return (R - 1) * (3 * n * n + n + 1) + n


def last_gate_step5(n: int, r: int) -> int:
    """Step (n-1) + (r-1)(3n^2+n+1) of the last gate of round r.

    From the tally in step_count_formula5: round 1 is rule 6a followed by
    its n-1 rule-1 firings, so its last gate fires at step n-1.  Every later
    round takes 3n^2+n+1 transitions and, like round 1, ends on its last
    rule-1 firing (the cursor sweep that fires the round's gates is the
    round's final stretch).  Rounds 1..r never reach the blocks of later
    rounds, so the step does not depend on the padded total R.  At r = R it
    is the final transition, T - 1.
    """
    return (r - 1) * (3 * n * n + n + 1) + n - 1
