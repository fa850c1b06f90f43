"""Eight-state translation-invariant rewrite machine.

Each unit cell j pairs a cursor site (between cells j and j+1, stored with
cell j) with a program/data site.  Program symbols {I, S, W, .} march left
one cell per cursor pass; data bits form a fixed 0/1 scaffold around n
logical-qubit placeholders w1..wn whose values live in a separate register.
The solid right cursor executes the program symbol it crosses as a two-qubit
gate on the data pair beneath it; scaffold bits steer the turn-around rules.

Cursor tokens: L solid-left, l empty-left, R solid-right, r empty-right,
D double-right-arrow, d right-arrow, t turn-around, * idle, X immovable.
A configuration whose `ring` is set is the periodic variant: one more cell,
whose cursor is the X stopper, closes the chain into a ring.

The rule table is compiled at import into machine.Rule values, one per gate
letter where a rule binds one; its data keys become conditions on the fixed
data register, and `machine.Stepper` steps it either way.  A history keeps
each rule-4a event under its step and sets the round of each logical firing
from its rank; the letter I fires nothing.  The scheme's interface
(walk.scheme_module) is first_config, closed_forms, cells and history.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gates
from .circuit import NATIVE, Circuit, UnsupportedGateError
from .machine import History, Machine, Rule, RuleEngineError

# cursor symbols
GAT = "R"  # solid right triangle: executes gates
MOV = "r"  # empty right triangle: moves program without gates
MOVL = "L"  # solid left triangle
MOVLE = "l"  # empty left triangle
DBLR = "D"  # double right arrow
ARR = "d"  # right arrow
TUR = "t"  # turn-around
STAR = "*"
XSTOP = "X"  # periodic-variant stopper; no rule mentions it

CURSOR_SYMBOLS = frozenset({GAT, MOV, MOVL, MOVLE, DBLR, ARR, TUR, STAR})
PROG_SYMBOLS = frozenset(NATIVE | {"."})


class GateOnScaffoldError(RuleEngineError):
    """A non-trivial gate fired on data it must leave untouched."""


@dataclass(frozen=True)
class ProgramLayout:
    """Program word and data scaffold for an n-qubit, R-round circuit."""

    program: tuple[str, ...]  # length R(n+1): I, round 1, I, I, round 2, ..., I
    data: tuple[str, ...]  # one per cell of the open chain: scaffold bits and w1..wn


def cells(n: int, R: int, ring: bool = False) -> int:
    """Cells of the chain of an n-qubit, R-round circuit, stopper included."""
    return n + 4 + 2 * (R - 1) * (n + 1) + ring


def program_layout(circuit: Circuit) -> ProgramLayout:
    n, R = circuit.n, circuit.rounds
    word = ["I"]
    for r in range(1, R + 1):
        for i in range(1, n):
            g = circuit.gate_at(r, i)
            if g.label not in NATIVE:
                raise UnsupportedGateError(f"gate {g.label} at ({r},{i}) is outside "
                                           "{W,S,I}; rewrite the circuit first")
            word.append(g.label)
        word.extend(["I", "I"] if r < R else ["I"])
    spacer = ["1"] + ["0"] * n
    data = (["0"] + spacer * (R - 1) + ["1"] + [f"w{i}" for i in range(1, n + 1)]
            + spacer * (R - 1) + ["1", "0"])
    assert len(word) == R * (n + 1) and len(data) == cells(n, R)
    return ProgramLayout(tuple(word), tuple(data))


@dataclass(frozen=True)
class Config8:
    layout: ProgramLayout
    ring: bool
    cursors: tuple[str, ...]
    progs: tuple[str, ...]
    datas: tuple[str, ...]

    def __post_init__(self):
        ncells = len(self.layout.data) + self.ring
        if not (len(self.cursors) == len(self.progs) == len(self.datas) == ncells):
            raise ValueError("register length mismatch")
        ok = CURSOR_SYMBOLS | ({XSTOP} if self.ring else set())
        if not ok.issuperset(self.cursors):
            for i, c in enumerate(self.cursors, 1):
                if c not in ok:
                    raise ValueError(f"cell {i}: bad cursor symbol {c!r}")
        if not PROG_SYMBOLS.issuperset(self.progs):
            raise ValueError("bad program symbol")

    @property
    def ncells(self) -> int:
        return len(self.cursors)

    @property
    def registers(self) -> tuple:
        """The rewritten cursors and program, then the fixed data."""
        return self.cursors, self.progs, self.datas

    def rebuild(self, registers) -> Config8:
        return Config8(self.layout, self.ring, registers[0], registers[1], self.datas)

    def dump(self, step: int) -> str:
        return ("\n" if step else "") + self.dump_block(step)

    def dump_block(self, step: int) -> str:
        return (
            f"[{step}]\n"
            "b\t" + " ".join(self.cursors) + "\n"
            "p\t" + " ".join(self.progs) + "\n"
            "d\t" + " ".join(self.datas) + "\n"
        )


def first_config(circuit: Circuit, ring: bool = False) -> Config8:
    """The left cursor ending the open chain over the program word's end, then
    any ring stopper; program_layout refuses a letter outside {W,S,I}."""
    lay = program_layout(circuit)
    L = len(lay.data)
    cursors = (STAR,) * (L - 1) + (MOVL,) + (XSTOP,) * ring
    progs = (".",) * (L - len(lay.program) - 1) + lay.program + (".",) * (1 + ring)
    return Config8(lay, ring, cursors, progs, lay.data + ("0",) * ring)


@dataclass(frozen=True)
class GateEvent8:
    """A solid-right-cursor crossing: program letter applied to a data pair."""

    round: int  # circuit round of a logical firing, from its rank; 0 for scaffold
    cell: int  # window cell j: letter read from p_{j+1}, applied at (d_j, d_{j+1})
    letter: str  # I, S, or W
    pair: tuple[str, str]  # data tokens under the gate
    forward: bool

    def logical_qubits(self) -> tuple[int, int] | None:
        """(i, i+1) if both data tokens are qubit placeholders, else None."""
        a, b = self.pair
        if a.startswith("w") and b.startswith("w"):
            return int(a[1:]), int(b[1:])
        return None

    def gate(self, circuit) -> tuple[np.ndarray, tuple[int, int]] | None:
        """(unitary, logical pair) of a logical firing, else None.  The
        unitary comes from the fired letter, not from `circuit`, so a letter
        that would disturb the scaffold raises GateOnScaffoldError."""
        mat, pair = self.unitary(), self.logical_qubits()
        return None if mat is None or pair is None else (mat, pair)

    def unitary(self) -> np.ndarray | None:
        """4x4 matrix on the logical pair, or None for a trivial firing: the
        letter I, which fires nothing, or a scaffold pair.

        Raises GateOnScaffoldError when the firing would disturb scaffold
        bits: a non-identity letter on a mixed placeholder/scaffold pair, or
        a scaffold pair the letter does not fix.
        """
        if self.letter == "I":
            return None
        a, b = self.pair
        wa, wb = a.startswith("w"), b.startswith("w")
        mat = {"S": gates.SWAP.matrix, "W": gates.W.matrix}[self.letter]
        if not self.forward:
            mat = mat.conj().T
        if wa and wb:
            return mat
        if wa or wb:
            raise GateOnScaffoldError(
                f"{self.letter} fired on mixed pair {self.pair} at cell {self.cell}"
            )
        idx = int(a) * 2 + int(b)
        col = mat[:, idx]
        if abs(col[idx] - 1.0) > 1e-12:
            raise GateOnScaffoldError(
                f"{self.letter} does not fix scaffold pair {self.pair} at cell {self.cell}"
            )
        return None


# Rule table.  Window keys: "s-" cursor left of cell j, "s" cursor of cell j,
# "p" program of cell j, "p+" program of cell j+1, "d"/"d+" data bits.  The
# value "A" is a wildcard over {I, S, W} bound within one rule instance.
_RULES8 = (
    ("1a", {"s-": STAR, "s": MOVL, "p": "."}, {"s-": MOVLE, "s": STAR, "p": "."}),
    ("1b", {"s-": STAR, "s": MOVLE, "p": "."}, {"s-": TUR, "s": STAR, "p": "."}),
    ("1c", {"s-": STAR, "s": MOVLE, "p": "A"}, {"s-": MOVLE, "s": STAR, "p": "A"}),
    ("2a", {"s-": DBLR, "s": STAR, "p": "."}, {"s-": STAR, "s": GAT, "p": "."}),
    ("2b", {"s-": ARR, "s": STAR, "p": "."}, {"s-": STAR, "s": MOV, "p": "."}),
    ("3a", {"s": TUR, "p": ".", "p+": ".", "d+": "1"}, {"s": DBLR, "p": ".", "p+": ".", "d+": "1"}),
    ("3b", {"s": TUR, "p": ".", "p+": ".", "d+": "0"}, {"s": ARR, "p": ".", "p+": ".", "d+": "0"}),
    ("4a", {"s": GAT, "p": ".", "p+": "A"}, {"s": DBLR, "p": "A", "p+": "."}),
    ("4b", {"s": MOV, "p": ".", "p+": "A"}, {"s": ARR, "p": "A", "p+": "."}),
    ("5a", {"s": GAT, "p": ".", "p+": ".", "d": "1"}, {"s": MOVL, "p": ".", "p+": ".", "d": "1"}),
    ("5b", {"s": MOV, "p": ".", "p+": ".", "d": "0"}, {"s": MOVL, "p": ".", "p+": ".", "d": "0"}),
)

# Every rule holds one of these at "s" or "s-" on both of its sides.
LIVE_CURSORS = CURSOR_SYMBOLS - {STAR}

# window key -> (register, offset): cursors 0, program 1, fixed data 2
_KEYS = {"s-": (0, -1), "s": (0, 0), "p": (1, 0), "p+": (1, 1), "d": (2, 0), "d+": (2, 1)}


def _compile(name: str, pre: dict, post: dict):
    """One Rule per gate letter the rule binds (one Rule if none); the data
    keys, the same on both sides, become its conditions."""
    def side(pat, letter, fixed=False):
        return tuple((*_KEYS[key], letter if sym == "A" else sym)
                     for key, sym in pat.items() if (_KEYS[key][0] == 2) == fixed)
    for letter in sorted(NATIVE) if "A" in pre.values() else [None]:
        yield Rule(name, side(pre, letter), side(post, letter), side(pre, None, True), letter)


def _event(c: Config8, j: int, rule: Rule, forward: bool) -> GateEvent8 | None:
    if rule.name != "4a":
        return None
    # cell j+1 wraps to cell 1 on the ring; on the open chain j < ncells
    pair = (c.datas[j - 1], c.datas[j % c.ncells])
    return GateEvent8(round=0, cell=j, letter=rule.letter, pair=pair, forward=forward)


MACHINE = Machine((rule for entry in _RULES8 for rule in _compile(*entry)),
                  LIVE_CURSORS, _event)


def history(circuit: Circuit, ring: bool = False) -> History:
    """The history of `circuit`, through enumerate_history8."""
    return enumerate_history8(circuit, ring)


def enumerate_history8(circuit: Circuit, ring: bool = False) -> History:
    """The history, with the round of each logical firing set from its rank:
    a round fires n-1 logical gates."""
    history = History.record(first_config(circuit, ring), MACHINE)
    logical = [t for t, event in history.events.items() if event.logical_qubits() is not None]
    for rank, t in enumerate(logical):
        history.events[t] = replace(history.events[t], round=rank // (circuit.n - 1) + 1)
    return history


def closed_forms(n: int, R: int, r: int) -> tuple[int, int]:
    """(T, step of the last gate of rounds 1..r) of the R-round history."""
    return step_count_formula8(n, R), last_gate_step8(n, R, r)


def step_count_formula8(n: int, R: int) -> int:
    """The closed-form transition count quoted for this machine; the rule
    tally behind it is in last_gate_step8."""
    return 6 + (n + 1) * (3 * R * (R - 1) * (n + 1) + 9 * R - 5)


def last_gate_step8(n: int, R: int, r: int) -> int:
    """Step (n+1)[R + 2 + (r-1)(3(n+1)R + 7)] of the last gate of round r.

    Tally of forward rule firings.  The program word has P = R(n+1) letters.
    The opening left sweep fires rule 1a once, 1c P times and 1b once:
    P + 2 transitions.  Every later pass fires

      rule 3a or 3b once (turn-around)                    ->  1
      rule 2a/2b P+1 times and 4a/4b P times (right sweep) ->  2P + 1
      rule 5a or 5b once (turn left)                      ->  1
      rule 1a once, 1c P times, 1b once (left sweep)      ->  P + 2

    which is 3P + 5; the last pass stops before its rule 1b.  Each pass
    shifts the word one cell left, and there are (R-1)(n+1) + 1 passes, so
    T = (P+2) + ((R-1)(n+1) + 1)(3P+5) - 1, which is step_count_formula8.

    Pass k starts at step (P+2) + (k-1)(3P+5) with its turn-around; the
    right sweep then alternates 2a and 4a, so the i-th letter of the word
    fires at offset 2i.  Scaffold 1-bits sit every n+1 cells, so rule 3a
    (gate-executing sweep) fires on passes 1, n+2, 2n+3, ...: pass
    (r-1)(n+1) + 1 is the one that lays round r's letters over w1..wn.
    Those letters are word positions (r-1)(n+1) + 2 .. (r-1)(n+1) + n, so
    the last fires at step (P+2) + (r-1)(n+1)(3P+5) + 2((r-1)(n+1) + n),
    which simplifies to the form above.  Unlike the 5-state machine, the
    step depends on R, because every pass sweeps the whole padded word.
    """
    return (n + 1) * (R + 2 + (r - 1) * (3 * (n + 1) * R + 7))
