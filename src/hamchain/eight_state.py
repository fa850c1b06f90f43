"""Eight-state translation-invariant rewrite machine.

Each unit cell j pairs a cursor site (between cells j and j+1, stored with
cell j) with a program/data site.  Program symbols {I, S, W, .} march left
one cell per cursor pass; data bits form a fixed 0/1 scaffold around n
logical-qubit placeholders w1..wn whose values live in a separate register.
The solid right cursor executes the program symbol it crosses as a two-qubit
gate, the letter's circuit.GATE_NAMES matrix, on the data pair beneath it;
scaffold bits steer the turn-around rules.

Cursor tokens: L solid-left, l empty-left, R solid-right, r empty-right,
D double-right-arrow, d right-arrow, t turn-around, * idle, X immovable.
A configuration whose `ring` is set is the periodic variant: one more cell,
whose cursor is the X stopper, closes the chain into a ring.

The rule table is compiled at import into machine.Rule values, one per gate
letter where a rule binds one; its data keys become conditions on the fixed
data register, and `machine.Stepper` steps it either way.  A rule-4a
crossing of two placeholders is a slot firing, the one event a history
keeps, with its round set from its rank; a crossing of scaffold bits fires
nothing, and its step raises if the letter would move them.  The scheme's
interface (walk.scheme_module) is first_config, closed_forms, cells and history.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .circuit import GATE_NAMES, NATIVE, Circuit, UnsupportedGateError
from .gates import Gate
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


def cells(n: int, R: int, ring: bool = False) -> int:
    """Cells of the chain of an n-qubit, R-round circuit, stopper included."""
    return n + 4 + 2 * (R - 1) * (n + 1) + ring


def program_layout(circuit: Circuit) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(word: I, round 1, I, I, round 2, ..., I; data: per open-chain cell a
    scaffold bit or w1..wn); a letter outside {W,S,I} is refused."""
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
    return tuple(word), tuple(data)


@dataclass(frozen=True)
class Config8:
    """Registers of one entry per cell: cursors (a ring's X stopper among
    them), program symbols, and the fixed data row."""

    ring: bool
    cursors: tuple[str, ...]
    progs: tuple[str, ...]
    datas: tuple[str, ...]

    def __post_init__(self):
        if not len(self.cursors) == len(self.progs) == len(self.datas):
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
        return Config8(self.ring, registers[0], registers[1], self.datas)

    def dump(self, step: int) -> str:
        return (
            ("\n" if step else "") + f"[{step}]\n"
            "b\t" + " ".join(self.cursors) + "\n"
            "p\t" + " ".join(self.progs) + "\n"
            "d\t" + " ".join(self.datas) + "\n"
        )


def first_config(circuit: Circuit, ring: bool = False) -> Config8:
    """The left cursor ending the open chain over the program word's end, then
    any ring stopper; program_layout refuses a letter outside {W,S,I}."""
    word, data = program_layout(circuit)
    L = len(data)
    cursors = (STAR,) * (L - 1) + (MOVL,) + (XSTOP,) * ring
    progs = (".",) * (L - len(word) - 1) + word + (".",) * (1 + ring)
    return Config8(ring, cursors, progs, data + ("0",) * ring)


@dataclass(frozen=True)
class GateEvent8:
    """A rule-4a crossing of placeholders w_i, w_i+1: a slot firing on (i, i+1)."""

    round: int  # circuit round, which enumerate_history8 sets from the rank
    qubits: tuple[int, int]
    letter: str  # I, S, or W
    forward: bool

    def gate(self, circuit) -> tuple[Gate, tuple[int, int]]:
        """(the letter's gate, logical pair), read from the letter, not
        `circuit`; machine.fire applies it."""
        return GATE_NAMES[self.letter], self.qubits


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
    """Rule 4a's crossing of data cells j, j+1: a GateEvent8 over two
    placeholders, None over scaffold bits the letter fixes (I fixes any), and
    GateOnScaffoldError if a letter but I meets a placeholder and a scaffold
    bit, or would move scaffold bits."""
    if rule.name != "4a":
        return None
    # cell j+1 wraps to cell 1 on the ring; on the open chain j < ncells
    pair = a, b = c.datas[j - 1], c.datas[j % c.ncells]
    if a[0] == "w" and b[0] == "w":
        return GateEvent8(0, (int(a[1:]), int(b[1:])), rule.letter, forward)
    if rule.letter == "I":
        return None
    if a[0] == "w" or b[0] == "w":
        raise GateOnScaffoldError(f"{rule.letter} fired on mixed pair {pair} at cell {j}")
    idx = int(a + b, 2)  # the letter's inverse fixes the same basis pairs
    if abs(GATE_NAMES[rule.letter].matrix[idx, idx] - 1.0) > 1e-12:
        raise GateOnScaffoldError(f"{rule.letter} does not fix scaffold pair {pair} at cell {j}")
    return None


MACHINE = Machine((rule for entry in _RULES8 for rule in _compile(*entry)),
                  LIVE_CURSORS, _event)


def history(circuit: Circuit, ring: bool = False) -> History:
    """The history of `circuit`, through enumerate_history8."""
    return enumerate_history8(circuit, ring)


def enumerate_history8(circuit: Circuit, ring: bool = False) -> History:
    """The history, with the round of each slot firing set from its rank:
    a round fires n-1 of them."""
    history = History.record(first_config(circuit, ring), MACHINE)
    for rank, (t, event) in enumerate(history.events.items()):
        history.events[t] = replace(event, round=rank // (circuit.n - 1) + 1)
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
