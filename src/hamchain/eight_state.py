"""Eight-state translation-invariant rewrite machine.

Each unit cell j pairs a cursor site (between cells j and j+1, stored with
cell j) with a program/data site.  Program symbols {I, S, W, .} march left
one cell per cursor pass; data bits form a fixed 0/1 scaffold around n
logical-qubit placeholders w1..wn whose values live in a separate register.
The solid right cursor executes the program symbol it crosses as a two-qubit
gate on the data pair beneath it; scaffold bits steer the turn-around rules.

Cursor tokens: L solid-left, l empty-left, R solid-right, r empty-right,
D double-right-arrow, d right-arrow, t turn-around, * idle, X immovable
(periodic variant only).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gates
from .circuit import Circuit, UnsupportedGateError
from .five_state import History, RuleEngineError, find_all

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
PROG_SYMBOLS = frozenset({"I", "S", "W", "."})
GATE_LETTERS = frozenset({"I", "S", "W"})

OPEN = "open"
PERIODIC_X = "periodic-x"


class GateOnScaffoldError(RuleEngineError):
    """A non-trivial gate fired on data it must leave untouched."""


@dataclass(frozen=True)
class ProgramLayout:
    """Program word and data scaffold for an n-qubit, R-round circuit."""

    n: int
    R: int
    program: tuple[str, ...]  # length R(n+1): I, round 1, I, I, round 2, ..., I
    data: tuple[str, ...]  # length L: scaffold bits and w1..wn placeholders

    @property
    def L(self) -> int:
        return self.n + 4 + 2 * (self.R - 1) * (self.n + 1)


def program_layout(circuit: Circuit) -> ProgramLayout:
    n, R = circuit.n, circuit.rounds
    word = ["I"]
    for r in range(1, R + 1):
        for i in range(1, n):
            g = circuit.gate_at(r, i)
            if g.label not in GATE_LETTERS:
                raise UnsupportedGateError(
                    f"gate {g.label} at ({r},{i}) is outside {{W,S,I}}; "
                    "rewrite the circuit first"
                )
            word.append(g.label)
        word.extend(["I", "I"] if r < R else ["I"])
    spacer = ["1"] + ["0"] * n
    data = (
        ["0"]
        + spacer * (R - 1)
        + ["1"]
        + [f"w{i}" for i in range(1, n + 1)]
        + spacer * (R - 1)
        + ["1", "0"]
    )
    layout = ProgramLayout(n, R, tuple(word), tuple(data))
    assert len(word) == R * (n + 1) and len(data) == layout.L
    return layout


@dataclass(frozen=True)
class Config8:
    layout: ProgramLayout
    boundary: str
    cursors: tuple[str, ...]
    progs: tuple[str, ...]
    datas: tuple[str, ...]

    def __post_init__(self):
        ncells = self.layout.L + (1 if self.boundary == PERIODIC_X else 0)
        if self.boundary not in (OPEN, PERIODIC_X):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if not (len(self.cursors) == len(self.progs) == len(self.datas) == ncells):
            raise ValueError("register length mismatch")
        ok = CURSOR_SYMBOLS | ({XSTOP} if self.boundary == PERIODIC_X else set())
        if not ok.issuperset(self.cursors):
            for i, c in enumerate(self.cursors, 1):
                if c not in ok:
                    raise ValueError(f"cell {i}: bad cursor symbol {c!r}")
        if not PROG_SYMBOLS.issuperset(self.progs):
            raise ValueError("bad program symbol")

    @property
    def ncells(self) -> int:
        return len(self.cursors)

    def dump_block(self, step: int) -> str:
        return (
            f"[{step}]\n"
            "b\t" + " ".join(self.cursors) + "\n"
            "p\t" + " ".join(self.progs) + "\n"
            "d\t" + " ".join(self.datas) + "\n"
        )


def initial_config8(circuit: Circuit, boundary: str = OPEN) -> Config8:
    lay = program_layout(circuit)
    L = lay.L
    cursors = [STAR] * (L - 1) + [MOVL]
    progs = ["."] * (L - len(lay.program) - 1) + list(lay.program) + ["."]
    datas = list(lay.data)
    if boundary == PERIODIC_X:
        cursors.append(XSTOP)
        progs.append(".")
        datas.append("0")
    return Config8(lay, boundary, tuple(cursors), tuple(progs), tuple(datas))


@dataclass(frozen=True)
class GateEvent8:
    """A solid-right-cursor crossing: program letter applied to a data pair."""

    step: int  # transition index t; -1 if unset
    m: int  # 1-based count of LOGICAL gate firings so far; 0 for scaffold/no-ops
    round: int  # circuit round of a logical firing, from m; 0 for scaffold/no-ops
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
        """4x4 matrix on the logical pair, or None for a trivial firing.

        Raises GateOnScaffoldError when the firing would disturb scaffold
        bits: a non-identity letter on a mixed placeholder/scaffold pair, or
        a scaffold pair the letter does not fix.
        """
        a, b = self.pair
        wa, wb = a.startswith("w"), b.startswith("w")
        mat = {"I": np.eye(4), "S": gates.SWAP.matrix, "W": gates.W.matrix}[self.letter]
        if not self.forward:
            mat = mat.conj().T
        if wa and wb:
            return mat
        if self.letter == "I":
            return None
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

_CURSOR_KEYS = ("s-", "s")
_DATA_KEYS = ("d", "d+")

# Every rule holds one of these at "s" or "s-" on both of its sides, so a
# window can match only at or just right of a live cursor
# (tests/test_engine_oracle.py).
LIVE_CURSORS = CURSOR_SYMBOLS - {STAR}


def _rules_by_cursors(reverse: bool) -> dict:
    """(cursor at s-, cursor at s) -> the rules whose pattern allows that
    pair, in table order; None stands for the missing cell left of cell 1 on
    the open chain."""
    table: dict = {}
    for rule in _RULES8:
        pat = rule[2] if reverse else rule[1]
        lefts = [pat["s-"]] if "s-" in pat else [*CURSOR_SYMBOLS, XSTOP, None]
        for left in lefts:
            table.setdefault((left, pat["s"]), []).append(rule)
    return table


_RULES_BY_CURSORS = {False: _rules_by_cursors(False), True: _rules_by_cursors(True)}
_RULE_BY_NAME = {rule[0]: rule for rule in _RULES8}


def _cell_index(c: Config8, key: str, j: int) -> int | None:
    """1-based cell that window key `key` names at window cell j; None when
    it falls off the open chain."""
    last, ncells = key[-1], len(c.cursors)
    idx = j - 1 if last == "-" else j + 1 if last == "+" else j
    if c.boundary == PERIODIC_X:
        return (idx - 1) % ncells + 1
    return idx if 1 <= idx <= ncells else None


def _cell_value(c: Config8, key: str, j: int) -> str | None:
    idx = _cell_index(c, key, j)
    if idx is None:
        return None
    first = key[0]
    reg = c.cursors if first == "s" else c.progs if first == "p" else c.datas
    return reg[idx - 1]


def _match_at(c: Config8, pat: dict, other: dict, j: int) -> tuple[bool, str | None]:
    """Try to bind `pat` at cell j; data conditions come from `pat` + `other`."""
    binding = None
    for key, want in pat.items():
        if key in _DATA_KEYS:
            continue
        have = _cell_value(c, key, j)
        if have is None:
            return False, None
        if want == "A":
            if have not in GATE_LETTERS:
                return False, None
            binding = have
        elif have != want:
            return False, None
    # data conditions are side conditions, identical on both ends of a rule
    for key in _DATA_KEYS:
        want = pat.get(key, other.get(key))
        if want is None:
            continue
        have = _cell_value(c, key, j)
        if have is None:
            return False, None
        if have.startswith("w"):
            raise RuleEngineError(
                f"rule condition reads qubit placeholder {have} at cell {j}"
            )
        if have != want:
            return False, None
    return True, binding


def _apply_at(c: Config8, post: dict, j: int, binding: str | None) -> Config8:
    cursors, progs = list(c.cursors), list(c.progs)
    for key, val in post.items():
        if key in _DATA_KEYS:
            continue
        reg = cursors if key in _CURSOR_KEYS else progs
        reg[_cell_index(c, key, j) - 1] = binding if val == "A" else val
    return Config8(c.layout, c.boundary, tuple(cursors), tuple(progs), c.datas)


def live_cells(c: Config8) -> list[int]:
    """Cells whose cursor is live (one of LIVE_CURSORS)."""
    return find_all(c.cursors, LIVE_CURSORS)


def _candidate_cells(c: Config8) -> list[int]:
    """Window cells that can possibly match: each live cursor's own cell and
    the cell to its right."""
    out = set()
    for k in live_cells(c):
        out.add(k)
        nxt = _cell_index(c, "p+", k)
        if nxt is not None:
            out.add(nxt)
    return sorted(out)


def _matches(c: Config8, reverse: bool) -> list[tuple[int, str, str | None]]:
    """All (cell j, rule name, bound letter) matches, in scan order.  At each
    candidate cell only the rules that allow its cursor pair are tried."""
    table = _RULES_BY_CURSORS[reverse]
    hits = []
    for j in _candidate_cells(c):
        for name, pre, post in table.get((_cell_value(c, "s-", j), _cell_value(c, "s", j)), ()):
            src, dst = (post, pre) if reverse else (pre, post)
            ok, binding = _match_at(c, src, dst, j)
            if ok:
                hits.append((j, name, binding))
    return hits


def _step(c: Config8, reverse: bool):
    hits = _matches(c, reverse)
    if not hits:
        return None
    if len(hits) > 1:
        raise RuleEngineError(
            f"{len(hits)} rule instances match {'backward' if reverse else 'forward'}: "
            f"{[(j, n) for j, n, _ in hits]}"
        )
    j, name, binding = hits[0]
    _, pre, post = _RULE_BY_NAME[name]
    nxt = _apply_at(c, pre if reverse else post, j, binding)
    event = None
    if name == "4a":
        pair = (_cell_value(c, "d", j), _cell_value(c, "d+", j))
        event = GateEvent8(step=-1, m=0, round=0, cell=j, letter=binding, pair=pair,
                           forward=not reverse)
    return nxt, event


def forward_step8(c: Config8):
    """Unique successor, or None at the final configuration."""
    return _step(c, reverse=False)


def backward_step8(c: Config8):
    """Unique predecessor, or None at the initial configuration."""
    return _step(c, reverse=True)


def enumerate_history8(circuit: Circuit, boundary: str = OPEN) -> History:
    history = History.record(initial_config8(circuit, boundary), forward_step8)
    logical = [t for t, event in history.events.items() if event.logical_qubits() is not None]
    for m, t in enumerate(logical, 1):
        history.events[t] = replace(history.events[t], m=m, round=(m - 1) // (circuit.n - 1) + 1)
    return history


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


# --- translation-invariant local terms ---------------------------------------


@dataclass(frozen=True)
class LocalTerm8:
    """One rule template tiled at cell j: -|post><pre| + h.c. on the window.

    For rule 4a the program letter bound at match time names the 4x4 unitary
    dressing the data pair.
    """

    cell: int
    rule: str
    pre: dict
    post: dict


def local_terms8(circuit: Circuit, boundary: str = OPEN) -> list[LocalTerm8]:
    c0 = initial_config8(circuit, boundary)
    out = []
    for j in range(1, c0.ncells + 1):
        for name, pre, post in _RULES8:
            # keep templates whose window fits the chain; matching is dynamic
            if boundary == OPEN and "s-" in pre and j == 1:
                continue
            if boundary == OPEN and ("p+" in pre or "d+" in pre or "d+" in post) and j == c0.ncells:
                continue
            out.append(LocalTerm8(cell=j, rule=name, pre=pre, post=post))
    return out
