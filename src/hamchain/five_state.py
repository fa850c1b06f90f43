"""Five-state rewrite machine on an open chain: odd sites carry movement
symbols, even sites carry qubit placeholders, and a single cursor-like symbol
ferries the qubit block rightward one block per round, firing one two-qubit
gate per adjacent pair as it sweeps.

Logical qubit values are never stored in a configuration; placeholders keep
their left-to-right order, so placeholder rank = logical qubit index.  Block
boundaries are static lattice metadata consulted by a few rules, not symbols.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import gates

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


class RuleEngineError(RuntimeError):
    """Zero or multiple rule matches where exactly one was required, in
    either machine, or a ham8 rule condition that read a qubit placeholder."""


@dataclass(frozen=True)
class Lattice5:
    """Chain of 1 + 2nR sites: a 1-site block, then R blocks of 2n sites."""

    n: int
    R: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.R < 1:
            raise ValueError("need R >= 1")

    @property
    def L(self) -> int:
        return 1 + 2 * self.n * self.R

    def boundary_after(self, i: int) -> bool:
        """True if a block boundary sits between sites i and i+1."""
        return 1 <= i < self.L and (i - 1) % (2 * self.n) == 0


@dataclass(frozen=True)
class Config5:
    lattice: Lattice5
    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) != self.lattice.L:
            raise ValueError(f"expected {self.lattice.L} symbols, got {len(self.symbols)}")
        syms = self.symbols
        if ODD_SYMBOLS.issuperset(syms[0::2]) and EVEN_SYMBOLS.issuperset(syms[1::2]):
            return
        for i, sym in enumerate(self.symbols, 1):
            family = ODD_SYMBOLS if i % 2 == 1 else EVEN_SYMBOLS
            if sym not in family:
                raise ValueError(f"site {i}: symbol {sym!r} not allowed on this parity")

    def dump_line(self, step: int) -> str:
        toks = []
        for i, sym in enumerate(self.symbols, 1):
            toks.append(sym)
            if self.lattice.boundary_after(i) and i < self.lattice.L:
                toks.append("|")
        return f"{step}\t" + " ".join(toks)


@dataclass(frozen=True)
class GateEvent:
    """A rule-1 firing: gate U_{round,position} on logical qubits (i, i+1)."""

    step: int  # transition index t (maps configuration t to t+1); -1 if unset
    m: int  # 1-based index in overall application order; -1 if unset
    round: int
    position: int
    forward: bool

    @property
    def qubits(self) -> tuple[int, int]:
        return (self.position, self.position + 1)

    def gate(self, circuit) -> tuple[np.ndarray, tuple[int, int]]:
        """The circuit's unitary for this slot, on its logical pair."""
        return circuit.slot_matrix(self.round, self.position), self.qubits


def initial_config5(n: int, R: int) -> Config5:
    lat = Lattice5(n, R)
    syms = [TUR]
    syms += [Q, PLUS] * (n - 1) + [Q, BUL]
    syms += [BLANK, BUL] * (n * (R - 1))
    return Config5(lat, tuple(syms))


# Rewrite rules over windows of three consecutive sites (s, s+1, s+2).
# Each entry: (name, lhs, rhs, boundary key).  The key states which window
# offset must (+) or must not (-) sit just before a block boundary; None
# means the rule never consults boundary metadata.  Rule "1" fires a gate.
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


# Every rule window holds one of these on both of its sides, so a window can
# match only if it covers a site holding one (tests/test_engine_oracle.py).
LIVE5 = frozenset({G, TUR, MOVLE, MOV})


def _rules_by_window(reverse: bool) -> dict:
    table: dict = {}
    for rule in _RULES:
        table.setdefault(rule[2] if reverse else rule[1], []).append(rule)
    return table


_RULES_BY_WINDOW = {False: _rules_by_window(False), True: _rules_by_window(True)}
_RULE_BY_NAME = {rule[0]: rule for rule in _RULES}


def find_all(seq: tuple, symbols) -> list[int]:
    """Sorted 1-based positions of the entries of `seq` that are in `symbols`.

    Entries are single characters, so `seq` is joined into one string and
    each symbol is located with str.find, which scans in C; the Python-level
    work grows with the number of hits, not with len(seq).
    """
    text = "".join(seq)
    out = []
    for sym in symbols:
        i = text.find(sym)
        while i >= 0:
            out.append(i + 1)
            i = text.find(sym, i + 1)
    return sorted(out)


def live_sites(c: Config5) -> list[int]:
    """Sites holding a live symbol (one of LIVE5)."""
    return find_all(c.symbols, LIVE5)


def _matches(c: Config5, reverse: bool):
    """All (start site s, rule) pairs whose window matches, in scan order.

    Only the window starts p-2..p around each live site p are tried.
    """
    syms = c.symbols
    lat = c.lattice
    table = _RULES_BY_WINDOW[reverse]
    starts = {s for p in live_sites(c) for s in range(max(p - 2, 1), min(p, lat.L - 2) + 1)}
    out = []
    for s in sorted(starts):
        for name, _, _, bkey in table.get(syms[s - 1 : s + 2], ()):
            if bkey is not None:
                sign, off = bkey
                if (sign == "+") != lat.boundary_after(s + off):
                    continue
            out.append((s, name))
    return out


def _gate_slot(lat: Lattice5, s: int) -> tuple[int, int]:
    """(round, position) of the rule-1 firing whose window starts at site s."""
    r = (s - 2) // (2 * lat.n) + 1
    block_start = 2 + 2 * lat.n * (r - 1)
    i = (s - block_start) // 2 + 1
    return r, i


def _step(c: Config5, reverse: bool):
    hits = _matches(c, reverse)
    if not hits:
        return None
    if len(hits) > 1:
        raise RuleEngineError(
            f"{len(hits)} rule instances match {'backward' if reverse else 'forward'}: {hits}"
        )
    s, name = hits[0]
    _, lhs, rhs, _ = _RULE_BY_NAME[name]
    dst = lhs if reverse else rhs
    event = None
    if name == "1":
        r, i = _gate_slot(c.lattice, s)
        event = GateEvent(step=-1, m=-1, round=r, position=i, forward=not reverse)
    return Config5(c.lattice, c.symbols[: s - 1] + dst + c.symbols[s + 2 :]), event


def forward_step5(c: Config5):
    """Unique successor configuration, or None at the final configuration."""
    return _step(c, reverse=False)


def backward_step5(c: Config5):
    """Unique predecessor configuration, or None at the initial configuration."""
    return _step(c, reverse=True)


@dataclass
class History:
    """The history of either machine, stored as its first configuration, its
    forward step, its length T and its gate events; events[t] is the event
    (GateEvent or GateEvent8) fired on the edge t -> t+1.

    No configuration besides the first is kept: `configs()` steps the
    machine again from `first` and holds one configuration at a time, so a
    history costs O(L + events) memory rather than O(T L).

    Every event has a `round`, 0 for a ham8 scaffold firing, and answers
    `gate(circuit)` with (4x4 unitary, logical pair) or None.
    """

    first: object
    step: Callable
    events: dict = field(default_factory=dict)
    T: int = 0

    @staticmethod
    def stream(first, step):
        """Step from `first` until `step` returns None, yielding each
        configuration with the event on its outgoing edge (None where no
        gate fires, and after the last configuration)."""
        c = first
        while (nxt := step(c)) is not None:
            yield c, nxt[1]
            c = nxt[0]
        yield c, None

    @classmethod
    def record(cls, first, step) -> History:
        """The history stepped from `first`, keeping each event with its
        transition index as `step`."""
        history = cls(first, step)
        for t, (_, event) in enumerate(cls.stream(first, step)):
            if event is not None:
                history.events[t] = replace(event, step=t)
            history.T = t
        return history

    def configs(self):
        """The configurations at t = 0..T, stepped again from `first`."""
        return (c for c, _ in self.stream(self.first, self.step))

    def last_real_step(self, r: int) -> int:
        """Step of the last gate of rounds 1..r, read from the events."""
        return max((ev.step for ev in self.events.values() if 0 < ev.round <= r), default=-1)

    def registers(self, circuit, initial: gates.QubitState):
        """Register state at t = 0..T: `initial` with the gates of the events
        on edges 0..t-1 applied, first fired first."""
        q = initial
        yield q
        for t in range(self.T):
            q = fire(self.events.get(t), circuit, q)
            yield q

    def dump(self):
        """The text of the history, one configuration at a time.  ham5: one
        line per configuration; ham8: one [t] block each, with a blank line
        between blocks."""
        for t, c in enumerate(self.configs()):
            if isinstance(c, Config5):
                yield c.dump_line(t) + "\n"
            else:
                yield ("\n" if t else "") + c.dump_block(t)


def fire(event, circuit, q: gates.QubitState) -> gates.QubitState:
    """The register `q` after `event` (None for no event) fires."""
    gate = event.gate(circuit) if event is not None else None
    if gate is None:
        return q
    mat, pair = gate
    return gates.QubitState(q.n, gates.apply_unitary(q.amps, mat, pair, q.n))


def enumerate_history5(n: int, R: int) -> History:
    history = History.record(initial_config5(n, R), forward_step5)
    for m, (t, event) in enumerate(history.events.items(), 1):
        history.events[t] = replace(event, m=m)
    return history


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


# --- local Hamiltonian terms -------------------------------------------------


@dataclass(frozen=True)
class LocalTerm5:
    """One forward rewrite instance as a Hamiltonian term (h.c. implied).

    Represents -|rhs><lhs| placed at window (site, site+1, site+2), plus its
    Hermitian conjugate.  When the rewrite is rule 1, `slot` names the gate
    (round, position) whose 4x4 unitary dresses the two logical qubits.
    """

    site: int
    lhs: tuple[str, str, str]
    rhs: tuple[str, str, str]
    rule: str
    slot: tuple[int, int] | None = None
    unitary: object = None  # 4x4 ndarray for rule-1 terms when a circuit is given


def local_terms5(n: int, R: int, circuit=None) -> list[LocalTerm5]:
    lat = Lattice5(n, R)
    out = []
    for s in range(1, lat.L - 1):
        for name, lhs, rhs, bkey in _RULES:
            if lhs[0] in ODD_SYMBOLS and s % 2 == 0:
                continue
            if lhs[0] in EVEN_SYMBOLS and s % 2 == 1:
                continue
            if bkey is not None:
                sign, off = bkey
                if (sign == "+") != lat.boundary_after(s + off):
                    continue
            slot = _gate_slot(lat, s) if name == "1" else None
            if slot is not None and not (1 <= slot[0] <= R and 1 <= slot[1] <= n - 1):
                continue
            unitary = None
            if slot is not None:
                unitary = (
                    circuit.slot_matrix(*slot) if circuit is not None else np.eye(4)
                )
            out.append(
                LocalTerm5(site=s, lhs=lhs, rhs=rhs, rule=name, slot=slot, unitary=unitary)
            )
    return out
