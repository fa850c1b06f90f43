"""What both rewrite machines share: a rule type, one matcher and stepper,
the local terms, and the history record.

A configuration stores registers of one symbol per cell: first those the
rules rewrite, then fixed ones that only rule conditions read.  A Rule
names its pre and post sides as (register, offset, symbol) triples over the
rewritten registers and its conditions as (register, offset, value) triples
over the fixed ones, offsets counted from the window cell j.  Only
local_terms decides where a chain ends, by the windows it tiles; the
matcher, the editor and the filing read a window's cells modulo the chain's
length, which wraps on a ring and never on the open chain.  A fixed
register may hold qubit placeholders w1..wn, which no condition may read.
The local terms are the rules tiled over a chain, and one filing
(file_terms) and one match loop (Stepper.find) serve both stepping and
certification: a term is filed under the cell and symbol of the first live
symbol of register 0 on its source side, and only the terms filed under a
live cell's symbol are tried.  Each side of each rule holds a live symbol
of register 0; a Machine files its own terms once per chain
(tests/test_engine_oracle.py checks its matches against a full scan of the
readable tables).

A configuration class supplies `registers` (a tuple, rewritten registers
first), `ring` (a bool: whether the chain is a ring), `rebuild(registers)` and
`dump(t)`; a Machine adds its rules, its live symbols and its gate event,
and its module the rest of its scheme (walk.scheme_module).  A
configuration checks its symbols where it is built: from outside (a
machine's first one, a test's) and as a Stepper's snapshot.  A Stepper is
the one way to step: it steps one configuration in place, forward or
backward.  A step takes the one match Stepper.find gives, a filed term at
window cell j, and applies its edit, the writes that change a cell, so it
touches only the rule's window, and writes only symbols of the tables.  To
step an immutable configuration, start a Stepper on it and take its
snapshot.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from . import gates


class RuleEngineError(RuntimeError):
    """Zero or multiple rule matches where exactly one was required, in
    either machine, or a rule condition that read a qubit placeholder."""


@dataclass(frozen=True)
class Rule:
    """pre -> post forward and post -> pre backward at a window cell j where the
    conditions hold; `letter` is the gate letter a ham8 rule was expanded for."""

    name: str
    pre: tuple
    post: tuple
    conditions: tuple = ()
    letter: str | None = None


def _holds(registers: tuple, j: int, entries) -> bool:
    """Whether each (register, offset, symbol) entry holds at window cell j,
    cells read modulo the chain's length (local_terms tiles the windows)."""
    n = len(registers[0])
    for reg, off, want in entries:
        have = registers[reg][(j + off - 1) % n]
        if have != want:
            if have[0] == "w":
                raise RuleEngineError(f"rule condition reads qubit placeholder {have} "
                                      f"at cell {(j + off - 1) % n + 1}")
            return False
    return True


class Machine:
    """A rule table with its live symbols and its gate event, which maps
    (configuration, window cell, rule, forward) to an event or None."""

    def __init__(self, rules, live, event: Callable):
        self.rules = tuple(rules)
        self.live = frozenset(live)
        self.event = event
        self.rewritten = 1 + max(reg for rule in self.rules for reg, _, _ in rule.pre + rule.post)
        for rule in self.rules:
            for side in (rule.pre, rule.post):
                if not any(reg == 0 and sym in self.live for reg, _, sym in side):
                    raise ValueError(f"rule {rule.name} has a side without a live symbol")
        self.filed = {}  # (cell count, ring) -> file_terms of the local terms of that chain


class Stepper:
    """One configuration of a machine, stepped in place.  The rewritten
    registers are lists; the fixed ones are shared with `base`, the
    configuration it started from, which also answers the gate event.  `live`
    holds the 1-based cells of register 0 that hold a live symbol, updated by
    every write, so matching costs no scan of the chain."""

    def __init__(self, machine: Machine, c):
        self.machine, self.base = machine, c
        k = machine.rewritten
        self.registers = [list(reg) for reg in c.registers[:k]] + list(c.registers[k:])
        self.n = len(self.registers[0])
        self.live = {p for p, sym in enumerate(self.registers[0], 1) if sym in machine.live}
        key = self.n, c.ring  # each chain's terms are filed once per machine
        if key not in machine.filed:
            machine.filed[key] = file_terms(local_terms(machine, c), machine.live, c)
        self.filed = machine.filed[key]

    def find(self, filed: tuple, reverse: bool) -> list[tuple]:
        """The filed entries (file_terms) of the terms that rewrite the
        configuration, backward if `reverse`, in term order: only those filed
        under a live cell and its symbol, or under None, are tried."""
        index, registers = filed[reverse], self.registers
        first = registers[0]
        found = []
        for p in self.live:
            for hit in index.get((p, first[p - 1]), ()):
                if _holds(registers, hit[1], hit[3]):
                    found.append(hit)
        for hit in index.get(None, ()):
            if _holds(registers, hit[1], hit[3]):
                found.append(hit)
        if len(found) > 1:
            found.sort(key=lambda hit: hit[0])
        return found

    def edit(self, j: int, rule: Rule, reverse: bool) -> frozenset:
        """The (register, cell index, symbol) writes of `rule` at window cell j,
        backward if `reverse`, that change a cell, the last write to a cell
        winning.  Two edits of one configuration are equal exactly when the
        configurations they give are."""
        registers, n = self.registers, self.n
        writes = {}
        for reg, off, sym in rule.pre if reverse else rule.post:
            writes[reg, (j + off - 1) % n] = sym
        return frozenset((reg, i, sym) for (reg, i), sym in writes.items()
                         if registers[reg][i] != sym)

    def apply(self, edit) -> frozenset:
        """Write `edit` in place; returns the edit that undoes it."""
        registers, live, symbols = self.registers, self.live, self.machine.live
        undo = frozenset((reg, i, registers[reg][i]) for reg, i, _ in edit)
        for reg, i, sym in edit:
            registers[reg][i] = sym
            if reg == 0:
                (live.add if sym in symbols else live.discard)(i + 1)
        return undo

    def step(self, reverse: bool = False) -> tuple | None:
        """Take the forward step in place, or the backward one if `reverse`:
        (its edit, the edit that undoes it, the event on the edge), or None
        when no rule matches; RuleEngineError when several do."""
        hits = self.find(self.filed, reverse)
        if not hits:
            return None
        if len(hits) > 1:
            direction = "backward" if reverse else "forward"
            raise RuleEngineError(f"{len(hits)} rule instances match {direction}: "
                                  f"{[(j, rule.name) for _, j, rule, _ in hits]}")
        _, j, rule, _ = hits[0]
        event = self.machine.event(self.base, j, rule, not reverse)
        edit = self.edit(j, rule, reverse)
        return edit, self.apply(edit), event

    def snapshot(self):
        """The configuration as it stands, as an immutable configuration."""
        return self.base.rebuild([tuple(reg) for reg in self.registers[:self.machine.rewritten]])


class LocalTerm(NamedTuple):
    """-|post><pre| + h.c. on the window of `rule` at window cell `position`."""

    position: int
    rule: Rule


def local_terms(machine: Machine, c0) -> list[LocalTerm]:
    """Each rule at each window cell where its window fits c0's chain, or at
    every cell on a ring: the one place the chain's ends are decided."""
    n = len(c0.registers[0])
    spans = []  # (rule, first and last window cell where it fits the open chain)
    for rule in machine.rules:
        offsets = [off for _, off, _ in rule.pre + rule.post + rule.conditions]
        spans.append((rule, 1 - min(offsets), n - max(offsets)))
    return [LocalTerm(j, rule) for j in range(1, n + 1) for rule, lo, hi in spans
            if c0.ring or lo <= j <= hi]


def file_terms(terms: list[LocalTerm], live: frozenset, c) -> tuple[dict, dict]:
    """The terms for Stepper.find, forward then backward.  A term's source
    side (pre forward, post backward) matches only where its first live
    symbol of register 0 is, so it is filed under that cell of c's chain,
    modulo its length, and that symbol, as (term index, window cell, rule,
    side + conditions).  A side without a live symbol is filed under None."""
    n = len(c.registers[0])
    filed = ({}, {})
    for i, (j, rule) in enumerate(terms):
        for side, index in ((rule.pre, filed[0]), (rule.post, filed[1])):
            key = None
            for reg, off, sym in side:
                if reg == 0 and sym in live:
                    key = (j + off - 1) % n + 1, sym
                    break
            index.setdefault(key, []).append((i, j, rule, side + rule.conditions))
    return filed


@dataclass
class History:
    """The history of either machine, stored as its first configuration, its
    machine, its length T and its gate events; events[t] is the event
    (GateEvent or GateEvent8) fired on the edge t -> t+1.

    No configuration besides the first is kept: `configs()` steps the
    machine again from `first`, in place, and takes one snapshot per index,
    so a history costs O(L + events) memory rather than O(T L).

    An event is a slot firing, and its transition index is its key; it
    stores no copy of it.  Every event has its circuit `round`, at least 1,
    and `forward`, and answers `gate(circuit)` with (the slot's Gate, its
    logical pair); `fire` alone decides what that does to a register.
    """

    first: object
    machine: Machine
    events: dict = field(default_factory=dict)
    T: int = 0

    @classmethod
    def record(cls, first, machine: Machine) -> History:
        """The history stepped in place from `first`, keeping each event
        under its transition index; no configuration is built."""
        history = cls(first, machine)
        state, t = Stepper(machine, first), 0
        while (step := state.step()) is not None:
            if step[2] is not None:
                history.events[t] = step[2]
            t += 1
        history.T = t
        return history

    def configs(self):
        """The configurations at t = 0..T, stepped again from `first`."""
        state = Stepper(self.machine, self.first)
        yield state.snapshot()
        while state.step() is not None:
            yield state.snapshot()

    def last_real_step(self, r: int) -> int:
        """Step of the last gate of rounds 1..r, read from the events."""
        return max((t for t, ev in self.events.items() if ev.round <= r), default=-1)

    def registers(self, circuit, initial: gates.QubitState):
        """Register state at t = 0..T: `initial` with the gates of the events
        on edges 0..t-1 applied, first fired first."""
        q = initial
        yield q
        for t in range(self.T):
            q = fire(self.events.get(t), circuit, q)
            yield q

    def dump(self):
        """The text of the history, one configuration at a time."""
        return (c.dump(t) for t, c in enumerate(self.configs()))


def fire(event, circuit, q: gates.QubitState) -> gates.QubitState:
    """The register `q` after `event` (None for no event) fires, as its gate
    term -|post><pre| (x) U + h.c. acts: U forward, U^dagger backward, on the
    first `arity` qubits of the pair, so a one-qubit gate acts on the left
    one.  No event and an identity gate fire nothing and return `q` itself."""
    if event is None:
        return q
    gate, pair = event.gate(circuit)
    if gate.label == "I":
        return q
    mat = gate.matrix if event.forward else gate.matrix.conj().T
    return gates.QubitState(q.n, gates.apply_unitary(q.amps, mat, pair[:gate.arity], q.n))
