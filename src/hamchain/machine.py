"""What both rewrite machines share: a rule type, one matcher and stepper,
the local terms, and the history record.

A configuration stores registers of one symbol per cell: first those the
rules rewrite, then fixed ones that only rule conditions read.  A Rule
names its pre and post sides as (register, offset, symbol) triples over the
rewritten registers and its conditions as (register, offset, value) triples
over the fixed ones, offsets counted from the window cell j.  On a ring the
cells wrap; on the open chain a window that leaves the chain does not match.
A fixed register may hold qubit placeholders w1..wn, which no condition may
read.  Each side of each rule holds a live symbol of register 0, so the
matcher tries only the rules filed under the live symbols present, at the
window cell their offset gives (tests/test_engine_oracle.py checks this
against a full scan of the readable tables).

A configuration class supplies `registers` (a tuple, rewritten registers
first), `ring`, `rebuild(registers)` and `dump(t)`; a Machine adds its rules,
its live symbols and its gate event.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

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

    @property
    def key(self) -> tuple:
        """How a match names the rule: its name, and its letter if it has one."""
        return (self.name,) if self.letter is None else (self.name, self.letter)


def _holds(registers: tuple, ring: bool, j: int, entries) -> bool:
    """Whether each (register, offset, symbol) entry holds at window cell j."""
    n = len(registers[0])
    for reg, off, want in entries:
        i = j + off - 1
        if ring:
            i %= n
        elif not 0 <= i < n:
            return False
        have = registers[reg][i]
        if have != want:
            if have[0] == "w":
                raise RuleEngineError(f"rule condition reads qubit placeholder {have} at cell {j}")
            return False
    return True


class Machine:
    """A rule table with its live symbols and its gate event, which maps
    (configuration, window cell, rule, forward) to an event or None."""

    def __init__(self, rules, live, event: Callable):
        self.rules = tuple(rules)
        self.live = frozenset(live)
        self.event = event
        self.by_key = {rule.key: rule for rule in self.rules}
        self.rewritten = 1 + max(reg for rule in self.rules for reg, _, _ in rule.pre + rule.post)
        # per direction: live symbol -> (offset, rule, entries) of each source side it anchors
        self.index = {}
        for reverse in (False, True):
            index = self.index[reverse] = {}
            for rule in self.rules:
                src = rule.post if reverse else rule.pre
                anchor = self.anchor(src)
                if anchor is None:
                    raise ValueError(f"rule {rule.name} has a side without a live symbol")
                index.setdefault(anchor[1], []).append((anchor[0], rule, src + rule.conditions))

    def anchor(self, side) -> tuple | None:
        """(offset, symbol) of the first live symbol of register 0 in `side`."""
        for reg, off, sym in side:
            if reg == 0 and sym in self.live:
                return off, sym
        return None

    def live_cells(self, c) -> list[tuple[int, str]]:
        """(cell, symbol) of each live symbol in register 0, left to right."""
        first = c.registers[0]
        return [(p, first[p - 1]) for p in find_all(first, self.live)]

    def match_at(self, c, j: int, rule: Rule, reverse: bool) -> bool:
        """Whether `rule` rewrites c at window cell j, backward if `reverse`."""
        src = rule.post if reverse else rule.pre
        return _holds(c.registers, c.ring, j, src + rule.conditions)

    def matches(self, c, reverse: bool) -> list[tuple]:
        """Every match (window cell j, *rule.key), ordered by j, then by the table."""
        registers, ring = c.registers, c.ring
        first, n = registers[0], len(registers[0])
        found = []
        for p in find_all(first, self.live):
            for off, rule, entries in self.index[reverse].get(first[p - 1], ()):
                j = (p - off - 1) % n + 1 if ring else p - off
                if 1 <= j <= n and _holds(registers, ring, j, entries):
                    found.append((j, rule))
        if len(found) > 1:
            found.sort(key=lambda hit: (hit[0], self.rules.index(hit[1])))
        return [(j, *rule.key) for j, rule in found]

    def rewrite(self, c, j: int, rule: Rule, reverse: bool):
        """c with the window of `rule` at cell j rewritten, backward if `reverse`."""
        regs = [list(reg) for reg in c.registers[:self.rewritten]]
        n = len(regs[0])
        for reg, off, sym in rule.pre if reverse else rule.post:
            i = j + off - 1
            regs[reg][i % n if c.ring else i] = sym
        return c.rebuild([tuple(reg) for reg in regs])

    def step(self, c, reverse: bool):
        """(successor, event on the edge), or the predecessor if `reverse`;
        None when no rule matches, RuleEngineError when several do."""
        hits = self.matches(c, reverse)
        if not hits:
            return None
        if len(hits) > 1:
            direction = "backward" if reverse else "forward"
            raise RuleEngineError(f"{len(hits)} rule instances match {direction}: "
                                  f"{[hit[:2] for hit in hits]}")
        j, *key = hits[0]
        rule = self.by_key[tuple(key)]
        return self.rewrite(c, j, rule, reverse), self.event(c, j, rule, not reverse)


@dataclass(frozen=True)
class LocalTerm:
    """-|post><pre| + h.c. on the window of `rule` at window cell `position`."""

    position: int
    rule: Rule


def local_terms(machine: Machine, c0) -> list[LocalTerm]:
    """Each rule at each window cell where its window fits c0's chain (every cell on a ring)."""
    n = len(c0.registers[0])
    spans = [(rule, [off for _, off, _ in rule.pre + rule.post + rule.conditions])
             for rule in machine.rules]
    return [LocalTerm(j, rule) for j in range(1, n + 1) for rule, offsets in spans
            if c0.ring or (j + min(offsets) >= 1 and j + max(offsets) <= n)]


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
        """The text of the history, one configuration at a time."""
        return (c.dump(t) for t, c in enumerate(self.configs()))


def fire(event, circuit, q: gates.QubitState) -> gates.QubitState:
    """The register `q` after `event` (None for no event) fires."""
    gate = event.gate(circuit) if event is not None else None
    if gate is None:
        return q
    mat, pair = gate
    return gates.QubitState(q.n, gates.apply_unitary(q.amps, mat, pair, q.n))
