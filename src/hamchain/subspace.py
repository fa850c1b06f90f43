"""Brute-force certification that the local terms act as the hopping matrix
on the span of dressed history states.

A dressed state is a classical symbol pattern together with the 2^n logical
register.  The local terms are each machine's rules tiled over its chain
(machine.local_terms); they act on dressed states through the matcher that
steps the machine, and each term's gate event dresses the register, so no
many-body vector is built.  For every history index t, certification checks
that H maps state t to -(state t-1) - (state t+1).  The history is streamed
from one stepping pass, the register advancing as each edge's event
arrives, with at most three dressed states held at once.  Each state is
matched only against the terms anchored at its live symbols (_term_picker),
which gives the same images as the whole term table.  Only the machine of
the scheme being certified is imported (walk.scheme_module).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import machine, walk
from .circuit import Circuit
from .gates import QubitState

QUBIT_TOL = 1e-12


@dataclass(frozen=True)
class DressedState:
    pattern: object  # Config5 or Config8
    qubits: QubitState


def apply_H(m: machine.Machine, terms: list[machine.LocalTerm], s: DressedState,
            circuit: Circuit) -> list[tuple[float, DressedState]]:
    """All -1-weighted images of `s` under the terms: each term rewrites
    forward and, as its h.c., backward, and fires its event on the register."""
    c = s.pattern
    out = []
    for term in terms:
        for reverse in (False, True):
            if m.match_at(c, term.position, term.rule, reverse):
                event = m.event(c, term.position, term.rule, not reverse)
                out.append((-1.0, DressedState(m.rewrite(c, term.position, term.rule, reverse),
                                               machine.fire(event, circuit, s.qubits))))
    return out


def _collect(images: list[tuple[float, DressedState]]) -> dict:
    """Sum amplitudes per pattern: pattern -> weighted amplitude vector."""
    acc: dict = {}
    for w, ds in images:
        vec = acc.setdefault(ds.pattern, np.zeros_like(ds.qubits.amps))
        acc[ds.pattern] = vec + w * ds.qubits.amps
    return acc


def _anchors(m: machine.Machine, term: machine.LocalTerm, c0) -> tuple:
    """Per side (pre, post) of the term's rule, the (cell, live symbol) that
    side needs, None when it holds no live symbol.  A cell off the open
    chain holds nothing, so a term filed under one is never picked; such a
    term's window leaves the chain and cannot match either."""
    n = len(c0.registers[0])
    return tuple(None if a is None else
                 ((term.position + a[0] - 1) % n + 1 if c0.ring else term.position + a[0], a[1])
                 for a in map(m.anchor, (term.rule.pre, term.rule.post)))


def _term_picker(terms: list, anchors, live):
    """pattern -> the terms that can act on it, in table order.

    A side of a term matches a pattern only if the pattern holds the live
    symbol that side needs at that side's anchor, so each term is filed
    under its anchors and tried only on patterns that hold one of them;
    `live(pattern)` lists the pattern's (position, live symbol) pairs.  A
    term with a side that has no anchor is tried on every pattern.  Terms
    that cannot match contribute no image, so applying the picked terms
    gives the same images, in the same order, as applying the whole table.
    """
    always: set[int] = set()
    by_anchor: dict = {}
    for i, term in enumerate(terms):
        sides = anchors(term)
        if None in sides:
            always.add(i)
        else:
            for anchor in sides:
                by_anchor.setdefault(anchor, set()).add(i)

    def pick(pattern) -> list:
        idx = set(always)
        for anchor in live(pattern):
            idx.update(by_anchor.get(anchor, ()))
        return [terms[i] for i in sorted(idx)]

    return pick


@dataclass
class CertReport:
    scheme: str
    lines: list[str] = field(default_factory=list)
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _local_hamiltonian(scheme: str, c0):
    """(machine, term table, term picker) of the scheme's local terms on the
    chain of initial configuration c0."""
    m = walk.scheme_module(scheme).MACHINE
    terms = machine.local_terms(m, c0)
    return m, terms, _term_picker(terms, lambda t: _anchors(m, t, c0), m.live_cells)


def _dressed_history(scheme: str, circuit: Circuit, initial: QubitState):
    """The scheme's dressed states at t = 0..T, from one stepping pass: the
    register advances as each edge's event arrives.  What
    walk.history_length refuses is refused before the first step."""
    walk.history_length(scheme, circuit)
    m = walk.scheme_module(scheme)
    if scheme == "ham5":
        first, step = m.initial_config5(circuit.n, circuit.rounds), m.forward_step5
    else:
        first, step = m.initial_config8(circuit), m.forward_step8
    q = initial
    for c, event in machine.History.stream(first, step):
        yield DressedState(c, q)
        q = machine.fire(event, circuit, q)


def certify_subspace(scheme: str, circuit: Circuit, initial: QubitState | None = None) -> CertReport:
    """Check closure of the dressed history span under the local terms."""
    if initial is None:
        initial = QubitState.basis("0" * circuit.n)
    states = _dressed_history(scheme, circuit, initial)
    prev, cur = None, next(states)
    m, _, pick = _local_hamiltonian(scheme, cur.pattern)
    report = CertReport(scheme)
    for t, nxt in enumerate(chain(states, [None])):
        got = _collect(apply_H(m, pick(cur.pattern), cur, circuit))
        want = {s.pattern: (nb, -1.0 * s.qubits.amps)
                for nb, s in ((t - 1, prev), (t + 1, nxt)) if s is not None}
        errs = []
        for pat, vec in got.items():
            if pat not in want:
                errs.append("unexpected output pattern")
            elif np.max(np.abs(vec - want[pat][1])) > QUBIT_TOL:
                errs.append(f"register mismatch vs t'={want[pat][0]}")
        errs += ["missing neighbor pattern" for pat in want if pat not in got]
        if errs:
            report.failures += 1
            report.lines.append(f"t={t} FAIL: {'; '.join(errs)}")
        else:
            report.lines.append(f"t={t} PASS")
        prev, cur = cur, nxt
    return report
