"""Brute-force certification that the local terms act as the hopping matrix
on the span of dressed history states.

A dressed state is a classical symbol pattern together with the 2^n logical
register.  The local terms are each machine's rules tiled over its chain
(machine.local_terms); they act on dressed states through the matcher that
steps the machine, and each term's gate event dresses the register, so no
many-body vector is built.  For every history index t, certification checks
that H maps state t to -(state t-1) - (state t+1).

Certification steps the machine once, in place (machine.Stepper), the
register advancing as each edge's event arrives.  At c_t every term that
can act on it (_term_picker, which gives the same images as the whole term
table in both directions) is matched, and each match gives an image: the
term's edit of c_t and the register after the term's event.  An image's
pattern is named by its edit: two edits of c_t are equal exactly when the
configurations they give are equal, so no configuration is copied or
compared.  The neighbours are the forward step's edit and the undo of the
previous step's edit.  Registers are summed per pattern in image order and
compared with the neighbour's to QUBIT_TOL; one image whose register is the
neighbour's own array differs from it by exactly 0, and is not summed.
Only the machine of the scheme being certified is imported
(walk.scheme_module).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import machine, walk
from .circuit import Circuit
from .gates import QubitState

QUBIT_TOL = 1e-12


def images(m: machine.Machine, pairs, state: machine.Stepper, q: QubitState,
           circuit: Circuit) -> list[tuple[frozenset, QubitState]]:
    """(edit of `state`, register) of each -1-weighted image of the dressed
    state (state, q) under the (term, reverse) pairs: a term rewrites
    forward, and backward as its h.c., and fires its event on q."""
    out = []
    for term, reverse in pairs:
        if m.match_at(state, term.position, term.rule, reverse):
            event = m.event(state.base, term.position, term.rule, not reverse)
            out.append((state.edit(term.position, term.rule, reverse),
                        machine.fire(event, circuit, q)))
    return out


def _term_picker(m: machine.Machine, terms: list[machine.LocalTerm], c0):
    """Stepper -> the (term, reverse) pairs that can act on it, in table
    order, forward first.  A term matches forward (backward) only where its
    pre (post) side finds the live symbol it needs at that side's anchor
    cell, so each pair is filed under that anchor and tried only on states
    that hold it; a side without a live symbol is tried on every state.  An
    anchor off the open chain is never held, and its window cannot match.
    So the picked pairs give the images, in order, of every pair."""
    n = len(c0.registers[0])
    always: set[tuple[int, bool]] = set()
    by_anchor: dict = {}
    for i, term in enumerate(terms):
        for reverse, side in ((False, term.rule.pre), (True, term.rule.post)):
            anchor = m.anchor(side)
            if anchor is None:
                always.add((i, reverse))
                continue
            cell = (term.position + anchor[0] - 1) % n + 1 if c0.ring else term.position + anchor[0]
            by_anchor.setdefault((cell, anchor[1]), []).append((i, reverse))

    def pick(state: machine.Stepper) -> list:
        first = state.registers[0]
        idx = set(always)
        for p in state.live:
            idx.update(by_anchor.get((p, first[p - 1]), ()))
        return [(terms[i], reverse) for i, reverse in sorted(idx)]

    return pick


@dataclass
class CertReport:
    scheme: str
    lines: list[str] = field(default_factory=list)
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0


def certify_subspace(scheme: str, circuit: Circuit, initial: QubitState | None = None) -> CertReport:
    """Check closure of the dressed history span under the local terms.
    What walk.history_length refuses is refused before the first step."""
    if initial is None:
        initial = QubitState.basis("0" * circuit.n)
    walk.history_length(scheme, circuit)
    module = walk.scheme_module(scheme)
    m = module.MACHINE
    first = (module.initial_config5(circuit.n, circuit.rounds) if scheme == "ham5"
             else module.initial_config8(circuit))
    pick = _term_picker(m, machine.local_terms(m, first), first)
    state, q = machine.Stepper(m, first), initial
    report = CertReport(scheme)
    want: dict = {}  # the neighbours of state t: edit of c_t -> (index, register)
    for t in count():
        got: dict = {}
        for edit, r in images(m, pick(state), state, q, circuit):
            got.setdefault(edit, []).append(r.amps)
        step = state.step()
        if step is not None:
            edit, undo, event = step
            nxt = machine.fire(event, circuit, q)
            want[edit] = (t + 1, nxt.amps)
        errs = []
        for edit, regs in got.items():
            if edit not in want:
                errs.append("unexpected output pattern")
            elif len(regs) > 1 or regs[0] is not want[edit][1]:
                vec = np.zeros_like(regs[0])
                for r in regs:
                    vec = vec + -1.0 * r
                if np.max(np.abs(vec - -1.0 * want[edit][1])) > QUBIT_TOL:
                    errs.append(f"register mismatch vs t'={want[edit][0]}")
        errs += ["missing neighbor pattern" for edit in want if edit not in got]
        if errs:
            report.failures += 1
            report.lines.append(f"t={t} FAIL: {'; '.join(errs)}")
        else:
            report.lines.append(f"t={t} PASS")
        if step is None:
            return report
        want, q = {undo: (t, q.amps)}, nxt
