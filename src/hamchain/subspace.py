"""Brute-force certification that the local terms act as the hopping matrix
on the span of dressed history states.

A dressed state is a classical symbol pattern together with the 2^n logical
register.  The local terms are each machine's rules tiled over its chain
(local_terms, which this module binds itself, so a test that patches it
changes the certificate's terms and never the stepping).  They are filed
once (machine.file_terms) and act on dressed states through the match loop
that steps the machine (Stepper.find), and each term's gate event dresses
the register, so no many-body vector is built.  For every history index t,
certification checks that H maps state t to -(state t-1) - (state t+1).

Certification steps the machine once, in place (machine.Stepper), the
register advancing as each edge's event arrives.  At c_t the filed terms
are matched in both directions, and each match gives an image: the term's
edit of c_t and the register after the term's event.  An image's pattern
is named by its edit: two edits of c_t are equal exactly when the
configurations they give are equal, so no configuration is copied or
compared.  The neighbours are the forward step's edit and the undo of the
previous step's edit.  Registers are summed per pattern in image order and
compared with the neighbour's to QUBIT_TOL; one image whose register is the
neighbour's own array differs from it by exactly 0, and is not summed.
The machine of the scheme being certified is the only one imported, and
is reached only through walk.scheme_module and its interface: its MACHINE
and first_config.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import machine, walk
from .machine import local_terms
from .circuit import Circuit
from .gates import QubitState

QUBIT_TOL = 1e-12


def images(filed: tuple, state: machine.Stepper, q: QubitState,
           circuit: Circuit) -> list[tuple[frozenset, QubitState]]:
    """(edit of `state`, register) of each -1-weighted image of the dressed
    state (state, q) under the filed terms (machine.file_terms), in term
    order, forward first: a term rewrites forward, and backward as its h.c.,
    and fires its event on q."""
    event = state.machine.event
    hits = sorted((i, reverse, j, rule) for reverse in (False, True)
                  for i, j, rule, _ in state.find(filed, reverse))
    return [(state.edit(j, rule, reverse),
             machine.fire(event(state.base, j, rule, not reverse), circuit, q))
            for _, reverse, j, rule in hits]


@dataclass
class CertReport:
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
    m, first = module.MACHINE, module.first_config(circuit)
    filed = machine.file_terms(local_terms(m, first), m.live, first)
    state, q = machine.Stepper(m, first), initial
    report = CertReport()
    want: dict = {}  # the neighbours of state t: edit of c_t -> (index, register)
    for t in count():
        got: dict = {}
        for edit, r in images(filed, state, q, circuit):
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
