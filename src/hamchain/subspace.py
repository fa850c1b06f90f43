"""Brute-force certification that the local terms act as the hopping matrix
on the span of dressed history states.

A dressed state is a classical symbol pattern together with the 2^n logical
register.  Local terms are applied directly to dressed states by window
matching; no full many-body vector is ever built.  Certification checks, for
every history index t, that H maps state t to -(state t-1) - (state t+1)
with the recorded gate unitaries on the register factor.  The history is
read as a stream from one stepping pass of the machine, the register
advancing as each edge's event arrives, and no more than three dressed
states (t-1, t, t+1) are held at once.  Each state is
matched only against the terms anchored at its live symbols (_term_picker),
which gives the same images as matching the whole term table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import eight_state as e8
from . import five_state as f5
from . import walk
from .circuit import Circuit
from .gates import QubitState, apply_unitary

QUBIT_TOL = 1e-12


@dataclass(frozen=True)
class DressedState:
    pattern: object  # Config5 or Config8
    qubits: QubitState


def _placeholder_rank5(cfg: f5.Config5, site: int) -> int:
    """1-based logical index of the placeholder at `site` (left-to-right rank)."""
    if not 1 <= site <= len(cfg.symbols):
        raise ValueError(f"site {site} out of range")
    head = cfg.symbols[:site]
    return head.count(f5.Q) + head.count(f5.G)


def apply_H5(terms: list[f5.LocalTerm5], s: DressedState) -> list[tuple[float, DressedState]]:
    """All -1-weighted images of `s` under the term list (h.c. included)."""
    cfg: f5.Config5 = s.pattern
    out = []
    for term in terms:
        window = cfg.symbols[term.site - 1 : term.site + 2]
        for src, dst, dagger in ((term.lhs, term.rhs, False), (term.rhs, term.lhs, True)):
            if window != src:
                continue
            syms = list(cfg.symbols)
            syms[term.site - 1 : term.site + 2] = dst
            qubits = s.qubits
            if term.unitary is not None:
                i = _placeholder_rank5(cfg, term.site)
                mat = term.unitary.conj().T if dagger else term.unitary
                qubits = QubitState(
                    qubits.n, apply_unitary(qubits.amps, mat, (i, i + 1), qubits.n)
                )
            out.append((-1.0, DressedState(f5.Config5(cfg.lattice, tuple(syms)), qubits)))
    return out


def apply_H8(terms: list[e8.LocalTerm8], s: DressedState) -> list[tuple[float, DressedState]]:
    cfg: e8.Config8 = s.pattern
    out = []
    for term in terms:
        for src, dst, dagger in ((term.pre, term.post, False), (term.post, term.pre, True)):
            ok, binding = e8._match_at(cfg, src, dst, term.cell)
            if not ok:
                continue
            new_cfg = e8._apply_at(cfg, dst, term.cell, binding)
            qubits = s.qubits
            if term.rule == "4a":
                pair = (
                    e8._cell_value(cfg, "d", term.cell),
                    e8._cell_value(cfg, "d+", term.cell),
                )
                gate = e8.GateEvent8(
                    step=-1, m=0, round=0, cell=term.cell, letter=binding, pair=pair,
                    forward=not dagger,
                ).gate(None)  # the unitary comes from the letter, not a circuit
                if gate is not None:
                    mat, lq = gate
                    qubits = QubitState(
                        qubits.n, apply_unitary(qubits.amps, mat, lq, qubits.n)
                    )
            out.append((-1.0, DressedState(new_cfg, qubits)))
    return out


def _collect(images: list[tuple[float, DressedState]]) -> dict:
    """Sum amplitudes per pattern: pattern -> weighted amplitude vector."""
    acc: dict = {}
    for w, ds in images:
        vec = acc.setdefault(ds.pattern, np.zeros_like(ds.qubits.amps))
        acc[ds.pattern] = vec + w * ds.qubits.amps
    return acc


def _anchors5(term: f5.LocalTerm5, L: int) -> tuple:
    """Per side (lhs, rhs) of the term, a (site, live symbol) that side
    needs; None when it holds no live symbol or its window is off the chain."""
    if not 1 <= term.site <= L - 2:
        return (None,)
    return tuple(
        next(((term.site + k, sym) for k, sym in enumerate(side) if sym in f5.LIVE5), None)
        for side in (term.lhs, term.rhs)
    )


def _anchors8(term: e8.LocalTerm8, c0: e8.Config8) -> tuple:
    """Per side (pre, post) of the term, a (cell, live cursor) that side
    needs; None when it needs no live cursor or names a cell off the chain."""
    out = []
    for side in (term.pre, term.post):
        cells = [(e8._cell_index(c0, key, term.cell), side[key])
                 for key in ("s", "s-") if side.get(key) in e8.LIVE_CURSORS]
        out.append(cells[0] if cells and cells[0][0] is not None else None)
    return tuple(out)


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


def _local_hamiltonian(scheme: str, circuit: Circuit, c0):
    """(term table, term picker, apply function) of the scheme's local terms
    on the chain of initial configuration c0."""
    if scheme == "ham5":
        terms = f5.local_terms5(circuit.n, circuit.rounds, circuit)
        L = c0.lattice.L
        pick = _term_picker(terms, lambda t: _anchors5(t, L),
                            lambda c: [(p, c.symbols[p - 1]) for p in f5.live_sites(c)])
        return terms, pick, apply_H5
    terms = e8.local_terms8(circuit)
    pick = _term_picker(terms, lambda t: _anchors8(t, c0),
                        lambda c: [(k, c.cursors[k - 1]) for k in e8.live_cells(c)])
    return terms, pick, apply_H8


def _dressed_history(scheme: str, circuit: Circuit, initial: QubitState):
    """The scheme's dressed states at t = 0..T, from one stepping pass: the
    register advances as each edge's event arrives.  What
    walk.history_length refuses is refused before the first step."""
    walk.history_length(scheme, circuit)
    if scheme == "ham5":
        first, step = f5.initial_config5(circuit.n, circuit.rounds), f5.forward_step5
    else:
        first, step = e8.initial_config8(circuit), e8.forward_step8
    q = initial
    for c, event in f5.History.stream(first, step):
        yield DressedState(c, q)
        q = f5.fire(event, circuit, q)


def certify_subspace(scheme: str, circuit: Circuit, initial: QubitState | None = None) -> CertReport:
    """Check closure of the dressed history span under the local terms."""
    if initial is None:
        initial = QubitState.basis("0" * circuit.n)
    states = _dressed_history(scheme, circuit, initial)
    prev, cur = None, next(states)
    _, pick, apply_H = _local_hamiltonian(scheme, circuit, cur.pattern)
    report = CertReport(scheme)
    for t, nxt in enumerate(chain(states, [None])):
        got = _collect(apply_H(pick(cur.pattern), cur))
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
