"""Certification that local terms act as the hopping matrix on dressed states."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates, machine, subspace, walk
from hamchain.circuit import Circuit
from hamchain.gates import QubitState

from oracles import matches, step_config


def test_certify_ham5_reference_instance(ws_circuit_3q2r):
    rep = subspace.certify_subspace("ham5", ws_circuit_3q2r)
    assert rep.passed
    assert len(rep.lines) == 35


def test_certify_ham8_minimal_instance(w_circuit_2q):
    rep = subspace.certify_subspace("ham8", w_circuit_2q)
    assert rep.passed
    assert len(rep.lines) == 19


def test_certify_with_superposed_register(w_circuit_2q):
    init = QubitState(2, np.ones(4, dtype=complex) / 2.0)
    assert subspace.certify_subspace("ham5", w_circuit_2q, init).passed
    assert subspace.certify_subspace("ham8", w_circuit_2q, init).passed


def _image_patterns(m, terms, c, q, circuit):
    """The configuration each image of the dressed state (c, q) names."""
    out = []
    filed = machine.file_terms(terms, m.live, c)
    for edit, _ in subspace.images(filed, machine.Stepper(m, c), q, circuit):
        image = machine.Stepper(m, c)
        image.apply(edit)
        out.append(image.snapshot())
    return out


def test_apply_h5_at_endpoints(w_circuit_2q):
    configs = list(f5.enumerate_history5(2, 1).configs())
    terms = machine.local_terms(f5.MACHINE, configs[0])
    got = _image_patterns(f5.MACHINE, terms, configs[0], QubitState.basis("00"), w_circuit_2q)
    assert got == [configs[1]]


def test_apply_h5_interior_has_two_neighbors(w_circuit_2q):
    configs = list(f5.enumerate_history5(2, 1).configs())
    terms = machine.local_terms(f5.MACHINE, configs[0])
    got = _image_patterns(f5.MACHINE, terms, configs[1], QubitState.basis("00"), w_circuit_2q)
    assert len(got) == 2 and set(got) == {configs[0], configs[2]}


def test_apply_h8_annihilates_cursorless_pattern(w_circuit_2q):
    c0 = e8.first_config(w_circuit_2q)
    dead = e8.Config8(c0.layout, c0.ring, (e8.STAR,) * c0.ncells,
                      c0.progs, c0.datas)
    filed = machine.file_terms(machine.local_terms(e8.MACHINE, c0), e8.MACHINE.live, c0)
    state = machine.Stepper(e8.MACHINE, dead)
    assert subspace.images(filed, state, QubitState.basis("00"), w_circuit_2q) == []


def _superposed(n):
    amps = np.arange(1, 2**n + 1, dtype=complex) * (1 + 0.5j) ** np.arange(2**n)
    return QubitState(n, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_backward_event_undoes_the_forward_gate(scheme):
    # stepping back over a gate edge applies U^dagger, so it gives back the
    # register before the edge; both machines' events must agree on this
    circuit = Circuit(2, 1, {(1, 1): gates.W})
    history = walk.enumerate_history(scheme, circuit)
    configs = list(history.configs())
    registers = list(history.registers(circuit, QubitState.basis("10")))
    for t in range(history.T):
        back, event = step_config(history.machine, configs[t + 1], reverse=True)
        assert back == configs[t]
        assert (event is None) == (t not in history.events)
        q = machine.fire(event, circuit, registers[t + 1])
        assert np.allclose(q.amps, registers[t].amps, atol=1e-14)
    assert history.events  # the W edge is among them


def test_backward_gate_without_its_inverse_fails_certification(w_circuit_2q, monkeypatch):
    # make every backward firing apply U instead of U^dagger: each gate
    # term's h.c. then dresses the register with the wrong unitary
    for event in (f5.GateEvent, e8.GateEvent8):
        gate = event.gate
        monkeypatch.setattr(event, "gate", lambda self, circuit, gate=gate:
                            gate(dataclasses.replace(self, forward=True), circuit))
    for scheme in ("ham5", "ham8"):
        rep = subspace.certify_subspace(scheme, w_circuit_2q, _superposed(2))
        assert not rep.passed
        assert any("register mismatch" in line for line in rep.lines), scheme


def test_dropped_rule_fails_with_missing_neighbor(w_circuit_2q, monkeypatch):
    # certification reads its terms through its own binding of local_terms,
    # so dropping a term there leaves the stepping that gives the neighbours
    monkeypatch.setattr(subspace, "local_terms", lambda m, c0: [
        t for t in machine.local_terms(m, c0) if t.rule.name != "1b"])
    rep = subspace.certify_subspace("ham8", w_circuit_2q)
    assert not rep.passed
    assert any("missing neighbor" in line for line in rep.lines)


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_certify_steps_the_machine_once(scheme, ws_circuit_3q2r, monkeypatch):
    calls = []
    step = machine.Stepper.step
    monkeypatch.setattr(machine.Stepper, "step",
                        lambda self, reverse=False: calls.append(reverse) or step(self, reverse))
    rep = subspace.certify_subspace(scheme, ws_circuit_3q2r)
    T = walk.history_length(scheme, ws_circuit_3q2r)
    assert rep.passed and len(rep.lines) == T + 1
    # each configuration once, forward, the last finding no successor
    assert calls == [False] * (T + 1)


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_certify_refuses_a_history_past_max_T_before_any_step(scheme, monkeypatch):
    def no_stepper(self, m, c):
        raise AssertionError("stepped")

    monkeypatch.setattr(machine.Stepper, "__init__", no_stepper)
    with pytest.raises(ValueError, match="over the limit"):
        subspace.certify_subspace(scheme, Circuit(2, 10**9))


def test_certify_refuses_a_ham5_toffoli_before_any_step(monkeypatch):
    def no_step(self, reverse=False):
        raise AssertionError("stepped")

    monkeypatch.setattr(machine.Stepper, "step", no_step)
    with pytest.raises(ValueError, match=r"^gate T at \(1,1\) acts on 3 qubits"):
        subspace.certify_subspace("ham5", Circuit(3, 1, {(1, 1): gates.TOFFOLI}))


def test_certify_rejects_unknown_scheme(w_circuit_2q):
    with pytest.raises(ValueError):
        subspace.certify_subspace("ham9", w_circuit_2q)


def _scan_images(terms, state, q, circuit):
    """The images of (state, q) under every term in both directions, in term
    order, forward first, each side and its conditions read cell by cell."""
    registers, n, m = state.registers, state.n, state.machine
    out = []
    for term in terms:
        j, rule = term.position, term.rule
        for reverse in (False, True):
            cells = [(reg, (j + off - 1) % n if state.base.ring else j + off - 1, sym)
                     for reg, off, sym in (rule.post if reverse else rule.pre) + rule.conditions]
            if all(0 <= i < n and registers[reg][i] == sym for reg, i, sym in cells):
                event = m.event(state.base, j, rule, not reverse)
                out.append((state.edit(j, rule, reverse), machine.fire(event, circuit, q)))
    return out


@pytest.mark.parametrize("scheme,circuit", [
    ("ham5", Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                            (2, 1): gates.CX, (2, 2): gates.W})),
    ("ham5", Circuit(2, 4, {(1, 1): gates.W, (3, 1): gates.SWAP})),
    ("ham8", Circuit(2, 3, {(1, 1): gates.W, (2, 1): gates.SWAP})),
    ("ham8", Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                            (2, 1): gates.SWAP, (2, 2): gates.W})),
])
def test_picked_terms_give_the_images_of_all_terms(scheme, circuit):
    # the terms that find picks from the filed index, in both directions,
    # give the images of a full scan of every term, in the same order
    amps = np.arange(1, 2**circuit.n + 1, dtype=complex)
    init = QubitState(circuit.n, amps / np.linalg.norm(amps))
    history = walk.enumerate_history(scheme, circuit)
    m = history.machine
    terms = machine.local_terms(m, history.first)
    filed = machine.file_terms(terms, m.live, history.first)
    for index in filed:
        assert sorted(i for bucket in index.values() for i, *_ in bucket) == list(range(len(terms)))
    for c, q in zip(history.configs(), history.registers(circuit, init)):
        state = machine.Stepper(m, c)
        first = state.registers[0]
        tried = sum(len(index.get((p, first[p - 1]), ())) for index in filed for p in state.live)
        assert tried < len(terms)
        want = _scan_images(terms, state, q, circuit)
        got = subspace.images(filed, state, q, circuit)
        assert [edit for edit, _ in got] == [edit for edit, _ in want]
        assert all(np.array_equal(a.amps, b.amps) for (_, a), (_, b) in zip(got, want))


def _add_term(monkeypatch, rogue):
    monkeypatch.setattr(subspace, "local_terms",
                        lambda m, c0: machine.local_terms(m, c0) + [rogue])


def _holds_no_live_symbol(m, rule):
    return not {sym for reg, _, sym in rule.pre + rule.post if reg == 0} & m.live


def test_rogue_ham5_term_without_live_anchor_is_still_applied(w_circuit_2q, monkeypatch):
    # (q + q) <-> (q . q) holds no live symbol, so it cannot be filed under a
    # live site; it must still be tried on every state
    lhs, rhs = (f5.Q, f5.PLUS, f5.Q), (f5.Q, f5.BUL, f5.Q)
    rogue = machine.LocalTerm(2, machine.Rule(
        "rogue", tuple((0, k, sym) for k, sym in enumerate(lhs)),
        tuple((0, k, sym) for k, sym in enumerate(rhs))))
    assert _holds_no_live_symbol(f5.MACHINE, rogue.rule)
    _add_term(monkeypatch, rogue)
    rep = subspace.certify_subspace("ham5", w_circuit_2q)
    trace = f5.enumerate_history5(2, 1)
    configs = list(trace.configs())
    hit = {t for t, c in enumerate(configs)
           if c.symbols[1:4] in (lhs, rhs)}
    assert hit
    assert {t for t, line in enumerate(rep.lines) if "FAIL" in line} == hit
    assert all("unexpected output pattern" in rep.lines[t] for t in hit)


def test_rogue_ham8_term_without_live_anchor_is_still_applied(w_circuit_2q, monkeypatch):
    # a template that rewrites the program symbol under an idle cursor holds
    # no live cursor; it acts on every state whose cell 1 is idle, and none
    # of those has the rewritten pattern as a neighbour
    rogue = machine.LocalTerm(1, machine.Rule("rogue", pre=((0, 0, e8.STAR), (1, 0, ".")),
                                              post=((0, 0, e8.STAR), (1, 0, "I"))))
    assert _holds_no_live_symbol(e8.MACHINE, rogue.rule)
    _add_term(monkeypatch, rogue)
    rep = subspace.certify_subspace("ham8", w_circuit_2q)
    trace = e8.enumerate_history8(w_circuit_2q)
    configs = list(trace.configs())
    hit = {t for t, c in enumerate(configs)
           if c.cursors[0] == e8.STAR and c.progs[0] in (".", "I")}
    assert 0 < len(hit) < len(rep.lines)
    assert {t for t, line in enumerate(rep.lines) if "FAIL" in line} == hit


def test_a_term_past_the_open_chain_wraps_onto_its_first_cell(w_circuit_2q, monkeypatch):
    # only local_terms keeps a window inside the open chain; a term patched
    # at window cell L with offsets 0 and 1 reads cell L and then cell 1,
    # which hold (. T) at t=0 alone, and its image (. <) is no neighbour
    L = f5.cells(2, 1)
    _add_term(monkeypatch, machine.LocalTerm(L, machine.Rule(
        "rogue", ((0, 0, f5.BUL), (0, 1, f5.TUR)), ((0, 0, f5.BUL), (0, 1, f5.MOVLE)))))
    rep = subspace.certify_subspace("ham5", w_circuit_2q)
    assert [t for t, line in enumerate(rep.lines) if "FAIL" in line] == [0]
    assert rep.lines[0] == "t=0 FAIL: unexpected output pattern"


def test_rogue_term_one_cell_past_a_neighbour_is_unexpected(ws_circuit_3q2r, monkeypatch):
    # rule 3 with its bullet rewritten to a plus, tiled where rule 3 is: its
    # forward image is rule 3's neighbour with one more cell changed, so its
    # edit holds the neighbour's and one write more; nowhere is that a
    # neighbour, which an edit compared as anything but the whole set misses
    rule3 = next(rule for rule in f5.MACHINE.rules if rule.name == "3")
    rhs = (f5.MOVLE, f5.BLANK, f5.PLUS)
    rogue = machine.Rule("rogue", rule3.pre, tuple((0, k, sym) for k, sym in enumerate(rhs)))
    local_terms = machine.local_terms
    monkeypatch.setattr(subspace, "local_terms", lambda m, c0: local_terms(m, c0) + [
        machine.LocalTerm(t.position, rogue) for t in local_terms(m, c0) if t.rule is rule3])
    rep = subspace.certify_subspace("ham5", ws_circuit_3q2r)
    lhs = tuple(sym for _, _, sym in rule3.pre)
    configs = list(f5.enumerate_history5(3, 2).configs())
    hit = {t for t, c in enumerate(configs) for s in range(len(c.symbols) - 2)
           if c.symbols[s:s + 3] in (lhs, rhs)}
    assert 0 < len(hit) < len(rep.lines)
    assert {t for t, line in enumerate(rep.lines) if "FAIL" in line} == hit
    assert all(rep.lines[t] == f"t={t} FAIL: unexpected output pattern" for t in hit)


def test_rogue_term_with_a_neighbours_changes_names_the_neighbour(ws_circuit_3q2r, monkeypatch):
    # rule 3 changes only its first cell; a rogue with rule 3's window short
    # of its last, unchanged cell gives the same configuration where both
    # match, so its image is the neighbour's pattern and their two registers
    # sum to -2q: a register mismatch against that neighbour, not an
    # unexpected pattern, which an edit that kept unchanged writes would give
    rule3 = next(rule for rule in f5.MACHINE.rules if rule.name == "3")
    rogue = machine.Rule("rogue", rule3.pre[:2], rule3.post[:2])
    local_terms = machine.local_terms
    monkeypatch.setattr(subspace, "local_terms", lambda m, c0: local_terms(m, c0) + [
        machine.LocalTerm(t.position, rogue) for t in local_terms(m, c0) if t.rule is rule3])
    rep = subspace.certify_subspace("ham5", ws_circuit_3q2r)
    configs = list(f5.enumerate_history5(3, 2).configs())
    fired = [t for t, c in enumerate(configs[:-1])
             if [rule.name for _, rule in matches(machine.Stepper(f5.MACHINE, c), False)] == ["3"]]
    assert fired
    for t in fired:
        assert f"register mismatch vs t'={t + 1}" in rep.lines[t]
        assert f"register mismatch vs t'={t}" in rep.lines[t + 1]


def test_real_term_tiled_twice_fails_with_a_register_mismatch(ws_circuit_3q2r, monkeypatch):
    # the first step's term twice: states 0 and 1 each get two images with
    # the neighbour's edit, each with the neighbour's own register, which
    # sum to -2q; a shortcut that passed an image for being the neighbour's
    # array, without counting the images, would pass them
    c0 = f5.first_config(Circuit(3, 2))
    ((s, rule),) = matches(machine.Stepper(f5.MACHINE, c0), False)
    local_terms = machine.local_terms
    monkeypatch.setattr(subspace, "local_terms", lambda m, c0: local_terms(m, c0) + [
        t for t in local_terms(m, c0) if (t.position, t.rule) == (s, rule)])
    rep = subspace.certify_subspace("ham5", ws_circuit_3q2r)
    assert rep.failures == 2
    assert rep.lines[:2] == ["t=0 FAIL: register mismatch vs t'=1",
                             "t=1 FAIL: register mismatch vs t'=0"]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certify_random_wsi_circuits(data):
    n = data.draw(st.integers(2, 4), label="n")
    R = data.draw(st.integers(1, 3), label="R")
    letters = st.sampled_from([gates.W, gates.SWAP, gates.I1])
    circuit = Circuit(n, R, {(r, i): data.draw(letters)
                             for r in range(1, R + 1) for i in range(1, n)})
    parts = data.draw(st.lists(st.floats(-1, 1), min_size=2 ** (n + 1),
                               max_size=2 ** (n + 1)), label="amps")
    amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    init = QubitState(n, amps / norm)
    for scheme in ("ham5", "ham8"):
        rep = subspace.certify_subspace(scheme, circuit, init)
        assert rep.passed, (scheme, [line for line in rep.lines if "FAIL" in line][:3])


def test_certificate_without_the_last_gate_term_fails_at_the_end(ws_circuit_3q2r, monkeypatch):
    # the last gate's rule-1 term is the only one joining t=T-1 and t=T, the
    # last state of the certificate's window, which has no successor
    n, R = ws_circuit_3q2r.n, ws_circuit_3q2r.rounds
    T = f5.step_count_formula5(n, R)
    last = list(f5.enumerate_history5(n, R).configs())[T - 1]
    ((s, rule),) = matches(machine.Stepper(f5.MACHINE, last), False)
    event = machine.Stepper(f5.MACHINE, last).step()[2]
    assert rule.name == "1" and (event.round, event.position) == (R, n - 1)
    terms = machine.local_terms(f5.MACHINE, last)
    kept = [term for term in terms if (term.position, term.rule.name) != (s, "1")]
    assert len(kept) == len(terms) - 1
    monkeypatch.setattr(subspace, "local_terms", lambda *a, **k: kept)
    rep = subspace.certify_subspace("ham5", ws_circuit_3q2r)
    assert len(rep.lines) == T + 1
    assert [t for t, line in enumerate(rep.lines) if "FAIL" in line] == [T - 1, T]
    assert rep.lines[T] == f"t={T} FAIL: missing neighbor pattern"
