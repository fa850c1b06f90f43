"""Eight-state translation-invariant machine: layout, rules, histories."""
import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from hamchain import eight_state as e8
from hamchain import gates, machine
from hamchain.circuit import Circuit, UnsupportedGateError

from oracles import circuit_matrix


def test_program_layout_reference_example(ws_circuit_3q2r):
    word, data = e8.program_layout(ws_circuit_3q2r)
    assert word == ("I", "W", "S", "I", "I", "S", "W", "I")
    assert data == ("0", "1", "0", "0", "0", "1", "w1", "w2", "w3",
                    "1", "0", "0", "0", "1", "0")
    assert len(data) == e8.cells(3, 2) == 15


def test_program_layout_minimal(w_circuit_2q):
    word, data = e8.program_layout(w_circuit_2q)
    assert word == ("I", "W", "I")
    assert data == ("0", "1", "w1", "w2", "1", "0")


def test_program_layout_spacer_width():
    word, data = e8.program_layout(Circuit(3, 3))
    assert word == tuple("I I I I I I I I I I I I".split())
    # spacer blocks 1 0 0 0 on each side of the qubit block, width n+1
    assert data[1:5] == ("1", "0", "0", "0")
    assert data[5:10] == ("1", "0", "0", "0", "1")


def test_layout_rejects_foreign_gates():
    with pytest.raises(UnsupportedGateError):
        e8.program_layout(Circuit(2, 1, {(1, 1): gates.CX}))


def test_initial_config_has_single_left_cursor(ws_circuit_3q2r):
    c = e8.first_config(ws_circuit_3q2r)
    assert c.cursors[-1] == e8.MOVL
    assert all(s == e8.STAR for s in c.cursors[:-1])


def test_reference_steps_bit_exact(fixtures_dir, ws_circuit_3q2r):
    golden = (fixtures_dir / "ham8_n3r2_reference.txt").read_text()
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    configs = list(tr.configs())
    assert tr.T == 154 and len(configs) == 155
    got = "".join(
        configs[t].dump(t).lstrip("\n")
        for t in [0, 1, 2] + list(range(9, 14)) + list(range(26, 31))
        + list(range(38, 43)) + list(range(55, 60)) + [154]
    )
    assert got == golden


def test_final_configuration_shape(ws_circuit_3q2r):
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    configs = list(tr.configs())
    last = configs[-1]
    assert last.cursors[0] == e8.MOVLE
    assert all(s == e8.STAR for s in last.cursors[1:])
    # program word shifted fully left, data pattern unchanged
    assert last.progs[:9] == (".",) + e8.program_layout(ws_circuit_3q2r)[0]
    assert last.datas == configs[0].datas
    assert machine.Stepper(e8.MACHINE, last).step() is None


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("R", range(1, 4))
def test_step_count_formula_exact(n, R):
    assert e8.enumerate_history8(Circuit(n, R)).T == e8.step_count_formula8(n, R)


@pytest.mark.parametrize("n,R", [(2, 1), (3, 2)])
def test_uniqueness_reversibility_distinctness(n, R, ws_circuit_3q2r, w_circuit_2q):
    circ = w_circuit_2q if (n, R) == (2, 1) else ws_circuit_3q2r
    tr = e8.enumerate_history8(circ)
    configs = list(tr.configs())
    keys = [(c.cursors, c.progs) for c in configs]
    assert len(set(keys)) == len(keys)
    # the backward step from c_{t+1} undoes the forward step from c_t and
    # fires the same event backward
    assert machine.Stepper(e8.MACHINE, configs[0]).step(reverse=True) is None
    state = machine.Stepper(e8.MACHINE, tr.first)
    for _ in range(tr.T):
        assert_steps_back(state)
    assert state.step() is None


def assert_steps_back(state):
    """Step `state` forward, then check that the backward step undoes it and
    fires the same event backward, and step forward again."""
    edit, undo, event = state.step()
    back = None if event is None else dataclasses.replace(event, forward=False)
    assert state.step(reverse=True) == (undo, edit, back)
    state.apply(edit)


def test_logical_gate_events_match_direct_simulation(ws_circuit_3q2r):
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    logical = sorted(tr.events.items())
    assert [(t, ev.letter) for t, ev in logical] == [
        (14, "W"), (16, "S"), (138, "S"), (140, "W"),
    ]
    u = np.eye(8, dtype=complex)
    for _, ev in logical:
        gate, pair = ev.gate(None)
        u = gates.apply_unitary(np.eye(8), gate.matrix, pair, 3) @ u
    assert np.max(np.abs(u - circuit_matrix(ws_circuit_3q2r))) <= 1e-9


# SHA-256 of the full `trace --scheme ham8` text of ws_circuit_3q2r, on the
# open chain and on the ring
DUMP_SHA256 = {
    False: "4240b0414d8dc83e1da5323ca023fc90566b8db5407d45a4ca4734ad929768f5",
    True: "4bdd8b3736db89d925b362f7b88aa3af3007d8955b0ffc84fd66da65dca9e558",
}


@pytest.mark.parametrize("ring", [False, True], ids=["open", "periodic-x"])
def test_full_dump_digest(ws_circuit_3q2r, ring):
    text = "".join(e8.enumerate_history8(ws_circuit_3q2r, ring).dump())
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[ring]


def test_events_carry_their_round(ws_circuit_3q2r):
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    events = [ev for _, ev in sorted(tr.events.items())]
    # each recorded event is a slot firing, so none is left at round 0
    assert [ev.round for ev in events] == [1, 1, 2, 2]
    assert tr.last_real_step(1) == 16 and tr.last_real_step(2) == 140


def test_scaffold_firings_are_silent(ws_circuit_3q2r):
    # step the whole history: every rule-4a crossing but the four over two
    # placeholders crosses a scaffold bit and fires no event
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    c0 = tr.first
    state, fired, silent = machine.Stepper(e8.MACHINE, c0), {}, 0
    for t in range(tr.T):
        [(_, j, rule, _)] = state.find(state.filed, False)
        event = state.step()[2]
        if rule.name != "4a":
            assert event is None
            continue
        pair = c0.datas[j - 1], c0.datas[j]
        if all(d.startswith("w") for d in pair):
            assert event.qubits == (int(pair[0][1:]), int(pair[1][1:]))
            fired[t] = event
        else:
            assert event is None
            silent += 1
    assert state.step() is None
    assert silent > 4
    assert {t: ev.qubits for t, ev in fired.items()} == {
        t: ev.qubits for t, ev in tr.events.items()} == {
        14: (1, 2), 16: (2, 3), 138: (1, 2), 140: (2, 3)}


@pytest.mark.parametrize("letter,pair,reverse,error", [
    ("W", ("0", "w1"), False, "W fired on mixed pair ('0', 'w1') at cell 2"),
    ("W", ("1", "0"), False, "W does not fix scaffold pair ('1', '0') at cell 2"),
    ("S", ("0", "1"), True, "S does not fix scaffold pair ('0', '1') at cell 2"),
    ("S", ("0", "0"), False, None),  # swap fixes |00>
    ("W", ("0", "1"), True, None),  # W^dagger fixes |01>
    ("I", ("1", "w1"), False, None),  # I fixes any pair
], ids=["mixed", "W-moves-10", "S-back-moves-01", "S-fixes-00", "W-back-fixes-01",
        "I-on-mixed"])
def test_gate_on_scaffold_detection(letter, pair, reverse, error):
    # a 4-cell chain whose one match is a rule-4a crossing at window cell 2
    # over data cells 2 and 3: the solid cursor before it, or the double
    # arrow after it when stepped backward
    cursors = ("*", "D" if reverse else "R", "*", "*")
    progs = (".", letter, ".", ".") if reverse else (".", ".", letter, ".")
    c = e8.Config8(False, cursors, progs, ("0",) + pair + ("0",))
    state = machine.Stepper(e8.MACHINE, c)
    [(_, j, rule, _)] = state.find(state.filed, reverse)
    assert (j, rule.name, rule.letter) == (2, "4a", letter)
    if error is None:
        assert state.step(reverse)[2] is None
    else:
        with pytest.raises(e8.GateOnScaffoldError, match=f"^{re.escape(error)}$"):
            state.step(reverse)


def test_rule_conditions_never_read_qubit_placeholders(w_circuit_2q):
    # sweep the whole history; the matcher raises if a condition lands on w_i
    tr = e8.enumerate_history8(w_circuit_2q)
    assert tr.T == 18


def test_periodic_variant_same_length_and_fixed_stopper(ws_circuit_3q2r):
    tro = e8.enumerate_history8(ws_circuit_3q2r)
    open_configs = list(tro.configs())
    trp = e8.enumerate_history8(ws_circuit_3q2r, ring=True)
    ring_configs = list(trp.configs())
    assert trp.T == tro.T
    for c in ring_configs:
        assert c.cursors[-1] == e8.XSTOP
        assert c.progs[-1] == "."
    # open-chain content identical cell for cell
    for co, cp in zip(open_configs, ring_configs):
        assert cp.cursors[:-1] == co.cursors
        assert cp.progs[:-1] == co.progs


def test_periodic_variant_reversible_after_first_step(w_circuit_2q):
    # The ring admits one extra reverse match at the initial configuration
    # (a left-cursor step wrapping through the stopper cell), so the history
    # is only forward-terminated; every later configuration reverses cleanly.
    trp = e8.enumerate_history8(w_circuit_2q, ring=True)
    ring_configs = list(trp.configs())
    assert machine.Stepper(e8.MACHINE, ring_configs[0]).step(reverse=True) is not None
    state = machine.Stepper(e8.MACHINE, trp.first)
    state.step()
    for _ in range(1, trp.T):
        assert_steps_back(state)


def test_ring_walks_back_from_t0_eight_steps_then_reads_a_placeholder(w_circuit_2q):
    # the ring's extra backward match at t=0 starts a walk off the history,
    # through the stopper cell, so the cells its matches are filed under wrap
    # round the chain: eight steps back succeed, and the ninth meets a rule
    # condition that reads the placeholder w1
    state = machine.Stepper(e8.MACHINE, e8.first_config(w_circuit_2q, ring=True))
    for _ in range(8):
        assert state.step(reverse=True) is not None
    with pytest.raises(e8.RuleEngineError,
                       match="^rule condition reads qubit placeholder w1 at cell 3$"):
        state.step(reverse=True)


def test_rule_engine_flags_ambiguity(w_circuit_2q):
    c0 = e8.first_config(w_circuit_2q)
    cursors = list(c0.cursors)
    cursors[1] = e8.MOVL  # second cursor alongside the real one
    with pytest.raises(e8.RuleEngineError):
        machine.Stepper(e8.MACHINE, e8.Config8(c0.ring, tuple(cursors),
                                               c0.progs, c0.datas)).step()


def test_config_accepts_the_stopper_only_on_the_ring(w_circuit_2q):
    ring = e8.first_config(w_circuit_2q, ring=True)
    assert ring.cursors[-1] == e8.XSTOP
    c0 = e8.first_config(w_circuit_2q)
    cursors = (e8.XSTOP,) + c0.cursors[1:]
    with pytest.raises(ValueError, match="cell 1: bad cursor symbol 'X'"):
        e8.Config8(False, cursors, c0.progs, c0.datas)
    assert e8.Config8(True, cursors + (e8.STAR,), ring.progs, ring.datas).ring


def test_config_rejects_a_bad_program_symbol(w_circuit_2q):
    c0 = e8.first_config(w_circuit_2q)
    with pytest.raises(ValueError, match="bad program symbol"):
        e8.Config8(False, c0.cursors, ("Z",) + c0.progs[1:], c0.datas)


def test_config_rejects_registers_of_unequal_length(w_circuit_2q):
    c0 = e8.first_config(w_circuit_2q)
    with pytest.raises(ValueError, match="register length mismatch"):
        e8.Config8(False, c0.cursors, c0.progs[:-1], c0.datas)


@pytest.mark.parametrize("circuit", ["w_circuit_2q", "ws_circuit_3q2r"])
def test_ring_first_config_adds_one_stopper_cell(circuit, request):
    # only first_config builds a ring chain: each register is one cell
    # longer than the open chain's, and the extra cell holds X, . and 0
    c = request.getfixturevalue(circuit)
    chain, ring = e8.first_config(c), e8.first_config(c, ring=True)
    assert ring.ring and not chain.ring
    assert ring.registers == tuple(reg + (extra,) for reg, extra
                                   in zip(chain.registers, (e8.XSTOP, ".", "0")))
    assert ring.ncells == chain.ncells + 1 == e8.cells(c.n, c.rounds, ring=True)


def test_local_terms_tile_every_cell(w_circuit_2q):
    c0 = e8.first_config(w_circuit_2q)
    terms = machine.local_terms(e8.MACHINE, c0)
    assert {t.rule.name for t in terms} == {name for name, _, _ in e8._RULES8}
    # interior cells carry all 11 templates, as 17 rules: "A" is I, S or W
    assert sum(1 for t in terms if t.position == 3) == 11 + 2 * 3
    # the open chain drops the windows that leave it, the ring none
    ends = {t.position: set() for t in terms}
    for t in terms:
        ends[t.position].add(t.rule.name)
    assert ends[1] == {"3a", "3b", "4a", "4b", "5a", "5b"}  # no "s-"
    assert ends[c0.ncells] == {"1a", "1b", "1c", "2a", "2b"}  # no "p+" or "d+"
    ring = e8.first_config(w_circuit_2q, ring=True)
    assert len(machine.local_terms(e8.MACHINE, ring)) == 17 * ring.ncells


def test_enumeration_keeps_no_configurations():
    # n=2, R=14 (T=5283, the `pad` shape): its 5284 configurations take
    # about 8 MB, its first configuration and 588 events about 0.14 MB
    e8.enumerate_history8(Circuit(2, 2))  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        tr = e8.enumerate_history8(Circuit(2, 14))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.T == 5283
    assert kept < 1e6
