"""Five-state machine: layout, rule engine, history enumeration, local terms."""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from hamchain import five_state as f5
from hamchain import gates, machine, walk
from hamchain.circuit import Circuit

from oracles import matches, step_config

# Transition counts measured directly from the rule engine and frozen here.
# They exceed the quoted closed form (R-1)(3n^2+n)+n+1 by R-2, so the two
# agree only at R=2 (the quoted form is larger only at R=1); see the
# engine/closed-form comparison below.
ENGINE_T = {
    (2, 1): 2, (2, 2): 17, (2, 3): 32, (2, 4): 47,
    (3, 1): 3, (3, 2): 34, (3, 3): 65, (3, 4): 96,
    (4, 1): 4, (4, 2): 57, (4, 3): 110, (4, 4): 163,
    (5, 1): 5, (5, 2): 86, (5, 3): 167, (5, 4): 248,
}


def test_initial_config_3_2_matches_golden_first_line(fixtures_dir):
    first = (fixtures_dir / "ham5_n3r2.txt").read_text().splitlines(keepends=True)[0]
    assert f5.first_config(Circuit(3, 2)).dump(0) == first


def test_initial_config_2_1_degenerate_layout():
    c = f5.first_config(Circuit(2, 1))
    assert c.symbols == (f5.TUR, f5.Q, f5.PLUS, f5.Q, f5.BUL)


def test_initial_config_2_3_layout():
    c = f5.first_config(Circuit(2, 3))
    assert len(c.symbols) == 13
    assert c.symbols == (f5.TUR,
                         f5.Q, f5.PLUS, f5.Q, f5.BUL,
                         f5.BLANK, f5.BUL, f5.BLANK, f5.BUL,
                         f5.BLANK, f5.BUL, f5.BLANK, f5.BUL)


def test_initial_config_rejects_bad_sizes():
    # a first configuration is built from a circuit, which refuses these sizes
    with pytest.raises(ValueError, match="at least 2 qubits"):
        f5.first_config(Circuit(1, 1))
    with pytest.raises(ValueError, match="at least 1 round"):
        f5.first_config(Circuit(2, 0))


@pytest.mark.parametrize("g", [gates.Z, gates.Y, gates.H], ids=["Z", "Y", "H"])
def test_fire_puts_a_one_qubit_slot_gate_on_the_pairs_left_qubit(g):
    # the event names the bare gate and its pair; fire applies it to the
    # pair's left qubit, undoes it backward, and fires nothing for I
    c = Circuit(3, 2, {(2, 2): g})
    amps = np.arange(1, 9) * (1 + 0.5j) ** np.arange(8)
    q = gates.QubitState(3, amps / np.linalg.norm(amps))
    event = f5.GateEvent(round=2, position=2, forward=True)
    assert event.gate(c)[1] == (2, 3)
    fwd = machine.fire(event, c, q)
    assert np.array_equal(fwd.amps, gates.apply_unitary(q.amps, g.matrix, (2,), 3))
    back = machine.fire(dataclasses.replace(event, forward=False), c, fwd)
    assert np.max(np.abs(back.amps - q.amps)) <= 1e-12
    assert machine.fire(f5.GateEvent(round=1, position=2, forward=True), c, q) is q


def test_config_rejects_wrong_parity_symbol():
    flags = f5.first_config(Circuit(2, 1)).flags
    with pytest.raises(ValueError):
        f5.Config5(2, flags, (f5.Q, f5.Q, f5.PLUS, f5.Q, f5.BUL))


def test_config_rejects_symbols_and_flags_of_unequal_length():
    c0 = f5.first_config(Circuit(2, 1))
    with pytest.raises(ValueError, match="^expected 5 symbols, got 3$"):
        f5.Config5(2, c0.flags, c0.symbols[:3])


def test_golden_trace_3_2_bit_exact(fixtures_dir):
    golden = (fixtures_dir / "ham5_n3r2.txt").read_text()
    assert "".join(f5.enumerate_history5(3, 2).dump()) == golden


def test_trace_ends_at_final_configuration():
    tr = f5.enumerate_history5(3, 2)
    configs = list(tr.configs())
    assert tr.T == 34
    assert machine.Stepper(f5.MACHINE, configs[-1]).step() is None
    assert machine.Stepper(f5.MACHINE, configs[0]).step(reverse=True) is None


@pytest.mark.parametrize("n,R", [(2, 1), (3, 2), (2, 3), (4, 2)])
def test_uniqueness_reversibility_distinctness(n, R):
    tr = f5.enumerate_history5(n, R)
    configs = list(tr.configs())
    assert len(set(c.symbols for c in configs)) == len(configs)
    for t, c in enumerate(configs):
        fwd = matches(machine.Stepper(f5.MACHINE, c), False)
        bwd = matches(machine.Stepper(f5.MACHINE, c), True)
        assert len(fwd) == (0 if t == tr.T else 1)
        assert len(bwd) == (0 if t == 0 else 1)
    # the backward step from c_{t+1} undoes the forward step from c_t and
    # fires the same event backward
    state = machine.Stepper(f5.MACHINE, tr.first)
    for _ in range(tr.T):
        edit, undo, event = state.step()
        back = None if event is None else dataclasses.replace(event, forward=False)
        assert state.step(reverse=True) == (undo, edit, back)
        state.apply(edit)


@pytest.mark.parametrize("n,R", sorted(ENGINE_T))
def test_engine_transition_counts_frozen(n, R):
    assert f5.enumerate_history5(n, R).T == ENGINE_T[(n, R)]


def test_closed_form_agrees_with_engine_only_at_two_rounds():
    # The enumerated count exceeds the quoted closed form by R-2; the exact
    # step_count_formula5 coincides with the quoted form only at R=2.
    for (n, R), T in ENGINE_T.items():
        quoted = (R - 1) * (3 * n * n + n) + n + 1
        assert T - quoted == R - 2
        assert (f5.step_count_formula5(n, R) == quoted) == (R == 2)


@pytest.mark.parametrize("n,R", sorted(ENGINE_T))
def test_rule_tally_derives_step_count(n, R):
    # Per-rule firing counts along the forward history, as derived in the
    # docstring of step_count_formula5: round 1 fires 6a and n-1 gates,
    # every later round fires the same 3n^2+n+1 rewrites.
    tr = f5.enumerate_history5(n, R)
    configs = list(tr.configs())
    tally = Counter(rule.name for c in configs[:-1]
                    for _, rule in matches(machine.Stepper(f5.MACHINE, c), False))
    later = R - 1
    expected = {
        "1": R * (n - 1), "2": later, "3": n * later, "4": n * n * later,
        "5a": n * (n - 1) * later, "5b": n * later, "6a": R,
        "6b": (n - 1) * later, "7a": (n - 1) * (n - 2) * later,
        "7b": (n - 1) * later,
    }
    assert tally == Counter(expected)
    assert sum(tally.values()) == tr.T == f5.step_count_formula5(n, R)


@pytest.mark.parametrize("n,R", [(3, 2), (2, 3), (4, 2)])
def test_gate_events_cover_schedule_in_order(n, R):
    tr = f5.enumerate_history5(n, R)
    events = [tr.events[t] for t in sorted(tr.events)]
    assert len(events) == R * (n - 1)
    assert [(e.round, e.position) for e in events] == [
        (r, i) for r in range(1, R + 1) for i in range(1, n)
    ]
    assert all(e.qubits == (e.position, e.position + 1) for e in events)


def test_rule_engine_flags_ambiguity():
    # Two right-movers at once is not a history configuration.
    flags = f5.first_config(Circuit(2, 2)).flags
    syms = [f5.MOV, f5.Q, f5.PLUS, f5.Q, f5.MOV, f5.Q, f5.PLUS, f5.Q, f5.BUL]
    with pytest.raises(f5.RuleEngineError):
        machine.Stepper(f5.MACHINE, f5.Config5(2, flags, tuple(syms))).step()


def test_local_terms_have_one_gate_term_per_slot():
    # every rule is tiled at every window start; along the history exactly
    # one term matches forward, and the rule-1 terms that fire are one per
    # gate slot, in order
    n, R = 3, 2
    history = f5.enumerate_history5(n, R)
    terms = machine.local_terms(f5.MACHINE, history.first)
    L = len(history.first.symbols)
    assert [(t.position, t.rule) for t in terms] == [
        (s, rule) for s in range(1, L - 1) for rule in f5.MACHINE.rules]
    filed = machine.file_terms(terms, f5.MACHINE.live, history.first)
    fired = []
    for t, c in enumerate(history.configs()):
        hits = [terms[i] for i, *_ in machine.Stepper(f5.MACHINE, c).find(filed, False)]
        assert len(hits) == (t < history.T)
        if t in history.events:
            (term,) = hits
            assert term.rule.name == "1"
            event = f5.MACHINE.event(c, term.position, term.rule, True)
            fired.append((event.round, event.position))
    assert fired == [(r, i) for r in range(1, R + 1) for i in range(1, n)]


def test_local_terms_boundary_placement():
    # Rule 2's boundary key is a condition on the flags register: it holds
    # only where the window's middle sits just left of a block boundary.
    # Every boundary except the leftmost (which has no even site before it)
    # offers one such window, so R-1 in total.
    n, R = 3, 3
    c0 = f5.first_config(Circuit(n, R))
    rule2 = [t for t in machine.local_terms(f5.MACHINE, c0) if t.rule.name == "2"]
    assert len(rule2) == len(c0.symbols) - 2
    assert rule2[0].rule.conditions == ((1, 1, "+"),)
    flags = c0.registers[1]
    placed = [t.position for t in rule2 if flags[t.position] == "+"]
    assert len(placed) == R - 1
    assert placed == [2 * n * k for k in range(1, R)]


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("R", range(1, 4))
def test_boundary_flags_mark_the_last_site_of_each_block_but_the_last(n, R):
    # the 1-site block, then R blocks of 2n sites: a boundary follows sites
    # 1, 1 + 2n, ..., 1 + 2n(R-1), and none follows the chain's last site
    flags = f5.first_config(Circuit(n, R)).flags
    assert len(flags) == f5.cells(n, R)
    assert [i for i, flag in enumerate(flags, 1) if flag == "+"] == [
        1 + 2 * n * k for k in range(R)]
    assert set(flags) <= {"+", "-"}


@pytest.mark.parametrize("n,R", [(2, 1), (3, 2), (2, 3), (4, 3)])
def test_gate_event_position_is_the_rank_of_the_g_placeholder(n, R):
    # the event's pair comes from the lattice geometry; the pattern itself
    # says which logical qubit sits at the window start: the rank of its
    # placeholder, since placeholders keep their order
    configs = list(f5.enumerate_history5(n, R).configs())
    for t, c in enumerate(configs[:-1]):
        for c_from, reverse in ((c, False), (configs[t + 1], True)):
            _, event = step_config(f5.MACHINE, c_from, reverse)
            if event is None:
                continue
            ((s, rule),) = matches(machine.Stepper(f5.MACHINE, c_from), reverse)
            # forward the window starts on g, backward on the q it became
            assert rule.name == "1" and c_from.symbols[s - 1] == (f5.Q if reverse else f5.G)
            head = c_from.symbols[:s]
            assert event.position == head.count(f5.Q) + head.count(f5.G)


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_configs_steps_the_history_again(scheme, ws_circuit_3q2r):
    tr = walk.enumerate_history(scheme, ws_circuit_3q2r)
    configs = list(tr.configs())
    assert len(configs) == tr.T + 1
    assert configs[0] == tr.first
    assert list(tr.configs()) == configs
    assert machine.Stepper(tr.machine, configs[-1]).step() is None
