"""Five-state machine: layout, rule engine, history enumeration, local terms."""
from collections import Counter

import pytest

from hamchain import five_state as f5
from hamchain import walk

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
    first = (fixtures_dir / "ham5_n3r2.txt").read_text().splitlines()[0]
    assert f5.initial_config5(3, 2).dump_line(0) == first


def test_initial_config_2_1_degenerate_layout():
    c = f5.initial_config5(2, 1)
    assert c.symbols == (f5.TUR, f5.Q, f5.PLUS, f5.Q, f5.BUL)


def test_initial_config_2_3_layout():
    c = f5.initial_config5(2, 3)
    assert len(c.symbols) == 13
    assert c.symbols == (f5.TUR,
                         f5.Q, f5.PLUS, f5.Q, f5.BUL,
                         f5.BLANK, f5.BUL, f5.BLANK, f5.BUL,
                         f5.BLANK, f5.BUL, f5.BLANK, f5.BUL)


def test_initial_config_rejects_bad_sizes():
    with pytest.raises(ValueError):
        f5.initial_config5(1, 1)
    with pytest.raises(ValueError):
        f5.initial_config5(2, 0)


def test_config_rejects_wrong_parity_symbol():
    lat = f5.Lattice5(2, 1)
    with pytest.raises(ValueError):
        f5.Config5(lat, (f5.Q, f5.Q, f5.PLUS, f5.Q, f5.BUL))


def test_golden_trace_3_2_bit_exact(fixtures_dir):
    golden = (fixtures_dir / "ham5_n3r2.txt").read_text()
    assert "".join(f5.enumerate_history5(3, 2).dump()) == golden


def test_trace_ends_at_final_configuration():
    tr = f5.enumerate_history5(3, 2)
    configs = list(tr.configs())
    assert tr.T == 34
    assert f5.forward_step5(configs[-1]) is None
    assert f5.backward_step5(configs[0]) is None


@pytest.mark.parametrize("n,R", [(2, 1), (3, 2), (2, 3), (4, 2)])
def test_uniqueness_reversibility_distinctness(n, R):
    tr = f5.enumerate_history5(n, R)
    configs = list(tr.configs())
    assert len(set(c.symbols for c in configs)) == len(configs)
    for t, c in enumerate(configs):
        fwd = f5._matches(c, reverse=False)
        bwd = f5._matches(c, reverse=True)
        assert len(fwd) == (0 if t == tr.T else 1)
        assert len(bwd) == (0 if t == 0 else 1)
        if t < tr.T:
            nxt, _ = f5.forward_step5(c)
            back, _ = f5.backward_step5(nxt)
            assert back == c


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
    tally = Counter(name for c in configs[:-1] for _, name in f5._matches(c, False))
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
    assert [e.m for e in events] == list(range(1, len(events) + 1))
    assert all(e.qubits == (e.position, e.position + 1) for e in events)


def test_rule_engine_flags_ambiguity():
    # Two right-movers at once is not a history configuration.
    lat = f5.Lattice5(2, 2)
    syms = [f5.MOV, f5.Q, f5.PLUS, f5.Q, f5.MOV, f5.Q, f5.PLUS, f5.Q, f5.BUL]
    with pytest.raises(f5.RuleEngineError):
        f5.forward_step5(f5.Config5(lat, tuple(syms)))


def test_local_terms_have_one_gate_term_per_slot():
    n, R = 3, 2
    terms = f5.local_terms5(n, R)
    gate_terms = [t for t in terms if t.rule == "1"]
    assert sorted(t.slot for t in gate_terms) == [
        (r, i) for r in range(1, R + 1) for i in range(1, n)
    ]
    for t in gate_terms:
        assert t.unitary.shape == (4, 4)


def test_local_terms_boundary_placement():
    # Rule 2 fires only when the window's middle sits just left of a block
    # boundary; every boundary except the leftmost (which has no even site
    # before it) carries one instance, so R-1 in total.
    n, R = 3, 3
    rule2 = [t for t in f5.local_terms5(n, R) if t.rule == "2"]
    lat = f5.Lattice5(n, R)
    assert len(rule2) == R - 1
    assert all(lat.boundary_after(t.site + 1) for t in rule2)


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_configs_steps_the_history_again(scheme, ws_circuit_3q2r):
    tr = walk.enumerate_history(scheme, ws_circuit_3q2r)
    configs = list(tr.configs())
    assert len(configs) == tr.T + 1
    assert configs[0] == tr.first
    assert list(tr.configs()) == configs
    assert tr.step(configs[-1]) is None
