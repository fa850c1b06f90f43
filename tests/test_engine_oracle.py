"""The compiled rules and the shared matcher against full-scan oracles.

The oracles share no code with the matcher: they hold their own copy of both
machines' readable rule tables, try every rule at every window cell, and
bind ham8's "A" and check its data keys themselves.  At every configuration
of every history checked here, in both directions and on the open chain and
the ring, the engines must give the same matches, steps, events and errors.
"""
import re

import pytest

from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates, machine
from hamchain.circuit import Circuit
from hamchain.machine import Stepper

from oracles import matches, step_config

SIZES = [(n, R) for n in (2, 3, 4) for R in (1, 2, 3)]

# The readable tables, copied verbatim, over their symbols spelled out.
MOV, MOVLE, TUR, BUL, PLUS, Q, G, BLANK = ">", "<", "T", ".", "+", "q", "g", "_"

# ham5: (name, lhs, rhs, boundary key) over windows of sites (s, s+1, s+2);
# the key names the offset that must (+) or must not (-) sit just before a
# block boundary.
_RULES = (
    ("1", (G, PLUS, Q), (Q, PLUS, G), None),
    ("2", (G, BUL, BLANK), (Q, TUR, BLANK), ("+", 1)),
    ("3", (TUR, BLANK, BUL), (MOVLE, BLANK, BUL), None),
    ("4", (Q, MOVLE, BLANK), (BLANK, MOVLE, Q), None),
    ("5a", (PLUS, BLANK, MOVLE), (MOVLE, BLANK, PLUS), None),
    ("5b", (BUL, BLANK, MOVLE), (BUL, BLANK, TUR), None),
    ("6a", (TUR, Q, PLUS), (BUL, G, PLUS), ("+", 0)),
    ("6b", (TUR, Q, PLUS), (BUL, Q, MOV), ("-", 0)),
    ("7a", (MOV, Q, PLUS), (PLUS, Q, MOV), None),
    ("7b", (MOV, Q, BUL), (PLUS, Q, TUR), ("-", 2)),
)

GAT, MOV, MOVL, MOVLE, DBLR, ARR, TUR, STAR = "R", "r", "L", "l", "D", "d", "t", "*"

# ham8.  Keys: "s-" cursor left of cell j, "s" cursor of cell j, "p"/"p+"
# program of cells j and j+1, "d"/"d+" data bits; "A" stands for any of I,
# S, W, bound within one rule instance.
_RULES8 = (
    ("1a", {"s-": STAR, "s": MOVL, "p": "."}, {"s-": MOVLE, "s": STAR, "p": "."}),
    ("1b", {"s-": STAR, "s": MOVLE, "p": "."}, {"s-": TUR, "s": STAR, "p": "."}),
    ("1c", {"s-": STAR, "s": MOVLE, "p": "A"}, {"s-": MOVLE, "s": STAR, "p": "A"}),
    ("2a", {"s-": DBLR, "s": STAR, "p": "."}, {"s-": STAR, "s": GAT, "p": "."}),
    ("2b", {"s-": ARR, "s": STAR, "p": "."}, {"s-": STAR, "s": MOV, "p": "."}),
    ("3a", {"s": TUR, "p": ".", "p+": ".", "d+": "1"}, {"s": DBLR, "p": ".", "p+": ".", "d+": "1"}),
    ("3b", {"s": TUR, "p": ".", "p+": ".", "d+": "0"}, {"s": ARR, "p": ".", "p+": ".", "d+": "0"}),
    ("4a", {"s": GAT, "p": ".", "p+": "A"}, {"s": DBLR, "p": "A", "p+": "."}),
    ("4b", {"s": MOV, "p": ".", "p+": "A"}, {"s": ARR, "p": "A", "p+": "."}),
    ("5a", {"s": GAT, "p": ".", "p+": ".", "d": "1"}, {"s": MOVL, "p": ".", "p+": ".", "d": "1"}),
    ("5b", {"s": MOV, "p": ".", "p+": ".", "d": "0"}, {"s": MOVL, "p": ".", "p+": ".", "d": "0"}),
)


class Ambiguous(RuntimeError):
    pass


class ReadsPlaceholder(RuntimeError):
    pass


class ScaffoldMoved(RuntimeError):
    pass


# the scaffold pairs |ab> each gate letter moves: W rotates |1x>, S swaps
# |01> and |10>; I moves none
SCAFFOLD_MOVED = {"W": {"10", "11"}, "S": {"01", "10"}}


def oracle_matches5(c, reverse):
    syms, out = c.symbols, []
    L = len(syms)
    for s in range(1, L - 1):
        window = syms[s - 1 : s + 2]
        for name, lhs, rhs, bkey in _RULES:
            if window != (rhs if reverse else lhs):
                continue
            if bkey is not None:
                sign, off = bkey
                i = s + off
                if (sign == "+") != (i < L and (i - 1) % (2 * c.n) == 0):
                    continue
            out.append((s, name))
    return out


def oracle_step5(c, reverse):
    hits = oracle_matches5(c, reverse)
    if not hits:
        return None
    if len(hits) > 1:
        raise Ambiguous(hits)
    s, name = hits[0]
    _, lhs, rhs, _ = next(r for r in _RULES if r[0] == name)
    syms = list(c.symbols)
    syms[s - 1 : s + 2] = lhs if reverse else rhs
    event = None
    if name == "1":
        # the gate's pair is the rank of the g placeholder the window starts on
        rank = sum(sym in "qg" for sym in c.symbols[:s])
        event = f5.GateEvent(round=(s - 2) // (2 * c.n) + 1, position=rank,
                             forward=not reverse)
    return f5.Config5(c.n, c.flags, tuple(syms)), event


def _cell8(c, key, j):
    idx = j + {"s-": -1, "s": 0, "p": 0, "p+": 1, "d": 0, "d+": 1}[key]
    if c.ring:
        return (idx - 1) % c.ncells + 1
    return idx if 1 <= idx <= c.ncells else None


def _read8(c, key, j):
    idx = _cell8(c, key, j)
    if idx is None:
        return None
    reg = {"s": c.cursors, "p": c.progs, "d": c.datas}[key[0]]
    return reg[idx - 1]


def oracle_bind8(c, pat, j):
    """The letter bound by matching `pat` at cell j (None if it binds none),
    or False when it does not match."""
    letter = None
    for key, want in pat.items():
        if key.startswith("d"):
            continue
        have = _read8(c, key, j)
        if want == "A" and have in ("I", "S", "W"):
            letter = have
        elif have is None or have != want:
            return False
    for key, want in pat.items():
        if key.startswith("d"):
            have = _read8(c, key, j)
            if have is not None and have.startswith("w"):
                raise ReadsPlaceholder(have)
            if have != want:
                return False
    return letter


def oracle_matches8(c, reverse):
    hits = []
    for j in range(1, c.ncells + 1):
        for name, pre, post in _RULES8:
            letter = oracle_bind8(c, post if reverse else pre, j)
            if letter is not False:
                hits.append((j, name, letter))
    return hits


def oracle_step8(c, reverse):
    hits = oracle_matches8(c, reverse)
    if not hits:
        return None
    if len(hits) > 1:
        raise Ambiguous(hits)
    j, name, letter = hits[0]
    _, pre, post = next(r for r in _RULES8 if r[0] == name)
    cursors, progs = list(c.cursors), list(c.progs)
    for key, val in (pre if reverse else post).items():
        if not key.startswith("d"):
            reg = cursors if key.startswith("s") else progs
            reg[_cell8(c, key, j) - 1] = letter if val == "A" else val
    event = None
    if name == "4a":
        a, b = _read8(c, "d", j), _read8(c, "d+", j)
        if a.startswith("w") and b.startswith("w"):
            event = e8.GateEvent8(round=0, qubits=(int(a[1:]), int(b[1:])), letter=letter,
                                  forward=not reverse)
        elif letter != "I" and (a.startswith("w") or b.startswith("w")
                                or a + b in SCAFFOLD_MOVED[letter]):
            raise ScaffoldMoved(letter, a, b)
    return e8.Config8(c.ring, tuple(cursors), tuple(progs), c.datas), event


def outcome(step, c, reverse):
    """The step, or the kind of error: the engines raise RuleEngineError and
    the oracles their own classes, told apart by the message."""
    try:
        return step(c, reverse)
    except (Ambiguous, ReadsPlaceholder, ScaffoldMoved, f5.RuleEngineError) as exc:
        if isinstance(exc, (ScaffoldMoved, e8.GateOnScaffoldError)):
            return "scaffold"
        if isinstance(exc, ReadsPlaceholder) or "placeholder" in str(exc):
            return "placeholder"
        return "ambiguous"


def engine_step5(c, reverse):
    return step_config(f5.MACHINE, c, reverse)


def engine_step8(c, reverse):
    return step_config(e8.MACHINE, c, reverse)


def engine_matches5(c, reverse):
    """The engine's matches as (cell, name)."""
    return [(j, rule.name) for j, rule in matches(Stepper(f5.MACHINE, c), reverse)]


def engine_matches8(c, reverse):
    """The engine's matches as (cell, name, letter or None)."""
    return [(j, rule.name, rule.letter) for j, rule in matches(Stepper(e8.MACHINE, c), reverse)]


def ws_circuit(n, R):
    return Circuit(n, R, {(r, i): gates.W if (r + i) % 2 else gates.SWAP
                          for r in range(1, R + 1) for i in range(1, n)})


def test_every_ham5_rule_window_holds_a_live_symbol():
    for name, lhs, rhs, _ in f5._RULES:
        assert f5.LIVE5 & set(lhs) and f5.LIVE5 & set(rhs), name


def test_every_ham8_rule_has_a_live_cursor_at_s_or_s_minus():
    for name, pre, post in e8._RULES8:
        for side in (pre, post):
            assert {side.get("s"), side.get("s-")} & e8.LIVE_CURSORS, name


def test_every_compiled_rule_side_holds_a_live_symbol_of_register_0():
    # the matcher's index files each side under that symbol
    for machine in (f5.MACHINE, e8.MACHINE):
        for rule in machine.rules:
            for side in (rule.pre, rule.post):
                assert {sym for reg, _, sym in side if reg == 0} & machine.live, rule


def test_a_rule_side_without_a_live_symbol_is_refused():
    # such a side would be filed under None and tried on every state
    idle = machine.Rule("idle", ((0, 0, e8.STAR),), ((0, 0, e8.MOVL),))
    with pytest.raises(ValueError, match="^rule idle has a side without a live symbol$"):
        machine.Machine([idle], e8.MACHINE.live, e8.MACHINE.event)


@pytest.mark.parametrize("module", [f5, e8], ids=["ham5", "ham8"])
def test_open_chain_terms_fit_inside_the_chain(module):
    # local_terms alone decides where the open chain ends: every cell a tiled
    # term reads or writes lies in 1..L, so the matcher, the editor and the
    # filing read cells modulo L without ever wrapping there
    for n, R in SIZES:
        c0 = module.first_config(ws_circuit(n, R))
        L = len(c0.registers[0])
        terms = machine.local_terms(module.MACHINE, c0)
        assert terms
        for j, rule in terms:
            cells = [j + off for _, off, _ in rule.pre + rule.post + rule.conditions]
            assert 1 <= min(cells) and max(cells) <= L, (n, R, j, rule.name)


@pytest.mark.parametrize("n,R", SIZES)
def test_ham5_matches_full_scan_oracle(n, R):
    tr = f5.enumerate_history5(n, R)
    configs = list(tr.configs())
    for c in configs:
        for reverse in (False, True):
            assert engine_matches5(c, reverse) == oracle_matches5(c, reverse)
            assert outcome(engine_step5, c, reverse) == outcome(oracle_step5, c, reverse)


@pytest.mark.parametrize("ring", [False, True], ids=["open", "periodic-x"])
@pytest.mark.parametrize("n,R", SIZES)
def test_ham8_matches_cursor_scan_oracle(n, R, ring):
    tr = e8.enumerate_history8(ws_circuit(n, R), ring)
    configs = list(tr.configs())
    for c in configs:
        for reverse in (False, True):
            assert (outcome(engine_matches8, c, reverse)
                    == outcome(oracle_matches8, c, reverse))
            assert outcome(engine_step8, c, reverse) == outcome(oracle_step8, c, reverse)
    # the ring's extra backward match at t=0 is reproduced, not filtered out
    back = Stepper(e8.MACHINE, configs[0]).step(reverse=True)
    assert (back is not None) == ring


def test_filed_terms_are_kept_per_cell_count_and_ring(monkeypatch):
    # the open chain at n=3, R=1 and the ham8 ring at n=2, R=1 both have 7
    # cells: stepped alternately by one machine, each must match the oracle
    # (the ring's backward match at t=0 wraps, which the open chain's terms
    # lack), and the machine files the terms of each chain once
    ring = e8.first_config(ws_circuit(2, 1), ring=True)
    chain = e8.first_config(ws_circuit(3, 1))
    assert ring.ncells == chain.ncells == 7
    filed = []
    file_terms = machine.file_terms

    def counted(terms, live, c):
        filed.append((len(c.registers[0]), c.ring))
        return file_terms(terms, live, c)

    monkeypatch.setattr(machine, "file_terms", counted)
    m = machine.Machine(e8.MACHINE.rules, e8.MACHINE.live, e8.MACHINE.event)
    states = [Stepper(m, chain), Stepper(m, ring)]
    assert filed == [(7, False), (7, True)]
    steps = [0, 0]
    while states:
        for k, state in enumerate(list(states)):
            c = state.snapshot()
            for reverse in (False, True):
                assert ([(j, rule.name, rule.letter) for j, rule in matches(state, reverse)]
                        == oracle_matches8(c, reverse))
            want = oracle_step8(c, False)
            got = state.step()
            if want is None:
                assert got is None
                states.remove(state)
                continue
            assert (state.snapshot(), got[2]) == want
            steps[k] += 1
    assert steps[0] > 0 and steps[1] > 0
    # no step of either history wraps; a cursor D in the stopper's cell makes
    # rule 2a's window wrap, on the ring alone, with its live symbol in cell 7
    wrapped = e8.Config8(True, (e8.STAR,) * 6 + (e8.DBLR,), ring.progs, ring.datas)
    for c in (wrapped, e8.Config8(False, wrapped.cursors, chain.progs, chain.datas)):
        for reverse in (False, True):
            assert ([(j, rule.name, rule.letter) for j, rule in matches(Stepper(m, c), reverse)]
                    == oracle_matches8(c, reverse))
    assert oracle_matches8(wrapped, False) == [(1, "2a", None)]
    # a second Stepper on a chain already filed does not file it again
    Stepper(m, chain), Stepper(m, ring)
    assert filed == [(7, False), (7, True)]


def test_ham5_perturbed_configurations_match_the_oracle():
    # off the history: each odd site of each configuration swapped for each
    # odd-site symbol, which gives ambiguous and empty matches too; the
    # matches must come in the oracle's order
    for c0 in f5.enumerate_history5(3, 2).configs():
        for k in range(0, len(c0.symbols), 2):
            for sym in sorted(f5.ODD_SYMBOLS):
                syms = list(c0.symbols)
                syms[k] = sym
                c = f5.Config5(c0.n, c0.flags, tuple(syms))
                for reverse in (False, True):
                    assert engine_matches5(c, reverse) == oracle_matches5(c, reverse)
                    assert outcome(engine_step5, c, reverse) == outcome(oracle_step5, c, reverse)


@pytest.mark.parametrize("ring", [False, True], ids=["open", "periodic-x"])
def test_ham8_perturbed_configurations_match_the_oracle(ring):
    # a second live cursor at every cell of every fifth configuration; on the
    # ring it also replaces the stopper, so windows wrap round the chain
    configs = list(e8.enumerate_history8(ws_circuit(2, 2), ring).configs())
    for c0 in configs[::5]:
        for k in range(c0.ncells):
            for sym in ("L", "l", "t", "R", "r", "D", "d"):
                cursors = list(c0.cursors)
                cursors[k] = sym
                c = e8.Config8(c0.ring, tuple(cursors), c0.progs, c0.datas)
                for reverse in (False, True):
                    assert (outcome(engine_matches8, c, reverse)
                            == outcome(oracle_matches8, c, reverse))
                    assert outcome(engine_step8, c, reverse) == outcome(oracle_step8, c, reverse)


def test_ham8_condition_on_a_placeholder_raises_in_both():
    # a turn-around cursor whose d+ cell holds w1: rule 3a/3b's window
    # matches, so its condition reads the placeholder
    c0 = e8.first_config(ws_circuit(2, 1))
    j = c0.datas.index("w1")  # the cell left of w1, 1-based
    cursors = list(c0.cursors)
    cursors[-1], cursors[j - 1] = e8.STAR, e8.TUR
    progs = ["."] * c0.ncells
    c = e8.Config8(c0.ring, tuple(cursors), tuple(progs), c0.datas)
    assert outcome(engine_step8, c, False) == outcome(oracle_step8, c, False) == "placeholder"
    with pytest.raises(e8.RuleEngineError, match=f"reads qubit placeholder w1 at cell {j + 1}$"):
        Stepper(e8.MACHINE, c).step()


def test_ham5_live_symbols_far_apart_are_both_found():
    # a rule-7b window at the far end of the chain, beyond every window of
    # the turn-around at site 1, makes the forward step ambiguous
    c0 = f5.first_config(Circuit(2, 3))
    syms = list(c0.symbols)
    syms[-3:] = [f5.MOV, f5.Q, f5.BUL]
    c = f5.Config5(c0.n, c0.flags, tuple(syms))
    L = len(c0.symbols)
    assert sorted(Stepper(f5.MACHINE, c).live) == [1, L - 2]
    assert engine_matches5(c, False) == oracle_matches5(c, False) == [(1, "6a"), (L - 2, "7b")]
    message = f"2 rule instances match forward: [(1, '6a'), ({L - 2}, '7b')]"
    with pytest.raises(f5.RuleEngineError, match=re.escape(message)):
        Stepper(f5.MACHINE, c).step()
