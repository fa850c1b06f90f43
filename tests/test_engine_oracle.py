"""Live-symbol rule matching against full-scan oracles.

The engines try only the windows at or next to a live symbol.  The oracles
below are the matchers they replaced: ham5 tries every rule at every window
start, ham8 scans every cursor in Python for candidate cells and tries all
eleven templates there.  Both engines must give the same matches, steps and
errors at every configuration of every history checked here.
"""
import pytest

from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates
from hamchain.circuit import Circuit

SIZES = [(n, R) for n in (2, 3, 4) for R in (1, 2, 3)]


def oracle_matches5(c, reverse):
    lat, syms, out = c.lattice, c.symbols, []
    for s in range(1, lat.L - 1):
        window = syms[s - 1 : s + 2]
        for name, lhs, rhs, bkey in f5._RULES:
            if window != (rhs if reverse else lhs):
                continue
            if bkey is not None:
                sign, off = bkey
                if (sign == "+") != lat.boundary_after(s + off):
                    continue
            out.append((s, name))
    return out


def oracle_step5(c, reverse):
    hits = oracle_matches5(c, reverse)
    if not hits:
        return None
    if len(hits) > 1:
        raise f5.RuleEngineError(hits)
    s, name = hits[0]
    _, lhs, rhs, _ = next(r for r in f5._RULES if r[0] == name)
    syms = list(c.symbols)
    syms[s - 1 : s + 2] = lhs if reverse else rhs
    event = None
    if name == "1":
        r, i = f5._gate_slot(c.lattice, s)
        event = f5.GateEvent(step=-1, m=-1, round=r, position=i, forward=not reverse)
    return f5.Config5(c.lattice, tuple(syms)), event


def oracle_matches8(c, reverse):
    cells = set()
    for k, sym in enumerate(c.cursors, 1):
        if sym in (e8.STAR, e8.XSTOP):
            continue
        cells.add(k)
        nxt = k + 1
        if c.boundary == e8.PERIODIC_X:
            nxt = (nxt - 1) % c.ncells + 1
        if nxt <= c.ncells:
            cells.add(nxt)
    hits = []
    for j in sorted(cells):
        for name, pre, post in e8._RULES8:
            src, dst = (post, pre) if reverse else (pre, post)
            ok, binding = e8._match_at(c, src, dst, j)
            if ok:
                hits.append((j, name, binding))
    return hits


def oracle_step8(c, reverse):
    hits = oracle_matches8(c, reverse)
    if not hits:
        return None
    if len(hits) > 1:
        raise e8.RuleEngineError(hits)
    j, name, binding = hits[0]
    _, pre, post = next(r for r in e8._RULES8 if r[0] == name)
    cursors, progs = list(c.cursors), list(c.progs)
    for key, val in (pre if reverse else post).items():
        if key in ("d", "d+"):
            continue
        idx = j + {"s-": -1, "s": 0, "p": 0, "p+": 1}[key]
        if c.boundary == e8.PERIODIC_X:
            idx = (idx - 1) % c.ncells + 1
        reg = cursors if key.startswith("s") else progs
        reg[idx - 1] = binding if val == "A" else val
    event = None
    if name == "4a":
        pair = (e8._cell_value(c, "d", j), e8._cell_value(c, "d+", j))
        event = e8.GateEvent8(step=-1, m=0, round=0, cell=j, letter=binding, pair=pair,
                              forward=not reverse)
    return e8.Config8(c.layout, c.boundary, tuple(cursors), tuple(progs), c.datas), event


def outcome(step, c, reverse):
    try:
        return step(c, reverse)
    except RuntimeError as exc:
        return type(exc)


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


@pytest.mark.parametrize("n,R", SIZES)
def test_ham5_matches_full_scan_oracle(n, R):
    tr = f5.enumerate_history5(n, R)
    configs = list(tr.configs())
    for c in configs:
        for reverse in (False, True):
            assert f5._matches(c, reverse) == oracle_matches5(c, reverse)
            assert outcome(f5._step, c, reverse) == outcome(oracle_step5, c, reverse)


@pytest.mark.parametrize("boundary", [e8.OPEN, e8.PERIODIC_X])
@pytest.mark.parametrize("n,R", SIZES)
def test_ham8_matches_cursor_scan_oracle(n, R, boundary):
    tr = e8.enumerate_history8(ws_circuit(n, R), boundary)
    configs = list(tr.configs())
    for c in configs:
        for reverse in (False, True):
            assert outcome(e8._matches, c, reverse) == outcome(oracle_matches8, c, reverse)
            assert outcome(e8._step, c, reverse) == outcome(oracle_step8, c, reverse)
    # the ring's extra backward match at t=0 is reproduced, not filtered out
    back = e8.backward_step8(configs[0])
    assert (back is not None) == (boundary == e8.PERIODIC_X)


def test_ham5_live_symbols_far_apart_are_both_found():
    # a rule-7b window at the far end of the chain, beyond every window of
    # the turn-around at site 1, makes the forward step ambiguous
    c0 = f5.initial_config5(2, 3)
    syms = list(c0.symbols)
    syms[-3:] = [f5.MOV, f5.Q, f5.BUL]
    c = f5.Config5(c0.lattice, tuple(syms))
    L = c0.lattice.L
    assert f5.live_sites(c) == [1, L - 2]
    assert f5._matches(c, False) == oracle_matches5(c, False) == [(1, "6a"), (L - 2, "7b")]
    with pytest.raises(f5.RuleEngineError):
        f5.forward_step5(c)
