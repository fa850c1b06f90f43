"""Simulator for universal quantum computation driven by time-independent
3-local Hamiltonians on a 1D chain.

Modules: gates (constants, state vectors, the identity table), circuit
(round circuits, text format, gate-set rewriting), machine (the rule engine
and history record both machines share), five_state (5-symbol machine),
eight_state (8-symbol translation-invariant machine), walk (history-line
dynamics), subspace (closure certification), runner (measurement protocol),
cli (command-line front end).
"""
