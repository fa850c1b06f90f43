"""Simulator for universal quantum computation driven by time-independent
3-local Hamiltonians on a 1D chain.

Modules: gates (constants, state vectors, identity synthesis), circuit
(round circuits, text format, gate-set rewriting), five_state (5-symbol
machine), eight_state (8-symbol translation-invariant machine), walk
(history-line dynamics), subspace (closure certification), runner
(measurement protocol), cli (command-line front end).
"""
from .circuit import (
    Circuit,
    CircuitParseError,
    UnsupportedGateError,
    circuit_matrix,
    parse_circuit,
    rewrite_to_ws,
    serialize_circuit,
    simulate_circuit,
)
from .gates import (
    Gate,
    GateSequence,
    InvalidTargetError,
    QubitState,
    UnknownIdentityError,
    apply_gate,
    check_identity,
    identity_names,
    identity_target,
    synth,
)
from .runner import RunPlan, RunReport, run
from .subspace import CertReport, DressedState, certify_subspace
from .walk import (
    WalkAmplitudes,
    WalkSpec,
    evolve,
    padding_plan,
    tail_prob,
    tail_prob_limit,
)

__all__ = [
    "Circuit", "CircuitParseError", "UnsupportedGateError", "circuit_matrix",
    "parse_circuit", "rewrite_to_ws", "serialize_circuit", "simulate_circuit",
    "Gate", "GateSequence", "InvalidTargetError", "QubitState",
    "UnknownIdentityError", "apply_gate", "check_identity", "identity_names",
    "identity_target", "synth",
    "RunPlan", "RunReport", "run",
    "CertReport", "DressedState", "certify_subspace",
    "WalkAmplitudes", "WalkSpec", "evolve", "padding_plan",
    "tail_prob", "tail_prob_limit",
]

__version__ = "0.1.0"
