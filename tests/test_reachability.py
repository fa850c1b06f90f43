"""Every function of the package runs in a command or in the benchmark.

Code that only tests call is deleted; this test holds that rule.  One fresh
process, profiled on every thread from before the package is imported,
runs each CLI command on small circuits, one refused input, and the calls
the benchmark's jobs and checks make outside the CLI.  It then lists the
functions and methods defined in a hamchain module that never ran.  Run as
a script, this file is that process: `python tests/test_reachability.py DIR`
with the package on the path prints one unreached function a line.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import hamchain

# function -> why no command or benchmark job runs it
UNREACHED = {
    "five_state.backward_step5": "tests only; a search of the local terms from "
                                 "c0 replaces it (ROADMAP item 2)",
    "eight_state.backward_step8": "tests only; the same search replaces it",
    "walk.evolve": "the complex amplitudes, criterion 6's API documented in README",
}

ENV = {**os.environ, "PYTHONPATH": str(Path(hamchain.__file__).resolve().parents[1])}

WS_CIRCUIT = "QUBITS 3\nROUNDS 2\nGATE W 1 1\nGATE S 1 2\nGATE S 2 1\nGATE W 2 2\n"
W_CIRCUIT = "QUBITS 2\nROUNDS 1\nGATE W 1 1\n"
Z_CIRCUIT = "QUBITS 2\nROUNDS 1\nGATE Z 1 1\n"


def _run_commands_and_jobs(workdir: Path) -> None:
    from hamchain import circuit, cli, gates, subspace, walk

    paths = {}
    for name, text in (("ws", WS_CIRCUIT), ("w", W_CIRCUIT), ("z", Z_CIRCUIT)):
        paths[name] = str(workdir / f"{name}.txt")
        Path(paths[name]).write_text(text)
    out = ["--out", str(workdir / "out")]
    commands = [
        ["trace", paths["ws"], "--scheme", "ham5"],
        ["trace", paths["ws"], "--scheme", "ham8"],
        ["trace", paths["ws"], "--scheme", "ham8", "--periodic-x"],
        ["evolve", "--T", "20", "--taus", "0,1.5"],
        ["evolve", paths["ws"], "--scheme", "ham8", "--taus", "2"],
        ["sample", paths["ws"], "--scheme", "ham5", "--seed", "0", "--shots", "50"],
        ["sample", paths["w"], "--scheme", "ham8", "--seed", "0", "--shots", "50"],
        ["sample", paths["z"], "--scheme", "ham5", "--seed", "0", "--shots", "50",
         "--rewrite"],
        ["rewrite", paths["z"]],
        ["verify", "--scope", "all"],
    ]
    for argv in commands:
        assert cli.main(argv + out) == 0, argv
    refused = ["sample", paths["w"], "--scheme", "ham5", "--seed", "0", "--q", "1000000"]
    assert cli.main(refused + out) == 2
    # the benchmark's certify and tail jobs, and its checks' oracle
    ws = cli._read_circuit(paths["ws"])
    for scheme in ("ham5", "ham8"):
        assert subspace.certify_subspace(scheme, ws).passed
    walk.tail_prob(154, 6, 1540.0)
    walk.tail_prob_limit(154, 6)
    circuit.simulate_circuit(ws, gates.QubitState.basis("100"))


def _defined_functions() -> dict:
    """name -> code object of every function and method a hamchain module
    defines, nested ones included.  Methods that dataclass generates, whose
    code comes from `<string>` or from dataclasses itself, and lambdas and
    comprehensions are left out."""
    import importlib
    import pkgutil
    import types

    def nested(code, name):
        yield name, code
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                yield from nested(const, f"{name}.{const.co_name}")

    out = {}
    for info in pkgutil.iter_modules(hamchain.__path__):
        module = importlib.import_module(f"hamchain.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
            for attr, member in members:
                fn = member.fget if isinstance(member, property) else member
                fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                if not (isinstance(fn, types.FunctionType)
                        and fn.__code__.co_filename == module.__file__):
                    continue
                qualname = f"{info.name}.{name}" + (f".{attr}" if attr else "")
                out.update(nested(fn.__code__, qualname))
    return out


def unreached(workdir: Path) -> list[str]:
    """The package's functions that the commands and jobs never call."""
    import threading

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # propagate's batches, and step_cdfs with them, run on worker threads
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        _run_commands_and_jobs(workdir)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sorted(name for name, code in _defined_functions().items() if code not in called)


def test_every_function_runs_in_a_command_or_the_benchmark(tmp_path):
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=ENV,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = set(done.stdout.split())
    assert got - set(UNREACHED) == set(), "only tests call these; delete or move them"
    assert set(UNREACHED) - got == set(), "these now run; drop them from UNREACHED"


def test_importing_walk_loads_neither_runner_nor_subspace():
    code = ("import sys, hamchain.walk; "
            "print(sorted(m for m in sys.modules if m.startswith('hamchain')))")
    done = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(ast.literal_eval(done.stdout))
    assert "hamchain.walk" in loaded
    assert not loaded & {"hamchain.runner", "hamchain.subspace", "hamchain.cli"}


if __name__ == "__main__":
    print("\n".join(unreached(Path(sys.argv[1]))))
