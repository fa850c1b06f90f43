"""Every function of the package runs in a command or in the benchmark.

Code that only tests call is deleted; this test holds that rule.  One fresh
process, profiled on every thread from before the package is imported,
runs each CLI command on small circuits, one refused input, and the calls
the benchmark's jobs and checks make outside the CLI.  It then lists the
functions and methods defined in a hamchain module that never ran.  Run as
a script, this file is that process: `python tests/test_reachability.py DIR`
with the package on the path prints one unreached function a line.

The other tests pin which hamchain modules each entry point loads, and that
the commands call the bindings the benchmark's tracer wraps.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamchain

# function -> why no command or benchmark job runs it
UNREACHED: dict[str, str] = {}

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
        # more shots than one propagate batch holds at this T, so the pool runs
        ["sample", paths["w"], "--scheme", "ham8", "--seed", "0", "--shots", "1500"],
        ["sample", paths["z"], "--scheme", "ham5", "--seed", "0", "--shots", "50",
         "--rewrite"],
        ["rewrite", paths["z"]],
        ["verify", "--scope", "all"],
    ]
    for argv in commands:
        assert cli.main(argv + out) == 0, argv
    refused = ["sample", paths["w"], "--scheme", "ham5", "--seed", "0", "--q", "1000000"]
    assert cli.main(refused + out) == 2
    try:  # a usage error: the --seed that sample requires is missing
        cli.main(["sample", paths["w"], "--scheme", "ham5"] + out)
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("sample without --seed ran")
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

    # propagate's batches, and draw_steps with them, run on worker threads
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
    gone = set(UNREACHED) - set(_defined_functions())
    assert gone == set(), "no longer defined; drop them from UNREACHED"
    assert got - set(UNREACHED) == set(), "only tests call these; delete or move them"
    assert set(UNREACHED) - got == set(), "these now run; drop them from UNREACHED"


CLI_MODULES = {"hamchain", "hamchain.cli", "hamchain.walk", "hamchain.runner",
               "hamchain.circuit", "hamchain.gates", "hamchain.machine"}


def _cli(*argv):
    return f"from hamchain import cli; assert cli.main({list(argv)} + ['--out', 'out']) == 0"


@pytest.mark.parametrize("code,loaded", [
    ("import hamchain.walk", {"hamchain", "hamchain.walk"}),
    # both machines share only `machine`, not each other
    ("import hamchain.eight_state", {"hamchain", "hamchain.eight_state", "hamchain.machine",
                                     "hamchain.circuit", "hamchain.gates"}),
    (_cli("evolve", "--T", "20", "--taus", "0,1.5"), CLI_MODULES),
    (_cli("sample", "z.txt", "--scheme", "ham5", "--seed", "0", "--shots", "20", "--rewrite"),
     CLI_MODULES | {"hamchain.five_state"}),
    (_cli("sample", "w.txt", "--scheme", "ham8", "--seed", "0", "--shots", "20"),
     CLI_MODULES | {"hamchain.eight_state"}),
    (_cli("trace", "w.txt", "--scheme", "ham5"), CLI_MODULES | {"hamchain.five_state"}),
    ("from hamchain import gates, subspace; from hamchain.circuit import Circuit; "
     "assert subspace.certify_subspace('ham8', Circuit(2, 1, {(1, 1): gates.W})).passed",
     {"hamchain", "hamchain.subspace", "hamchain.walk", "hamchain.machine",
      "hamchain.circuit", "hamchain.gates", "hamchain.eight_state"}),
], ids=["import-walk", "import-eight_state", "evolve-T", "sample-ham5-rewrite", "sample-ham8",
        "trace-ham5", "certify-ham8"])
def test_entry_point_loads_only_its_modules(code, loaded, tmp_path):
    (tmp_path / "w.txt").write_text(W_CIRCUIT)
    (tmp_path / "z.txt").write_text(Z_CIRCUIT)
    code += "; import sys; print(sorted(m for m in sys.modules if m.startswith('hamchain')))"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(ast.literal_eval(done.stdout)) == loaded


# the bindings hcbench/tracer.py wraps that the commands call, as module.attribute
TRACED = ("cli.run", "cli.rewrite_to_ws", "runner.padded_history", "gates.apply_unitary",
          "walk.padding_plan", "five_state.enumerate_history5",
          "eight_state.enumerate_history8", "walk.probability_table_csv",
          "subspace.certify_subspace")


def test_commands_call_the_bindings_the_benchmark_traces(tmp_path, monkeypatch):
    # the tracer wraps module attributes after importing cli; a call that
    # bypasses the attribute leaves its layer's metrics absent
    from hamchain import cli

    calls = dict.fromkeys(TRACED, 0)
    for name in TRACED:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"hamchain.{module_name}")

        def counted(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    (tmp_path / "w.txt").write_text(W_CIRCUIT)
    (tmp_path / "z.txt").write_text(Z_CIRCUIT)
    monkeypatch.chdir(tmp_path)
    out = ["--out", "out"]
    for argv in (["sample", "z.txt", "--scheme", "ham5", "--seed", "0", "--shots", "20",
                  "--rewrite"],
                 ["sample", "w.txt", "--scheme", "ham8", "--seed", "0", "--shots", "20"],
                 ["evolve", "--T", "20", "--taus", "0,1.5"],
                 ["verify", "--scope", "subspace"]):
        assert cli.main(argv + out) == 0, argv
    assert [name for name, n in calls.items() if n == 0] == []


# the modules that reach a machine only through walk.scheme_module and its
# interface (first_config, closed_forms, cells, history), and the names of a
# machine's own types, layout and gate table that they must not use
SCHEME_BLIND = ("walk.py", "subspace.py", "runner.py", "cli.py")
MACHINE_PRIVATE = {"Config5", "Config8", "GateEvent", "GateEvent8", "program_layout"}


def test_every_machine_private_name_is_a_machines_own():
    # a stale entry guards nothing, so each must be defined by a machine
    from hamchain import eight_state, five_state

    assert {name for name in MACHINE_PRIVATE
            if name not in vars(five_state) and name not in vars(eight_state)} == set()


@pytest.mark.parametrize("filename", SCHEME_BLIND)
def test_module_holds_no_scheme_branch(filename):
    # a scheme name may appear as data (cli's sweep and case tables), never
    # in a comparison
    tree = ast.parse((Path(hamchain.__file__).parent / filename).read_text())
    compared, named = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            compared += [node.lineno for sub in ast.walk(node) if isinstance(sub, ast.Constant)
                         and sub.value in ("ham5", "ham8")]
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in MACHINE_PRIVATE:
            named.append((node.lineno, name))
    assert compared == []
    assert named == []


def test_only_local_terms_and_the_filing_key_read_the_ring():
    # local_terms decides which windows the chain carries; the matcher, the
    # editor and the filing read cells modulo the chain's length, with no
    # branch on the ring
    tree = ast.parse((Path(hamchain.__file__).parent / "machine.py").read_text())
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if ((isinstance(child, ast.Name) and child.id == "ring")
                    or (isinstance(child, ast.Attribute) and child.attr == "ring")):
                readers.add(scope)
            visit(child, inner)

    visit(tree, "")
    assert readers == {"local_terms", "Stepper.__init__"}


if __name__ == "__main__":
    print("\n".join(unreached(Path(sys.argv[1]))))
