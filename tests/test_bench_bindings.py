"""Every package name the benchmark uses stays bound, and the CLI's
output meets the benchmark's checks.

The benchmark (``bench/``) builds its inputs through ``stealthgame.*``
and traces the functions listed in ``bench/tracer.py`` by replacing them
where a module binds them; its CLI workloads parse the files that
``run`` and ``sweep`` write.  A name that a simplification removes, or a
column or key that a change moves, would fail a workload or
``--trace 1`` only when the benchmark runs; these tests catch it in the
suite.  They read ``bench/`` and write nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import stealthgame
from stealthgame.cli import main

from _helpers import ieee9_model_at

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(stem: str):
    """The module of ``bench/<stem>.py``, under the name ``bench_<stem>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


TRACER = _load_bench("tracer")
RUN = _load_bench("run")
BINDINGS = sorted(
    {(module, attr) for module, attr, _ in
     TRACER.SETUP_BINDINGS + TRACER.OP_BINDINGS + TRACER.CLI_BINDINGS}
)


def _package_names():
    """Every attribute read from ``sg`` (``import stealthgame as sg``) in
    the benchmark's scripts, with the file that reads it."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "sg"):
                found.add((path.name, node.attr))
    return sorted(found)


def test_benchmark_scripts_use_the_package_namespace():
    assert len(BINDINGS) >= 20
    assert len(_package_names()) >= 10


@pytest.mark.parametrize("module,attr", BINDINGS)
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("script,attr", _package_names())
def test_package_name_resolves(script, attr):
    assert hasattr(stealthgame, attr), f"bench/{script} reads sg.{attr}"


def test_best_response_keeps_its_leading_parameters():
    # The tracer's per-call info reads (spec, model, i, v) = args[:4].
    params = list(inspect.signature(stealthgame.dynamics.best_response).parameters)
    assert params[:4] == ["spec", "model", "i", "v"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_outputs_pass_the_benchmark_checks(command, tmp_path, monkeypatch, capsys):
    # The benchmark's own steps: the README's run for games 1, 2 and 3,
    # or its sweep of game 1 over SWEEP_LAMBDAS, each writing into the
    # working directory.
    monkeypatch.chdir(tmp_path)
    model = ieee9_model_at(30.0)
    codes = {name: main(args) for name, args in
             RUN.cli_steps(command, stealthgame.bundled_case("ieee9"))}
    refs = {}
    if command == "run":
        refs = {g: stealthgame.run_brd(stealthgame.GameSpec(g, RUN.LAM), model)[0].tolist()
                for g in (1, 2, 3)}
    assert RUN.check_cli_outputs(command, tmp_path, codes, refs, model.m) == []
