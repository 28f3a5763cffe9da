"""The benchmark's hooks into the package: what ``bench/`` names must exist.

``bench/layers.py`` patches stratopt functions by name and ``bench/workloads.py``
calls them, so a removal or rename in ``src/`` would break the benchmark
without failing a package test.  These tests load both files as they are.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def from_stratopt(value):
    module = value if inspect.ismodule(value) else inspect.getmodule(value)
    return module is not None and module.__name__.split(".")[0] == "stratopt"


@pytest.mark.parametrize("name", ["layers", "workloads"])
def test_every_stratopt_name_the_bench_reads_exists(name):
    # each `x.attr` whose x is a stratopt module or class resolves, so
    # tables.fmt or Chart.hyperboloid cannot go while the benchmark reads them
    module = load(name)
    missing = []
    for node in ast.walk(ast.parse((BENCH / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = vars(module).get(node.value.id)
            if from_stratopt(owner) and not hasattr(owner, node.attr):
                missing.append(f"{name}.py:{node.lineno}: {node.value.id}.{node.attr}")
    assert missing == []


def test_the_tracer_installs_and_uninstalls():
    # every patched function exists under its name, and uninstall restores it
    layers = load("layers")
    load("workloads")
    from stratopt import model, resolve, tables
    before = (resolve.choose_resolution, tables.write_csv, model.GaussianLocationModel.fim)
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert resolve.choose_resolution is not before[0]
        assert model.GaussianLocationModel.fim is not before[2]
    finally:
        tracer.uninstall()
    assert (resolve.choose_resolution, tables.write_csv,
            model.GaussianLocationModel.fim) == before
