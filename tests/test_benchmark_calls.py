"""The benchmark's workloads call the package by module attribute and build
its configs by keyword: every such call must still bind, or every operation
of a workload fails."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import viewsynth
from viewsynth import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported as perfbench/run.py imports it:
    with perfbench/ on sys.path, so its own `from timing import ...` works."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "timing"):
        sys.modules.pop(name, None)


def _package_calls(tree) -> list:
    """(line, module, name, call) of every vs.<module>.<name>(...) or
    self.vs.<module>.<name>(...) call in a parsed module."""
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        mod = node.func.value
        if not isinstance(mod, ast.Attribute):
            continue
        vs = mod.value
        if (isinstance(vs, ast.Name) and vs.id == "vs") or (
                isinstance(vs, ast.Attribute) and vs.attr == "vs"):
            calls.append((node.lineno, mod.attr, node.func.attr, node))
    return calls


def test_every_package_call_binds_to_its_signature(workloads):
    calls = [call for path in (Path(workloads.__file__), PERFBENCH / "run.py")
             for call in _package_calls(ast.parse(path.read_text()))]
    assert len(calls) > 20
    unbound = []
    for line, mod, name, node in calls:
        fn = getattr(importlib.import_module(f"viewsynth.{mod}"), name, None)
        if not callable(fn):
            unbound.append(f"line {line}: viewsynth.{mod}.{name} does not exist")
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), line
        assert all(k.arg is not None for k in node.keywords), line   # no **kwargs
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as e:
            unbound.append(f"line {line}: viewsynth.{mod}.{name}: {e}")
    assert unbound == []


def test_snippet5_masked_cli_arguments_parse(workloads, tmp_path):
    w = workloads.Snippet5Masked(viewsynth, 0, str(tmp_path))
    parser = cli._build_parser()
    seq, fit = str(tmp_path / "seq"), str(tmp_path / "fit")
    for argv in (w.synth_args(seq), w.fit_args(seq, fit)):
        parser.parse_args(argv)
