"""The names the benchmark in ``perfbench/`` uses from ``fidpoint`` still exist.

The benchmark calls the library through module attributes and rebinds
some of them for its traced run, so a renamed or deleted function would
otherwise show only when the benchmark runs.  These tests only read
``perfbench/``: they parse its sources and load its tracing modules
without writing bytecode next to them.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def fidpoint_references(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(fidpoint module, name, line) of every name a source imports from or reads off fidpoint."""
    modules = {}  # local name -> the fidpoint module bound to it
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fidpoint":
            for alias in node.names:
                refs.append((node.module, alias.name, node.lineno))
                if node.module == "fidpoint":  # the package holds only modules
                    modules[alias.asname or alias.name] = f"fidpoint.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fidpoint" and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr, node.lineno))
    return refs


def exists(module: str, name: str) -> bool:
    """Whether ``from module import name`` would find ``name``."""
    try:
        importlib.import_module(f"{module}.{name}")
        return True
    except ModuleNotFoundError:
        return hasattr(importlib.import_module(module), name)


def test_every_fidpoint_name_the_benchmark_uses_exists():
    refs = []
    for path in sorted(PERFBENCH.glob("*.py")):
        refs += [(path.name, *ref) for ref in fidpoint_references(ast.parse(path.read_text()))]
    missing = [f"{file}:{line} {module}.{name}" for file, module, name, line in refs
               if not exists(module, name)]
    assert missing == []
    assert len(refs) > 80  # the walk must see the benchmark's real uses


def load_perfbench_module(name: str, monkeypatch):
    """``perfbench/<name>.py`` as a fresh module, without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_run_rebinds_and_restores_every_function(monkeypatch):
    layers = load_perfbench_module("layers", monkeypatch)
    spans = load_perfbench_module("spans", monkeypatch)
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        rebound = list(tracer._saved)
        assert len(rebound) > 10
        for owner, attr, fn in rebound:
            assert getattr(owner, attr).__wrapped__ is fn, attr
    finally:
        tracer.restore()
    for owner, attr, fn in rebound:
        assert getattr(owner, attr) is fn, attr

