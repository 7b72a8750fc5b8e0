"""The names the benchmark in ``perfbench/`` uses from ``fidpoint`` still exist.

The benchmark calls the library through module attributes and rebinds
some of them for its traced run, so a renamed or deleted function would
otherwise show only when the benchmark runs.  One traced operation of
each workload also exercises the attributes the tracing code reads off
library objects.  These tests only read ``perfbench/``: they parse its
sources and load its modules without writing bytecode next to them, and
every rebinding is restored.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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



def load_workloads(monkeypatch):
    """``perfbench/workloads.py``, with the sibling modules it imports by their plain names."""
    for name in ("scenes", "layers"):
        monkeypatch.setitem(sys.modules, name, load_perfbench_module(name, monkeypatch))
    return load_perfbench_module("workloads", monkeypatch)


# per workload: smaller inputs (one operation needs no more), and spans its
# traced set-up and its first traced operation must record
TRACED_OPS = {
    "hierarchy": ({"videos": 1, "frames": 1}, ["scan.detect_region", "raster.build_tables"]),
    "fullframe": ({"frames": 1}, ["scan.scan_roi", "scan.group_detections"]),
    "train": ({"problems": 1}, ["cascade.train_cascade", "boost.Booster.step"]),
}


@pytest.mark.parametrize("name", sorted(TRACED_OPS))
def test_one_traced_operation_of_each_workload(name, monkeypatch):
    # attribute reads on library objects (such as the scan cells that
    # layers.WindowCounter reads) show only when traced code runs
    workloads = load_workloads(monkeypatch)
    layers = sys.modules["layers"]
    spans = load_perfbench_module("spans", monkeypatch)
    sizes, want = TRACED_OPS[name]
    wl = workloads.WORKLOADS[name]()
    for attr, value in sizes.items():
        setattr(wl, attr, value)
    inputs = wl.generate(workloads.DEFAULT_SEED)
    setup_tracer, tracer = spans.Tracer(), spans.Tracer()
    layers.install(setup_tracer)
    try:
        state = wl.setup(inputs)
    finally:
        setup_tracer.restore()
    wl.begin_pass(state)
    wl.tracer = tracer
    layers.install(tracer)
    try:
        with tracer.root(0):
            out = wl.op(state, 0)
    finally:
        tracer.restore()
    assert out == wl.op(state, 0)  # tracing changes no output
    values = layers.per_layer(setup_tracer, tracer, 1, 1)
    assert all(values[f"{span}.calls"] >= 1 for span in want), values
    assert 0 < values["trace.coverage"] <= 1
    if name != "train":
        assert values["cascade.deserialize.ms"] > 0
    if name == "fullframe":
        assert values["scan.scan_roi.windows_tested"] >= values["scan.scan_roi.raw_windows"] > 0
