"""The scalar reference evaluators of ``tests/oracles.py`` live there only.

``fidpoint`` evaluates windows through ``cascade.run_stages`` alone; a
name that ``oracles.py`` defines and ``src/fidpoint`` defines as well
would be a second evaluator growing back into the package.  The one
shared name is ``classify_window``, whose package version is one
``run_stages`` pass over one window.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def top_level_names(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def called_names(node: ast.AST) -> list[str]:
    """The name of every function called within ``node``: ``f(...)`` and ``m.f(...)`` give f."""
    return [n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))]


def test_no_oracle_is_defined_in_the_package():
    oracles = top_level_names(ast.parse((ROOT / "tests" / "oracles.py").read_text()))
    assert {"classify_window", "eval_strong", "rect_sum", "rects_similar"} <= oracles
    clashes = []
    for path in sorted((ROOT / "src" / "fidpoint").glob("*.py")):
        tree = ast.parse(path.read_text())
        # functions and classes at any depth, methods included
        defined = top_level_names(tree) | {
            node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        clashes += [f"{path.name}: {name}" for name in sorted(oracles & defined)]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "classify_window":
                calls = called_names(node)
                assert "run_stages" in calls
                # one pass over every stage: no stage-by-stage calls, no one-stage cascades
                assert calls.count("run_stages") == 1
                loops = [n for n in ast.walk(node) if isinstance(n, LOOPS)]
                assert not any("run_stages" in called_names(loop) for loop in loops)
                assert "replace" not in calls and "Cascade" not in calls
    assert clashes == ["cascade.py: classify_window"]
