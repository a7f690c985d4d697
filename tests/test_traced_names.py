"""Every name the benchmark's tracer wraps must stay an attribute of its
calling module, so that removing one fails here and not only in a traced
benchmark run; and its caller must still call it, so that a metric built
from its spans cannot drift to 0 unnoticed."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# wrapped names that their caller keeps only for the tracer and no longer
# calls: their spans are empty until the tracer stops wrapping them
UNCALLED = {("gridsearch", "feasible_range"), ("gridsearch", "boundary_threshold"),
            ("greedy", "boundary_threshold"), ("cli", "evaluate")}


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_traced_names_resolve():
    missing = [(caller, attr) for caller, attr, _ in _wrapped()
               if not hasattr(importlib.import_module(
                   "twohop" if caller is None else f"twohop.{caller}"), attr)]
    assert missing == []


def test_traced_names_are_called():
    loaded = {}
    uncalled = set()
    for caller, attr, _ in _wrapped():
        if caller is None:   # the benchmark's own call
            continue
        if caller not in loaded:
            tree = ast.parse((ROOT / "src" / "twohop" / f"{caller}.py").read_text())
            loaded[caller] = {node.id for node in ast.walk(tree)
                              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if attr not in loaded[caller]:
            uncalled.add((caller, attr))
    assert uncalled == UNCALLED
