"""Every name the benchmark's tracer wraps must stay an attribute of its
calling module, so that removing one fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(caller, attr) for caller, attr, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(
                   "twohop" if caller is None else f"twohop.{caller}"), attr)]
    assert missing == []
