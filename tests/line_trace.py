"""Line trace of the Tier-1 suite over ``src/twohop``.

Runs ``pytest -q tests`` in process under ``sys.settrace`` and
``threading.settrace``, then lists every executable line of a function or
class body in ``src/twohop`` (the lines of ``code.co_lines()``) that no test
entered.  Those lines are compared with ``UNENTERED``, keyed by file and
stripped source text rather than by line number, so an edit elsewhere in a
file does not move them.  The check fails on an unentered line missing from
the list and on a listed line that is now entered (or gone).

Usage, from the repository root:

    PYTHONPATH=src python tests/line_trace.py

Line events differ between interpreter versions; the list holds for
CPython 3.11.  The trace makes the suite about three times slower.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twohop"

# (file, stripped source text) of the lines no test enters
UNENTERED = {
    # grid_search's fallback when no candidate saturates the budget: a
    # budget the all-full profile exceeds is spent exactly by some profile
    # with one fractional threshold (at budget 0, every class at 0), so no
    # input is known to reach it; it stays for float edge cases
    ("gridsearch.py",
     "thresholds = tuple(0.0 if c in costly else float(n1) for c in range(n_classes))"),
}


def _code_lines(code) -> set[int]:
    """Lines of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines() -> dict[str, set[int]]:
    """Per file of the package: the lines of every function and class body."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        out[str(path)] = set().union(*(_code_lines(c) for c in module.co_consts
                                       if hasattr(c, "co_lines")))
    return out


def main() -> int:
    import pytest

    files = executable_lines()
    entered: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"line trace: the suite failed (exit {code})")
        return 1

    unentered = set()
    for name, lines in files.items():
        text = Path(name).read_text(encoding="utf-8").splitlines()
        unentered |= {(Path(name).name, text[line - 1].strip())
                      for line in lines if (name, line) not in entered}
    for label, keys in (("unentered, not listed", unentered - UNENTERED),
                        ("listed, no longer unentered", UNENTERED - unentered)):
        for file, text in sorted(keys):
            print(f"line trace: {label}: {file}: {text}")
    return 0 if unentered == UNENTERED else 1


if __name__ == "__main__":
    sys.exit(main())
