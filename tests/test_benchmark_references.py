"""The benchmark's recorded reply digests (``perfbench/reference/``) hold
under Tier-1: the requests a traced benchmark run sends first, at seed 601,
are replayed through ``perfbench/workloads.py``, and each reply's digest is
compared with the recorded one.  A change that moves a pinned bit then fails
here, not only in a benchmark run.  Only reads ``perfbench/``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name, prefix", [("table-sweep", 35), ("simulate", 24)])
def test_traced_prefix_matches_recorded_digests(tmp_path, name, prefix):
    workloads = _workloads()
    wl = workloads.WORKLOADS[name]
    assert wl.trace_requests == prefix
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))
    for req in wl.generate(601, tmp_path)[:prefix]:
        assert workloads.digest(*wl.check(req, wl.send(req))) == reference[req.key], req.ident
