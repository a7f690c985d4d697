"""Span tracing of calls into twohop's modules, installed from outside.

A traced callable is a public name as its caller sees it: the attribute of
the calling module (``twohop.gridsearch.class_log_miss`` is what
``grid_search`` calls).  Private helpers, Scenario properties and the tiny
model predicates ``is_costless`` and ``budget_tolerance`` stay unwrapped, so
their time is self time of the enclosing public call.  Spans are kept in
memory and written out when the run ends; the per-layer metrics are
computed from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "gridsearch", "greedy", "baselines", "mcsim", "model")

# (calling module, attribute, layer that defines the callee); module None is
# the package itself.  Names in ROOTS are called by the benchmark, one call
# per request.
ROOTS = {("cli", "main"), (None, "validate")}
WRAPPED = (
    ("cli", "main", "cli"),
    ("cli", "load_scenario", "cli"),
    ("cli", "run_algorithm", "cli"),
    ("cli", "grid_search", "gridsearch"),
    ("cli", "greedy_construct", "greedy"),
    ("cli", "arrival_rate_greedy", "baselines"),
    ("cli", "class_independent", "baselines"),
    ("cli", "uniform_policy", "baselines"),
    ("cli", "evaluate", "model"),
    ("cli", "expand_threshold", "model"),
    ("cli", "threshold_energy", "model"),
    ("cli", "validate", "mcsim"),
    ("gridsearch", "feasible_range", "gridsearch"),
    ("gridsearch", "boundary_threshold", "gridsearch"),
    ("gridsearch", "class_log_miss", "model"),
    ("gridsearch", "class_log_miss_table", "model"),
    ("gridsearch", "threshold_energy", "model"),
    ("gridsearch", "threshold_objective", "model"),
    ("greedy", "boundary_threshold", "gridsearch"),
    ("greedy", "saturating_threshold", "gridsearch"),
    ("greedy", "cardinality_cap", "greedy"),
    ("greedy", "min_slots", "greedy"),
    ("greedy", "class_log_miss", "model"),
    ("greedy", "class_log_miss_table", "model"),
    ("greedy", "threshold_energy", "model"),
    ("greedy", "threshold_objective", "model"),
    ("baselines", "saturating_threshold", "gridsearch"),
    ("baselines", "energy_spent", "model"),
    ("baselines", "expand_threshold", "model"),
    ("mcsim", "simulate", "mcsim"),
    ("mcsim", "delivery_probability", "model"),
    ("mcsim", "energy_spent", "model"),
    ("model", "class_log_miss", "model"),
    (None, "validate", "mcsim"),   # the benchmark's own library request
)


def _rows(args, kwargs, result):
    return int(np.size(args[1]))


def _sim(args, kwargs, result):
    sc, cfg = args[0], args[2]
    return [cfg.trials, cfg.record_holding, sum(c.population for c in sc.classes)]


# what a span records about its call, by span name
NOTES = {
    "gridsearch.grid_search@cli": lambda a, k, r: r.enumerated,
    "greedy.greedy_construct@cli": lambda a, k, r: r.iterations,
    "cli.run_algorithm@cli": lambda a, k, r: a[0],
    "model.class_log_miss@gridsearch": _rows,
    "mcsim.simulate@mcsim": _sim,
}

class Tracer:
    """Wraps the names in WRAPPED and records one span per call.

    A span is [name, start, end, parent index, request id, note].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self._restore: list[tuple] = []

    def install(self) -> None:
        for caller, attr, layer in WRAPPED:
            module = importlib.import_module("twohop" if caller is None else f"twohop.{caller}")
            name = f"{layer}.{attr}@{'bench' if (caller, attr) in ROOTS else caller}"
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, NOTES.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def self_sum_violations(spans, selfs) -> int:
    """Requests whose spans' self times do not sum to the request span."""
    total = defaultdict(float)
    for s, t in zip(spans, selfs):
        total[s[4]] += t
    bad = 0
    for s in spans:
        if s[3] < 0:
            span = s[2] - s[1]
            bad += abs(total[s[4]] - span) > 1e-9 * max(1.0, span)
    return bad


def layer_metrics(spans, batch: int) -> dict[str, float]:
    """Per-layer counts and times from a traced run's spans.

    ``batch`` is the simulator's trials per batch, which the batch count is
    derived from (it cannot be counted from outside without patching numpy);
    without it the count reads -1.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def pick(name, parent=None):
        return [i for i in by_name[name]
                if parent is None or (spans[i][3] >= 0
                                      and spans[spans[i][3]][0].startswith(parent))]

    def busy(*span_names):
        return sum(spans[i][2] - spans[i][1] for n in span_names for i in pick(n))

    def count(name, parent=None):
        return len(pick(name, parent))

    def noted(name):
        return [spans[i][5] for i in pick(name)]

    m: dict[str, float] = {}
    # a layer's self time covers all its spans: for gridsearch the tree walk,
    # the leaf saturation solves, feasible ranges and boundary solves
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s[0].startswith(layer + "."))

    cli_requests = count("cli.main@bench")
    m["cli.parse.busy_s"] = busy("cli.load_scenario@cli")
    m["cli.grid_solves_per_request"] = (count("gridsearch.grid_search@cli") / cli_requests
                                        if cli_requests else 0.0)
    m["cli.upper_bound.busy_s"] = sum(spans[i][2] - spans[i][1]
                                      for i in pick("gridsearch.grid_search@cli", "cli.main"))
    for algo in ("grid", "greedy1", "arrival", "uniform"):
        m[f"cli.algo.{algo}.busy_s"] = sum(spans[i][2] - spans[i][1]
                                           for i in pick("cli.run_algorithm@cli")
                                           if spans[i][5] == algo)

    candidates = sum(noted("gridsearch.grid_search@cli"))
    exact = sum(noted("model.class_log_miss@gridsearch"))
    m["gridsearch.busy_s"] = busy("gridsearch.grid_search@cli")
    m["gridsearch.candidates"] = candidates
    m["gridsearch.exact_frac"] = exact / candidates if candidates else 0.0
    m["gridsearch.feasible_range.calls"] = count("gridsearch.feasible_range@gridsearch")
    m["gridsearch.feasible_range.busy_s"] = busy("gridsearch.feasible_range@gridsearch")
    m["gridsearch.boundary_threshold.calls"] = count("gridsearch.boundary_threshold@gridsearch")

    tables = ("model.class_log_miss_table@gridsearch", "model.class_log_miss_table@greedy")
    m["model.exact_evals"] = exact
    m["model.exact_eval.busy_s"] = busy("model.class_log_miss@gridsearch")
    m["model.table.lookups"] = sum(count(n) for n in tables)
    m["model.table.builds"] = count("model.class_log_miss@model", "model.class_log_miss_table")
    m["model.table.busy_s"] = busy(*tables)
    m["model.threshold_energy.calls"] = sum(count(f"model.threshold_energy@{c}")
                                            for c in ("cli", "gridsearch", "greedy"))

    m["greedy.iterations"] = sum(noted("greedy.greedy_construct@cli"))
    m["greedy.construct.busy_s"] = busy("greedy.greedy_construct@cli")
    m["greedy.loop.self_s"] = sum(selfs[i] for i in pick("greedy.greedy_construct@cli"))
    m["greedy.topup.busy_s"] = busy("gridsearch.saturating_threshold@greedy",
                                    "model.class_log_miss@greedy")
    m["greedy.topup.energy_evals"] = count("model.threshold_energy@gridsearch",
                                           "gridsearch.saturating_threshold@greedy")
    m["greedy.certificates.busy_s"] = busy("greedy.cardinality_cap@greedy",
                                           "greedy.min_slots@greedy")

    m["baselines.arrival.busy_s"] = busy("baselines.arrival_rate_greedy@cli")
    m["baselines.uniform.busy_s"] = busy("baselines.class_independent@cli",
                                         "baselines.uniform_policy@cli")

    sims = [spans[i] for i in pick("mcsim.simulate@mcsim")]
    m["mcsim.simulate.plain.busy_s"] = sum(s[2] - s[1] for s in sims if not s[5][1])
    m["mcsim.simulate.holding.busy_s"] = sum(s[2] - s[1] for s in sims if s[5][1])
    m["mcsim.batches"] = sum(math.ceil(s[5][0] / batch) for s in sims) if batch else -1
    m["mcsim.node_draws"] = sum(s[5][0] * s[5][2] for s in sims)
    validates = set(pick("mcsim.validate@cli") + pick("mcsim.validate@bench"))
    m["mcsim.validate.analytic_s"] = (
        sum(spans[i][2] - spans[i][1] for i in validates)
        - sum(s[2] - s[1] for s in sims if s[3] in validates))
    return m
