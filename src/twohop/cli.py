"""Command-line front end: scenario files, solver runs, parameter sweeps,
and Monte Carlo validation, with CSV/JSON emission.

Exit codes: 0 success, 1 invalid input, 2 infeasible request or contract
violation (including solver timeouts), 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    NodeClass,
    Policy,
    Scenario,
    ScenarioError,
    Technology,
    ThresholdPolicy,
    evaluate,   # not called here; perfbench/tracing.py wraps cli.evaluate
    expand_threshold,
    threshold_energy,
    threshold_objective,
    within_budget,
)
from .gridsearch import (SolveReport, SolveTimeout, _costly_classes, brute_force_saturating,
                         enumerate_saturating, grid_search, ratio_bound)
from .greedy import COMBINED_GUARANTEE, GreedyVariant, combined_best, greedy_construct
from .baselines import arrival_rate_greedy, class_independent, uniform_policy
from .mcsim import SimConfig, validate

__all__ = [
    "ALGORITHMS",
    "CSV_FIELDS",
    "main",
    "parse_scenario",
    "render_scenario",
    "sample_scalability_scenario",
    "sample_table_scenario",
]

# =========================================================================
# Presets (experiment reconstruction)
# =========================================================================

# Mobility profiles, average speed in m/s.
MOBILITY_PRESETS = {
    "pedestrian": 1.5,
    "bicycle": 6.0,
    "vehicle": 9.0,
}

# Technology presets: communication range in metres.  The per-copy and
# per-slot energy figures are reconstructions (midpoints of the random
# sampling intervals used for scalability runs); override them in the
# scenario file for hardware-accurate numbers.
TECH_RANGE_M = {
    "zigbee": 15.0,
    "bluetooth": 50.0,
    "wifi-direct": 100.0,
}
DEFAULT_TX_COST = 0.15
DEFAULT_BEACON_COST = 5.5e-7

TABLE_DEADLINE_SLOTS = (25, 50, 100, 250)
TABLE_ARENA_RADII = (350.0, 500.0, 750.0, 1000.0)
TABLE_POPULATIONS = (9, 15, 20)
DEFAULT_SLOT_LEN = 10.0

CSV_FIELDS = ("instance_id", "algorithm", "objective", "upper_bound", "ratio",
              "energy", "wall_time_s", "work", "status")

VALIDATION_FIELDS = ("instance_id", "policy", "trials", "analytic_delivery",
                     "empirical_delivery", "delivery_gap", "delivery_ci",
                     "analytic_energy", "empirical_energy", "energy_gap",
                     "energy_ci", "flagged")

ALGORITHMS = ("grid", "greedy1", "greedy2", "combined", "arrival", "uniform")

UB_CLASS_CAP = 3

# Largest policy grid `solve` and `sweep` accept.  Each class's log-miss
# table costs O(subslots^2) to build: at this limit 0.08 s with a full TTL
# and 0.10-0.29 s with a shorter one on a 2-core Xeon VM, five times the
# largest grid the tests, the README and the benchmark build (2,000 sub-slots).
MAX_SUBSLOTS = 10_000


class CliInputError(ValueError):
    """Bad command line or input document."""


class CliRequestError(RuntimeError):
    """Valid input, but the requested combination cannot be served."""


# =========================================================================
# Scenario files
# =========================================================================

# Scenario-file keys that map one to one onto a dataclass field: one row (file
# key, field, kind, _number bounds) per key, in reading order.  The optional
# ``resolution`` and ``speed_constant``, and each ``ttl_slots``, have own lines.
_SCENARIO_KEYS = (("deadline_s", "deadline", float, {}), ("slot_len_s", "slot_len", float, {}),
                  ("arena_radius_m", "arena_radius", float, {}), ("budget", "budget", float, {}))
_TECHNOLOGY_KEYS = (("id", "ident", str, {}), ("beacon_cost", "beacon_cost", float, {}))
_CLASS_KEYS = (("population", "population", int, {"finite": True}),
               ("speed_mps", "speed", float, {}), ("range_m", "range_m", float, {}),
               ("tx_cost", "tx_cost", float, {}), ("technology", "technology", str, {}))


def _number(value, where: str | None = None, kind: type = float, low: int | None = None,
            finite: bool = False):
    """The one reader of numbers from outside the program.

    ``where`` is the field path of a scenario- or policy-file value, which
    must be a JSON number (an integer when ``kind`` is int) and not a bool;
    without it ``value`` is a flag's text, parsed by ``kind``, and argparse
    names the flag.  The number, converted to ``kind``, must be >= ``low``
    and, with ``finite``, finite as a float.  Any failure, an overflow
    included, is bad input.
    """
    problem = None
    if where is None or (not isinstance(value, bool)
                         and isinstance(value, int if kind is int else (int, float))):
        try:
            number = kind(value)
            if (low is None or number >= low) and (not finite or math.isfinite(number)):
                return number
        except OverflowError as exc:
            problem = f"out of range ({exc})"
        except ValueError:
            pass
    if problem is None:
        want = "an integer" if kind is int else "a finite number" if finite else "a number"
        if low is not None:
            want += f" >= {low}"
        problem = f"expected {want}, got {value!r}"
    raise CliInputError(f"{where}: {problem}") if where else argparse.ArgumentTypeError(problem)


def _field(data: dict, path: str, key: str, kind=float, default=None, **bounds):
    """``data[key]``, else a given ``default``: a str or list as is, a number via ``_number``."""
    if key not in data:
        if default is None:
            raise CliInputError(f"{path}.{key}: missing required key")
        return default
    value = data[key]
    if kind in (int, float):
        return _number(value, f"{path}.{key}", kind, **bounds)
    if isinstance(value, kind):
        return value
    raise CliInputError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")


def _fields(data: dict, path: str, keys) -> dict:
    """The dataclass fields of a key table's rows, read from ``data`` in row order."""
    return {field: _field(data, path, key, kind, **bounds) for key, field, kind, bounds in keys}


def _objects(doc: dict, key: str, make) -> tuple:
    """The list ``doc[key]`` of objects, each built by ``make(item, path)``
    with its path ``key[i]``, which also names a ScenarioError it raises."""
    out = []
    for i, item in enumerate(_field(doc, "scenario", key, list)):
        path = f"{key}[{i}]"
        if not isinstance(item, dict):
            raise CliInputError(f"{path}: expected an object")
        try:
            out.append(make(item, path))
        except ScenarioError as exc:
            raise CliInputError(f"{path}: {exc}") from exc
    return tuple(out)


def parse_scenario(doc: dict, *, resolution_override: int | None = None) -> Scenario:
    """Build a Scenario from a scenario-file document.

    TTLs in the document are counted in whole slots and converted to the
    sub-slot grid here.  Errors carry the offending field path.
    """
    if not isinstance(doc, dict):
        raise CliInputError("scenario: top level must be an object")
    fields = _fields(doc, "scenario", _SCENARIO_KEYS)
    # checked before it scales the TTLs; an override replaces it unread
    resolution = (_field(doc, "scenario", "resolution", int, default=1, low=1, finite=True)
                  if resolution_override is None else resolution_override)
    speed_constant = _field(doc, "scenario", "speed_constant", default=1.3693)
    technologies = _objects(doc, "technologies",
                            lambda td, path: Technology(**_fields(td, path, _TECHNOLOGY_KEYS)))

    def node_class(cd: dict, path: str) -> NodeClass:
        ttl_slots = _field(cd, path, "ttl_slots", finite=True)
        ttl_sub = ttl_slots * resolution   # inf when the product overflows
        if not (math.isfinite(ttl_sub) and abs(ttl_sub - round(ttl_sub)) <= 1e-9):
            raise CliInputError(
                f"{path}.ttl_slots: {ttl_slots} not representable at resolution {resolution}")
        return NodeClass(ttl_slots=round(ttl_sub), **_fields(cd, path, _CLASS_KEYS))

    classes = _objects(doc, "classes", node_class)
    if not classes:
        raise CliInputError("scenario.classes: at least one class required")
    try:
        return Scenario(classes=classes, technologies=technologies, resolution=resolution,
                        speed_constant=speed_constant, **fields)
    except ScenarioError as exc:
        raise CliInputError(f"scenario: {exc}") from exc


def render_scenario(sc: Scenario) -> dict:
    """Inverse of parse_scenario (TTLs back in whole slots)."""
    def write(obj, keys) -> dict:
        return {key: getattr(obj, field) for key, field, _, _ in keys}

    return {
        **write(sc, _SCENARIO_KEYS),
        "resolution": sc.resolution, "speed_constant": sc.speed_constant,
        "technologies": [write(t, _TECHNOLOGY_KEYS) for t in sc.technologies],
        "classes": [{**write(c, _CLASS_KEYS), "ttl_slots": c.ttl_slots // sc.resolution
                     if c.ttl_slots % sc.resolution == 0 else c.ttl_slots / sc.resolution}
                    for c in sc.classes],
    }


def _read_json(path: str, kind: str):
    """The JSON document of a ``kind`` (scenario or policy) file; a file that
    cannot be opened, is not UTF-8 JSON or nests too deep is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliInputError(f"cannot read {kind} file {path}: {exc}") from exc


def load_scenario(path: str, resolution_override: int | None = None) -> Scenario:
    return parse_scenario(_read_json(path, "scenario"), resolution_override=resolution_override)


# =========================================================================
# Random instance samplers
# =========================================================================

def _budgeted(rng: np.random.Generator, budget_frac: tuple[float, float],
              probe: Scenario) -> tuple[float, Scenario]:
    """The probe with its budget drawn as a uniform fraction of the all-full
    transmission cost; returns (that fraction, the budgeted scenario)."""
    full_cost = threshold_energy([probe.max_threshold] * len(probe.classes), probe)
    frac = float(rng.uniform(*budget_frac))
    return frac, replace(probe, budget=frac * full_cost)


def sample_table_scenario(rng: np.random.Generator, *, resolution: int = 5,
                          n_classes: int | None = None,
                          with_beacons: bool = True) -> tuple[str, Scenario]:
    """One random instance over the tabulated experiment grid.

    Deadlines are slot counts; every class draws a distinct
    (mobility, technology) pair so contact rates never coincide.  The budget
    is a uniform fraction in [0.35, 0.8] of the all-full transmission cost,
    which keeps the constraint binding without starving the instance.
    """
    k_slots = int(rng.choice(TABLE_DEADLINE_SLOTS))
    arena = float(rng.choice(TABLE_ARENA_RADII))
    pop = int(rng.choice(TABLE_POPULATIONS))
    n_cls = int(n_classes) if n_classes is not None else int(rng.integers(1, 4))
    combos = [(m, t) for m in MOBILITY_PRESETS for t in TECH_RANGE_M]
    picks = rng.choice(len(combos), size=n_cls, replace=False)

    beacon = DEFAULT_BEACON_COST if with_beacons else 0.0
    tech_ids = sorted({combos[p][1] for p in picks})
    technologies = tuple(Technology(t, beacon) for t in tech_ids)
    classes = tuple(
        NodeClass(population=pop, ttl_slots=k_slots * resolution, speed=MOBILITY_PRESETS[m],
                  range_m=TECH_RANGE_M[t], tx_cost=DEFAULT_TX_COST, technology=t)
        for m, t in (combos[p] for p in picks))

    frac, sc = _budgeted(rng, (0.35, 0.8), Scenario(
        classes=classes, technologies=technologies,
        deadline=k_slots * DEFAULT_SLOT_LEN, slot_len=DEFAULT_SLOT_LEN,
        arena_radius=arena, budget=1.0, resolution=resolution))
    return f"K{k_slots}_L{int(arena)}_N{pop}_C{n_cls}_b{frac:.2f}", sc


def sample_scalability_scenario(rng: np.random.Generator, n_classes: int, *,
                                resolution: int = 3) -> tuple[str, Scenario]:
    """Random mobility and per-class technologies for scalability timing runs:
    100 slots, ten relays per class, a 500 m arena and a budget drawn as a
    uniform fraction in [0.3, 0.7] of the all-full transmission cost."""
    k_slots = 100
    classes = []
    technologies = []
    for c in range(n_classes):
        tech_id = f"radio{c}"
        technologies.append(Technology(tech_id, float(rng.uniform(3e-7, 8e-7))))
        classes.append(NodeClass(
            population=10,
            ttl_slots=k_slots * resolution,
            speed=float(rng.uniform(1.0, 15.0)),
            range_m=float(rng.uniform(15.0, 50.0)),
            tx_cost=float(rng.uniform(0.05, 0.25)),
            technology=tech_id,
        ))
    frac, sc = _budgeted(rng, (0.3, 0.7), Scenario(
        classes=tuple(classes), technologies=tuple(technologies),
        deadline=k_slots * DEFAULT_SLOT_LEN, slot_len=DEFAULT_SLOT_LEN,
        arena_radius=500.0, budget=1.0, resolution=resolution))
    return f"scal_C{n_classes}_b{frac:.2f}", sc


# =========================================================================
# Algorithm dispatch
# =========================================================================

@dataclass
class AlgoResult:
    policy: ThresholdPolicy
    objective: float
    work: int
    extras: dict


def _grid_result(rep: SolveReport) -> AlgoResult:
    return AlgoResult(rep.policy, rep.objective, rep.enumerated,
                      {"ratio_bound": rep.ratio_bound})


def _timed(fn, *args, **kwargs):
    """(fn's result, its wall time in seconds)."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def run_algorithm(name: str, sc: Scenario) -> AlgoResult:
    if name in ("greedy2", "combined") and sc.beacons:
        raise CliRequestError(f"{name} requires a scenario without beacon costs")
    if name == "grid":
        return _grid_result(grid_search(sc))
    if name in ("greedy1", "greedy2"):
        rep = greedy_construct(sc, GreedyVariant.GAIN if name == "greedy1"
                               else GreedyVariant.GAIN_PER_COST)
        return AlgoResult(rep.policy, rep.objective, rep.iterations, {
            "cardinality_cap": rep.cardinality_cap,
            "online_bound": rep.online_bound,
            "offline_bound": rep.offline_bound,
            "fractional_topup": rep.topup_class is not None,
        })
    if name == "combined":
        rep = combined_best(sc)
        return AlgoResult(rep.policy, rep.objective, rep.iterations, {
            "variant": rep.variant.value,
            "guarantee": COMBINED_GUARANTEE,
            "online_bound": rep.online_bound,
            "offline_bound": rep.offline_bound,
        })
    if name == "arrival":
        tp = arrival_rate_greedy(sc)
        return AlgoResult(tp, threshold_objective(tp.thresholds, sc), len(sc.classes), {})
    if name == "uniform":
        h = class_independent(sc)
        tp = uniform_policy(sc, h)
        return AlgoResult(tp, threshold_objective(tp.thresholds, sc), 1, {"common_threshold": h})
    raise CliInputError(f"unknown algorithm {name!r}")


def _algorithm_list(text: str) -> list[str]:
    """Comma-separated algorithm names: at least one, each in ALGORITHMS."""
    names = [a.strip() for a in text.split(",") if a.strip()]
    if not names or not set(names) <= set(ALGORITHMS):
        raise argparse.ArgumentTypeError(
            f"expected one or more of {','.join(ALGORITHMS)}, got {text!r}")
    return names


def _check_subslots(ident: str, sc: Scenario) -> None:
    if sc.subslots > MAX_SUBSLOTS:
        raise CliInputError(
            f"{ident}: {sc.subslots} sub-slots exceed MAX_SUBSLOTS = {MAX_SUBSLOTS};"
            " lower the resolution or the deadline")


def _solve_instance(ident: str, sc: Scenario, names: list[str], *,
                    timeout: float | None, ub_cap: int
                    ) -> list[tuple[dict, Exception | None]]:
    """One JSON report per algorithm, paired with the error that replaced
    its result (the report then holds only the instance and algorithm).

    The grid search runs at most once: when ``grid`` is requested or the
    instance has at most ``ub_cap`` classes.  That one report gives the
    ``grid`` row and every row's upper bound; a timeout in it fails only the
    ``grid`` row and leaves the bound empty.
    """
    with_ub = len(sc.classes) <= ub_cap
    ub = grid = None
    if with_ub or "grid" in names:
        try:
            rep, wall = _timed(grid_search, sc, timeout_s=timeout)
            grid = _grid_result(rep), wall
            ub = rep.upper_bound if with_ub else None
        except SolveTimeout as exc:
            grid = exc

    out = []
    for name in names:
        report = {"instance_id": ident, "algorithm": name}
        try:
            if name != "grid":
                res, wall = _timed(run_algorithm, name, sc)
            elif isinstance(grid, SolveTimeout):
                raise grid
            else:
                res, wall = grid
        except (CliRequestError, SolveTimeout) as exc:
            out.append((report, exc))
            continue
        energy = threshold_energy(res.policy.thresholds, sc)
        report.update({
            "objective": res.objective,
            "upper_bound": ub,
            "ratio": (res.objective / ub) if ub else None,
            "energy": energy,
            "feasible": within_budget(energy, sc),
            "thresholds_subslots": list(res.policy.thresholds),
            "thresholds_slots": [h / sc.resolution for h in res.policy.thresholds],
            "wall_time_s": wall,
            "work": res.work,
            **res.extras,
        })
        out.append((report, None))
    return out


def _csv_row(report: dict, status: str, timings: bool) -> dict:
    """A report projected on CSV_FIELDS: floats as repr, missing values
    empty, the wall time to the microsecond and only with ``timings``."""
    row = {key: report.get(key) for key in CSV_FIELDS}
    wall = row["wall_time_s"]
    row.update(status=status, wall_time_s=f"{wall:.6f}" if timings and wall is not None else None)
    return {k: "" if v is None else repr(v) if isinstance(v, float) else v for k, v in row.items()}


def _csv_text(rows, fields=CSV_FIELDS) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    """Write a command's output to ``out_path``, or to stdout without one."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# =========================================================================
# Subcommands
# =========================================================================

def cmd_solve(args) -> int:
    sc = load_scenario(args.scenario, args.resolution)
    _check_subslots(args.instance_id, sc)
    results = _solve_instance(args.instance_id, sc, args.algorithm, timeout=args.timeout,
                              ub_cap=args.ub_cap)
    for _, error in results:
        if error is not None:
            raise error
    reports = [report for report, _ in results]
    if args.format == "json":
        text = _json_text(reports if len(reports) > 1 else reports[0])
    else:
        text = _csv_text(_csv_row(report, "ok", True) for report in reports)
    _emit(text, args.out)
    return 0


def cmd_sweep(args) -> int:
    resolution = 5 if args.resolution is None else args.resolution
    rng = np.random.default_rng(args.seed)

    if args.mode == "table":
        draws = [sample_table_scenario(rng, resolution=resolution,
                                       with_beacons=not args.no_beacons)
                 for _ in range(args.count)]
        instances = [(f"{ident}_i{i}", sc) for i, (ident, sc) in enumerate(draws)]
    else:
        instances = [sample_scalability_scenario(rng, n_cls, resolution=resolution)
                     for n_cls in args.classes]
    for ident, sc in instances:
        _check_subslots(ident, sc)

    reports = []
    for ident, sc in instances:
        for report, error in _solve_instance(ident, sc, args.algorithms, timeout=args.timeout,
                                             ub_cap=args.ub_cap):
            report["status"] = ("ok" if error is None
                                else "timeout" if isinstance(error, SolveTimeout)
                                else "inapplicable")
            if not args.timings:   # keeps the output a function of the seed
                report.pop("wall_time_s", None)
            reports.append(report)
    if args.format == "json":
        text = _json_text(reports)
    else:
        text = _csv_text(_csv_row(report, report["status"], args.timings) for report in reports)
    _emit(text, args.out)
    return 0


def _policy_from_source(args, sc: Scenario) -> tuple[str, Policy]:
    if args.policy_file:
        doc = _read_json(args.policy_file, "policy")
        if isinstance(doc, dict) and "thresholds" in doc:
            th = doc["thresholds"]
            if not isinstance(th, list) or len(th) != len(sc.classes):
                raise CliInputError(
                    f"policy.thresholds: expected {len(sc.classes)} entries")
            th = tuple(_number(h, f"policy.thresholds[{c}]") for c, h in enumerate(th))
            try:
                return "file", expand_threshold(ThresholdPolicy(th), sc)
            except ValueError as exc:
                raise CliInputError(f"policy.thresholds: {exc}") from exc
        if isinstance(doc, dict) and "policy" in doc:
            rows, shape = doc["policy"], (len(sc.classes), sc.subslots)
            if not (isinstance(rows, list) and len(rows) == shape[0] and all(
                    isinstance(row, list) and len(row) == shape[1] for row in rows)):
                raise CliInputError(f"policy.policy: expected a {shape[0]} x {shape[1]} matrix")
            mat = np.array([[_number(p, f"policy.policy[{c}][{k}]") for k, p in enumerate(row)]
                            for c, row in enumerate(rows)])
            try:
                return "file", Policy(mat)
            except ValueError as exc:
                raise CliInputError(f"policy.policy: {exc}") from exc
        raise CliInputError("policy file needs a 'thresholds' or 'policy' key")
    _check_subslots(args.instance_id, sc)
    res = run_algorithm(args.algorithm, sc)
    return args.algorithm, expand_threshold(res.policy, sc)


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario, args.resolution)
    label, pol = _policy_from_source(args, sc)
    cfg = SimConfig(trials=args.trials, seed=args.seed, record_holding=False)
    record = validate(sc, pol, cfg)
    row = {key: repr(getattr(record, key)) for key in VALIDATION_FIELDS[3:-1]}
    row.update(instance_id=args.instance_id, policy=label, trials=record.trials,
               flagged=str(record.flagged).lower())
    if args.format == "json":
        _emit(_json_text(row), args.out)
    else:
        _emit(_csv_text([row], VALIDATION_FIELDS), args.out)
    return 0


def cmd_bound(args) -> int:
    resolution = 1 if args.resolution is None else args.resolution
    value = ratio_bound(args.slots, resolution, float(args.classes.strip() or "inf"))
    if args.format == "json":
        text = _json_text({"slots": args.slots, "resolution": resolution,
                           "classes": args.classes, "ratio_bound": value})
    else:
        text = f"{value!r}\n"
    _emit(text, args.out)
    return 0


def cmd_validate_enum(args) -> int:
    sc = load_scenario(args.scenario, args.resolution)
    n = sc.subslots
    n_classes = len(sc.classes)
    if n_classes < 2:
        raise CliInputError("validate-enum needs at least two classes")
    if n ** (n_classes - 1) > args.limit:
        raise CliInputError(
            f"instance too large for exhaustive validation ({n}^{n_classes - 1}"
            f" > {args.limit}); reduce slots, resolution, or classes")

    # costless classes are pinned full: never fractional, never enumerated
    costly = _costly_classes(sc)
    mismatches = checked = 0
    for frac_c in costly:
        enumerated = {tuple(sorted(a.items())) for a, _ in enumerate_saturating(sc, frac_c)}
        brute = {tuple((c, h) for c, h in profile if c in costly)
                 for profile in brute_force_saturating(sc, frac_c)}
        checked += len(brute)
        mismatches += len(enumerated ^ brute)
    if args.format == "json":
        text = _json_text({"profiles_checked": checked, "mismatches": mismatches})
    else:
        text = f"profiles checked: {checked}\nmismatches: {mismatches}\n"
    _emit(text, args.out)
    return 0 if mismatches == 0 else 2


# =========================================================================
# Entry point
# =========================================================================

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; remap to 1
        raise CliInputError(message)


def _positive_int(text: str) -> int:
    return _number(text, kind=int, low=1, finite=True)


def _non_negative_int(text: str) -> int:
    return _number(text, kind=int, low=0)


def _class_counts(text: str) -> list[int]:
    sizes = [_positive_int(x) for x in text.split(",") if x.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one class count")
    return sizes


def _class_limit(text: str) -> str:
    """Validates bound's --classes and keeps its text; 'inf' or empty is the
    many-class limit."""
    _number(text.strip() or "inf", low=1)
    return text


def _seconds(text: str) -> float:
    return _number(text, low=0, finite=True)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process.  Parsing leaves it
    unchanged: every parse fills a fresh namespace from the defaults."""
    parser = _Parser(prog="twohop",
                     description="Two-hop forwarding policy solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    # every subcommand shares this action: its default stays None, each command applies its own
    common.add_argument("--resolution", type=_positive_int, default=None,
                        help="sub-slots per slot (default: the scenario file's;"
                             " sweep 5, bound 1)")

    # solve and sweep share the grid/upper-bound rule
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--ub-cap", type=_non_negative_int, default=UB_CLASS_CAP,
                         help="compute the upper bound only up to this many classes")
    bounded.add_argument("--timeout", type=_seconds, default=None,
                         help="wall-clock limit for the grid enumeration, seconds")

    p = sub.add_parser("solve", parents=[common, bounded],
                       help="run solvers or baselines on one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--algorithm", type=_algorithm_list, default="grid",
                   help="comma-separated subset of " + ",".join(ALGORITHMS))
    p.add_argument("--instance-id", default="scenario")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[common, bounded],
                       help="run algorithms over sampled instance grids")
    p.add_argument("--mode", choices=("table", "scalability"), default="table")
    p.add_argument("--count", type=_positive_int, default=10, help="table-mode instance count")
    p.add_argument("--classes", type=_class_counts, default="2,4,8",
                   help="scalability-mode class counts, comma separated")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--algorithms", type=_algorithm_list, default="grid,greedy1,arrival,uniform")
    p.add_argument("--no-beacons", action="store_true",
                   help="sample instances without beacon costs")
    p.add_argument("--timings", action="store_true",
                   help="record wall times (output no longer byte-reproducible)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common],
                       help="validate a policy against the contact-process simulator")
    p.add_argument("--scenario", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="grid",
                   help="policy source algorithm (ignored with --policy-file)")
    p.add_argument("--policy-file", default=None,
                   help="JSON file with 'thresholds' or a full 'policy' matrix")
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--instance-id", default="scenario")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", parents=[common],
                       help="evaluate the grid-quality lower bound")
    p.add_argument("--slots", type=_positive_int, required=True)
    p.add_argument("--classes", type=_class_limit, default="inf")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("validate-enum", parents=[common],
                       help="cross-check the enumeration against brute force (small instances)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--limit", type=_positive_int, default=200_000)
    p.set_defaults(func=cmd_validate_enum)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CliInputError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CliRequestError, SolveTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, ArithmeticError) as exc:
        print(f"internal numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
