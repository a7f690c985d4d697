"""Exhaustive enumeration of budget-saturating threshold profiles.

An optimal policy either lets every class transmit in all sub-slots or spends
the budget exactly.  Restricting profiles to at most one fractional threshold
makes the search combinatorial: fix an ordering of the remaining classes,
walk feasible integer thresholds level by level, and close each leaf with the
unique fractional threshold that exhausts what is left of the budget.

The module provides the boundary solver (closed form with a safeguarded
Newton fallback for beacon-bearing technologies), the per-level feasible
ranges, the enumeration itself (one leaf walker shared by the reference
generator and ``grid_search``, which also returns the rounded-up upper bound
from the same pass), and the grid-quality lower-bound formula.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .model import (
    Scenario,
    ThresholdPolicy,
    budget_tolerance,
    class_log_miss,
    class_log_miss_table,
    is_costless,
    threshold_energy,
    threshold_objective,
)

__all__ = [
    "BudgetExceededError",
    "BudgetUnboundedError",
    "FeasibleRange",
    "PartialAssignment",
    "SolveReport",
    "SolveTimeout",
    "boundary_threshold",
    "brute_force_saturating",
    "enumerate_saturating",
    "feasible_range",
    "grid_search",
    "ratio_bound",
    "saturating_threshold",
    "upper_bound",
]

# Slack, in sub-slot units, protecting ceil/floor of solved thresholds from
# float noise at range endpoints.
_SNAP = 1e-9
_RESIDUAL_TOL = 1e-10


class BudgetExceededError(RuntimeError):
    """The fixed part of a profile already spends more than the budget."""


class BudgetUnboundedError(RuntimeError):
    """Even full transmission cannot exhaust the remaining budget."""


class SolveTimeout(RuntimeError):
    """Enumeration hit the caller-provided wall-clock limit."""


@dataclass(frozen=True)
class PartialAssignment:
    """Integer thresholds fixed so far while one class stays fractional.

    ``assigned`` maps class index -> integer threshold; classes are filled in
    ascending index order over the classes other than ``fractional_class``.
    """

    fractional_class: int
    assigned: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.fractional_class in self.assigned:
            raise ValueError("fractional class cannot carry a fixed threshold")


@dataclass(frozen=True)
class FeasibleRange:
    """Closed integer interval of thresholds admitting a saturating completion."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.hi < self.lo

    def values(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


@dataclass
class SolveReport:
    """Outcome of a grid search, with the rounded-up upper bound found in the
    same enumeration pass."""

    policy: ThresholdPolicy
    objective: float
    upper_bound: float
    ratio_bound: float
    enumerated: int = 0
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# Saturating-threshold solver
# ---------------------------------------------------------------------------

def _solve_saturating_vec(rem, rho_n: float, g: float, beacon: float, m2, hi: float):
    """Vectorised root of  rho_n*(1 - exp(-g h)) + beacon*max(0, h - m2) = rem
    over h in [0, hi].

    Returns an array aligned with ``rem``: NaN marks "budget already
    exceeded" (rem < 0), +inf marks "cannot exhaust" (rem beyond the cost of
    h = hi).  The left side is strictly increasing, so the root is unique;
    beacon-bearing cases use a clamped Newton iteration with a bisection
    fallback.
    """
    rem = np.atleast_1d(np.asarray(rem, dtype=float))
    m2 = np.broadcast_to(np.asarray(m2, dtype=float), rem.shape).copy()
    tol = _RESIDUAL_TOL
    out = np.full(rem.shape, np.nan)

    cap = rho_n * -np.expm1(-g * hi) + beacon * np.maximum(0.0, hi - m2)
    exceeded = rem < -tol
    unbounded = rem > cap + tol
    core = ~(exceeded | unbounded)
    out[unbounded] = np.inf
    if not core.any():
        return out

    r = rem[core]
    m2c = m2[core]
    if rho_n <= 0.0 or g <= 0.0:
        # transmissions are free; only the beacon extension costs anything
        sol = np.where(r <= tol, 0.0, m2c + (r / beacon if beacon > 0.0 else np.inf))
        out[core] = np.clip(sol, 0.0, hi)
        return out

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = r / rho_n
        closed = np.where(ratio < 1.0, -np.log1p(-np.minimum(ratio, 1.0 - 1e-16)) / g, np.inf)
    sol = np.clip(closed, 0.0, None)
    needs_newton = sol > m2c + _SNAP
    if beacon > 0.0 and needs_newton.any():
        idx = np.where(needs_newton)[0]
        h = np.minimum(np.where(np.isfinite(sol[idx]), sol[idx], hi), hi)
        h = np.maximum(h, m2c[idx])
        rr = r[idx]
        mm = m2c[idx]
        for _ in range(64):
            f = rho_n * -np.expm1(-g * h) + beacon * (h - mm) - rr
            fp = rho_n * g * np.exp(-g * h) + beacon
            step = f / fp
            h = np.clip(h - step, mm, hi)
            if np.max(np.abs(f)) < tol:
                break
        f = rho_n * -np.expm1(-g * h) + beacon * (h - mm) - rr
        bad = np.abs(f) >= tol
        if bad.any():
            lo_b = np.where(bad, mm, h)
            hi_b = np.where(bad, np.full_like(h, hi), h)
            for _ in range(200):
                mid = 0.5 * (lo_b + hi_b)
                fm = rho_n * -np.expm1(-g * mid) + beacon * (mid - mm) - rr
                take_hi = fm > 0.0
                hi_b = np.where(take_hi, mid, hi_b)
                lo_b = np.where(take_hi, lo_b, mid)
            h = np.where(bad, 0.5 * (lo_b + hi_b), h)
        sol[idx] = h
    out[core] = np.clip(sol, 0.0, hi)
    return out


def _completion_masses(c2: int, partial: PartialAssignment, sc: Scenario,
                       unassigned: str) -> dict[int, float]:
    """Threshold mass of every class other than c2 in the completion context."""
    if unassigned not in ("zero", "full"):
        raise ValueError("unassigned must be 'zero' or 'full'")
    fill = float(sc.max_threshold) if unassigned == "full" else 0.0
    masses: dict[int, float] = {}
    for c in range(len(sc.classes)):
        if c == c2:
            continue
        if c in partial.assigned:
            masses[c] = float(partial.assigned[c])
        elif is_costless(c, sc):
            masses[c] = float(sc.max_threshold)
        else:
            masses[c] = fill
    return masses


def _fixed_energy_parts(c2: int, masses: dict[int, float], sc: Scenario):
    """Split the energy of the fixed classes into (constant, m2) where m2 is
    the beacon coverage already paid on class c2's technology."""
    dt = sc.eff_slot
    const = 0.0
    for c, h in masses.items():
        cls = sc.classes[c]
        const += cls.tx_cost * cls.population * -math.expm1(-sc.rates[c] * dt * h)
    own_tech = sc.classes[c2].technology
    m2 = 0.0
    for tech in sc.technologies:
        members = [c for c in sc.tech_members[tech.ident] if c != c2]
        if not members or tech.beacon_cost == 0.0:
            continue
        cover = max(masses[c] for c in members)
        if tech.ident == own_tech:
            m2 = cover
        else:
            const += sc.beacon_rate(tech.ident) * cover
    return const, m2


def boundary_threshold(c2: int, partial: PartialAssignment, sc: Scenario,
                       unassigned: str = "zero") -> float:
    """Threshold for class c2 that spends the budget exactly, given the fixed
    classes and the stated completion for the not-yet-assigned ones.

    The transmission part inverts in closed form; when the solved threshold
    sticks out beyond the beacon coverage already paid on c2's technology,
    the beacon term grows with the threshold itself and the saturation
    equation is closed by a safeguarded Newton iteration (residual < 1e-10).

    Raises BudgetExceededError when the fixed classes alone overspend, and
    BudgetUnboundedError when even h = subslots - 1 cannot exhaust the budget.
    """
    masses = _completion_masses(c2, partial, sc, unassigned)
    const, m2 = _fixed_energy_parts(c2, masses, sc)
    cls = sc.classes[c2]
    beacon = sc.beacon_rate(cls.technology)
    rem = sc.budget - const - beacon * m2
    sol = _solve_saturating_vec(
        rem,
        cls.tx_cost * cls.population,
        sc.rates[c2] * sc.eff_slot,
        beacon,
        m2,
        float(sc.max_threshold),
    )[0]
    if math.isnan(sol):
        raise BudgetExceededError(
            f"fixed classes already spend more than the budget (class {c2})")
    if math.isinf(sol):
        raise BudgetUnboundedError(
            f"class {c2} cannot exhaust the remaining budget even at full transmission")
    return float(sol)


def saturating_threshold(c: int, thresholds, sc: Scenario) -> float:
    """Largest threshold for class c that keeps the profile within budget,
    with every other class pinned at its (possibly fractional) threshold.

    Clamps instead of raising: returns 0 when nothing is affordable and
    subslots - 1 when even full transmission stays under budget.  Solved by
    bisection on the exact threshold energy, so it is valid for any mix of
    fractional thresholds and shared technologies.
    """
    hs = [float(h) for h in thresholds]
    hi = float(sc.max_threshold)
    tol = budget_tolerance(sc.budget)

    def energy_at(h: float) -> float:
        probe = list(hs)
        probe[c] = h
        return threshold_energy(probe, sc)

    if energy_at(0.0) > sc.budget + tol:
        return 0.0
    if energy_at(hi) <= sc.budget + tol:
        return hi
    lo_b, hi_b = 0.0, hi
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        if energy_at(mid) > sc.budget:
            hi_b = mid
        else:
            lo_b = mid
    return 0.0 if lo_b < _SNAP else lo_b


def feasible_range(c2: int, partial: PartialAssignment, sc: Scenario) -> FeasibleRange:
    """Integer thresholds for c2 that admit a budget-saturating completion.

    The lower end comes from the completion with all later classes (and the
    fractional one) at full transmission, the upper end from the all-zero
    completion.  An empty range prunes the enumeration branch.
    """
    n1 = sc.max_threshold
    try:
        r_hi = boundary_threshold(c2, partial, sc, unassigned="zero")
        hi = min(n1, int(math.floor(r_hi + _SNAP)))
    except BudgetExceededError:
        return FeasibleRange(0, -1)
    except BudgetUnboundedError:
        hi = n1
    try:
        r_lo = boundary_threshold(c2, partial, sc, unassigned="full")
        lo = max(0, int(math.ceil(r_lo - _SNAP)))
    except BudgetExceededError:
        lo = 0
    except BudgetUnboundedError:
        return FeasibleRange(0, -1)
    return FeasibleRange(lo, hi)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _costly_classes(sc: Scenario) -> list[int]:
    return [c for c in range(len(sc.classes)) if not is_costless(c, sc)]


def _leaf_candidates(frac_c: int, leaf_c: int | None, assigned: dict[int, int],
                     sc: Scenario):
    """Solve the fractional closure for a leaf of the enumeration tree.

    With ``leaf_c`` None the tree is trivial (no other costly classes) and a
    single candidate is produced.  Otherwise the feasible range of ``leaf_c``
    is swept as a vector and the saturating threshold of the fractional class
    is solved for every value at once.  Returns (h_values, frac_values) with
    invalid entries already dropped.
    """
    partial = PartialAssignment(frac_c, dict(assigned))
    n1 = sc.max_threshold
    cls = sc.classes[frac_c]
    beacon = sc.beacon_rate(cls.technology)

    if leaf_c is None:
        try:
            r = boundary_threshold(frac_c, partial, sc)
        except (BudgetExceededError, BudgetUnboundedError):
            return np.empty(0, dtype=int), np.empty(0)
        return np.array([-1]), np.array([r])

    rng = feasible_range(leaf_c, partial, sc)
    if rng.empty:
        return np.empty(0, dtype=int), np.empty(0)
    h_vec = rng.values()

    masses = {c: float(h) for c, h in assigned.items()}
    for c in range(len(sc.classes)):
        if c != frac_c and c != leaf_c and c not in masses:
            masses[c] = float(n1) if is_costless(c, sc) else 0.0

    leaf_cls = sc.classes[leaf_c]
    dt = sc.eff_slot
    const = sum(sc.classes[c].tx_cost * sc.classes[c].population
                * -math.expm1(-sc.rates[c] * dt * h) for c, h in masses.items())
    const = const + leaf_cls.tx_cost * leaf_cls.population \
        * -np.expm1(-sc.rates[leaf_c] * dt * h_vec)

    # beacon coverage: the leaf class may extend the union on its own
    # technology, which can also be the fractional class's technology
    base_cover: dict[str, float] = {}
    for tech in sc.technologies:
        members = [c for c in sc.tech_members[tech.ident] if c not in (frac_c, leaf_c)]
        base_cover[tech.ident] = max((masses[c] for c in members), default=0.0)
    leaf_tech = leaf_cls.technology
    own_tech = cls.technology
    for tech in sc.technologies:
        if tech.beacon_cost == 0.0 or not sc.tech_members[tech.ident]:
            continue
        if tech.ident == own_tech:
            continue
        cover = base_cover[tech.ident]
        if tech.ident == leaf_tech:
            cover = np.maximum(cover, h_vec.astype(float))
        const = const + sc.beacon_rate(tech.ident) * cover
    if beacon > 0.0:
        m2 = base_cover.get(own_tech, 0.0)
        if leaf_tech == own_tech:
            m2 = np.maximum(m2, h_vec.astype(float))
    else:
        m2 = 0.0

    rem = sc.budget - const - beacon * np.asarray(m2, dtype=float)
    r_vec = _solve_saturating_vec(
        rem, cls.tx_cost * cls.population, sc.rates[frac_c] * dt, beacon, m2, float(n1))
    ok = np.isfinite(r_vec)
    return h_vec[ok], r_vec[ok]


def _leaf_batches(sc: Scenario, frac_c: int
                  ) -> Iterator[tuple[dict[int, int], int | None, np.ndarray, np.ndarray]]:
    """The enumeration walker: yields (assigned, leaf class, h_vec, r_vec) for
    every leaf of the tree with fractional class ``frac_c``, empty ones too.

    Integer levels are the costly classes other than ``frac_c`` in ascending
    order; ``assigned`` maps them to thresholds in level order and is reused
    between batches, so copy it to keep it.  The last costly class is the
    leaf, swept as a vector (None when ``frac_c`` is the only costly class).
    """
    others = [c for c in _costly_classes(sc) if c != frac_c]
    leaf = others[-1] if others else None
    assigned: dict[int, int] = {}

    def walk(level: int):
        if level >= len(others) - 1:
            h_vec, r_vec = _leaf_candidates(frac_c, leaf, assigned, sc)
            yield assigned, leaf, h_vec, r_vec
            return
        c2 = others[level]
        rng = feasible_range(c2, PartialAssignment(frac_c, dict(assigned)), sc)
        if rng.empty:
            return
        for h in range(rng.lo, rng.hi + 1):
            assigned[c2] = h
            yield from walk(level + 1)
            del assigned[c2]

    yield from walk(0)


def enumerate_saturating(sc: Scenario, fractional_class: int
                         ) -> Iterator[tuple[dict[int, int], float]]:
    """Reference enumeration: yields (integer assignment, fractional threshold)
    for every budget-saturating profile with the given fractional class.

    Classes with zero transmission and beacon cost are pinned to full
    transmission and never enumerated.  Intended for small instances and for
    cross-checking ``grid_search``.
    """
    if is_costless(fractional_class, sc):
        raise ValueError("fractional class must have a positive cost")
    for assigned, leaf, h_vec, r_vec in _leaf_batches(sc, fractional_class):
        for h, r in zip(h_vec, r_vec):
            full = dict(assigned)
            if leaf is not None:
                full[leaf] = int(h)
            yield full, float(r)


def brute_force_saturating(sc: Scenario, frac_c: int) -> set[tuple[tuple[int, int], ...]]:
    """Exhaustive reference for ``enumerate_saturating``: every integer
    assignment of the other classes, costless ones included, that admits a
    budget-saturating completion by class ``frac_c``, as sorted
    (class, threshold) tuples.  Scans subslots^(classes - 1) profiles."""
    n = sc.subslots
    tol = budget_tolerance(sc.budget)
    others = [c for c in range(len(sc.classes)) if c != frac_c]
    out = set()
    for combo in itertools.product(range(n), repeat=len(others)):
        assign = dict(zip(others, combo))
        base = [0.0] * len(sc.classes)
        for c, h in assign.items():
            base[c] = float(h)
        lo_energy = threshold_energy(base, sc)
        base[frac_c] = float(sc.max_threshold)
        hi_energy = threshold_energy(base, sc)
        if lo_energy <= sc.budget + tol and hi_energy >= sc.budget - tol:
            out.add(tuple(sorted(assign.items())))
    return out


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

class _Best:
    """Running maximum in log-miss space with lexicographic tie-breaking."""

    def __init__(self):
        self.log_miss = math.inf
        self.thresholds: tuple[float, ...] | None = None

    def offer(self, log_miss: float, thresholds: tuple[float, ...]):
        if log_miss < self.log_miss or (
                log_miss == self.log_miss
                and (self.thresholds is None or thresholds < self.thresholds)):
            self.log_miss = log_miss
            self.thresholds = thresholds


def _full_profile(sc: Scenario, frac_c: int, leaf_c: int | None,
                  assigned: dict[int, int], h: int, r: float) -> tuple[float, ...]:
    out = [0.0] * len(sc.classes)
    for c in range(len(sc.classes)):
        if c == frac_c:
            out[c] = float(r)
        elif leaf_c is not None and c == leaf_c:
            out[c] = float(h)
        elif c in assigned:
            out[c] = float(assigned[c])
        elif is_costless(c, sc):
            out[c] = float(sc.max_threshold)
    return tuple(out)


def grid_search(sc: Scenario, *, timeout_s: float | None = None) -> SolveReport:
    """Best budget-saturating threshold profile with at most one fractional
    threshold (or the all-full profile when the budget allows it).

    Enumerates every fractional-class choice; integer levels are walked in
    ascending class order and the innermost level is solved as a vector.
    Candidate objectives are ranked through cached per-class log-miss tables
    with exact evaluation of potential maximisers only, which leaves the
    result identical to exhaustive evaluation.  Ties break toward the
    lexicographically smallest threshold vector.  The same pass yields the
    upper bound: every enumerated threshold rounded up to the next integer
    sub-slot, best objective regardless of the (violated) budget.
    """
    t0 = time.perf_counter()
    n1 = sc.max_threshold
    n_classes = len(sc.classes)
    deadline = None if timeout_s is None else t0 + timeout_s
    rb = ratio_bound(sc.slots, sc.resolution, n_classes)

    full = tuple(float(n1) for _ in range(n_classes))
    if threshold_energy(full, sc) <= sc.budget + budget_tolerance(sc.budget):
        obj = threshold_objective(full, sc)
        return SolveReport(ThresholdPolicy(full), obj, upper_bound=obj,
                           ratio_bound=rb, enumerated=1,
                           wall_time=time.perf_counter() - t0)

    tables = [class_log_miss_table(c, sc) for c in range(n_classes)]
    # the classes outside the enumeration are the costless ones, pinned full
    pinned = sum(tables[c][n1] for c in range(n_classes) if is_costless(c, sc))
    best = _Best()
    ub_log_miss = math.inf
    enumerated = 0

    for frac_c in _costly_classes(sc):
        for assigned, leaf, h_vec, r_vec in _leaf_batches(sc, frac_c):
            if deadline is not None and time.perf_counter() > deadline:
                raise SolveTimeout(f"grid search exceeded {timeout_s:g} s")
            if h_vec.size == 0:
                continue
            enumerated += len(r_vec)
            known = known_up = pinned
            for c, h in assigned.items():
                known = known + tables[c][h]
                known_up = known_up + tables[c][min(h + 1, n1)]
            if leaf is not None:
                s_known = known + tables[leaf][h_vec]
                s_known_up = known_up + tables[leaf][np.minimum(h_vec + 1, n1)]
            else:
                s_known = np.full(r_vec.shape, known)
                s_known_up = np.full(r_vec.shape, known_up)
            ceil_r = np.minimum(np.ceil(r_vec - _SNAP).astype(int), n1)
            s_opt = s_known + tables[frac_c][ceil_r]
            up_r = np.minimum(np.floor(r_vec + _SNAP).astype(int) + 1, n1)
            cand_up = (s_known_up + tables[frac_c][up_r]).min()
            if cand_up < ub_log_miss:
                ub_log_miss = cand_up
            improvers = np.where(s_opt <= best.log_miss)[0]
            if improvers.size == 0:
                continue
            exact = s_known[improvers] + class_log_miss(frac_c, r_vec[improvers], sc)
            order = np.argsort(exact, kind="stable")
            for idx in order:
                i = improvers[idx]
                val = float(exact[idx])
                if val > best.log_miss:
                    break
                prof = _full_profile(sc, frac_c, leaf, assigned,
                                     int(h_vec[i]) if leaf is not None else 0,
                                     float(r_vec[i]))
                best.offer(val, prof)

    thresholds = best.thresholds
    if thresholds is None:
        # nothing saturates (e.g. zero budget with no enumerable candidate)
        thresholds = tuple(float(n1) if is_costless(c, sc) else 0.0 for c in range(n_classes))
    objective = threshold_objective(thresholds, sc)
    ub = objective if math.isinf(ub_log_miss) else max(-math.expm1(ub_log_miss), objective)
    return SolveReport(ThresholdPolicy(thresholds), objective, upper_bound=ub, ratio_bound=rb,
                       enumerated=enumerated, wall_time=time.perf_counter() - t0)


def upper_bound(sc: Scenario, *, timeout_s: float | None = None) -> float:
    """Objective bound from the rounded-up enumeration; never below the best
    saturating profile and never below the true optimum."""
    return grid_search(sc, timeout_s=timeout_s).upper_bound


def ratio_bound(k_slots: int, resolution: int, n_classes: float) -> float:
    """Guaranteed fraction of the optimal delivery probability achieved by the
    single-fractional grid enumeration:

        (1 - (1/2)^e) / (1 - (1/2)^(q e)),   e = (k_slots - 1) * resolution

    with q the number of classes (math.inf gives the many-class limit).  The
    value grows with e and shrinks with q; at e = 0 the continuous limit 1/q
    is returned.
    """
    if k_slots < 1 or resolution < 1 or not (n_classes >= 1):
        raise ValueError("all arguments must be >= 1")
    e = (k_slots - 1) * resolution
    if e == 0:
        return 0.0 if math.isinf(n_classes) else 1.0 / n_classes
    num = -math.expm1(e * math.log(0.5))
    if math.isinf(n_classes):
        return num
    den = -math.expm1(n_classes * e * math.log(0.5))
    return num / den
