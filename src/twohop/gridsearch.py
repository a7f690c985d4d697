"""Exhaustive enumeration of budget-saturating threshold profiles.

An optimal policy either lets every class transmit in all sub-slots or spends
the budget exactly.  Restricting profiles to at most one fractional threshold
makes the search combinatorial: fix an ordering of the remaining classes,
walk feasible integer thresholds level by level, and close each leaf with the
unique fractional threshold that exhausts what is left of the budget.

The module provides the budget-end kernel ``_ends`` (closed form with a
safeguarded Newton fallback for beacon-bearing technologies), which every
boundary, range and greedy certificate reads, the certified budget
bisection ``_bisect_budget`` behind ``saturating_threshold`` and the
baselines' tail shave, the per-level feasible ranges
(one vector step for a block of prefixes), the enumeration itself
(one walker shared by the reference generator and ``grid_search``, which
also returns the rounded-up upper bound from the same pass), and the
grid-quality lower-bound formula.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .model import (
    Scenario,
    ThresholdPolicy,
    _energy_probe,
    _law,
    _log_miss_slopes,
    _read_only,
    _tx_energy,
    budget_tolerance,
    class_log_miss,
    class_log_miss_table,
    is_costless,
    threshold_energy,
    threshold_objective,
    within_budget,
)

__all__ = [
    "BudgetExceededError",
    "BudgetUnboundedError",
    "SolveReport",
    "SolveTimeout",
    "boundary_threshold",
    "brute_force_saturating",
    "enumerate_saturating",
    "feasible_range",
    "grid_search",
    "ratio_bound",
    "saturating_threshold",
]

# Slack, in sub-slot units, protecting ceil/floor of solved thresholds from
# float noise at range endpoints.
_SNAP = 1e-9
_RESIDUAL_TOL = 1e-10
# ``_bisect_budget`` evaluates every midpoint until its bracket is at most
# _AIM_WIDTH sub-slots wide, then spends at most _AIM_STEPS evaluations on
# aiming its two certified ends.  Over the 4,314 calls of the seed-601
# table-sweep pool, widths 2, 4, 8, 12, 16, 32 and 64 took 23.46, 22.73,
# 22.08, 21.97, 21.96, 22.44 and 24.63 evaluations a call on average, and
# 40, 39, 39, 39, 48, 48 and 61 at most; the width moves no bit.
_AIM_WIDTH = 12.0
_AIM_STEPS = 6
# A log-miss whose -expm1 reads exactly 1.0 with 2.5 nats to spare (the
# rounding to 1.0 starts near -37.43), far more than the rounding between
# the search's sums and threshold_objective's: once the best log-miss or
# the best rounded-up one falls below it, the reported upper bound can only
# be 1.0, so the prune rule drops its rounded-up half.
_PINNED_LOG_MISS = -40.0
# Rows per chunk of a level step's expansion (whole prefixes, so a chunk may
# run over by one prefix's range); a walk holds about this many rows of
# arrays per level.  A scan of 2^11..2^16 on a 2-core Xeon timed table-sweep's
# 101 three-class instances and the 5-class scalability draw at n = 100:
# 2^13 was fastest on both (0.79 s, 3.6 s at best), 2^12 took 4.5 s on the
# draw.  Each parent prefix keeps its own Newton segment: the size moves no bit.
_LEAF_CHUNK = 8_192


class BudgetExceededError(RuntimeError):
    """The fixed part of a profile already spends more than the budget."""


class BudgetUnboundedError(RuntimeError):
    """Even full transmission cannot exhaust the remaining budget."""


class SolveTimeout(RuntimeError):
    """Enumeration hit the caller-provided wall-clock limit."""


@dataclass
class SolveReport:
    """Outcome of a grid search, with the rounded-up upper bound found in the
    same enumeration pass.  ``pruned`` counts the candidates included in
    ``enumerated`` that a prefix bound ruled out before their closure solve,
    ``evaluated`` the candidates sent to ``class_log_miss``."""

    policy: ThresholdPolicy
    objective: float
    upper_bound: float
    ratio_bound: float
    enumerated: int = 0
    pruned: int = 0
    evaluated: int = 0


# ---------------------------------------------------------------------------
# Saturating-threshold solver
# ---------------------------------------------------------------------------

def _solve_saturating_vec(rem, rho_n: float, g: float, beacon: float, m2, hi: float,
                          starts=(0,)):
    """Vectorised root of  rho_n*(1 - exp(-g h)) + beacon*max(0, h - m2) = rem
    over h in [0, hi].

    Returns an array aligned with ``rem``: NaN marks "budget already
    exceeded" (rem < 0), +inf marks "cannot exhaust" (rem beyond the cost of
    h = hi).  The left side is strictly increasing, so the root is unique;
    beacon-bearing cases use a clamped Newton iteration with a bisection
    fallback.  ``starts`` (sorted start indices, from 0) splits ``rem`` into
    segments, and each segment leaves the Newton loop when its own residuals
    converge, so one call over many segments returns the bits of one call
    per segment.
    """
    rem = np.atleast_1d(np.asarray(rem, dtype=float))
    m2 = np.asarray(m2, dtype=float)
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
    m2c = m2[core] if m2.ndim else m2
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
        idx = np.flatnonzero(needs_newton)
        h = np.minimum(np.where(np.isfinite(sol[idx]), sol[idx], hi), hi)
        mm = m2c[idx] if m2c.ndim else m2c
        h = np.maximum(h, mm)
        rr = r[idx]
        # a row stays live while a residual of its segment has not
        # converged (NaN too)
        seg = np.searchsorted(starts, np.flatnonzero(core)[idx], side="right")
        live = np.arange(idx.size)
        for _ in range(64):
            hl, ml = h[live], mm[live] if mm.ndim else mm
            f = rho_n * -np.expm1(-g * hl) + beacon * (hl - ml) - rr[live]
            fp = rho_n * g * np.exp(-g * hl) + beacon
            step = f / fp
            h[live] = np.clip(hl - step, ml, hi)
            live = live[np.bincount(seg[live], ~(np.abs(f) < tol))[seg[live]] > 0]
            if live.size == 0:
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


def _solve_for(c: int, rem, m2, sc: Scenario, starts=(0,)) -> np.ndarray:
    """Saturating threshold of class c for the remaining budgets ``rem``."""
    cls = sc.classes[c]
    return _solve_saturating_vec(rem, cls.tx_cost * cls.population, sc.rates[c] * sc.eff_slot,
                                 sc.beacon_rate(cls.technology), m2, float(sc.max_threshold),
                                 starts)


def _completion_masses(c2: int, assigned: Mapping, sc: Scenario, fill: float) -> dict:
    """Threshold mass of every class other than c2 in the completion context,
    in class order: ``fill`` for a costly class not yet assigned; an
    assigned entry may be an array of values."""
    masses = {}
    for c in range(len(sc.classes)):
        if c == c2:
            continue
        if c in assigned:
            masses[c] = assigned[c]
        elif is_costless(c, sc):
            masses[c] = float(sc.max_threshold)
        else:
            masses[c] = fill
    return masses


def _remaining(c2: int, masses: dict, sc: Scenario, const):
    """Budget left for class c2 once ``const`` and the beacon energy of the
    other classes (at ``masses``, arrays allowed) are paid, and the beacon
    coverage m2 already paid on c2's own technology."""
    own = m2 = 0.0
    for rate, members in sc.beacons:
        others = [masses[c] for c in members if c != c2]
        if not others:
            continue
        cover = functools.reduce(np.maximum, others)
        if c2 in members:
            own, m2 = rate, cover
        else:
            const = const + rate * cover
    return sc.budget - const - own * m2, m2


def _ends(c: int, fixed: Mapping, sc: Scenario, fills) -> np.ndarray:
    """Saturating thresholds of class c, shape (len(fills), rows): a row per
    prefix row of ``fixed`` (class -> threshold, or an array of one per row)
    for each fill of the costly classes not fixed.  NaN marks a row that
    already overspends, +inf one that cannot exhaust the budget.  Each row
    is its own Newton segment, so it keeps the bits of a one-row call."""
    rem, m2 = np.empty((2, len(fills), max(map(np.size, fixed.values()), default=1)))
    for i, fill in enumerate(fills):
        masses = _completion_masses(c, fixed, sc, fill)
        rem[i], m2[i] = _remaining(c, masses, sc, _tx_energy(masses.items(), sc))
    ends = _solve_for(c, rem.ravel(), m2.ravel(), sc, starts=np.arange(rem.size))
    return ends.reshape(rem.shape)


@functools.lru_cache(maxsize=64)
def _solo_ends(c: int, sc: Scenario) -> np.ndarray:
    """``_ends(c, {}, sc, (0.0, max_threshold))``, read-only: class c's end
    with every other costly class silent (row 0) and with them all full
    (row 1).  The first level of every walk, the zero-level walk and
    greedy's certificates all read it, so a scenario solves it once per
    class; each row is its own Newton segment either way."""
    return _read_only(_ends(c, {}, sc, (0.0, float(sc.max_threshold))))


def boundary_threshold(c2: int, assigned: Mapping, sc: Scenario) -> float:
    """Threshold for class c2 that spends the budget exactly, given the
    classes fixed in ``assigned`` (class -> threshold), with the costly
    classes not in it silent: the one-row silent end of ``_ends``.

    Raises BudgetExceededError when the fixed classes alone overspend, and
    BudgetUnboundedError when even h = subslots - 1 cannot exhaust the budget.
    """
    sol = float(_ends(c2, assigned, sc, (0.0,))[0, 0])
    if math.isnan(sol):
        raise BudgetExceededError(
            f"fixed classes already spend more than the budget (class {c2})")
    if math.isinf(sol):
        raise BudgetUnboundedError(
            f"class {c2} cannot exhaust the remaining budget even at full transmission")
    return sol


def _energy_margin(sc: Scenario, expanded: bool = False) -> float:
    """Twice a bound on the rounding error of an energy ``_bisect_budget``
    reads: the probe's (``model._energy_probe``) or, ``expanded``, an
    expanded policy's (``energy_spent``).  u = 2**-53 below.

    Both sum q transmission terms w_c (1 - e^{-lam_c dt m_c}), w_c =
    tx_cost pop, and a beacon term rate_b S_b per radio of ``sc.beacons``
    (span S_b <= n, k_b members), all nonnegative and nondecreasing in the
    threshold moved, so the exact energy is nondecreasing.  As |y| <=
    e^|y| - 1, a relative error in y moves 1 - e^y by no more: -lam dt m
    adds u, expm1 (1 ulp) 2u, the weight u.  A span m + 1 - prod(1 - a_i)
    errs by 2k u + u n, the rate by u n more, and each of the q + B
    additions by u times a partial sum: within (q + B + 4) u X, X = sum w_c
    + sum rate_b (n + 2 k_b).  Expanded, masses and spans are numpy pairwise
    sums of ones and one tail (a tail alone is exact), rounding at most
    L + 25 times, L = log2 n, by u (j + 1) each: 2 (L + 25) u relative on a
    mass, (L + 25) u n plus the tail's (2k + 1) u on a span, so 2L + 56 for
    the 4, X's spans at n + 2 k_b + 1.  Four more cover second-order terms.
    """
    n = sc.subslots
    scale = sum(cls.tx_cost * cls.population for cls in sc.classes)
    scale += sum(rate * (n + 2 * len(members) + expanded) for rate, members in sc.beacons)
    count = len(sc.classes) + len(sc.beacons) + (2 * math.log2(n) + 60 if expanded else 8)
    return 2.0 * count * 2.0 ** -53 * scale


def _bisect_budget(energy_at, lo: float, hi: float, budget: float, margin: float,
                   energies: tuple[float, float]) -> float:
    """Bisect [lo, hi] for the point where the nondecreasing energy_at
    crosses the budget; returns the last point found within it.
    ``energies`` are the energies at lo and hi.

    The loop stops at the first step that leaves the bracket unchanged:
    every later step would repeat it, so the 200-step cap only bounds it.
    Each evaluation may move the certified ends: a, the largest point read
    below budget - margin, and b, the smallest read above budget + margin.
    ``margin`` is at least twice a bound d on the energy's rounding error,
    so up to a every evaluation reads within budget and beyond b every one
    reads over it: a midpoint outside (a, b) takes, unevaluated, the branch
    its evaluation would, and the same point comes back.  Until hi - lo is
    at most ``_AIM_WIDTH``, a <= lo and b >= hi, so every midpoint is
    evaluated; then points are aimed at budget - 2 margin until a lies
    within 8 margins of the budget, then at budget + 2 margin for b, along
    the secant of the last two points, the first through lo and hi.  Where
    the energy is flat no aim certifies, and the bisection evaluates more.
    """
    ends = [-math.inf, math.inf]    # a, b
    gaps = [-math.inf, math.inf]    # energy - budget at a and at b

    def take(x: float, f: float) -> float:
        if f < -margin and x > ends[0]:
            ends[0], gaps[0] = x, f
        elif f > margin and x < ends[1]:
            ends[1], gaps[1] = x, f
        return f

    f_lo, f_hi = take(lo, energies[0] - budget), take(hi, energies[1] - budget)
    aims = _AIM_STEPS
    for _ in range(200):
        if aims and hi - lo <= _AIM_WIDTH:
            xp, fp, xq, fq = lo, f_lo, hi, f_hi
            for _ in range(aims if fp < 0.0 < fq else 0):
                aim = -2.0 if gaps[0] < -8.0 * margin else 2.0 if gaps[1] > 8.0 * margin else 0.0
                slope = (fq - fp) / (xq - xp)
                if aim == 0.0 or not slope > 0.0:
                    break
                x = xq + (aim * margin - fq) / slope
                if not lo < x < hi or x == xq:
                    break
                xp, fp, xq, fq = xq, fq, x, take(x, energy_at(x) - budget)
            aims = 0
        mid = 0.5 * (lo + hi)
        f = gaps[0] if mid <= ends[0] else gaps[1] if mid >= ends[1] else \
            take(mid, energy_at(mid) - budget)
        if f > 0.0:
            if mid == hi:
                break
            hi, f_hi = mid, f
        else:
            if mid == lo:
                break
            lo, f_lo = mid, f
    return lo


def saturating_threshold(c: int, thresholds, sc: Scenario) -> float:
    """Largest threshold for class c that keeps the profile within budget,
    with every other class pinned at its (possibly fractional) threshold.

    Clamps instead of raising: returns 0 when nothing is affordable and
    subslots - 1 when even full transmission stays under budget.  Solved by
    ``_bisect_budget`` on the exact threshold energy, so it is valid for any
    mix of fractional thresholds and shared technologies; the bisection
    skips the midpoints that its certified ends already decide, and returns
    the bits of one that evaluates them all.  The energy comes
    from ``model._energy_probe``, which computes the other classes' terms
    once.  Where the energy at 0 may lie within the margin of the budget,
    an energy at ``_SNAP`` certified over it returns 0 unbisected, as the
    bisection would end below ``_SNAP``.
    """
    hi = float(sc.max_threshold)
    tol = budget_tolerance(sc.budget)
    energy_at = _energy_probe(c, thresholds, sc)
    e_lo = energy_at(0.0)
    if e_lo > sc.budget + tol:
        return 0.0
    e_hi = energy_at(hi)
    if e_hi <= sc.budget + tol:
        return hi
    margin = _energy_margin(sc)
    if e_lo >= sc.budget - margin and energy_at(_SNAP) > sc.budget + margin:
        return 0.0
    h = _bisect_budget(energy_at, 0.0, hi, sc.budget, margin, (e_lo, e_hi))
    return 0.0 if h < _SNAP else h


def _ranges(c: int, fixed: Mapping, sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Integer thresholds of class c that admit a budget-saturating
    completion, as closed ranges (lo, hi), one per prefix row of ``fixed``:
    the floor of ``_ends``' silent end (every class not fixed silent, the
    fractional one included) and the ceiling of its full end.  A row whose
    silent end overspends (NaN) or whose full end cannot exhaust the budget
    (inf) is (0, -1)."""
    silent, full = _ends(c, fixed, sc, (0.0, float(sc.max_threshold))) if fixed else \
        _solo_ends(c, sc)
    hi = np.minimum(sc.max_threshold, np.floor(silent + _SNAP))
    lo = np.fmax(0.0, np.ceil(full - _SNAP))
    void = np.isnan(hi) | np.isinf(lo)
    return np.where(void, 0, lo).astype(int), np.where(void, -1, hi).astype(int)


def feasible_range(c2: int, assigned: Mapping, sc: Scenario) -> tuple[int, int]:
    """The one-row call of ``_ranges``: the closed range (lo, hi) of integer
    thresholds for c2 that admit a budget-saturating completion of
    ``assigned``, empty (lo > hi) when none does."""
    lo, hi = _ranges(c2, assigned, sc)
    return int(lo[0]), int(hi[0])


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _costly_classes(sc: Scenario) -> list[int]:
    return [c for c in range(len(sc.classes)) if not is_costless(c, sc)]


def _lower_hull(e: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices, by increasing energy, of the decreasing part of the lower
    convex hull of the points (e, t): the points below every point of no
    more energy, then repeated passes that drop every vertex lying on or
    above the segment joining its neighbours."""
    order = np.lexsort((t, e))
    e, t = e[order], t[order]
    front = t < np.minimum.accumulate(np.append(np.inf, t[:-1]))
    e, t = e[front], t[front]
    while e.size > 2:
        drop = (t[1:-1] - t[:-2]) * (e[2:] - e[1:-1]) >= (t[2:] - t[1:-1]) * (e[1:-1] - e[:-2])
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        e, t = e[keep], t[keep]
    return e, t


def _convolve(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the infimal convolution of two hulls from
    ``_lower_hull``: their segments merged by slope, each vertex the sum of
    one vertex of each hull (one rounding per coordinate).  A vertex whose
    energy rounds onto the next one's is dropped, which only lowers the
    curve."""
    (ea, ta), (eb, tb) = a, b
    slopes = np.concatenate((np.diff(ta) / np.diff(ea), np.diff(tb) / np.diff(eb)))
    from_a = np.arange(slopes.size) < ea.size - 1
    ia = np.concatenate(([0], np.cumsum(from_a[np.argsort(slopes, kind="stable")])))
    ib = np.arange(ia.size) - ia
    e, t = ea[ia] + eb[ib], ta[ia] + tb[ib]
    keep = np.append(e[:-1] < e[1:], True)
    return e[keep], t[keep]


def _hull_at(hull, e: np.ndarray) -> np.ndarray:
    """The convolution at energies e: +inf below its first vertex (no
    profile of the two classes spends less), flat past its last."""
    he, ht = hull
    return np.where(e < he[0], np.inf, np.interp(e, he, ht))


class _HullBound:
    """Lagrangian lower bounds for the candidates below each last-level
    prefix of one fractional class, and the rule that rules a prefix out.

    The candidates of a prefix differ only in the last level's class c and
    the fractional class f.  Their remaining log-miss is at least
    min T_c(h_c) + T_f(h_f) subject to E_c(h_c) + E_f(h_f) <= e, e the
    budget left by the prefix, and weak duality bounds that from below by
    the infimal convolution at e of the two classes' convex minorants: the
    exact dual over every multiplier, with no multiplier grid.  ``hull``
    holds that convolution for the log-miss, ``hull_up`` for the rounded-up
    log-miss; ``grid_search`` describes the point sets, the energies charged
    and the margins.  ``best`` is the search's running state, read live.
    """

    def __init__(self, sc: Scenario, prefix: list[int], hull, hull_up, snap: float,
                 margins: tuple[float, float], tables: list[np.ndarray], pinned: float,
                 slack: float, best: "_Best"):
        self.prefix, self.hull, self.hull_up, self.snap = prefix, hull, hull_up, snap
        self.margin, self.margin_up = margins
        self.n1, self.tables, self.pinned, self.slack, self.best = (
            sc.max_threshold, tables, pinned, slack, best)
        self.charges = [(rate, fixed) for rate, members in sc.beacons
                        if (fixed := [k for k in members if k in prefix])]
        self.room = sc.budget + budget_tolerance(sc.budget) + slack
        self.pruned = 0

    def bounds(self, fixed: dict[int, np.ndarray], row_tx) -> tuple[np.ndarray, np.ndarray]:
        """Lower bounds on the log-miss and on the rounded-up log-miss of
        every candidate below each prefix row of ``fixed``, whose
        transmission energy is ``row_tx``."""
        known = known_up = self.pinned
        for k in self.prefix:
            known = known + self.tables[k][fixed[k]]
            known_up = known_up + self.tables[k][np.minimum(fixed[k] + 1, self.n1)]
        spent = row_tx
        for rate, members in self.charges:
            spent = spent + rate * functools.reduce(np.maximum, [fixed[k] for k in members])
        g, g_up = self.at(self.room - spent)
        return known + g, known_up + g_up

    def at(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower bounds on the log-miss and on the rounded-up log-miss that
        the two remaining classes reach within energies e."""
        return _hull_at(self.hull, e), _hull_at(self.hull_up, e + self.snap)

    def rules_out(self, bound: np.ndarray, bound_up: np.ndarray) -> np.ndarray:
        """Rows whose candidates can neither match the best log-miss nor
        lower the rounded-up one, against the live incumbents; only the
        first half once the upper bound is pinned at 1.0."""
        best = self.best
        out = bound - self.margin > min(best.incumbent, best.log_miss)
        if min(best.log_miss, best.ub_log_miss) < _PINNED_LOG_MISS:
            return out
        return out & (bound_up - self.margin_up > best.ub_log_miss)


def _hull_bounds(sc: Scenario, tables: list[np.ndarray], pinned: float, full_energy: float,
                 best: "_Best") -> dict[int, _HullBound]:
    """One ``_HullBound`` per fractional class when every walk has two or
    more levels (three or more costly classes), else none.  ``slack`` bounds
    the rounding of every energy involved, at most
    (q + 8) 2**-46 (budget + 2 E_full + 1) for q classes.

    The last level's class and the fractional class are never in the
    prefix, so a class's energies, and each of its hulls (integer points as
    the last level, tangent ends as the fractional class, rounded-up table
    in either role), are the same in every walk and are built once."""
    costly = _costly_classes(sc)
    if len(costly) < 3:
        return {}
    slack = 2.0 ** -46 * (len(sc.classes) + 8) * (sc.budget + 2.0 * full_energy + 1.0)
    # a class alone on a beaconing radio pays rate * h for its own coverage
    own = {members[0]: rate for rate, members in sc.beacons if len(members) == 1}
    h = np.arange(sc.subslots)
    energy = {k: _tx_energy([(k, h)], sc) + own.get(k, 0.0) * h for k in costly}
    slopes = {k: _log_miss_slopes(k, sc) for k in costly}

    @functools.cache
    def lower_hull(k: int, kind: str):
        e, t, d = energy[k], tables[k], slopes[k]
        if kind == "tangent":
            return _lower_hull(np.append(e, e[1:]), np.append(t, t[:-1] + d[:-1]))
        return _lower_hull(e, t if kind == "integer" else np.append(t[1:], t[-1]))

    big = sum(abs(t[-1]) for t in tables)
    rounding = (len(tables) + 64) * 2.0 ** -53
    out = {}
    for f in costly:
        levels = [c for c in costly if c != f]
        c, cls = levels[-1], sc.classes[f]
        snap = _SNAP * (cls.tx_cost * cls.population * sc.rates[f] * sc.eff_slot
                        + own.get(f, 0.0))
        margin = _prune_margin(f, sc, tables) + rounding * (big + np.abs(slopes[f]).max())
        out[f] = _HullBound(sc, levels[:-1],
                            _convolve(lower_hull(c, "integer"), lower_hull(f, "tangent")),
                            _convolve(lower_hull(c, "up"), lower_hull(f, "up")),
                            snap, (margin, rounding * big), tables, pinned, slack, best)
    return out


def _leaf_batches(sc: Scenario, frac_c: int, hull: _HullBound | None = None
                  ) -> Iterator[tuple[list[int], list[np.ndarray], np.ndarray]]:
    """The enumeration walker: yields (levels, vals, r) batches covering every
    candidate with fractional class ``frac_c``.

    ``levels`` are the costly classes other than ``frac_c`` in ascending
    order, and ``vals`` holds one integer array per level, aligned with the
    fractional thresholds ``r`` (unsaturable entries dropped).  Each level is
    one step over a block of prefixes: one ``_ranges`` call for the block,
    then its expansion in chunks of whole prefixes, about ``_LEAF_CHUNK``
    rows each.  Above the last level a chunk is the next level's block and
    is first yielded empty, so a consumer's deadline check runs once per
    chunk at every level; after the last level each chunk is closed by one
    fractional solve with one Newton segment per parent prefix, the
    segmentation of the scalar walk, so every value keeps its bits whatever
    the order and grouping of the prefixes, and ``_LEAF_CHUNK`` moves none.
    A suspended level drops the chunk's index arrays before the level below
    runs, so a walk holds about ``_LEAF_CHUNK`` rows of arrays per level.

    With a ``hull`` (``grid_search`` only), the last level's step bounds
    every prefix row of its block, sorts the rows by bound and, before each
    chunk, drops the rows that ``hull.rules_out`` against the live
    incumbents, adding their hi - lo + 1 candidates to ``hull.pruned``
    unclosed.  A range can keep a leaf within _SNAP of its end whose
    closure overspends, so that count is checked: a row is dropped only
    when its two range ends still close with the remaining budget moved by
    ``hull.slack`` towards each end's failure (the overspent end at hi, the
    unexhaustible one at lo).  The remaining budget and its excess over
    what full transmission of the fractional class spends both fall with
    the leaf threshold in exact arithmetic, and ``hull.slack`` exceeds four
    times their rounding, so every threshold between the ends closes too.
    The first chunk of such a block is its best surviving row alone, so the
    incumbents it yields rule on the rest.
    """
    levels = [c for c in _costly_classes(sc) if c != frac_c]
    no_vals = [np.empty(0, int)] * len(levels)

    def closure(fixed: dict[int, np.ndarray], v: np.ndarray, row_tx):
        """Remaining budget and beacon coverage of the fractional class for
        prefixes ``fixed`` with the last level at ``v``."""
        c = levels[-1]
        cls = sc.classes[c]
        const = row_tx + cls.tx_cost * cls.population * -np.expm1(-sc.rates[c] * sc.eff_slot * v)
        return _remaining(frac_c, _completion_masses(frac_c, {**fixed, c: v}, sc, 0.0), sc,
                          const)

    def step(fixed: dict[int, np.ndarray]):
        c = levels[len(fixed)]
        lo, hi = _ranges(c, fixed, sc)
        rows = np.flatnonzero(lo <= hi)
        fixed = {k: v[rows] for k, v in fixed.items()}
        lo, hi = lo[rows], hi[rows]
        count = hi - lo + 1
        order = np.arange(rows.size)
        last = len(fixed) == len(levels) - 1
        prune = last and hull is not None and rows.size > 0
        if last:
            # the closure's transmission energy with the leaf at mass 0
            # (adding exactly +0.0), once per parent prefix
            row_tx = np.broadcast_to(
                _tx_energy(_completion_masses(frac_c, fixed, sc, 0.0).items(), sc), rows.shape)
        if prune:
            bound, bound_up = hull.bounds(fixed, row_tx)
            order = np.argsort(bound, kind="stable")
            both = {k: np.tile(v, 2) for k, v in fixed.items()}
            rem, m2 = closure(both, np.concatenate((lo, hi)), np.tile(row_tx, 2))
            nudge = np.repeat([hull.slack, -hull.slack], rows.size)
            countable = np.isfinite(_solve_for(frac_c, rem + nudge, m2, sc)).reshape(2, -1)
            countable = countable.all(axis=0)
            del both, rem, m2, nudge
        total = np.cumsum(count[order])
        a = 0
        while a < order.size:
            if prune:
                rest = order[a:]
                cut = countable[rest] & hull.rules_out(bound[rest], bound_up[rest])
                if cut.any():
                    hull.pruned += int(count[rest[cut]].sum())
                    order = np.concatenate((order[:a], rest[~cut]))
                    total = np.cumsum(count[order])
                    if a == order.size:
                        break
            before = total[a] - count[order[a]]
            b = a + 1 if prune and a == 0 else max(
                a + 1, int(np.searchsorted(total, before + _LEAF_CHUNK, "right")))
            sel = order[a:b]
            local = np.repeat(np.arange(b - a), count[sel])
            seg = sel[local]
            starts = total[a:b] - count[sel] - before
            child = {k: v[seg] for k, v in fixed.items()}
            child[c] = lo[seg] + np.arange(seg.size) - starts[local]
            if last:
                r = _solve_for(frac_c, *closure(child, child[c], row_tx[seg]), sc, starts=starts)
                ok = np.isfinite(r)
                yield levels, [child[k][ok] for k in levels], r[ok]
            else:
                del sel, local, seg, starts
                yield levels, no_vals, np.empty(0)
                yield from step(child)
            a = b

    if levels:
        yield from step({})
    else:
        r = _solo_ends(frac_c, sc)[0]
        yield levels, no_vals, r[np.isfinite(r)]


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
    for levels, vals, r in _leaf_batches(sc, fractional_class):
        for i in range(r.size):
            yield {c: int(v[i]) for c, v in zip(levels, vals)}, float(r[i])


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
    """Running state of a grid search in log-miss space: the best evaluated
    candidate (ties break lexicographically), the smallest chord
    (``incumbent``) and the smallest rounded-up log-miss."""

    def __init__(self):
        self.log_miss = self.incumbent = self.ub_log_miss = math.inf
        self.thresholds: tuple[float, ...] | None = None

    def offer(self, log_miss: float, thresholds: tuple[float, ...]):
        if log_miss < self.log_miss or (
                log_miss == self.log_miss
                and (self.thresholds is None or thresholds < self.thresholds)):
            self.log_miss = log_miss
            self.thresholds = thresholds


def _full_profile(sc: Scenario, frac_c: int, fixed: dict[int, int],
                  r: float) -> tuple[float, ...]:
    return tuple(float(r) if c == frac_c else float(fixed[c]) if c in fixed
                 else float(sc.max_threshold) if is_costless(c, sc) else 0.0
                 for c in range(len(sc.classes)))


def _prune_margin(c: int, sc: Scenario, tables: list[np.ndarray]) -> float:
    """How far a class-c candidate's rounded tangent bound may exceed the
    incumbent before the candidate is ruled out; u = 2**-53 below.

    Each term log1p(-y), y = g p_k, of class_log_miss has a relative error of
    at most (8 + 11 E) u, E = expm1(x)/x with x = lam dt: y carries 11u (the
    window mass, its product with x, expm1 within 4 ulp, the product with
    g), amplified by y / ((1 - y) |log(1 - y)|) <= E since y <= g, and
    log1p adds 8u.  The terms share one sign, so numpy's pairwise sum of n
    of them adds at most (32 + log2 n) u relative and the population factor
    u more.  Every table entry and exact evaluation is thus within
    e = (48 + log2 n + 11 E) u |T[n-1]| of the true log-miss, |T[n-1]| being
    the largest magnitude (the log-miss falls with the threshold).  The
    slope table sums phi terms of total magnitude at most 2x, so it errs by
    at most d = (32 ttl + 96) e^x u pop x, with ttl = n for every TTL that
    keeps every copy, as those share one slope table (``_Law.margins``
    holds the class factors of e and d).  A candidate's tangent then lies
    at most 2e + d above its evaluation, the incumbent (a chord or an
    evaluation) at most 2e below the evaluation it bounds, and the other
    roundings of partial sums stay below 16 u S, S the summed |T_c[n-1]|.
    Pruning only beyond 4e + d + 16 u S keeps every candidate whose
    evaluation could match the best one, ties included.  Past x = 709 the
    bound is infinite.
    """
    law = _law(c, sc)
    rel_e, rel_d, _ = law.margins
    if math.isinf(rel_e):   # e^x overflows: no finite bound, so nothing is pruned
        return math.inf
    e = rel_e * abs(tables[c][-1])
    d = rel_d * sc.classes[c].population * -law.x
    return 4 * e + d + 16 * 2.0 ** -53 * sum(abs(t[-1]) for t in tables)


def _tail_bracket(c: int, sc: Scenario, tables: list[np.ndarray]):
    """For a class whose TTL keeps every copy to the end (ttl >= n - 1):
    (value, mb), value(r, j) = pop (P[j] + (n - j) t(r)) the closed form
    of class_log_miss(c, r) at r = j + a, and mb a bound on how far a
    known sum plus it may lie from that known sum plus the evaluation;
    u = 2**-53 below.

    Every window then holds min(k + 1, r) (``_Law.tail``): t is the
    per-relay term, the same ufuncs on the same operands as the evaluation,
    and P[j] its sequential cumsum over 1..j.  The terms share one sign, so
    the cumsum errs by at most (j - 1) u times their summed magnitude, the
    product and the sum by 2u more, and the evaluation's pairwise sum by
    (32 + log2 n) u; each side adds u for the population factor.  That
    summed magnitude times pop is at most |T[n - 1]| (the log-miss falls
    with the threshold), and adding the same known sum rounds each side
    once more, by at most u S, S the summed |T_c[n - 1]|.  So
    mb = (n + log2 n + 40) u |T[n - 1]| + 4 u S covers it, with the rest
    left for second-order terms (``_Law.margins`` holds its class factor).
    """
    law, pop = _law(c, sc), sc.classes[c].population
    mb = law.margins[2] * abs(tables[c][-1]) + 4 * 2.0 ** -53 * sum(abs(t[-1]) for t in tables)

    def value(r: np.ndarray, j: np.ndarray) -> np.ndarray:
        return pop * law.tail(r, j)

    return value, mb


def grid_search(sc: Scenario, *, timeout_s: float | None = None) -> SolveReport:
    """Best budget-saturating threshold profile with at most one fractional
    threshold (or the all-full profile when the budget allows it).

    Enumerates every fractional-class choice; integer levels are walked in
    ascending class order, each as one vector step over a block of prefixes.
    The log-miss is convex in the fractional tail, so every candidate lies
    between a tangent and a chord of the cached per-class log-miss table;
    the smallest chord is an incumbent, and only candidates whose tangent
    reaches it (within a rounding margin) are evaluated exactly, which
    leaves the result identical to exhaustive evaluation.  Ties break toward
    the lexicographically smallest threshold vector.  The same pass yields
    the upper bound: every enumerated threshold rounded up to the next
    integer sub-slot, best objective regardless of the (violated) budget.

    When the fractional class keeps every copy to the end (TTL >= n - 1),
    a second bracket narrows the tangent's survivors: ``_tail_bracket``'s
    closed form v lies within mb of the evaluation, so v + mb joins the
    incumbent and only candidates with v - mb - margin <= min(incumbent,
    best) are evaluated, margin the tangent test's ``_prune_margin``, which
    covers a chord incumbent sitting below the evaluation it bounds.
    ``SolveReport.evaluated`` counts the candidates evaluated exactly.

    With three or more costly classes, whole last-level prefixes are ruled
    out before their closure solve (branch and bound; ``_HullBound``).  A
    prefix leaves e = budget + tolerance - E(prefix) to the last level's
    class c and the fractional class f, and its candidates' log-miss is at
    least known(prefix) + G(e), G the infimal convolution of two lower
    convex hulls (decreasing parts only, read with ``np.interp``, +inf below
    energy 0):

    * class c: the points (E_c(h), T_c(h)) of its integer thresholds;
    * class f: (E_f(j), T_f(j)) and the tangent end (E_f(j + 1),
      T_f(j) + D(j)), D from ``_log_miss_slopes``.  On [j, j + 1] the
      log-miss lies above the tangent and E_f, concave there, above its
      chord, so the segment between them bounds every candidate j + a.

    Energies are transmission energy plus beacons as far as they are
    certain: a radio with one class adds rate * h to that class; a radio
    with a prefix member costs at least rate * max(prefix members), charged
    to E(prefix), and its other members nothing; a radio shared by c and f
    alone is charged nothing.  The rounded-up bound takes the same hulls
    over T_c(min(h + 1, n - 1)) and T_f(min(j + 1, n - 1)) at E_f(j); a
    candidate whose tail lies within _SNAP of the next sub-slot rounds up
    one sub-slot further, with at most _SNAP * max E_f' less energy, so
    that hull is read at e + _SNAP * (tx_cost pop lam dt + own beacon rate).

    A prefix is ruled out only when bound - margin > min(incumbent, best)
    and bound_up - margin_up > the smallest rounded-up log-miss, both live;
    its candidates then could neither be evaluated by the tangent test, nor
    win, nor lower the upper bound, and they still count in ``enumerated``
    (``SolveReport.pruned`` counts them too).  margin is ``_prune_margin``
    plus (q + 64) u (S + max |D|) and margin_up is (q + 64) u S, u = 2**-53,
    q the class count and S the summed |T_c(n - 1)|: the rounding of the
    hull vertices (one addition each), of the tangent ends, of the vertex
    test and of ``np.interp``, and of the partial sums on both sides.  The
    energy rounding (at most 2**-46 (q + 8) (budget + 2 E_full + 1) across
    the prefix energy, the hull energies and the closure's residual) is
    added to e itself, which moves the bound by the local slope times it
    and keeps +inf for prefixes that truly leave nothing.  Rows are
    expanded in order of bound, the best one alone first, and every walk's
    first batch (its best-bound prefix) is consumed before any walk goes
    on, so the incumbents of all fractional classes rule from the start.
    Each parent prefix keeps its own Newton segment, so the order moves no
    bit.  Once the best log-miss or the smallest rounded-up one is below
    ``_PINNED_LOG_MISS``, the upper bound reads 1.0 whatever follows, and
    the first test alone rules a prefix out.
    """
    t0 = time.perf_counter()
    n1 = sc.max_threshold
    n_classes = len(sc.classes)
    deadline = None if timeout_s is None else t0 + timeout_s
    rb = ratio_bound(sc.slots, sc.resolution, n_classes)

    full = tuple(float(n1) for _ in range(n_classes))
    full_energy = threshold_energy(full, sc)
    if within_budget(full_energy, sc):
        obj = threshold_objective(full, sc)
        return SolveReport(ThresholdPolicy(full), obj, upper_bound=obj,
                           ratio_bound=rb, enumerated=1)

    def check_deadline():
        if deadline is not None and time.perf_counter() > deadline:
            raise SolveTimeout(f"grid search exceeded {timeout_s:g} s")

    tables = []
    for c in range(n_classes):
        tables.append(class_log_miss_table(c, sc))
        check_deadline()
    # the classes outside the enumeration are the costless ones, pinned full
    pinned = sum(tables[c][n1] for c in range(n_classes) if is_costless(c, sc))
    # T[j + 1]; j = n - 1 only with a = 0
    tables_next = [np.append(t[1:], t[-1]) for t in tables]
    best = _Best()
    enumerated = evaluated = 0
    costly = _costly_classes(sc)
    hulls = _hull_bounds(sc, tables, pinned, full_energy, best)

    def batches(frac_c: int):
        """The walker's non-empty batches, under the deadline."""
        for batch in _leaf_batches(sc, frac_c, hulls.get(frac_c)):
            check_deadline()
            if batch[2].size:
                yield batch

    slopes = {f: _log_miss_slopes(f, sc) for f in costly}
    margins = {f: _prune_margin(f, sc, tables) for f in costly}
    brackets = {f: _tail_bracket(f, sc, tables) for f in costly
                if sc.classes[f].ttl_slots >= n1}

    def consume(frac_c: int, levels, vals, r):
        nonlocal enumerated, evaluated
        enumerated += r.size
        table, following = tables[frac_c], tables_next[frac_c]
        known = known_up = np.full(r.shape, pinned)
        for c, h in zip(levels, vals):
            known = known + tables[c][h]
            known_up = known_up + tables[c][np.minimum(h + 1, n1)]
        up_r = np.minimum(np.floor(r + _SNAP).astype(int) + 1, n1)
        best.ub_log_miss = min(best.ub_log_miss, (known_up + table[up_r]).min())
        j = r.astype(int)
        alpha = r - j
        chord = known + ((1.0 - alpha) * table[j] + alpha * following[j])
        best.incumbent = min(best.incumbent, chord.min())
        tangent = known + (table[j] + alpha * slopes[frac_c][j])
        keep = np.flatnonzero(tangent - margins[frac_c] <= min(best.incumbent, best.log_miss))
        if keep.size and frac_c in brackets:
            # v within mb of the evaluation; the incumbent may still be a
            # chord, up to the tangent test's allowance below its evaluation
            value, mb = brackets[frac_c]
            v = known[keep] + value(r[keep], j[keep])
            best.incumbent = min(best.incumbent, (v + mb).min())
            keep = keep[v - (mb + margins[frac_c]) <= min(best.incumbent, best.log_miss)]
        if keep.size == 0:
            return
        evaluated += keep.size
        exact = known[keep] + class_log_miss(frac_c, r[keep], sc)
        for idx in np.argsort(exact, kind="stable"):
            val = float(exact[idx])
            if val > best.log_miss:
                break
            i = keep[idx]
            fixed = {c: int(v[i]) for c, v in zip(levels, vals)}
            best.offer(val, _full_profile(sc, frac_c, fixed, r[i]))

    walks = {f: batches(f) for f in costly}
    for frac_c in hulls:   # every walk's best-bound prefix first
        batch = next(walks[frac_c], None)
        if batch is not None:
            consume(frac_c, *batch)
    for frac_c, walk in walks.items():
        for batch in walk:
            consume(frac_c, *batch)

    pruned = sum(hull.pruned for hull in hulls.values())
    thresholds = best.thresholds
    if thresholds is None:
        # nothing saturates (e.g. zero budget with no enumerable candidate)
        thresholds = tuple(float(n1) if is_costless(c, sc) else 0.0 for c in range(n_classes))
    objective = threshold_objective(thresholds, sc)
    ub_log_miss = best.ub_log_miss
    ub = objective if math.isinf(ub_log_miss) else max(-math.expm1(ub_log_miss), objective)
    return SolveReport(ThresholdPolicy(thresholds), objective, upper_bound=ub, ratio_bound=rb,
                       enumerated=enumerated + pruned, pruned=pruned, evaluated=evaluated)


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
    e = float(k_slots - 1) * resolution   # exact below 2**53, inf rather than an overflow
    if e == 0:
        return 0.0 if math.isinf(n_classes) else 1.0 / n_classes
    num = -math.expm1(e * math.log(0.5))
    if math.isinf(n_classes):
        return num
    den = -math.expm1(n_classes * e * math.log(0.5))
    return num / den
