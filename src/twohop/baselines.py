"""Benchmark heuristics: budget-greedy by arrival rate, and a single
class-independent threshold solved by Newton's method."""

from __future__ import annotations

import math

from .model import (
    Scenario,
    ThresholdPolicy,
    _tx_energy,
    budget_tolerance,
    energy_spent,
    expand_threshold,
)
from .gridsearch import _bisect_budget, _energy_margin, saturating_threshold

__all__ = ["arrival_rate_greedy", "class_independent", "uniform_policy"]


def arrival_rate_greedy(sc: Scenario) -> ThresholdPolicy:
    """Hand the whole budget to the classes in descending contact-rate order.

    Each class in turn receives the largest affordable threshold given the
    classes already served (later classes still silent); the budget is spent
    exactly unless every class reaches full transmission.  Rate ties break on
    the class index.
    """
    thresholds = [0.0 if c in sc.costly else float(sc.max_threshold)
                  for c in range(len(sc.classes))]
    order = sorted(sc.costly, key=lambda c: (-sc.rates[c], c))
    for c in order:
        thresholds[c] = saturating_threshold(c, thresholds, sc)
    return ThresholdPolicy(tuple(thresholds))


def _uniform_energy(h: float, sc: Scenario) -> float:
    """Budget draw of the common threshold h when the source either transmits
    to all classes in a slot or stays silent: the fractional tail multiplies
    each technology's beacon share linearly."""
    total = _tx_energy(enumerate([h] * len(sc.classes)), sc)
    for rate, _ in sc.beacons:
        total += rate * h
    return total


def class_independent(sc: Scenario) -> float:
    """Common threshold (same for every class) that spends the budget exactly.

    The saturation residual is strictly decreasing in h, so Newton iterations
    from zero converge quadratically; a bisection safeguard keeps iterates in
    [0, subslots - 1].  The returned threshold is clamped when even full
    transmission stays within budget, and trimmed by ``_bisect_budget`` on
    the evaluated energy when the evaluated policy's overlapping fractional
    tails would overshoot the budget.
    """
    n1 = float(sc.max_threshold)
    tol = budget_tolerance(sc.budget)
    if sc.budget == 0.0 or _uniform_energy(0.0, sc) >= sc.budget:
        return 0.0
    if _uniform_energy(n1, sc) <= sc.budget + tol:
        h = n1
    else:
        lo, hi = 0.0, n1
        h = 0.0
        for _ in range(100):
            res = _uniform_energy(h, sc) - sc.budget
            if abs(res) < 1e-12:
                break
            dt = sc.eff_slot
            deriv = sum(cls.tx_cost * cls.population * sc.rates[c] * dt
                        * math.exp(-sc.rates[c] * dt * h)
                        for c, cls in enumerate(sc.classes))
            deriv += sum(rate for rate, _ in sc.beacons)
            if res > 0.0:
                hi = h
            else:
                lo = h
            step = h - res / deriv if deriv > 0.0 else None
            h = step if step is not None and lo < step < hi else 0.5 * (lo + hi)

    # the per-class energy accounting charges overlapping fractional tails
    # once per class; shave the tail if that overshoots the budget
    def energy_at(mid: float) -> float:
        return energy_spent(expand_threshold(uniform_policy(sc, mid), sc), sc)

    e_h = energy_at(h)
    if e_h > sc.budget + tol:
        lo = math.floor(h)
        h = _bisect_budget(energy_at, lo, h, sc.budget, _energy_margin(sc, True),
                           (energy_at(lo), e_h))
    return float(h)


def uniform_policy(sc: Scenario, h: float) -> ThresholdPolicy:
    """Threshold policy applying the same threshold to every class."""
    return ThresholdPolicy(tuple(float(h) for _ in sc.classes))
