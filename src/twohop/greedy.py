"""Greedy construction of integer threshold policies.

The delivery objective, viewed as a set function over (class, sub-slot)
transmission pairs, is monotone and submodular: the gain of one extra
sub-slot shrinks as the policy grows.  Awarding sub-slots greedily therefore
carries the classic multiplicative guarantees; two award rules are provided,
the raw delivery gain and the gain normalised by the marginal energy cost
(the latter only meaningful without beaconing costs, whose slot cost is not
independent per class).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import (
    Scenario,
    ThresholdPolicy,
    budget_tolerance,
    class_log_miss,
    class_log_miss_table,
    threshold_energy,
    threshold_objective,
)
from .gridsearch import (
    _SNAP,
    _solo_ends,
    boundary_threshold,   # not called here; perfbench/tracing.py wraps greedy.boundary_threshold
    saturating_threshold,
)

__all__ = [
    "COMBINED_GUARANTEE",
    "GreedyReport",
    "GreedyVariant",
    "cardinality_cap",
    "combined_best",
    "greedy_construct",
    "min_slots",
]

# Guarantee carried by the better of the two variants when beaconing is free:
# half of the classic 1 - 1/e factor.
COMBINED_GUARANTEE = 0.5 * (1.0 - 1.0 / math.e)


class GreedyVariant(str, Enum):
    """Award rule: raw delivery gain, or gain per unit of marginal energy."""

    GAIN = "gain"
    GAIN_PER_COST = "gain_per_cost"


@dataclass
class GreedyReport:
    """Result of a greedy construction run.

    ``online_bound`` is the guaranteed fraction 1 - e^(-iterations / cap) of
    the best integer profile, ``offline_bound`` the instance-only variant
    built from the per-class minimum slot counts.  ``topup_class`` names the
    class whose threshold the top-up extended to the budget boundary, or is
    None when no extension helped.
    """

    policy: ThresholdPolicy
    objective: float
    iterations: int
    cardinality_cap: int
    online_bound: float
    offline_bound: float
    variant: GreedyVariant
    topup_class: int | None = None


def _affordable(c: int, full: bool, sc: Scenario) -> int:
    """Largest integer threshold class c can afford with the other costly
    classes silent, or all ``full``, from its end in ``_solo_ends`` (the
    grid search's own first-level ends): 0 when they alone exhaust the
    budget, the whole grid when even full transmission cannot."""
    end = _solo_ends(c, sc)[int(full), 0]
    return 0 if math.isnan(end) else math.floor(min(end + _SNAP, sc.max_threshold))


def cardinality_cap(sc: Scenario) -> int:
    """Slot-count cap W: the most sub-slots any one class can afford alone.

    No single class can afford more than its solo capacity, and no threshold
    exceeds the grid; the cap feeds the greedy certificates.
    """
    return max(_affordable(c, False, sc) for c in range(len(sc.classes)))


def min_slots(c: int, sc: Scenario) -> int:
    """Largest integer threshold class c can afford while every other class
    transmits in full; 0 when the others alone exhaust the budget."""
    return _affordable(c, True, sc)


def greedy_construct(sc: Scenario, variant: GreedyVariant = GreedyVariant.GAIN) -> GreedyReport:
    """Build a threshold policy by repeatedly awarding the next sub-slot to
    the class with the best gain, while the budget allows it.

    Classes whose transmissions are entirely free are saturated up front and
    excluded from the iteration count.  Ties in the arg max go to the lowest
    class index.  An award pays the beacons of the sub-slots it adds beyond
    the coverage its radio (one of ``sc.beacons``) already pays.  Afterwards
    the single class whose extension helps the objective most is pushed to
    the exact budget boundary (at most one fractional threshold); the
    certificates are computed from the integer iterations alone.
    """
    n_classes = len(sc.classes)
    n1 = sc.max_threshold
    dt = sc.eff_slot
    tol = budget_tolerance(sc.budget)
    if variant is GreedyVariant.GAIN_PER_COST and sc.beacons:
        raise ValueError("gain_per_cost requires a scenario without beacon costs")

    tables = [class_log_miss_table(c, sc).tolist() for c in range(n_classes)]
    costly = sc.costly
    k = [0 if c in costly else n1 for c in range(n_classes)]
    log_miss = sum(tables[c][k[c]] for c in range(n_classes))
    energy = threshold_energy([float(x) for x in k], sc)
    limit = sc.budget + tol
    per_cost = variant is GreedyVariant.GAIN_PER_COST

    # (beacon rate, radio index) of each class on a charging radio
    radio = {c: (rate, j) for j, (rate, members) in enumerate(sc.beacons) for c in members}
    # per costly class: (class, tx_cost * population, lam dt, radio or None,
    # log-miss table)
    terms = [(c, sc.classes[c].tx_cost * sc.classes[c].population, sc.rates[c] * dt,
              radio.get(c), tables[c]) for c in costly]
    # integer beacon coverage per charging radio; its members are all costly
    cover = [0] * len(sc.beacons)
    # per costly class at its threshold k: e^{-lam dt (k + 1)}, and the
    # transmission energy and per-cost marginal of its next award, by the
    # expressions the loop evaluated for every class on every iteration (at
    # k = 0, e^{-lam dt k} is exactly 1); only an award moves them, and the
    # awarded class's e^{-lam dt (k + 1)} becomes its next e^{-lam dt k}
    ahead = [math.exp(-g) for _, _, g, _, _ in terms]
    tx = [weight * (1.0 - e) for (_, weight, _, _, _), e in zip(terms, ahead)]
    marg = [weight * -math.expm1(-g) for _, weight, g, _, _ in terms]
    # a lone costly class wins every award it can afford, whatever its gain
    lone = len(terms) == 1

    iterations = 0
    while True:
        best = None
        best_score = 0.0
        best_energy = 0.0
        f_cur = 0.0 if lone else -math.expm1(log_miss)
        for i, (c, _, _, beacon, table) in enumerate(terms):
            kc = k[c]
            if kc >= n1:
                continue
            e_new = energy + tx[i]
            if beacon is not None:
                d = kc + 1 - cover[beacon[1]]
                if d > 0:
                    e_new += beacon[0] * d
            if e_new > limit:
                continue
            if lone:
                best, best_energy = i, e_new
                break
            gain = -math.expm1(log_miss - table[kc] + table[kc + 1]) - f_cur
            if per_cost:
                score = gain / marg[i] if marg[i] > 0.0 else math.inf
            else:
                score = gain
            if best is None or score > best_score:
                best = i
                best_score = score
                best_energy = e_new
        if best is None:
            break
        c, weight, g, beacon, table = terms[best]
        log_miss += table[k[c] + 1] - table[k[c]]
        k[c] += 1
        energy = best_energy
        head, ahead[best] = ahead[best], math.exp(-g * (k[c] + 1))
        tx[best] = weight * (head - ahead[best])
        if per_cost:
            marg[best] = weight * head * -math.expm1(-g)
        if beacon is not None and k[c] > cover[beacon[1]]:
            cover[beacon[1]] = k[c]
        iterations += 1

    thresholds = [float(x) for x in k]

    topup_class = None
    best_val = log_miss
    best_h = None
    for c in costly:
        if k[c] >= n1:
            continue
        r = saturating_threshold(c, thresholds, sc)
        if r <= k[c] + 1e-12:
            continue
        val = log_miss - tables[c][k[c]] + float(class_log_miss(c, [r], sc)[0])
        if val < best_val:
            best_val = val
            best_h = r
            topup_class = c
    if topup_class is not None:
        thresholds[topup_class] = best_h

    w = cardinality_cap(sc)
    online = -math.expm1(-iterations / w) if w > 0 else 0.0
    offline = 0.0
    if w > 0:
        total_min = sum(min_slots(c, sc) for c in range(n_classes))
        offline = -math.expm1(-total_min / w)

    policy = ThresholdPolicy(tuple(thresholds))
    return GreedyReport(
        policy=policy,
        objective=threshold_objective(thresholds, sc),
        iterations=iterations,
        cardinality_cap=w,
        online_bound=online,
        offline_bound=offline,
        variant=variant,
        topup_class=topup_class,
    )


def combined_best(sc: Scenario) -> GreedyReport:
    """Better of the two greedy variants; only valid without beaconing costs,
    where the pair carries the COMBINED_GUARANTEE factor of the best integer
    profile within budget."""
    if sc.beacons:
        raise ValueError("combined greedy requires a scenario without beacon costs")
    first = greedy_construct(sc, GreedyVariant.GAIN)
    second = greedy_construct(sc, GreedyVariant.GAIN_PER_COST)
    return first if first.objective >= second.objective else second
