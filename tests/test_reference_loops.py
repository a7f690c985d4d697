"""Bit-exactness of the solver loops against verbatim copies of their
earlier forms: the fixed 200-step ``saturating_threshold`` bisection, the
fixed 100-step shave in ``class_independent``, and the greedy award loop
that looked every per-class value up again on each iteration.  Each pair is
compared by repr over seeded instances with one to four classes, with and
without beacons, with shared radios, and with budgets near zero and near
the all-full cost."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import twohop.gridsearch
from twohop import GreedyVariant, class_independent, greedy_construct, model
from twohop.baselines import _uniform_energy, uniform_policy
from twohop.cli import sample_table_scenario
from twohop.greedy import GreedyReport, cardinality_cap, min_slots
from twohop.gridsearch import _SNAP, saturating_threshold
from twohop.model import (
    BUDGET_RTOL,
    Scenario,
    ThresholdPolicy,
    budget_tolerance,
    class_log_miss,
    class_log_miss_table,
    energy_spent,
    expand_threshold,
    is_costless,
    threshold_energy,
    threshold_objective,
)
from conftest import make_scenario, random_small_scenario


# ---------------------------------------------------------------------------
# reference copies
# ---------------------------------------------------------------------------

def saturating_threshold_200(c: int, thresholds, sc: Scenario) -> float:
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


def class_independent_100(sc: Scenario) -> float:
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
            deriv += sum(sc.beacon_rate(t.ident) for t in sc.technologies
                         if sc.tech_members[t.ident])
            if res > 0.0:
                hi = h
            else:
                lo = h
            step = h - res / deriv if deriv > 0.0 else None
            h = step if step is not None and lo < step < hi else 0.5 * (lo + hi)

    # the per-class energy accounting charges overlapping fractional tails
    # once per class; shave the tail if that overshoots the budget
    if energy_spent(expand_threshold(uniform_policy(sc, h), sc), sc) > sc.budget + tol:
        lo, hi = math.floor(h), h
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            pol = expand_threshold(uniform_policy(sc, mid), sc)
            if energy_spent(pol, sc) > sc.budget:
                hi = mid
            else:
                lo = mid
        h = lo
    return float(h)


def greedy_construct_per_iteration(sc: Scenario, variant: GreedyVariant = GreedyVariant.GAIN,
                                   *, fractional_topup: bool = True) -> GreedyReport:
    n_classes = len(sc.classes)
    n1 = sc.max_threshold
    dt = sc.eff_slot
    tol = budget_tolerance(sc.budget)
    if variant is GreedyVariant.GAIN_PER_COST:
        if any(t.beacon_cost > 0.0 for t in sc.technologies):
            raise ValueError("gain_per_cost requires all beacon costs to be zero")

    tables = [class_log_miss_table(c, sc) for c in range(n_classes)]
    k = [n1 if is_costless(c, sc) else 0 for c in range(n_classes)]
    costly = [c for c in range(n_classes) if not is_costless(c, sc)]
    log_miss = sum(tables[c][k[c]] for c in range(n_classes))
    energy = threshold_energy([float(x) for x in k], sc)

    # per-technology integer beacon coverage
    cover = {t.ident: max((k[c] for c in sc.tech_members[t.ident]), default=0)
             for t in sc.technologies}

    iterations = 0
    while True:
        best_c = -1
        best_score = 0.0
        best_energy = 0.0
        f_cur = -math.expm1(log_miss)
        for c in costly:
            if k[c] >= n1:
                continue
            cls = sc.classes[c]
            g = sc.rates[c] * dt
            tx_marg = cls.tx_cost * cls.population * (
                math.exp(-g * k[c]) - math.exp(-g * (k[c] + 1)))
            rate = sc.beacon_rate(cls.technology)
            beacon_marg = rate * max(0, k[c] + 1 - cover[cls.technology])
            e_new = energy + tx_marg + beacon_marg
            if e_new > sc.budget + tol:
                continue
            gain = -math.expm1(log_miss - tables[c][k[c]] + tables[c][k[c] + 1]) - f_cur
            if variant is GreedyVariant.GAIN_PER_COST:
                marg = cls.tx_cost * cls.population * math.exp(-g * k[c]) * -math.expm1(-g)
                score = gain / marg if marg > 0.0 else math.inf
            else:
                score = gain
            if best_c < 0 or score > best_score:
                best_c = c
                best_score = score
                best_energy = e_new
        if best_c < 0:
            break
        log_miss += tables[best_c][k[best_c] + 1] - tables[best_c][k[best_c]]
        k[best_c] += 1
        energy = best_energy
        cover[sc.classes[best_c].technology] = max(
            cover[sc.classes[best_c].technology], k[best_c])
        iterations += 1

    thresholds = [float(x) for x in k]

    topup_class = None
    if fractional_topup:
        best_val = log_miss
        best_h = None
        for c in costly:
            if k[c] >= n1:
                continue
            r = saturating_threshold_200(c, thresholds, sc)
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


# ---------------------------------------------------------------------------
# seeded instances
# ---------------------------------------------------------------------------

# budget fractions of the all-full cost: near zero, anywhere, near full
BUDGET_FRACS = ((1e-4, 2e-2), (0.05, 0.95), (0.97, 1.0))


def _instances():
    rng = np.random.default_rng(8)
    out = []
    for i in range(72):
        out.append(random_small_scenario(rng, n_classes=1 + i % 4, max_slots=10,
                                         beacon_scale=0.05 if (i // 4) % 2 else 0.0,
                                         share_prob=0.6,
                                         budget_frac=BUDGET_FRACS[i % 3]))
    for i in range(12):
        # A4-style draws: classes on one radio share its beacons
        out.append(sample_table_scenario(rng, resolution=2, n_classes=1 + i % 3,
                                         with_beacons=i % 2 == 0)[1])
    # a costless class next to a costly one
    out.append(make_scenario([0.1, 0.2], 0.3, slots=6, rho=[0.0, 1.0], ttl=[3, 6]))
    return out


INSTANCES = _instances()


def _free(sc: Scenario) -> bool:
    return not any(t.beacon_cost > 0.0 for t in sc.technologies)


def _full_cost(sc: Scenario) -> float:
    return threshold_energy([sc.max_threshold] * len(sc.classes), sc)


def test_instances_cover_the_cases():
    shared = [sc for sc in INSTANCES
              if any(len(m) > 1 for m in sc.tech_members.values())]
    assert any(_free(sc) for sc in shared) and any(not _free(sc) for sc in shared)
    assert {len(sc.classes) for sc in INSTANCES} == {1, 2, 3, 4}
    fracs = [sc.budget / _full_cost(sc) for sc in INSTANCES]
    assert sum(f < 0.02 for f in fracs) >= 20 and sum(f > 0.97 for f in fracs) >= 20


def test_saturating_threshold_matches_200_steps():
    rng = np.random.default_rng(81)
    checked = 0
    for sc in INSTANCES:
        draws = [[0.0] * len(sc.classes)]
        draws += [[float(rng.uniform(0.0, sc.max_threshold)) for _ in sc.classes]
                  for _ in range(3)]
        for hs in draws:
            for c in range(len(sc.classes)):
                assert repr(saturating_threshold(c, hs, sc)) == \
                    repr(saturating_threshold_200(c, hs, sc))
                checked += 1
    assert checked > 600


def test_saturating_threshold_stops_early(monkeypatch):
    # each call made at most 70 energy evaluations on seeded A4 table draws
    # (the 200-step loop makes 202 whenever it bisects)
    calls = []

    def counted(thresholds, sc):
        calls.append(1)
        return threshold_energy(thresholds, sc)

    monkeypatch.setattr(twohop.gridsearch, "threshold_energy", counted)
    rng = np.random.default_rng(82)
    counts = []
    for i in range(60):
        _, sc = sample_table_scenario(rng, resolution=5, with_beacons=i % 2 == 0)
        hs = [float(rng.uniform(0.0, sc.max_threshold)) for _ in sc.classes]
        for c in range(len(sc.classes)):
            calls.clear()
            saturating_threshold(c, hs, sc)
            counts.append(len(calls))
    bisected = [n for n in counts if n > 2]
    assert len(bisected) >= 30
    assert max(counts) <= 70


def test_class_independent_matches_100_step_shave(monkeypatch):
    expansions = []

    def counted(tp, sc):
        expansions.append(tp)
        return model.expand_threshold(tp, sc)

    shaved = 0
    for sc in INSTANCES:
        h = class_independent(sc)
        expansions.clear()
        with monkeypatch.context() as m:
            m.setattr(sys.modules[__name__], "expand_threshold", counted)
            assert repr(h) == repr(class_independent_100(sc))
        shaved += len(expansions) > 1
    assert shaved >= 10


@pytest.mark.parametrize("topup", [True, False], ids=["topup", "integer"])
def test_greedy_matches_per_iteration_loop(topup):
    compared = set()
    for sc in INSTANCES:
        variants = [GreedyVariant.GAIN]
        if _free(sc):
            variants.append(GreedyVariant.GAIN_PER_COST)
        for variant in variants:
            rep = greedy_construct(sc, variant, fractional_topup=topup)
            assert repr(rep) == \
                repr(greedy_construct_per_iteration(sc, variant, fractional_topup=topup))
            compared.add((variant, rep.fractional_topup))
    assert {(variant, topup) for variant in GreedyVariant} <= compared


def test_greedy_matches_per_iteration_loop_at_the_budget_boundary():
    # budgets whose limit budget + tolerance steps one ulp at a time across
    # the energy of the greedy's final profile: the last award is affordable
    # on one side and not on the other, so an award energy computed with
    # other bits shows as a different iteration count
    flips = 0
    for sc in INSTANCES[:48]:
        variant = GreedyVariant.GAIN_PER_COST if _free(sc) else GreedyVariant.GAIN
        k = greedy_construct(sc, variant, fractional_topup=False).policy.thresholds
        target = threshold_energy(k, sc)
        base = target / (1.0 + BUDGET_RTOL) if target > 1.0 else target - BUDGET_RTOL
        if base <= 0.0:   # nothing awarded
            continue
        seen = set()
        for j in range(-8, 9):
            bsc = replace(sc, budget=base + j * math.ulp(base))
            rep = greedy_construct(bsc, variant, fractional_topup=False)
            assert repr(rep) == repr(greedy_construct_per_iteration(
                bsc, variant, fractional_topup=False))
            seen.add(rep.iterations)
        flips += len(seen) > 1
    assert flips >= 20
