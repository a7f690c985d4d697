"""Bit-exactness of the solver loops and model kernels against verbatim
copies of their earlier forms.

The loops are the fixed 200-step ``saturating_threshold`` bisection, the
fixed 100-step shave in ``class_independent``, and the greedy award loop
that looked every per-class value up again on each iteration; each pair is
compared by repr over seeded instances with one to four classes, with and
without beacons, with shared radios, and with budgets near zero and near
the all-full cost.  The kernels are the log-miss evaluators (at a batch of
thresholds, at every integer threshold, and under a general policy) and
the three transmission-energy loops; they are compared bit for bit over
seeded scenarios at resolutions 1-5 with TTLs below and at or above the
last sub-slot, fractional and integer thresholds, and general policies.
"""

import math
import sys
import time
from dataclasses import replace
from typing import Iterator

import numpy as np
import pytest

import twohop.gridsearch
from twohop import GreedyVariant, class_independent, greedy_construct, model
from twohop.baselines import _uniform_energy, uniform_policy
from twohop.cli import sample_table_scenario
from twohop.greedy import GreedyReport, cardinality_cap, min_slots
from twohop.gridsearch import (
    _LEAF_CHUNK,
    _SNAP,
    SolveReport,
    SolveTimeout,
    _Best,
    _completion_masses,
    _costly_classes,
    _full_profile,
    _prune_margin,
    _ranges,
    _remaining,
    _solve_for,
    grid_search,
    ratio_bound,
    saturating_threshold,
)
from twohop.model import (
    _CHUNK_CELLS,
    BUDGET_RTOL,
    Policy,
    Scenario,
    Technology,
    ThresholdPolicy,
    _energy_probe,
    _log_miss_slopes,
    _tx_energy,
    beacon_activity,
    budget_tolerance,
    class_log_miss,
    class_log_miss_table,
    delivery_probability,
    energy_spent,
    expand_threshold,
    is_costless,
    threshold_energy,
    threshold_objective,
    within_budget,
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

    def counted(c, thresholds, sc):
        probe = _energy_probe(c, thresholds, sc)

        def energy_at(h):
            calls.append(1)
            return probe(h)

        return energy_at

    monkeypatch.setattr(twohop.gridsearch, "_energy_probe", counted)
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


# ---------------------------------------------------------------------------
# log-miss and transmission-energy kernels: reference copies
# ---------------------------------------------------------------------------

def class_log_miss_copy(c: int, thresholds, sc: Scenario) -> np.ndarray:
    cls = sc.classes[c]
    n = sc.subslots
    lam = sc.rates[c]
    dt = sc.eff_slot
    h = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if h.size and (h.min() < -1e-9 or h.max() > (n - 1) + 1e-9):
        raise ValueError("threshold outside policy grid")
    h = np.clip(h, 0.0, float(n - 1))
    j = np.floor(h)
    alpha = h - j
    g = -math.expm1(-lam * dt)
    k = np.arange(n)
    a = np.maximum(0, k - cls.ttl_slots)
    out = np.empty(h.shape[0])
    rows = max(1, _CHUNK_CELLS // max(n, 1))
    for start in range(0, h.shape[0], rows):
        stop = min(start + rows, h.shape[0])
        jj = j[start:stop, None]
        w = np.clip(np.minimum(k + 1, jj) - a, 0.0, None)
        w += alpha[start:stop, None] * ((a <= jj) & (jj <= k))
        p = -np.expm1(-lam * dt * w)
        out[start:stop] = cls.population * np.log1p(-p * g).sum(axis=1)
    return out


def log_miss_sums_copy(x: float, ttl: int, n: int) -> np.ndarray:
    p = -np.expm1(x * np.arange(ttl + 2.0))
    g = -math.expm1(x)
    terms = np.log1p(-p * g)
    k = np.arange(n)
    a = np.maximum(0, k - ttl)
    out = np.empty(n)
    rows = max(1, _CHUNK_CELLS // n)
    for start in range(0, n, rows):
        j = np.arange(start, min(start + rows, n))[:, None]
        out[start:start + rows] = terms[np.clip(np.minimum(k + 1, j) - a, 0, None)].sum(axis=1)
    out.flags.writeable = False
    return out


def class_log_miss_policy_copy(c: int, k: int, pol: Policy, sc: Scenario) -> float:
    cls = sc.classes[c]
    lam = sc.rates[c]
    dt = sc.eff_slot
    mu = pol.probs[c]
    csum = np.concatenate(([0.0], np.cumsum(mu)))
    ks = np.arange(k)
    lo = np.maximum(0, ks - cls.ttl_slots)
    w = csum[ks + 1] - csum[lo]
    p = -np.expm1(-lam * dt * w)
    g = -math.expm1(-lam * dt)
    return cls.population * float(np.log1p(-p * g).sum())


def delivery_probability_copy(pol: Policy, k: int, sc: Scenario) -> float:
    total = sum(class_log_miss_policy_copy(c, k, pol, sc) for c in range(len(sc.classes)))
    return -math.expm1(total)


def energy_spent_copy(pol: Policy, sc: Scenario) -> float:
    dt = sc.eff_slot
    total = 0.0
    for c, cls in enumerate(sc.classes):
        mass = float(pol.probs[c].sum())
        total += cls.tx_cost * cls.population * -math.expm1(-sc.rates[c] * dt * mass)
    for tech, active in beacon_activity(pol, sc):
        total += sc.beacon_rate(tech.ident) * float(active.sum())
    return total


def threshold_energy_copy(thresholds, sc: Scenario) -> float:
    hs = [float(h) for h in thresholds]
    dt = sc.eff_slot
    total = 0.0
    for c, cls in enumerate(sc.classes):
        total += cls.tx_cost * cls.population * -math.expm1(-sc.rates[c] * dt * hs[c])
    for tech in sc.technologies:
        members = sc.tech_members[tech.ident]
        if not members or tech.beacon_cost == 0.0:
            continue
        floors = [math.floor(hs[c]) for c in members]
        m = max(floors)
        tail = 1.0
        for c, f in zip(members, floors):
            if f == m:
                tail *= 1.0 - (hs[c] - f)
        total += sc.beacon_rate(tech.ident) * (m + 1.0 - tail)
    return total


def uniform_energy_copy(h: float, sc: Scenario) -> float:
    total = 0.0
    dt = sc.eff_slot
    for c, cls in enumerate(sc.classes):
        total += cls.tx_cost * cls.population * -math.expm1(-sc.rates[c] * dt * h)
    for tech in sc.technologies:
        if sc.tech_members[tech.ident]:
            total += sc.beacon_rate(tech.ident) * h
    return total


# ---------------------------------------------------------------------------
# log-miss and transmission-energy kernels: seeded inputs and checks
# ---------------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernel_scenarios():
    """Three classes per scenario at resolutions 1-5: one TTL below the last
    sub-slot, one at it, one beyond it."""
    rng = np.random.default_rng(12)
    out = []
    for i in range(40):
        res = 1 + i % 5
        slots = int(rng.integers(2, 9))
        n = slots * res
        base = make_scenario([float(rng.uniform(0.005, 0.6)) for _ in range(3)], 1.0,
                             slots=slots, populations=[int(p) for p in rng.integers(1, 9, 3)],
                             rho=[float(r) for r in rng.uniform(0.05, 1.0, 3)],
                             beta=[float(b) for b in rng.uniform(0.0, 0.05, 3)],
                             resolution=res, shared_tech=i % 3 == 0)
        ttls = (int(rng.integers(1, n - 1)) if n > 2 else 1, n - 1, n + int(rng.integers(0, 4)))
        out.append(replace(base, classes=tuple(
            replace(cls, ttl_slots=t) for cls, t in zip(base.classes, ttls))))
    # A4 draws: long grids, shared radios
    for i in range(5):
        out.append(sample_table_scenario(rng, resolution=1 + i, n_classes=2,
                                         with_beacons=i % 2 == 0)[1])
    return out


KERNEL_SCENARIOS = _kernel_scenarios()


def _threshold_batch(rng, n: int) -> np.ndarray:
    """Every integer threshold, fractional ones, and fractions next to the
    integers and the ends of the grid."""
    frac = rng.uniform(0.0, n - 1, 40)
    near = np.arange(n - 1) + np.array([1e-12, 0.5, 1.0 - 1e-12])[:, None]
    return np.concatenate([np.arange(n, dtype=float), frac, near.ravel(),
                           [0.0, 1e-300, float(n - 1)]])


def _policies(rng, sc: Scenario):
    """General policies: uniform cells, cells at exactly 0 or 1, and sparse
    rows with tiny masses."""
    shape = (len(sc.classes), sc.subslots)
    yield Policy(rng.uniform(0.0, 1.0, shape))
    yield Policy(rng.choice([0.0, 1.0, 0.25], shape))
    sparse = np.where(rng.random(shape) < 0.3, rng.uniform(0.0, 1e-9, shape), 0.0)
    yield Policy(sparse)


def test_kernel_scenarios_cover_the_cases():
    ttl_cases = set()
    for sc in KERNEL_SCENARIOS:
        for cls in sc.classes:
            ttl_cases.add((sc.resolution, min(cls.ttl_slots, sc.subslots) - (sc.subslots - 1)))
    for res in range(1, 6):
        assert {(res, 0), (res, 1)} <= ttl_cases
        assert any(r == res and d < 0 for r, d in ttl_cases)


def test_class_log_miss_matches_copy():
    rng = np.random.default_rng(121)
    for sc in KERNEL_SCENARIOS:
        h = _threshold_batch(rng, sc.subslots)
        for c in range(len(sc.classes)):
            assert _same_bits(class_log_miss(c, h, sc), class_log_miss_copy(c, h, sc))


def test_log_miss_table_matches_copy():
    for sc in KERNEL_SCENARIOS:
        n = sc.subslots
        for c, cls in enumerate(sc.classes):
            sums = log_miss_sums_copy(-sc.rates[c] * sc.eff_slot, min(cls.ttl_slots, n - 1), n)
            assert _same_bits(class_log_miss_table(c, sc), cls.population * sums)


def test_log_miss_kernels_cross_chunk_boundaries(monkeypatch):
    # small chunks split every batch and every table build into several
    # blocks of rows; a row's sum must not depend on the block it sits in
    rng = np.random.default_rng(122)
    monkeypatch.setattr(model, "_CHUNK_CELLS", 50)
    model._log_miss_sums.cache_clear()
    try:
        for sc in KERNEL_SCENARIOS[:40:4]:
            n = sc.subslots
            h = _threshold_batch(rng, n)
            for c, cls in enumerate(sc.classes):
                assert _same_bits(class_log_miss(c, h, sc), class_log_miss_copy(c, h, sc))
                sums = log_miss_sums_copy(-sc.rates[c] * sc.eff_slot,
                                          min(cls.ttl_slots, n - 1), n)
                assert _same_bits(class_log_miss_table(c, sc), cls.population * sums)
    finally:
        model._log_miss_sums.cache_clear()


def test_delivery_probability_matches_copy():
    rng = np.random.default_rng(123)
    for sc in KERNEL_SCENARIOS:
        n = sc.subslots
        for pol in _policies(rng, sc):
            for k in sorted({1, n // 2 + 1, n}):
                assert repr(delivery_probability(pol, k, sc)) == \
                    repr(delivery_probability_copy(pol, k, sc))


def test_delivery_of_expanded_thresholds_is_threshold_objective():
    rng = np.random.default_rng(124)
    checked = 0
    for sc in KERNEL_SCENARIOS:
        n1 = sc.max_threshold
        draws = [rng.uniform(0.0, n1, len(sc.classes)) for _ in range(30)]
        draws += [rng.integers(0, n1 + 1, len(sc.classes)).astype(float) for _ in range(10)]
        for hs in draws:
            tp = ThresholdPolicy(tuple(hs))
            assert repr(delivery_probability(expand_threshold(tp, sc), sc.subslots, sc)) == \
                repr(threshold_objective(tp.thresholds, sc))
            checked += 1
    assert checked >= 1800


def test_transmission_energy_matches_copies():
    rng = np.random.default_rng(125)
    for sc in KERNEL_SCENARIOS + INSTANCES:
        n1 = sc.max_threshold
        for pol in _policies(rng, sc):
            assert repr(energy_spent(pol, sc)) == repr(energy_spent_copy(pol, sc))
        draws = [rng.uniform(0.0, n1, len(sc.classes)) for _ in range(4)]
        # equal floors on a shared radio combine their fractional tails
        j = float(rng.integers(0, n1 + 1))
        draws.append(np.minimum(j + rng.uniform(0.0, 1.0, len(sc.classes)), n1))
        draws.append(rng.integers(0, n1 + 1, len(sc.classes)).astype(float))
        for hs in draws:
            assert repr(threshold_energy(hs, sc)) == repr(threshold_energy_copy(hs, sc))
            # one probe per class, called at several thresholds in turn
            for c in range(len(sc.classes)):
                probe = _energy_probe(c, hs, sc)
                for h in (0.0, float(draws[0][c]), float(n1)):
                    moved = hs.copy()
                    moved[c] = h
                    assert repr(probe(h)) == repr(threshold_energy_copy(moved, sc))
            assert repr(energy_spent(expand_threshold(ThresholdPolicy(tuple(hs)), sc), sc)) == \
                repr(energy_spent_copy(expand_threshold(ThresholdPolicy(tuple(hs)), sc), sc))
        for h in [0.0, float(n1), *rng.uniform(0.0, n1, 4)]:
            assert repr(_uniform_energy(h, sc)) == repr(uniform_energy_copy(h, sc))


# ---------------------------------------------------------------------------
# grid search: the exhaustive walker and search, verbatim
# ---------------------------------------------------------------------------

def leaf_batches_copy(sc: Scenario, frac_c: int
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
    segmentation of the scalar walk, so every value keeps its bits.
    """
    levels = [c for c in _costly_classes(sc) if c != frac_c]
    no_vals = [np.empty(0, int)] * len(levels)

    def step(fixed: dict[int, np.ndarray]):
        c = levels[len(fixed)]
        lo, hi = _ranges(c, fixed, sc)
        rows = np.flatnonzero(lo <= hi)
        fixed = {k: v[rows] for k, v in fixed.items()}
        lo = lo[rows]
        count = hi[rows] - lo + 1
        total = np.cumsum(count)
        last = len(fixed) == len(levels) - 1
        if last:
            # the closure's transmission energy with the leaf at mass 0
            # (adding exactly +0.0), once per parent prefix
            row_tx = np.broadcast_to(
                _tx_energy(_completion_masses(frac_c, fixed, sc, "zero").items(), sc), rows.shape)
            cls = sc.classes[c]
        a = 0
        while a < rows.size:
            before = total[a] - count[a]
            b = max(a + 1, int(np.searchsorted(total, before + _LEAF_CHUNK, "right")))
            seg = np.repeat(np.arange(a, b), count[a:b])
            starts = total[a:b] - count[a:b] - before
            child = {k: v[seg] for k, v in fixed.items()}
            child[c] = lo[seg] + np.arange(seg.size) - starts[seg - a]
            if last:
                const = row_tx[seg] + cls.tx_cost * cls.population * -np.expm1(
                    -sc.rates[c] * sc.eff_slot * child[c])
                masses = _completion_masses(frac_c, child, sc, "zero")
                r = _solve_for(frac_c, *_remaining(frac_c, masses, sc, const), sc, starts=starts)
                ok = np.isfinite(r)
                yield levels, [child[k][ok] for k in levels], r[ok]
            else:
                yield levels, no_vals, np.empty(0)
                yield from step(child)
            a = b

    if levels:
        yield from step({})
    else:
        masses = _completion_masses(frac_c, {}, sc, "zero")
        r = _solve_for(frac_c, *_remaining(frac_c, masses, sc, _tx_energy(masses.items(), sc)), sc)
        yield levels, no_vals, r[np.isfinite(r)]


def grid_search_copy(sc: Scenario, *, timeout_s: float | None = None) -> SolveReport:
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
    """
    t0 = time.perf_counter()
    n1 = sc.max_threshold
    n_classes = len(sc.classes)
    deadline = None if timeout_s is None else t0 + timeout_s
    rb = ratio_bound(sc.slots, sc.resolution, n_classes)

    full = tuple(float(n1) for _ in range(n_classes))
    if within_budget(threshold_energy(full, sc), sc):
        obj = threshold_objective(full, sc)
        return SolveReport(ThresholdPolicy(full), obj, upper_bound=obj,
                           ratio_bound=rb, enumerated=1)

    tables = [class_log_miss_table(c, sc) for c in range(n_classes)]
    # the classes outside the enumeration are the costless ones, pinned full
    pinned = sum(tables[c][n1] for c in range(n_classes) if is_costless(c, sc))
    best = _Best()
    incumbent = ub_log_miss = math.inf
    enumerated = 0

    for frac_c in _costly_classes(sc):
        table = tables[frac_c]
        following = np.append(table[1:], table[-1])   # T[j + 1]; j = n - 1 only with a = 0
        slopes = _log_miss_slopes(frac_c, sc)
        margin = _prune_margin(frac_c, sc, tables)
        for levels, vals, r in leaf_batches_copy(sc, frac_c):
            if deadline is not None and time.perf_counter() > deadline:
                raise SolveTimeout(f"grid search exceeded {timeout_s:g} s")
            if r.size == 0:
                continue
            enumerated += r.size
            known = known_up = np.full(r.shape, pinned)
            for c, h in zip(levels, vals):
                known = known + tables[c][h]
                known_up = known_up + tables[c][np.minimum(h + 1, n1)]
            up_r = np.minimum(np.floor(r + _SNAP).astype(int) + 1, n1)
            ub_log_miss = min(ub_log_miss, (known_up + table[up_r]).min())
            j = r.astype(int)
            alpha = r - j
            chord = known + ((1.0 - alpha) * table[j] + alpha * following[j])
            incumbent = min(incumbent, chord.min())
            tangent = known + (table[j] + alpha * slopes[j])
            keep = np.flatnonzero(tangent - margin <= min(incumbent, best.log_miss))
            if keep.size == 0:
                continue
            exact = known[keep] + class_log_miss(frac_c, r[keep], sc)
            for idx in np.argsort(exact, kind="stable"):
                val = float(exact[idx])
                if val > best.log_miss:
                    break
                i = keep[idx]
                fixed = {c: int(v[i]) for c, v in zip(levels, vals)}
                best.offer(val, _full_profile(sc, frac_c, fixed, r[i]))

    thresholds = best.thresholds
    if thresholds is None:
        # nothing saturates (e.g. zero budget with no enumerable candidate)
        thresholds = tuple(float(n1) if is_costless(c, sc) else 0.0 for c in range(n_classes))
    objective = threshold_objective(thresholds, sc)
    ub = objective if math.isinf(ub_log_miss) else max(-math.expm1(ub_log_miss), objective)
    return SolveReport(ThresholdPolicy(thresholds), objective, upper_bound=ub, ratio_bound=rb,
                       enumerated=enumerated)


def _grid_instances():
    """Three to five classes; beacons on own and shared radios or none; TTL
    as drawn, 1 or the full horizon; a costless class; budgets at 1-2%,
    5-95% and 97-99% of the all-full cost."""
    rng = np.random.default_rng(11)
    fracs = ((0.01, 0.02), (0.05, 0.95), (0.97, 0.99))
    out = []
    for i in range(132):
        n_classes = 3 + i % 3
        sc = random_small_scenario(rng, n_classes=n_classes, max_slots=(11, 7, 5)[i % 3],
                                   beacon_scale=0.3 if (i // 3) % 2 else 0.0, share_prob=0.5,
                                   budget_frac=fracs[(i // 6) % 3])
        ttl = (i // 18) % 3
        classes = [replace(cls, ttl_slots=(cls.ttl_slots, 1, sc.subslots)[ttl])
                   for cls in sc.classes]
        techs = list(sc.technologies)
        if i % 5 == 0:
            techs.append(Technology("free", 0.0))
            classes[1] = replace(classes[1], tx_cost=0.0, technology="free")
        out.append(replace(sc, classes=tuple(classes), technologies=tuple(techs)))
    return out


GRID_INSTANCES = _grid_instances()


def _table_draws(count: int, n_classes: int, slots: int) -> list[Scenario]:
    """The first draws with this class count and deadline of the seed-810 A4
    stream (resolution 5, beacons on even draws, full TTL).  Three classes
    at 100 slots are table-sweep's fixed heavy part; two classes at 250
    slots are where the tail bracket replaces most exact evaluations."""
    rng = np.random.default_rng(810)
    out = []
    for i in range(10_000):
        sc = sample_table_scenario(rng, resolution=5, with_beacons=i % 2 == 0)[1]
        if len(sc.classes) == n_classes and sc.slots == slots:
            out.append(sc)
            if len(out) == count:
                break
    return out


def _grid_outputs(rep) -> str:
    return repr((rep.policy, rep.objective, rep.upper_bound, rep.ratio_bound, rep.enumerated))


def test_grid_instances_cover_the_cases():
    assert {len(sc.classes) for sc in GRID_INSTANCES} == {3, 4, 5}
    beacons = [any(t.beacon_cost > 0.0 for t in sc.technologies) for sc in GRID_INSTANCES]
    assert any(beacons) and not all(beacons)
    assert sum(any(len(m) > 1 and sc.tech_by_id[t].beacon_cost > 0.0
                   for t, m in sc.tech_members.items()) for sc in GRID_INSTANCES) >= 20
    assert sum(any(is_costless(c, sc) for c in range(len(sc.classes)))
               for sc in GRID_INSTANCES) >= 20
    assert sum(all(cls.ttl_slots == 1 for cls in sc.classes) for sc in GRID_INSTANCES) >= 20
    assert sum(all(cls.ttl_slots == sc.subslots for cls in sc.classes)
               for sc in GRID_INSTANCES) >= 20
    fracs = [sc.budget / _full_cost(sc) for sc in GRID_INSTANCES]
    assert sum(f <= 0.02 for f in fracs) >= 30 and sum(f >= 0.97 for f in fracs) >= 30


def test_grid_search_matches_exhaustive_copy(monkeypatch):
    for i, sc in enumerate(GRID_INSTANCES):
        rep = grid_search(sc)
        assert _grid_outputs(rep) == _grid_outputs(grid_search_copy(sc))
        if i % 4 == 0:
            # chunks of a few rows: the first row of every block alone, then
            # a few whole prefixes at a time, in both walkers
            with monkeypatch.context() as m:
                m.setattr(twohop.gridsearch, "_LEAF_CHUNK", 3)
                m.setattr(sys.modules[__name__], "_LEAF_CHUNK", 3)
                assert _grid_outputs(grid_search(sc)) == _grid_outputs(rep)
                assert _grid_outputs(grid_search_copy(sc)) == _grid_outputs(rep)


def test_grid_search_matches_exhaustive_copy_on_heavy_table_draws():
    for sc in _table_draws(20, 3, 100) + _table_draws(16, 2, 250):
        assert _grid_outputs(grid_search(sc)) == _grid_outputs(grid_search_copy(sc))
