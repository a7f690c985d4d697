"""Benchmark heuristics: ordering, saturation, feasibility, and dominance."""

import math

import numpy as np
import pytest

from twohop import (
    arrival_rate_greedy,
    class_independent,
    evaluate,
    grid_search,
    threshold_energy,
    uniform_policy,
)
from twohop.model import budget_tolerance
from conftest import beacon_only, make_scenario, random_small_scenario, scale_costs


def test_arrival_greedy_orders_by_rate():
    # rates 0.3 > 0.2 > 0.1 and a small budget: everything lands on class 0
    sc = make_scenario([0.3, 0.2, 0.1], 0.1, slots=10)
    tp = arrival_rate_greedy(sc)
    assert tp.thresholds[1] == 0.0 and tp.thresholds[2] == 0.0
    assert tp.thresholds[0] > 0.0
    assert threshold_energy(tp.thresholds, sc) == pytest.approx(sc.budget, abs=1e-9)


def test_arrival_greedy_spills_over():
    sc = make_scenario([0.3, 0.2, 0.1], 1.2, slots=10)
    tp = arrival_rate_greedy(sc)
    assert tp.thresholds[0] == float(sc.max_threshold)
    assert tp.thresholds[1] > 0.0
    assert evaluate(tp, sc).feasible


def test_arrival_greedy_full_when_rich():
    sc = make_scenario([0.3, 0.2], 100.0, slots=6)
    tp = arrival_rate_greedy(sc)
    assert tp.thresholds == (5.0, 5.0)


def test_arrival_greedy_single_class_matches_grid():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=8)
    tp = arrival_rate_greedy(sc)
    rep = grid_search(sc)
    assert tp.thresholds[0] == pytest.approx(rep.policy.thresholds[0], abs=1e-8)


def test_class_independent_single_class_closed_form():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=8)
    assert class_independent(sc) == pytest.approx(2.0, abs=1e-9)


def test_class_independent_zero_budget():
    sc = make_scenario([0.1, 0.2], 0.0, slots=6)
    assert class_independent(sc) == 0.0


def test_class_independent_matches_bisection():
    rng = np.random.default_rng(41)
    for trial in range(30):
        sc = random_small_scenario(rng, n_classes=int(rng.integers(1, 4)),
                                   beacon_scale=0.03 if trial % 2 else 0.0)
        h = class_independent(sc)
        # independent bisection on the uniform-policy budget draw
        def uniform_energy(x):
            total = sum(cls.tx_cost * cls.population
                        * -math.expm1(-sc.rates[c] * sc.eff_slot * x)
                        for c, cls in enumerate(sc.classes))
            total += sum(t.beacon_cost / sc.resolution * x for t in sc.technologies
                         if sc.tech_members[t.ident])
            return total
        n1 = float(sc.max_threshold)
        if uniform_energy(n1) <= sc.budget + budget_tolerance(sc.budget):
            assert h <= n1
            continue
        lo, hi = 0.0, n1
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if uniform_energy(mid) > sc.budget:
                hi = mid
            else:
                lo = mid
        # h may sit slightly below the root when the evaluated policy's
        # overlapping tails had to be shaved back within budget
        assert h <= lo + 1e-6
        if evaluate(uniform_policy(sc, lo), sc).feasible:
            assert h == pytest.approx(lo, abs=1e-6)


def test_class_independent_two_identical_classes():
    # two copies of one class at half budget each behave like the single class
    lone = make_scenario([0.1], 0.5 * -math.expm1(-0.2), slots=8)
    pair = make_scenario([0.1, 0.1], -math.expm1(-0.2), slots=8)
    assert class_independent(pair) == pytest.approx(class_independent(lone), abs=1e-8)


def test_baselines_always_feasible():
    # random draws, then draws with a costly class whose only cost is a
    # shared charging radio, then draws with every cost and the budget
    # scaled by 1e6, 1e9 and 1e12
    rng = np.random.default_rng(42)
    scenarios = [random_small_scenario(rng, n_classes=int(rng.integers(1, 4)),
                                       beacon_scale=0.05 if trial % 2 else 0.0,
                                       share_prob=0.6)
                 for trial in range(40)]
    scenarios += [beacon_only(rng, random_small_scenario(rng, n_classes=int(rng.integers(2, 4)),
                                                         beacon_scale=0.05, share_prob=0.6))
                  for _ in range(20)]
    for trial in range(10):
        sc = random_small_scenario(rng, n_classes=int(rng.integers(1, 4)),
                                   beacon_scale=0.05 if trial % 2 else 0.0, share_prob=0.6)
        scenarios += [scale_costs(sc, f) for f in (1e6, 1e9, 1e12)]
    for sc in scenarios:
        assert evaluate(arrival_rate_greedy(sc), sc).feasible
        assert evaluate(uniform_policy(sc, class_independent(sc)), sc).feasible


def test_zero_budget_every_algorithm_returns_zero():
    from twohop import greedy_construct, combined_best

    sc = make_scenario([0.1, 0.2], 0.0, slots=6)
    assert grid_search(sc).objective == 0.0
    assert greedy_construct(sc).objective == 0.0
    assert combined_best(sc).objective == 0.0
    assert evaluate(arrival_rate_greedy(sc), sc).delivery_prob == 0.0
    assert evaluate(uniform_policy(sc, class_independent(sc)), sc).delivery_prob == 0.0


def test_grid_dominates_baselines():
    rng = np.random.default_rng(43)
    for trial in range(25):
        sc = random_small_scenario(rng, n_classes=2, max_slots=9,
                                   beacon_scale=0.02 if trial % 2 else 0.0)
        grid = grid_search(sc)
        arr = evaluate(arrival_rate_greedy(sc), sc).delivery_prob
        uni = evaluate(uniform_policy(sc, class_independent(sc)), sc).delivery_prob
        assert grid.objective >= arr - 1e-9
        assert grid.objective >= uni - 1e-9
