"""Grid-search oracles: boundary solver, feasible ranges, enumeration
completeness against brute force, solver optimality, and the quality bound."""

import math

import numpy as np
import pytest

from twohop import (
    BudgetExceededError,
    BudgetUnboundedError,
    PartialAssignment,
    ThresholdPolicy,
    boundary_threshold,
    enumerate_saturating,
    evaluate,
    expand_threshold,
    feasible_range,
    grid_search,
    ratio_bound,
    saturating_threshold,
    threshold_energy,
    threshold_objective,
    upper_bound,
)
from twohop.gridsearch import SolveTimeout, brute_force_saturating
from twohop.model import budget_tolerance
from conftest import (
    make_scenario,
    random_small_scenario,
    two_class_reference,
)


# ---------------------------------------------------------------------------
# boundary threshold
# ---------------------------------------------------------------------------

def test_boundary_single_class_closed_form():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=5)
    r = boundary_threshold(0, PartialAssignment(0), sc)
    assert r == pytest.approx(2.0, abs=1e-10)


def test_boundary_reference_instance_vs_bisection():
    sc = two_class_reference()
    r = boundary_threshold(0, PartialAssignment(0, {1: 15}), sc)
    # independent bisection on 1*(1-e^(-0.021 h)) = 0.7 - 2*(1-e^(-0.02*15))
    rem = 0.7 - 2.0 * -math.expm1(-0.02 * 15)
    lo, hi = 0.0, 19.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if -math.expm1(-0.021 * mid) > rem:
            hi = mid
        else:
            lo = mid
    assert r == pytest.approx(lo, abs=1e-9)
    assert r == pytest.approx(9.545171, abs=1e-5)
    assert threshold_energy([r, 15.0], sc) == pytest.approx(0.7, abs=1e-10)


def test_boundary_signals():
    sc = make_scenario([0.1, 0.1], 0.05, slots=5)
    # other class already eats the whole budget and more
    with pytest.raises(BudgetExceededError):
        boundary_threshold(0, PartialAssignment(0, {1: 4}), sc)
    rich = make_scenario([0.1], 5.0, slots=5)
    with pytest.raises(BudgetUnboundedError):
        boundary_threshold(0, PartialAssignment(0), rich)


def test_boundary_beacon_branch_vs_blackbox():
    # the Newton branch (threshold sticking out past the paid beacon cover)
    # must agree with blackbox bisection on the exact energy
    rng = np.random.default_rng(11)
    for _ in range(50):
        sc = random_small_scenario(rng, n_classes=3, beacon_scale=0.05,
                                   share_prob=0.7)
        assigned = {1: int(rng.integers(0, sc.subslots))}
        try:
            r = boundary_threshold(0, PartialAssignment(0, assigned), sc)
        except (BudgetExceededError, BudgetUnboundedError):
            continue
        others = [float(assigned.get(c, 0 if c != 2 else 0)) for c in range(3)]
        others[0] = 0.0
        bb = saturating_threshold(0, others, sc)
        assert r == pytest.approx(bb, abs=1e-6)
        probe = list(others)
        probe[0] = r
        assert threshold_energy(probe, sc) == pytest.approx(sc.budget, abs=1e-9)


def test_boundary_homogeneous_matches_published_closed_form():
    # shared technology, uniform tx cost: the closed form with the A term and
    # the max-coverage guard reproduces the solver's answer
    sc = make_scenario([0.12, 0.08], 0.9, slots=8, populations=[2, 3],
                       rho=[0.5, 0.5], beta=[0.02, 0.02], shared_tech=True)
    h2 = 4
    r = boundary_threshold(0, PartialAssignment(0, {1: h2}), sc)
    rho, beta = 0.5, 0.02
    a_term = 3 * -math.expm1(-0.08 * h2)
    inner = (2 + a_term - sc.budget / rho + (beta / rho) * h2) / 2
    closed = -math.log(inner) / 0.12
    if closed <= h2:
        assert r == pytest.approx(closed, abs=1e-9)
    else:
        resid = 2 * -math.expm1(-0.12 * r) + a_term - sc.budget / rho + (beta / rho) * r
        assert resid == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# feasible range
# ---------------------------------------------------------------------------

def test_feasible_range_reference_instance():
    sc = two_class_reference()
    rng_ = feasible_range(1, PartialAssignment(0), sc)
    # exhaustive scan over integer h2: keep those with a saturating h1
    tol = budget_tolerance(sc.budget)
    valid = []
    for h2 in range(sc.subslots):
        lo_e = threshold_energy([0.0, float(h2)], sc)
        hi_e = threshold_energy([float(sc.max_threshold), float(h2)], sc)
        if lo_e <= sc.budget + tol and hi_e >= sc.budget - tol:
            valid.append(h2)
    assert valid == list(range(rng_.lo, rng_.hi + 1))
    assert rng_.lo == 11 and rng_.hi == 19


def test_feasible_range_zero_budget():
    sc = make_scenario([0.1, 0.2], 0.0, slots=5)
    rng_ = feasible_range(1, PartialAssignment(0), sc)
    assert rng_.lo == 0 and rng_.hi == 0


def test_feasible_range_empty_prunes():
    # an already-overspent branch yields an empty range for the next class
    sc = make_scenario([0.1, 0.2, 0.15], 0.05, slots=5)
    rng_ = feasible_range(2, PartialAssignment(0, {1: 4}), sc)
    assert rng_.empty


# ---------------------------------------------------------------------------
# enumeration completeness
# ---------------------------------------------------------------------------

def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(60):
        beacon = 0.05 if trial % 2 else 0.0
        sc = random_small_scenario(rng, n_classes=2, max_slots=12,
                                   beacon_scale=beacon)
        for frac_c in range(2):
            enum = {tuple(sorted(a.items()))
                    for a, _ in enumerate_saturating(sc, frac_c)}
            brute = brute_force_saturating(sc, frac_c)
            assert enum == brute
            checked += 1
    assert checked == 120


def test_enumeration_three_classes():
    rng = np.random.default_rng(22)
    for _ in range(10):
        sc = random_small_scenario(rng, n_classes=3, max_slots=6,
                                   beacon_scale=0.03, share_prob=0.6)
        for frac_c in range(3):
            enum = {tuple(sorted(a.items()))
                    for a, _ in enumerate_saturating(sc, frac_c)}
            assert enum == brute_force_saturating(sc, frac_c)


def test_enumerated_profiles_saturate_budget():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sc = random_small_scenario(rng, n_classes=2, max_slots=10,
                                   beacon_scale=0.02)
        for frac_c in range(2):
            for assigned, r in enumerate_saturating(sc, frac_c):
                hs = [0.0, 0.0]
                for c, h in assigned.items():
                    hs[c] = float(h)
                hs[frac_c] = r
                assert threshold_energy(hs, sc) == pytest.approx(
                    sc.budget, abs=1e-8 * max(1.0, sc.budget))


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_grid_search_matches_exhaustive_candidates():
    rng = np.random.default_rng(24)
    for trial in range(25):
        sc = random_small_scenario(rng, n_classes=2, max_slots=10,
                                   beacon_scale=0.03 if trial % 2 else 0.0)
        rep = grid_search(sc)
        best = 0.0
        best_hs = None
        count = 0
        for frac_c in range(2):
            for assigned, r in enumerate_saturating(sc, frac_c):
                hs = [0.0, 0.0]
                for c, h in assigned.items():
                    hs[c] = float(h)
                hs[frac_c] = r
                f = threshold_objective(hs, sc)
                count += 1
                if f > best:
                    best = f
                    best_hs = hs
        full = [float(sc.max_threshold)] * 2
        if threshold_energy(full, sc) <= sc.budget + budget_tolerance(sc.budget):
            assert rep.policy.thresholds == tuple(full)
        else:
            assert rep.enumerated == count
            assert rep.objective == pytest.approx(best, abs=1e-12)


def test_grid_search_full_when_budget_large():
    sc = make_scenario([0.1, 0.2], 100.0, slots=6)
    rep = grid_search(sc)
    assert rep.policy.thresholds == (5.0, 5.0)
    assert rep.upper_bound == pytest.approx(rep.objective)


def test_grid_search_zero_budget():
    sc = make_scenario([0.1, 0.2], 0.0, slots=6)
    rep = grid_search(sc)
    assert rep.policy.thresholds == (0.0, 0.0)
    assert rep.objective == 0.0


def test_grid_search_single_class_closed_form():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=5)
    rep = grid_search(sc)
    assert rep.policy.thresholds[0] == pytest.approx(2.0, abs=1e-9)
    assert evaluate(rep.policy, sc).feasible


def test_grid_search_candidate_count_bound():
    rng = np.random.default_rng(25)
    for _ in range(10):
        n_classes = int(rng.integers(1, 4))
        sc = random_small_scenario(rng, n_classes=n_classes, max_slots=8)
        rep = grid_search(sc)
        assert rep.enumerated <= n_classes * sc.subslots ** max(n_classes - 1, 0) + 1


def test_grid_search_at_most_one_fractional():
    rng = np.random.default_rng(26)
    for _ in range(20):
        sc = random_small_scenario(rng, n_classes=3, max_slots=6)
        rep = grid_search(sc)
        frac = sum(1 for h in rep.policy.thresholds if abs(h - round(h)) > 1e-9)
        assert frac <= 1
        ev = evaluate(rep.policy, sc)
        assert ev.feasible


def test_grid_search_timeout():
    rng = np.random.default_rng(27)
    sc = random_small_scenario(rng, n_classes=5, max_slots=64, min_slots_count=64)
    with pytest.raises(SolveTimeout):
        grid_search(sc, timeout_s=0.05)


# ---------------------------------------------------------------------------
# upper bound
# ---------------------------------------------------------------------------

def test_upper_bound_dominates_solutions():
    rng = np.random.default_rng(28)
    for trial in range(20):
        sc = random_small_scenario(rng, n_classes=2, max_slots=10,
                                   beacon_scale=0.02 if trial % 2 else 0.0)
        rep = grid_search(sc)
        assert rep.upper_bound is not None
        assert rep.upper_bound >= rep.objective - 1e-12
        # rounding up any enumerated candidate stays below the bound
        for frac_c in range(2):
            for assigned, r in enumerate_saturating(sc, frac_c):
                hs = [0.0, 0.0]
                for c, h in assigned.items():
                    hs[c] = float(h)
                hs[frac_c] = r
                rounded = [min(math.floor(h) + 1, sc.max_threshold) for h in hs]
                assert threshold_objective(rounded, sc) <= rep.upper_bound + 1e-12


def test_upper_bound_equals_full_policy_when_unconstrained():
    sc = make_scenario([0.1, 0.2], 100.0, slots=6)
    assert upper_bound(sc) == pytest.approx(
        threshold_objective([5.0, 5.0], sc), abs=1e-12)


# ---------------------------------------------------------------------------
# ratio bound
# ---------------------------------------------------------------------------

def test_ratio_bound_single_class_is_one():
    assert ratio_bound(7, 3, 1) == pytest.approx(1.0, abs=1e-15)


def test_ratio_bound_worst_case_limit():
    assert ratio_bound(2, 10, math.inf) == 1.0 - 2.0 ** -10


def test_ratio_bound_monotonicity():
    assert ratio_bound(5, 2, 3) < ratio_bound(9, 2, 3)
    assert ratio_bound(5, 2, 3) < ratio_bound(5, 4, 3)
    assert ratio_bound(5, 2, 4) < ratio_bound(5, 2, 2)
    b = ratio_bound(3, 1, 5)
    assert 0.0 < b <= 1.0


def test_ratio_bound_validates_arguments():
    with pytest.raises(ValueError):
        ratio_bound(0, 1, 2)
    with pytest.raises(ValueError):
        ratio_bound(2, 0, 2)
