"""Greedy construction: cardinality cap, per-class minimum slots, award
sequence properties, cost-model consistency, and the combined variant."""

import math

import numpy as np
import pytest

from twohop import (
    COMBINED_GUARANTEE,
    GreedyVariant,
    Policy,
    ThresholdPolicy,
    cardinality_cap,
    combined_best,
    delivery_probability,
    evaluate,
    greedy_construct,
    grid_search,
    min_slots,
    threshold_energy,
    threshold_objective,
)
from twohop.gridsearch import (BudgetExceededError, BudgetUnboundedError, _solo_ends,
                               boundary_threshold)
from conftest import (
    brute_force_integer_optimum,
    integer_objective,
    integer_profile,
    make_scenario,
    random_small_scenario,
)


# ---------------------------------------------------------------------------
# cardinality cap and minimum slots
# ---------------------------------------------------------------------------

def test_cap_single_class_example():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=5)
    assert cardinality_cap(sc) == 2


def test_cap_clamps_at_grid():
    sc = make_scenario([0.1, 0.2], 100.0, slots=6)
    assert cardinality_cap(sc) == sc.max_threshold


def test_cap_zero_budget():
    sc = make_scenario([0.1, 0.2], 0.0, slots=6)
    assert cardinality_cap(sc) == 0


def test_min_slots_trivials():
    rich = make_scenario([0.1, 0.2], 100.0, slots=6)
    assert min_slots(0, rich) == rich.max_threshold
    assert min_slots(1, rich) == rich.max_threshold
    # others at full already overspend
    tight = make_scenario([0.1, 0.4], 0.05, slots=6)
    assert min_slots(0, tight) == 0


def test_min_slots_one_slot_short():
    # budget = all-full cost minus the marginal cost of class 0's last slot:
    # with the others full, class 0 affords exactly max_threshold - 1 slots
    sc0 = make_scenario([0.15, 0.25], 1.0, slots=6)
    n1 = sc0.max_threshold
    full = [float(n1)] * 2
    lam_dt = 0.15
    marginal = -(math.exp(-lam_dt * n1) - math.exp(-lam_dt * (n1 - 1)))
    budget = threshold_energy(full, sc0) - marginal
    sc = make_scenario([0.15, 0.25], budget, slots=6)
    s0 = min_slots(0, sc)
    assert s0 == n1 - 1
    probe = [float(s0), float(n1)]
    assert threshold_energy(probe, sc) <= sc.budget + 1e-9


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_certificates_read_an_end_a_few_ulps_below_an_integer(k):
    # the budget is stepped down from the energy of threshold k, alone and
    # beside a class in full, until the solved end falls below k: it then
    # lies a few ulps under k, and the _SNAP slack still reads k
    for lam in ([0.3], [0.3, 0.2]):
        sc = make_scenario(lam, 1.0, slots=10)
        others = {1: sc.max_threshold} if len(lam) == 2 else {}
        budget = threshold_energy([float(k)] + [float(h) for h in others.values()], sc)
        sc = make_scenario(lam, budget, slots=10)
        while (end := boundary_threshold(0, others, sc)) >= k:
            budget = math.nextafter(budget, 0.0)
            sc = make_scenario(lam, budget, slots=10)
        assert 0.0 < k - end < 1e-12
        assert (min_slots(0, sc) if others else cardinality_cap(sc)) == k


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------

def test_greedy_report_is_the_same_after_a_grid_search():
    # the certificates read the ends that the grid search's first level
    # cached (gridsearch._solo_ends); cold or after grid_search on the same
    # scenario, every report bit is the same
    rng = np.random.default_rng(45)
    hits = 0
    for i in range(24):
        sc = random_small_scenario(rng, n_classes=1 + i % 3, max_slots=10,
                                   beacon_scale=0.05 if i % 2 else 0.0, share_prob=0.6)
        _solo_ends.cache_clear()
        cold = greedy_construct(sc)
        _solo_ends.cache_clear()
        grid_search(sc)
        before = _solo_ends.cache_info().hits
        warm = greedy_construct(sc)
        hits += _solo_ends.cache_info().hits - before
        assert repr(warm) == repr(cold)
    assert hits >= 2 * 24


def test_greedy_zero_budget():
    sc = make_scenario([0.1, 0.2], 0.0, slots=6)
    rep = greedy_construct(sc)
    assert rep.policy.thresholds == (0.0, 0.0)
    assert rep.objective == 0.0
    assert rep.iterations == 0
    assert rep.online_bound == 0.0


def test_greedy_single_class_matches_boundary_floor():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=8)
    rep = greedy_construct(sc)
    assert integer_profile(rep, sc) == (2.0,)
    assert rep.iterations == 2
    assert rep.policy.thresholds[0] == pytest.approx(2.0, abs=1e-9)


def test_greedy_awards_are_left_packed_and_feasible():
    rng = np.random.default_rng(31)
    for trial in range(25):
        sc = random_small_scenario(rng, n_classes=3, max_slots=8,
                                   beacon_scale=0.03 if trial % 2 else 0.0)
        rep = greedy_construct(sc)
        hs = integer_profile(rep, sc)
        assert all(h == int(h) for h in hs)
        assert evaluate(ThresholdPolicy(hs), sc).feasible
        assert rep.iterations == int(sum(hs))
        # the top-up only extends one class of that profile
        assert sum(a != b for a, b in zip(rep.policy.thresholds, hs)) <= 1
        assert all(a >= b for a, b in zip(rep.policy.thresholds, hs))
        assert 0.0 <= rep.online_bound < 1.0
        assert 0.0 <= rep.offline_bound < 1.0


def test_greedy_topup_only_improves():
    rng = np.random.default_rng(32)
    for _ in range(20):
        sc = random_small_scenario(rng, n_classes=2, max_slots=8)
        topped = greedy_construct(sc)
        assert topped.objective >= integer_objective(topped, sc) - 1e-12
        assert evaluate(topped.policy, sc).feasible
        if topped.topup_class is not None:
            frac = sum(1 for h in topped.policy.thresholds
                       if abs(h - round(h)) > 1e-9)
            assert frac <= 1


def test_greedy_marginal_gains_nonincreasing_single_class():
    # concavity of the per-class objective: award gains shrink monotonically
    sc = make_scenario([0.25], 10.0, slots=10, populations=[4])
    gains = []
    prev = 0.0
    for h in range(1, sc.subslots):
        cur = threshold_objective([float(h)], sc)
        gains.append(cur - prev)
        prev = cur
    assert all(b <= a + 1e-12 for a, b in zip(gains, gains[1:]))


def test_gain_per_cost_rejected_with_beacons():
    sc = make_scenario([0.1, 0.2], 1.0, slots=5, beta=[0.01, 0.01])
    with pytest.raises(ValueError):
        greedy_construct(sc, GreedyVariant.GAIN_PER_COST)
    with pytest.raises(ValueError):
        combined_best(sc)


def test_cost_model_matches_energy_without_beacons():
    # telescoping per-slot costs reproduce the exact transmission energy
    rng = np.random.default_rng(33)
    for _ in range(20):
        sc = random_small_scenario(rng, n_classes=2, max_slots=9)
        hs = [int(rng.integers(0, sc.subslots)) for _ in range(2)]
        psi = 0.0
        for c, h in enumerate(hs):
            cls = sc.classes[c]
            g = sc.rates[c] * sc.eff_slot
            for k in range(h):
                psi += cls.tx_cost * cls.population * math.exp(-g * k) * -math.expm1(-g)
        assert psi == pytest.approx(threshold_energy([float(h) for h in hs], sc),
                                    abs=1e-12)


def test_online_bound_against_integer_optimum():
    rng = np.random.default_rng(34)
    for trial in range(15):
        sc = random_small_scenario(rng, n_classes=2, max_slots=7,
                                   beacon_scale=0.02 if trial % 3 == 0 else 0.0)
        rep = greedy_construct(sc)
        best_int = brute_force_integer_optimum(sc)
        assert integer_objective(rep, sc) >= rep.online_bound * best_int - 1e-9


def test_combined_guarantee_constant():
    assert COMBINED_GUARANTEE == pytest.approx(0.31606027941427883, abs=1e-15)


def test_combined_best_is_max_of_variants():
    rng = np.random.default_rng(35)
    for _ in range(10):
        sc = random_small_scenario(rng, n_classes=2, max_slots=8)
        both = combined_best(sc)
        g1 = greedy_construct(sc, GreedyVariant.GAIN)
        g2 = greedy_construct(sc, GreedyVariant.GAIN_PER_COST)
        assert both.objective == pytest.approx(max(g1.objective, g2.objective),
                                               abs=1e-15)


def test_combined_meets_guarantee_vs_integer_optimum():
    rng = np.random.default_rng(36)
    for _ in range(15):
        sc = random_small_scenario(rng, n_classes=2, max_slots=7)
        # the better of the two variants' integer profiles
        best = max(integer_objective(greedy_construct(sc, variant), sc)
                   for variant in GreedyVariant)
        best_int = brute_force_integer_optimum(sc)
        assert best >= COMBINED_GUARANTEE * best_int - 1e-9


def test_grid_dominates_greedy():
    rng = np.random.default_rng(37)
    for trial in range(20):
        sc = random_small_scenario(rng, n_classes=2, max_slots=9,
                                   beacon_scale=0.02 if trial % 2 else 0.0)
        grid = grid_search(sc)
        rep = greedy_construct(sc)
        assert grid.objective >= integer_objective(rep, sc) - 1e-9
        assert grid.objective >= rep.objective - 1e-9


def _alone_unbounded(c, sc):
    """True when class c alone cannot exhaust the budget at full transmission."""
    try:
        boundary_threshold(c, {}, sc)
    except BudgetUnboundedError:
        return True
    except BudgetExceededError:
        pass
    return False


def test_iterations_within_cap_when_solo_capacity_binds():
    # when some class alone can exhaust the budget, the cap truly limits the
    # total number of awarded slots
    rng = np.random.default_rng(38)
    checked = 0
    for _ in range(40):
        sc = random_small_scenario(rng, n_classes=2, max_slots=8,
                                   budget_frac=(0.05, 0.4))
        if any(_alone_unbounded(c, sc) for c in range(2)):
            continue
        rep = greedy_construct(sc)
        assert rep.iterations <= rep.cardinality_cap
        checked += 1
    assert checked >= 5
