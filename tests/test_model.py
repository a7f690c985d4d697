"""Model-level oracles: elementary quantities, delivery law, energy law,
threshold expansion, and the structural invariants they must satisfy."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import cached_property, lru_cache

import numpy as np
import pytest

from twohop import (
    NodeClass,
    Policy,
    Scenario,
    ScenarioError,
    Technology,
    ThresholdPolicy,
    contact_rate,
    delivery_probability,
    energy_spent,
    evaluate,
    expand_threshold,
    expected_holding,
    expected_received,
    greedy_construct,
    grid_search,
    holding_laplace,
    threshold_energy,
    threshold_objective,
)
from twohop import model
from twohop.cli import sample_table_scenario
from twohop.model import _law, _laws, _log_miss_slopes, class_log_miss, class_log_miss_table
from twohop.mcsim import holding_expectation
from conftest import make_scenario, random_small_scenario, two_class_reference


# ---------------------------------------------------------------------------
# contact rate
# ---------------------------------------------------------------------------

def test_contact_rate_pedestrian_zigbee():
    sc = Scenario(
        classes=(NodeClass(1, 1, speed=1.5, range_m=15.0, tx_cost=1.0, technology="z"),),
        technologies=(Technology("z", 0.0),),
        deadline=10.0, slot_len=10.0, arena_radius=500.0, budget=1.0)
    lam = contact_rate(sc.classes[0], sc)
    direct = 8 * 1.3693 * 15.0 * 1.5 / (math.pi * 500.0 ** 2)
    assert lam == pytest.approx(direct, rel=1e-15)
    assert lam == pytest.approx(3.1382e-4, rel=1e-4)


def test_contact_rate_vehicle_wifi():
    sc = Scenario(
        classes=(NodeClass(1, 1, speed=9.0, range_m=100.0, tx_cost=1.0, technology="w"),),
        technologies=(Technology("w", 0.0),),
        deadline=10.0, slot_len=10.0, arena_radius=1000.0, budget=1.0)
    assert contact_rate(sc.classes[0], sc) == pytest.approx(3.1382e-3, rel=1e-4)


def test_contact_rate_quarter_when_arena_doubles():
    base = dict(classes=(NodeClass(3, 1, 2.5, 40.0, 1.0, "t"),),
                technologies=(Technology("t", 0.0),),
                deadline=10.0, slot_len=10.0, budget=1.0)
    sc1 = Scenario(arena_radius=400.0, **base)
    sc2 = Scenario(arena_radius=800.0, **base)
    assert contact_rate(sc2.classes[0], sc2) == pytest.approx(
        contact_rate(sc1.classes[0], sc1) / 4.0, rel=1e-15)


# ---------------------------------------------------------------------------
# expected counts
# ---------------------------------------------------------------------------

def test_expected_received_example():
    sc = make_scenario([0.1], 1.0, slots=8, populations=[10])
    pol = Policy(np.ones((1, 8)))
    assert expected_received(0, 4, pol, sc) == pytest.approx(10 * -math.expm1(-0.5), abs=1e-12)
    assert expected_received(0, 4, Policy(np.zeros((1, 8))), sc) == 0.0
    # monotone in k, approaching the population
    vals = [expected_received(0, k, pol, sc) for k in range(8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 10.0


def test_expected_holding_window():
    sc = make_scenario([0.1], 1.0, slots=8, populations=[10], ttl=[2])
    pol = Policy(np.ones((1, 8)))
    # at k=4 the window is slots 2..4
    assert expected_holding(0, 4, pol, sc) == pytest.approx(10 * -math.expm1(-0.3), abs=1e-12)
    assert expected_holding(0, 4, Policy(np.zeros((1, 8))), sc) == 0.0


def test_expected_counts_keep_precision_at_small_mass():
    # 1 - exp(-lam dt mass) would cancel almost every digit of this mass
    sc = make_scenario([0.1], 1.0, slots=8, populations=[10], ttl=[2])
    pol = Policy(np.array([[0.0, 0.0, 0.0, 1e-10, 0.0, 0.0, 0.0, 0.0]]))
    exact = 10 * -math.expm1(-sc.rates[0] * sc.eff_slot * 1e-10)
    assert expected_received(0, 4, pol, sc) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert expected_holding(0, 4, pol, sc) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_small_window_after_a_large_prefix_keeps_precision():
    # a difference of prefix sums would carry the rounding of the first 50
    # sub-slots' mass into the 3e-10 window of sub-slot 55 (1.8e-5 relative)
    sc = make_scenario([0.1], 1.0, slots=60, populations=[1], ttl=[2])
    row = np.where(np.arange(60) < 50, 1.0, 1e-10)
    pol = Policy(row[None, :])
    x = sc.rates[0] * sc.eff_slot
    exact = -math.expm1(-x * math.fsum(row[53:56]))
    assert expected_holding(0, 55, pol, sc) == pytest.approx(exact, rel=1e-12, abs=0.0)
    q_before = math.exp(-x * math.fsum(row[:53]))
    assert holding_expectation(pol, sc)[0, 55] == pytest.approx(q_before * exact, rel=1e-12,
                                                                abs=0.0)


@pytest.mark.parametrize("k", [-1, 8], ids=["before", "after"])
def test_subslot_index_outside_horizon_is_rejected(k):
    sc = make_scenario([0.1], 1.0, slots=8, populations=[10], ttl=[2])
    pol = Policy(np.ones((1, 8)))
    with pytest.raises(ValueError):
        expected_received(0, k, pol, sc)
    with pytest.raises(ValueError):
        expected_holding(0, k, pol, sc)
    with pytest.raises(ValueError):
        holding_laplace(0.5, 0, k, pol, sc)


def test_holding_equals_received_with_long_ttl():
    rng = np.random.default_rng(0)
    sc = make_scenario([0.2], 1.0, slots=6, populations=[4], ttl=[6])
    pol = Policy(rng.uniform(0, 1, size=(1, 6)))
    for k in range(6):
        held = expected_holding(0, k, pol, sc)
        recv = expected_received(0, k, pol, sc)
        assert held == pytest.approx(recv, abs=1e-15)


def test_holding_never_exceeds_received():
    rng = np.random.default_rng(1)
    for _ in range(30):
        sc = random_small_scenario(rng, n_classes=2, beacon_scale=0.02)
        pol = Policy(rng.uniform(0, 1, size=(2, sc.subslots)))
        for c in range(2):
            for k in range(sc.subslots):
                assert expected_holding(c, k, pol, sc) <= expected_received(c, k, pol, sc) + 1e-12


# ---------------------------------------------------------------------------
# holding_laplace
# ---------------------------------------------------------------------------

def test_holding_laplace_hand_value():
    # N=2, p=0.5, s=ln 2 -> (1 - 0.5*0.5)^2 = 0.5625
    sc = make_scenario([5.0], 1.0, slots=1, populations=[2])
    x = -math.log(1 - 0.5) / 5.0     # single-slot mass making p = 0.5
    pol = Policy(np.array([[x]]))
    assert holding_laplace(math.log(2.0), 0, 0, pol, sc) == pytest.approx(0.5625, abs=1e-12)


def test_holding_laplace_trivials():
    sc = make_scenario([0.3], 1.0, slots=4, populations=[7])
    zero = Policy(np.zeros((1, 4)))
    assert holding_laplace(1.7, 0, 2, zero, sc) == 1.0
    pol = Policy(np.ones((1, 4)))
    assert holding_laplace(1e-12, 0, 3, pol, sc) == pytest.approx(1.0, abs=1e-9)


def test_holding_laplace_matches_binomial_sum():
    rng = np.random.default_rng(2)
    sc_cache = {}
    for _ in range(200):
        n_pop = int(rng.integers(1, 13))
        p_target = float(rng.uniform(0.0, 0.99))
        s = float(rng.uniform(0.01, 3.0))
        if n_pop not in sc_cache:
            sc_cache[n_pop] = make_scenario([5.0], 1.0, slots=1, populations=[n_pop])
        sc = sc_cache[n_pop]
        x = -math.log(1 - p_target) / 5.0 if p_target > 0 else 0.0
        pol = Policy(np.array([[min(x, 1.0)]]))
        p = 1 - math.exp(-5.0 * min(x, 1.0))
        direct = sum(math.comb(n_pop, y) * p ** y * (1 - p) ** (n_pop - y) * math.exp(-s * y)
                     for y in range(n_pop + 1))
        assert holding_laplace(s, 0, 0, pol, sc) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# delivery probability
# ---------------------------------------------------------------------------

def delivery_oracle(pol: Policy, sc: Scenario) -> float:
    """Slow product of explicit binomial sums, built from scratch."""
    prod = 1.0
    for c, cls in enumerate(sc.classes):
        lam = sc.rates[c]
        dt = sc.eff_slot
        s = lam * dt
        for h in range(sc.subslots):
            lo = max(0, h - cls.ttl_slots)
            p = 1.0 - math.exp(-lam * dt * float(pol.probs[c][lo:h + 1].sum()))
            mgf = sum(math.comb(cls.population, y) * p ** y * (1 - p) ** (cls.population - y)
                      * math.exp(-s * y) for y in range(cls.population + 1))
            prod *= mgf
    return 1.0 - prod


def test_delivery_zero_policy():
    sc = make_scenario([0.1, 0.2], 1.0, slots=5)
    assert delivery_probability(Policy.zeros(sc), 5, sc) == 0.0


def test_delivery_two_slot_hand_expansion():
    sc = make_scenario([0.1], 1.0, slots=2)
    pol = Policy(np.ones((1, 2)))
    q0 = -math.expm1(-0.1)
    q1 = -math.expm1(-0.2)
    expected = 1 - (1 - q0 * q0) * (1 - q1 * q0)
    got = delivery_probability(pol, 2, sc)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(0.0262, abs=1e-4)


def test_delivery_matches_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        sc = random_small_scenario(rng, n_classes=int(rng.integers(1, 4)),
                                   max_slots=7, beacon_scale=0.02)
        pol = Policy(rng.uniform(0, 1, size=(len(sc.classes), sc.subslots)))
        assert delivery_probability(pol, sc.subslots, sc) == pytest.approx(
            delivery_oracle(pol, sc), abs=1e-10)


def test_delivery_monotone_in_policy():
    rng = np.random.default_rng(4)
    for _ in range(50):
        sc = random_small_scenario(rng, n_classes=2, max_slots=8)
        base = rng.uniform(0, 1, size=(2, sc.subslots))
        bumped = np.clip(base + rng.uniform(0, 1, size=base.shape) *
                         (rng.random(base.shape) < 0.3), 0, 1)
        f0 = delivery_probability(Policy(base), sc.subslots, sc)
        f1 = delivery_probability(Policy(bumped), sc.subslots, sc)
        assert f1 >= f0 - 1e-12


def test_threshold_dominance_left_packing():
    # with copies surviving to the horizon, any policy is dominated by the
    # left-packed threshold policy of equal mass (left packing maximises every
    # reception window); short TTLs can break this, see the companion test
    rng = np.random.default_rng(5)
    for _ in range(80):
        sc = random_small_scenario(rng, n_classes=2, max_slots=8)
        sc = Scenario(
            tuple(NodeClass(c.population, sc.subslots, c.speed, c.range_m,
                            c.tx_cost, c.technology) for c in sc.classes),
            sc.technologies, sc.deadline, sc.slot_len, sc.arena_radius,
            sc.budget, sc.resolution)
        mats = rng.uniform(0, 1, size=(2, sc.subslots))
        # keep mass representable as a threshold
        for c in range(2):
            total = mats[c].sum()
            if total > sc.max_threshold:
                mats[c] *= sc.max_threshold / total
        pol = Policy(mats)
        for c in range(2):
            packed = np.array(mats)
            h = packed[c].sum()
            tp_row = expand_threshold(
                ThresholdPolicy(tuple(h if i == c else 0.0 for i in range(2))), sc)
            packed[c] = tp_row.probs[c]
            assert delivery_probability(Policy(packed), sc.subslots, sc) >= \
                delivery_probability(pol, sc.subslots, sc) - 1e-12


def test_left_packing_can_lose_with_short_ttl():
    # counterexample: a copy that expires before the horizon covers fewer
    # reception windows when its transmission is pulled to the front
    sc = make_scenario([0.3], 1.0, slots=3, populations=[3], ttl=[1])
    spread = Policy(np.array([[0.5, 0.25, 0.0]]))
    packed = expand_threshold(ThresholdPolicy((0.75,)), sc)
    assert delivery_probability(packed, 3, sc) < delivery_probability(spread, 3, sc)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_examples():
    sc = make_scenario([0.1], 1.0, slots=2)
    pol = Policy(np.ones((1, 2)))
    assert energy_spent(pol, sc) == pytest.approx(-math.expm1(-0.2), abs=1e-12)
    sc_b = make_scenario([0.1], 1.0, slots=2, beta=[0.01])
    assert energy_spent(pol, sc_b) == pytest.approx(-math.expm1(-0.2) + 0.02, abs=1e-12)


def test_energy_reference_instance_saturates():
    sc = two_class_reference()
    assert threshold_energy([7.87, 15.99], sc) == pytest.approx(0.7, abs=5e-4)
    assert threshold_energy([7.87, 15.99], sc) == pytest.approx(0.6997466334991346, abs=1e-12)


def test_energy_beta_zero_additive_per_class():
    rng = np.random.default_rng(6)
    sc = random_small_scenario(rng, n_classes=3)
    pol = Policy(rng.uniform(0, 1, size=(3, sc.subslots)))
    total = energy_spent(pol, sc)
    parts = 0.0
    for c in range(3):
        solo = np.zeros_like(pol.probs)
        solo[c] = pol.probs[c]
        parts += energy_spent(Policy(solo), sc)
    assert total == pytest.approx(parts, abs=1e-12)


def test_energy_shared_tech_no_double_count():
    # one slot where exactly one class of a shared technology transmits at 1
    sc = make_scenario([0.1, 0.2], 1.0, slots=3, beta=[0.05, 0.05], shared_tech=True)
    mat = np.zeros((2, 3))
    mat[0, 1] = 1.0
    e = energy_spent(Policy(mat), sc)
    tx = sc.classes[0].tx_cost * sc.classes[0].population * -math.expm1(-0.1)
    assert e == pytest.approx(tx + 0.05, abs=1e-12)


def test_threshold_energy_matches_expansion():
    rng = np.random.default_rng(7)
    for _ in range(150):
        sc = random_small_scenario(rng, n_classes=int(rng.integers(1, 5)),
                                   beacon_scale=0.05)
        hs = rng.uniform(0, sc.max_threshold, size=len(sc.classes))
        direct = threshold_energy(hs, sc)
        via = energy_spent(expand_threshold(ThresholdPolicy(tuple(hs)), sc), sc)
        assert direct == pytest.approx(via, abs=1e-12)


def test_threshold_objective_matches_expansion():
    rng = np.random.default_rng(8)
    for _ in range(100):
        sc = random_small_scenario(rng, n_classes=int(rng.integers(1, 4)))
        hs = rng.uniform(0, sc.max_threshold, size=len(sc.classes))
        direct = threshold_objective(hs, sc)
        via = delivery_probability(expand_threshold(ThresholdPolicy(tuple(hs)), sc),
                                   sc.subslots, sc)
        assert direct == pytest.approx(via, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 19.5])
def test_threshold_energy_rejects_thresholds_off_the_grid(bad):
    sc = two_class_reference()     # 20 sub-slots: 19.5 is half a sub-slot past the grid
    with pytest.raises(ValueError, match="outside policy grid"):
        threshold_energy([bad, 1.0], sc)
    with pytest.raises(ValueError, match="outside policy grid"):
        threshold_energy([1.0, bad], sc)
    # the 1e-9 slack of class_log_miss still admits rounding at both ends
    assert threshold_energy([-1e-10, sc.max_threshold + 1e-10], sc) == pytest.approx(
        threshold_energy([0.0, sc.max_threshold], sc), abs=1e-9)


@pytest.mark.parametrize("hs", [[5.0], [5.0, 0.0, 1.0]])
def test_threshold_functionals_reject_a_wrong_threshold_count(hs):
    sc = two_class_reference()
    with pytest.raises(ValueError, match="threshold count"):
        threshold_objective(hs, sc)
    with pytest.raises(ValueError, match="threshold count"):
        threshold_energy(hs, sc)


# ---------------------------------------------------------------------------
# per-class log-miss tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("resolution", [1, 5])
def test_log_miss_table_has_class_log_miss_bits(resolution):
    rng = np.random.default_rng(40 + resolution)
    for i in range(30):
        lam = rng.uniform(1e-4, 0.6, size=3).tolist()
        slots = 1 if i == 0 else int(rng.integers(2, 13))
        n = slots * resolution
        pops = rng.integers(1, 60, size=3).tolist()
        # TTLs in sub-slots: short, n - 1, n and beyond, and 10**6
        for ttl_sub in {1, max(1, n // 3), max(1, n - 1), n, n + 4, 10 ** 6}:
            sc = make_scenario(lam, 1.0, slots=slots, populations=pops,
                               resolution=resolution)
            sc = replace(sc, classes=tuple(replace(c, ttl_slots=ttl_sub) for c in sc.classes))
            for c in range(3):
                table = class_log_miss_table(c, sc)
                assert not table.flags.writeable
                assert np.array_equal(table, class_log_miss(c, np.arange(n), sc))


def test_log_miss_table_cache_is_keyed_by_class_parameters():
    # a fresh rate per test run keeps earlier tests' entries out of the count
    lam = 0.0123456789
    base = make_scenario([lam, 0.2], 1.0, slots=9, populations=[3, 2],
                         rho=[1.0, 1.0], beta=[0.0, 0.0], ttl=[4, 9], resolution=2)
    same_class = [
        replace(base, budget=0.25),
        make_scenario([lam, 0.2], 1.0, slots=9, populations=[3, 2], rho=[0.4, 1.0],
                      beta=[0.01, 0.02], ttl=[4, 9], resolution=2),
        make_scenario([lam, 0.31, 0.05], 1.0, slots=9, populations=[8, 1, 1],
                      ttl=[4, 2, 9], resolution=2),
    ]
    other_class = [
        make_scenario([lam * 1.5, 0.2], 1.0, slots=9, populations=[3, 2],
                      ttl=[4, 9], resolution=2),
        make_scenario([lam, 0.2], 1.0, slots=10, populations=[3, 2],
                      ttl=[4, 9], resolution=2),
    ]
    class_log_miss_table(0, base)
    want = [class_log_miss(0, np.arange(sc.subslots), sc) for sc in same_class]
    before = _laws.cache_info()
    for sc, evaluated in zip(same_class, want):
        assert np.array_equal(class_log_miss_table(0, sc), evaluated)
    after = _laws.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
    for sc in other_class:
        class_log_miss_table(0, sc)
    assert _laws.cache_info().misses - after.misses == 2


def test_log_miss_stays_finite_for_a_very_fast_class():
    # the two-class CLI scenario at 1,900 m/s, lam dt = 39.75: 1 - e^-x and
    # a window's 1 - e^{-x w} round to 1, where log1p(-p g) read -inf with a
    # divide warning; each term must match log(e^{-x w} + e^-x (1 - e^{-x w}))
    sc = Scenario(classes=(NodeClass(1, 2, 1900.0, 15.0, 1.0, "z"),
                           NodeClass(1, 2, 3.0, 15.0, 1.0, "z")),
                  technologies=(Technology("z", 0.0),), deadline=600.0, slot_len=100.0,
                  arena_radius=500.0, budget=0.3)
    x = sc.rates[0] * sc.eff_slot
    assert x > 39.0
    hs = [0.0, 0.5, 1.0, 2.25, 3.0, 4.75, 5.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = class_log_miss_table(0, sc)
        got = class_log_miss(0, hs, sc)
    assert np.all(np.isfinite(table)) and np.all(np.diff(table) <= 0.0)
    assert np.all(np.diff(got) <= 0.0)
    for h, value in zip(hs, got):
        windows = [min(k + 1, h) - min(max(0, k - 2), h) for k in range(sc.subslots)]
        want = math.fsum(math.log(math.exp(-x * w) - math.exp(-x) * math.expm1(-x * w))
                         for w in windows)
        assert value == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("lam_dt", [1e-4, 0.004, 0.3, 5.0, 40.0, 60.0])
def test_log_miss_terms_do_not_depend_on_the_array_layout(lam_dt):
    # the row kernel reads a mass's term from whichever array holds it (the
    # integer terms, the caps, a block of run terms), so each term must keep
    # its bits whatever the array's shape, length, stride, order, offset or
    # neighbours; past lam dt = 37 the logaddexp branch runs on some entries
    rng = np.random.default_rng(33)
    x = -lam_dt
    w = np.concatenate((np.arange(0.0, 301.0), rng.uniform(0.0, 300.0, 696),
                        np.arange(1.0, 301.0) - 1e-12, [1e-300, 5e-324, 1e-12]))
    flat = model._log_miss_terms(x, w)
    assert (lam_dt > 37.0) == (-math.expm1(x) == 1.0)

    def same(got, want=flat):
        return np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64))

    assert same(model._log_miss_terms(x, w.reshape(50, -1)).ravel())
    assert same(model._log_miss_terms(x, w.reshape(-1, 50).T).T.ravel())
    assert same(np.concatenate([model._log_miss_terms(x, w[i:i + 1]) for i in range(w.size)]))
    assert same(model._log_miss_terms(x, np.repeat(w, 3)[1::3]))
    assert same(model._log_miss_terms(x, w[::-1])[::-1])
    assert same(model._log_miss_terms(x, np.concatenate(([0.5], w))[1:]))
    pick = rng.integers(0, w.size, 5000)
    assert same(model._log_miss_terms(x, w[pick]), flat[pick])
    # a block of runs, a fractional part per row plus the integers 7..0,
    # against each row alone
    runs = w[301:997, None] % 1.0 + np.arange(7.0, -1.0, -1.0)
    assert same(model._log_miss_terms(x, runs).ravel(),
                np.concatenate([model._log_miss_terms(x, row) for row in runs]))


def test_threshold_objective_reads_integer_thresholds_off_the_table():
    # an integer threshold on the grid reads the built sums times the
    # population; every class's term, and the objective, must keep
    # class_log_miss's bits for integers, integers -/+ 1e-12 and fractions,
    # with TTLs below, at and beyond the last sub-slot and lam dt past 37;
    # a class whose sums are not built is evaluated, and builds none
    rng = np.random.default_rng(47)
    read = 0
    for i in range(60):
        q = 1 + i % 3
        slots, res = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        n = slots * res
        lam = rng.uniform(0.001, 0.5, q).tolist()
        if i % 4 == 0:
            lam[0] = float(rng.uniform(38.0, 60.0))     # _log_miss_terms' logaddexp branch
        sc = make_scenario(lam, 1.0, slots=slots, populations=rng.integers(1, 40, q).tolist(),
                           resolution=res)
        sc = replace(sc, classes=tuple(replace(cls, ttl_slots=int(rng.integers(1, n + 3)))
                                       for cls in sc.classes))
        if i % 6 == 5:
            built = ["sums" in _law(c, sc).__dict__ for c in range(q)]
            threshold_objective([0.0] * q, sc)
            assert ["sums" in _law(c, sc).__dict__ for c in range(q)] == built
        for c in range(q - i % 2):     # the last class unbuilt on odd draws
            class_log_miss_table(c, sc)
        for _ in range(5):
            ints = rng.integers(0, n, q).astype(float)
            for hs in (ints, ints - 1e-12, ints + 1e-12, rng.uniform(0.0, n - 1.0, q)):
                hs = hs.tolist()
                want = [float(class_log_miss(c, [h], sc)[0]) for c, h in enumerate(hs)]
                got = [model._log_miss_at(c, h, sc) for c, h in enumerate(hs)]
                assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
                assert np.array([threshold_objective(hs, sc)]).view(np.int64) == \
                    np.array([-math.expm1(sum(want))]).view(np.int64)
                read += sum(float(h).is_integer() and "sums" in _law(c, sc).__dict__
                            for c, h in enumerate(hs))
    assert read >= 200


def test_cached_class_arrays_are_read_only_and_shared_by_populations():
    # classes 0 and 1 share -lam dt, TTL and grid length and differ in
    # population: one key, one record of cached sums, slopes and tx terms
    sc = make_scenario([0.05, 0.05, 0.3], 1.0, slots=7, populations=[3, 11, 3], ttl=[7, 9, 2],
                       resolution=2)
    full, finite = _law(0, sc), _law(2, sc)
    assert _law(1, sc) is full and finite is not full
    assert (full.x, full.ttl, full.n) == (-sc.rates[0] * sc.eff_slot, sc.subslots - 1, 14)
    assert full.sums is _law(1, sc).sums and full.tx is _law(1, sc).tx
    assert np.array_equal(_log_miss_slopes(0, sc), 3 * full.slopes)
    assert np.array_equal(_log_miss_slopes(1, sc), 11 * full.slopes)
    assert full.caps is _law(1, sc).caps and finite.caps is not full.caps
    # past k = ttl every window of the finite class holds ttl + 1 sub-slots
    assert finite.ttl == 4 and np.all(finite.caps[4:] == finite.caps[4])
    assert np.all(np.diff(finite.caps[:5]) < 0.0) and np.all(np.diff(full.caps) < 0.0)
    for arr in (full.sums, finite.sums, full.slopes, full.caps, full.prefix, finite.caps,
                finite.prefix, finite.slopes, full.tx, finite.tx):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


class _DoubledLaw(model._Law):
    """A second law record: every per-relay log-miss field doubled (``tail``
    once, so not through its ``prefix``)."""

    @cached_property
    def sums(self):
        return 2 * super().sums

    @cached_property
    def slopes(self):
        return 2 * super().slopes

    def at(self, h):
        return 2 * super().at(h)

    def tail(self, r, j):
        return 2 * super().tail(r, j)


def test_solvers_read_the_log_miss_law_only_through_the_record(monkeypatch):
    # with the doubled record installed, grid and greedy must return the
    # bits of the same scenario with every population doubled and every
    # tx_cost halved: both scalings are exact, and the energies are the same
    rng = np.random.default_rng(5)
    draws = [sample_table_scenario(rng, resolution=3, n_classes=1 + i % 3,
                                   with_beacons=i % 2 == 0)[1] for i in range(60)]

    def solve(sc):
        grid, greedy = grid_search(sc), greedy_construct(sc)
        return repr((grid.policy, grid.objective, grid.upper_bound, grid.enumerated,
                     greedy.policy, greedy.objective, greedy.iterations))

    scaled = [solve(replace(sc, classes=tuple(
        replace(cls, population=2 * cls.population, tx_cost=cls.tx_cost / 2)
        for cls in sc.classes))) for sc in draws]
    monkeypatch.setattr(model, "_laws", lru_cache(maxsize=None)(_DoubledLaw))
    assert [solve(sc) for sc in draws] == scaled


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 19.5])
def test_class_log_miss_rejects_thresholds_off_the_grid(bad):
    sc = two_class_reference()
    with pytest.raises(ValueError, match="outside policy grid"):
        class_log_miss(0, [bad], sc)
    with pytest.raises(ValueError, match="outside policy grid"):
        class_log_miss(1, [1.0, bad, 2.0], sc)
    with pytest.raises(ValueError, match="outside policy grid"):
        threshold_objective([bad, 1.0], sc)


def test_log_miss_kernels_hold_few_temporaries():
    # n = 2,000 with one TTL-limited and one full-TTL class: a cold table and
    # a 4,000-threshold batch each work through blocks of whole rows, never
    # the whole threshold-by-sub-slot matrix (61 and 153 MiB)
    sc = make_scenario([0.021, 0.02], 0.7, slots=20, populations=[1, 2], ttl=[5, 20],
                       resolution=100)
    n = sc.subslots
    assert n == 2000 and sc.classes[0].ttl_slots < n - 1 <= sc.classes[1].ttl_slots
    batch = np.linspace(0.0, n - 1.0, 4000)     # fractional tails in between
    _laws.cache_clear()
    table_peak = batch_peak = 0
    tracemalloc.start()
    try:
        for c in range(2):
            tracemalloc.reset_peak()
            class_log_miss_table(c, sc)
            table_peak = max(table_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            class_log_miss(c, batch, sc)
            batch_peak = max(batch_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        _laws.cache_clear()
    assert table_peak <= 4 * 2 ** 20
    assert batch_peak <= 8 * 2 ** 20


# ---------------------------------------------------------------------------
# threshold expansion
# ---------------------------------------------------------------------------

def test_expand_threshold_shapes():
    sc = make_scenario([0.1], 1.0, slots=4)
    assert np.array_equal(expand_threshold(ThresholdPolicy((0.0,)), sc).probs,
                          np.zeros((1, 4)))
    assert np.array_equal(expand_threshold(ThresholdPolicy((2.5,)), sc).probs,
                          np.array([[1.0, 1.0, 0.5, 0.0]]))
    assert np.array_equal(expand_threshold(ThresholdPolicy((3.0,)), sc).probs,
                          np.array([[1.0, 1.0, 1.0, 0.0]]))
    # each row of a random profile carries its threshold as its mass
    rng = np.random.default_rng(9)
    sc = make_scenario([0.1, 0.3], 1.0, slots=6)
    for _ in range(50):
        hs = rng.uniform(0, sc.max_threshold, size=2)
        rows = expand_threshold(ThresholdPolicy(tuple(hs)), sc).probs
        assert rows.sum(axis=1) == pytest.approx(hs, abs=1e-12)


def test_expand_threshold_rejects_out_of_range():
    sc = make_scenario([0.1], 1.0, slots=4)
    with pytest.raises(ValueError):
        expand_threshold(ThresholdPolicy((3.5,)), sc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -0.5])
def test_policy_rejects_non_finite_and_out_of_range(bad):
    with pytest.raises(ValueError):
        Policy(np.array([[bad, 0.5]]))


def test_evaluate_feasibility():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=2)
    ev = evaluate(ThresholdPolicy((1.0,)), sc)
    assert 0.0 <= ev.delivery_prob <= 1.0
    assert ev.feasible
    full = evaluate(Policy(np.ones((1, 2))), sc)
    assert full.energy_spent == pytest.approx(sc.budget, abs=1e-12)
    assert full.feasible


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_scenario_invariants():
    tech = (Technology("t", 0.0),)
    cls = NodeClass(1, 1, 1.0, 10.0, 0.1, "t")
    with pytest.raises(ScenarioError):
        Scenario((), tech, 10.0, 10.0, 100.0, 1.0)
    with pytest.raises(ScenarioError):
        Scenario((cls,), tech, 5.0, 10.0, 100.0, 1.0)     # deadline < slot
    with pytest.raises(ScenarioError):
        Scenario((cls,), tech, 10.0, 10.0, 100.0, -1.0)   # negative budget
    with pytest.raises(ScenarioError):
        Scenario((cls,), (), 10.0, 10.0, 100.0, 1.0)      # missing technology
    with pytest.raises(ScenarioError):
        NodeClass(0, 1, 1.0, 10.0, 0.1, "t")
    with pytest.raises(ScenarioError):
        NodeClass(1, 1, -1.0, 10.0, 0.1, "t")
    with pytest.raises(ScenarioError):
        Technology("t", -0.5)
    with pytest.raises(ScenarioError):
        Scenario((cls,), (Technology("t", 0.0), Technology("t", 0.1)),
                 10.0, 10.0, 100.0, 1.0)                  # duplicate ident


def test_scenario_rejects_non_finite_numbers():
    tech = (Technology("t", 0.0),)
    cls = NodeClass(1, 1, 1.0, 10.0, 0.1, "t")
    for bad in (math.inf, math.nan):
        for args in ((bad, 10.0, 0.1), (1.0, bad, 0.1), (1.0, 10.0, bad)):
            with pytest.raises(ScenarioError, match="finite"):
                NodeClass(1, 1, *args, "t")
        with pytest.raises(ScenarioError, match="finite"):
            Technology("t", bad)
        for i in range(3):   # deadline, slot length, arena radius
            geometry = [10.0, 10.0, 100.0]
            geometry[i] = bad
            with pytest.raises(ScenarioError):
                Scenario((cls,), tech, *geometry, 1.0)
        with pytest.raises(ScenarioError, match="speed_constant"):
            Scenario((cls,), tech, 10.0, 10.0, 100.0, 1.0, speed_constant=bad)
    with pytest.raises(ScenarioError, match="too many slots"):
        Scenario((cls,), tech, 1e300, 1e-300, 100.0, 1.0)
    # finite factors whose contact rate, per second or per sub-slot, is not
    # a finite number > 0: an overflowing product, and an arena radius whose
    # square rounds to 0 or overflows
    fast = NodeClass(1, 1, 1e308, 10.0, 0.1, "t")
    for classes, arena in (((cls, fast), 100.0), ((cls,), 1e-300), ((cls,), 1e200)):
        with pytest.raises(ScenarioError, match=rf"classes\[{len(classes) - 1}\]: contact rate"):
            Scenario(classes, tech, 10.0, 10.0, arena, 1.0)
    # an infinite budget is valid: every class transmits in full
    assert Scenario((cls,), tech, 10.0, 10.0, 100.0, math.inf).budget == math.inf


def test_subslot_grid_derivation():
    sc = make_scenario([0.1], 1.0, slots=4, resolution=5)
    assert sc.slots == 4
    assert sc.subslots == 20
    assert sc.eff_slot == pytest.approx(20.0)
    assert sc.max_threshold == 19
