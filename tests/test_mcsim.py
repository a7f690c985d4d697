"""Monte Carlo simulator: determinism, trivial cases, the exact single-relay
law, moment checks against the closed-form expectations, and coupling
monotonicity."""

import math

import numpy as np
import pytest

from twohop import (
    Policy,
    SimConfig,
    ThresholdPolicy,
    delivery_probability,
    energy_spent,
    expand_threshold,
    expected_holding,
    simulate,
    validate,
)
from twohop.mcsim import holding_expectation
from conftest import make_scenario, random_small_scenario


def test_zero_policy_trivial():
    sc = make_scenario([0.1, 0.2], 1.0, slots=4)
    out = simulate(sc, Policy.zeros(sc), SimConfig(trials=2000, seed=3))
    assert out.delivery_freq == 0.0
    assert out.mean_energy == 0.0
    assert np.all(out.mean_tx == 0.0)


def test_determinism_same_seed():
    sc = make_scenario([0.2, 0.1], 1.0, slots=5, populations=[3, 2])
    pol = expand_threshold(ThresholdPolicy((3.0, 2.5)), sc)
    cfg = SimConfig(trials=30_000, seed=99, record_holding=True)
    a = simulate(sc, pol, cfg)
    b = simulate(sc, pol, cfg)
    assert a.delivery_freq == b.delivery_freq
    assert a.mean_energy == b.mean_energy
    assert np.array_equal(a.mean_tx, b.mean_tx)
    assert np.array_equal(a.mean_holding, b.mean_holding)
    c = simulate(sc, pol, SimConfig(trials=30_000, seed=100))
    assert c.delivery_freq != a.delivery_freq


def test_single_relay_exact_law():
    # one relay, full transmission over two slots, TTL to the horizon: the
    # delivery probability integrates in closed form
    sc = make_scenario([0.1], 1.0, slots=2)
    pol = Policy(np.ones((1, 2)))
    lam_t = 0.2
    exact = 1.0 - (1.0 + lam_t) * math.exp(-lam_t)
    out = simulate(sc, pol, SimConfig(trials=1_000_000, seed=7))
    assert out.delivery_freq == pytest.approx(exact, abs=0.003)
    analytic = delivery_probability(pol, 2, sc)
    assert out.delivery_freq == pytest.approx(analytic, abs=0.01)


def test_transmission_counts_match_expectation():
    sc = make_scenario([0.3, 0.15], 1.0, slots=6, populations=[5, 8])
    pol = expand_threshold(ThresholdPolicy((4.0, 5.0)), sc)
    out = simulate(sc, pol, SimConfig(trials=100_000, seed=11))
    for c, cls in enumerate(sc.classes):
        mass = float(pol.probs[c].sum())
        expected = cls.population * -math.expm1(-sc.rates[c] * sc.eff_slot * mass)
        assert abs(out.mean_tx[c] - expected) <= 3.0 * out.mean_tx_ci[c]


def test_energy_matches_expectation_with_beacons():
    sc = make_scenario([0.3, 0.15], 1.0, slots=6, populations=[5, 8],
                       beta=[0.004, 0.002])
    pol = expand_threshold(ThresholdPolicy((4.0, 4.5)), sc)
    out = simulate(sc, pol, SimConfig(trials=100_000, seed=12))
    assert abs(out.mean_energy - energy_spent(pol, sc)) <= 3.0 * out.mean_energy_ci


def test_holding_counts_match_exact_law():
    # the exact law accounts for permanent discard: a relay that accepted
    # before the trailing window is gone for good
    sc = make_scenario([0.3, 0.2], 1.0, slots=6, populations=[5, 4], ttl=[2, 6])
    pol = expand_threshold(ThresholdPolicy((4.0, 5.0)), sc)
    out = simulate(sc, pol, SimConfig(trials=100_000, seed=13, record_holding=True))
    expected = holding_expectation(pol, sc)
    for c in range(2):
        for k in range(sc.subslots):
            slack = 3.0 * out.mean_holding_ci[c, k] + 1e-9
            assert abs(out.mean_holding[c, k] - expected[c, k]) <= slack


def test_holding_law_matches_window_formula_inside_ttl():
    # while no relay can have expired (k <= ttl) the two formulas coincide
    sc = make_scenario([0.3], 1.0, slots=6, populations=[5], ttl=[3])
    pol = expand_threshold(ThresholdPolicy((5.0,)), sc)
    exact = holding_expectation(pol, sc)
    for k in range(4):     # k <= ttl
        assert exact[0, k] == pytest.approx(expected_holding(0, k, pol, sc), abs=1e-12)
    # beyond the TTL the delivery-law window expression sits above the truth
    assert exact[0, 5] < expected_holding(0, 5, pol, sc)


def test_holding_expectation_keeps_precision_at_small_mass():
    # a difference of two no-acceptance probabilities near 1 would cancel
    # most digits of a 1e-4 mass at lam dt = 3.1e-5
    sc = make_scenario([3.1e-5], 1.0, slots=12, populations=[7], ttl=[3])
    mu = np.full(sc.subslots, 1e-4)
    exact = holding_expectation(Policy(mu[None, :]), sc)[0]
    x = sc.rates[0] * sc.eff_slot
    for k in range(sc.subslots):
        lo = max(0, k - sc.classes[0].ttl_slots)
        ref = 7 * math.exp(-x * math.fsum(mu[:lo])) * -math.expm1(-x * math.fsum(mu[lo:k + 1]))
        assert exact[k] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_paired_seed_monotonicity_full_ttl():
    # with full-horizon TTLs the coupled sampler is pathwise monotone: raising
    # any forwarding probability can only add deliveries under the same seed
    rng = np.random.default_rng(14)
    for _ in range(5):
        sc = random_small_scenario(rng, n_classes=2, max_slots=6)
        from twohop import NodeClass, Scenario
        sc = Scenario(
            tuple(NodeClass(c.population, sc.subslots, c.speed, c.range_m,
                            c.tx_cost, c.technology) for c in sc.classes),
            sc.technologies, sc.deadline, sc.slot_len, sc.arena_radius,
            sc.budget, sc.resolution)
        base = rng.uniform(0, 1, size=(2, sc.subslots))
        bumped = np.clip(base + 0.3 * (rng.random(base.shape) < 0.5), 0, 1)
        cfg = SimConfig(trials=20_000, seed=55)
        lo = simulate(sc, Policy(base), cfg)
        hi = simulate(sc, Policy(bumped), cfg)
        assert hi.delivery_freq >= lo.delivery_freq


def test_validate_flags_and_gaps():
    sc = make_scenario([0.05], 1.0, slots=4, populations=[5])
    pol = expand_threshold(ThresholdPolicy((3.0,)), sc)
    rec = validate(sc, pol, SimConfig(trials=50_000, seed=17, record_holding=True))
    assert not rec.flagged
    assert rec.energy_gap <= 3.0 * max(rec.energy_ci, 1e-15)
    assert rec.delivery_gap <= 0.02
    assert rec.empirical_holding is not None


def test_validate_zero_policy_no_gaps():
    sc = make_scenario([0.1], 1.0, slots=3)
    rec = validate(sc, Policy.zeros(sc), SimConfig(trials=500, seed=1))
    assert rec.delivery_gap == 0.0
    assert rec.energy_gap == 0.0
    assert not rec.flagged


def test_single_trial_wide_interval_no_flag():
    sc = make_scenario([0.3], 1.0, slots=4)
    pol = Policy(np.ones((1, 4)))
    rec = validate(sc, pol, SimConfig(trials=1, seed=5))
    assert rec.delivery_ci >= 1.0
    assert not rec.flagged


def test_policy_shape_checked():
    sc = make_scenario([0.1, 0.2], 1.0, slots=4)
    with pytest.raises(ValueError):
        simulate(sc, Policy(np.ones((1, 4))), SimConfig(trials=10, seed=0))


def test_sampled_beacon_accounting_mode():
    sc = make_scenario([0.2], 1.0, slots=4, beta=[0.01])
    pol = Policy(np.ones((1, 4)))
    out = simulate(sc, pol, SimConfig(trials=50_000, seed=21,
                                      beacon_accounting="sampled"))
    assert abs(out.mean_energy - energy_spent(pol, sc)) <= 3.0 * out.mean_energy_ci
