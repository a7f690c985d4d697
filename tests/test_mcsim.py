"""Monte Carlo simulator: determinism, trivial cases, the exact single-relay
law, moment checks against the closed-form expectations, coupling
monotonicity, pinned output bits and input checks."""

import dataclasses
import hashlib
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
from twohop.cli import sample_table_scenario
from twohop import mcsim
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
    # recording holding counts evaluates more rows but draws the same variates
    plain = simulate(sc, pol, SimConfig(trials=30_000, seed=99))
    assert plain.mean_holding is None
    assert (plain.delivery_freq, plain.ci95_halfwidth) == (a.delivery_freq, a.ci95_halfwidth)
    assert (plain.mean_energy, plain.mean_energy_ci) == (a.mean_energy, a.mean_energy_ci)
    assert np.array_equal(plain.mean_tx, a.mean_tx)
    assert np.array_equal(plain.mean_tx_ci, a.mean_tx_ci)


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


def _golden_cases():
    base = make_scenario([0.3, 0.15], 1.0, slots=4, populations=[3, 2],
                         beta=[0.004, 0.002], ttl=[2, 4], resolution=2)
    th = expand_threshold(ThresholdPolicy((5.0, 3.5)), base)
    full = make_scenario([0.25, 0.4], 1.0, slots=5, populations=[4, 3],
                         beta=[0.003, 0.0], shared_tech=True)
    probs = np.array([[0.8, 0.0, 0.3, 0.0, 1.0], [0.0, 0.5, 0.0, 0.0, 0.7]])
    rng = np.random.default_rng(5)
    a4 = next(sc for _, sc in iter(lambda: sample_table_scenario(rng, resolution=5,
                                                                 n_classes=3), None)
              if sc.slots == 250)
    a4_pol = expand_threshold(ThresholdPolicy((300.0, 600.5, 1100.25)), a4)
    # 131,072 sub-slots: holding keys t*(n+1) + k take 64 bits
    fine = make_scenario([0.3], 1.0, slots=1024, populations=[3], ttl=[2], resolution=128)
    fine_pol = expand_threshold(ThresholdPolicy((65_000.5,)), fine)
    return {
        "plain-expected-1": (base, th, SimConfig(1, 41)),
        "holding-3": (base, th, SimConfig(3, 42, True)),
        "plain-ttl-below-9000": (base, th, SimConfig(9_000, 43)),
        "holding-ttl-below-9000": (base, th, SimConfig(9_000, 44, True)),
        "holding-general-full-ttl-9000": (full, Policy(probs), SimConfig(9_000, 45, True)),
        "plain-general-3": (full, Policy(probs), SimConfig(3, 46, False)),
        "holding-general-1": (full, Policy(probs), SimConfig(1, 47, True)),
        "holding-a4-250-slots": (a4, a4_pol, SimConfig(4_000, 48, True)),
        "holding-131072-subslots-5": (fine, fine_pol, SimConfig(5, 49, True)),
    }


# sha256 prefixes of every SimOutcome field, recorded with a dense per-trial
# holding recount: a change to which rows are evaluated, or to how the holding
# moments are summed, must keep every bit
GOLDEN = {
    "plain-expected-1": "02085ba0caef0377",
    "holding-3": "c61873b0f81d21b5",
    "plain-ttl-below-9000": "956afee6bbbc75a9",
    "holding-ttl-below-9000": "d4f7b7bd4acb5fba",
    "holding-general-full-ttl-9000": "a48637f4910c7e4c",
    "plain-general-3": "00d1783bf4caf52d",
    "holding-general-1": "30c64d599357aa1e",
    "holding-a4-250-slots": "9ff9e5575e2579bf",
    "holding-131072-subslots-5": "4cefd85dcc8b85e4",
}


def test_simulate_outputs_golden():
    got = {}
    for name, (sc, pol, cfg) in _golden_cases().items():
        out = simulate(sc, pol, cfg)
        parts = []
        for f in dataclasses.fields(out):
            v = getattr(out, f.name)
            parts.append(f"{f.name}={(v.tolist() if isinstance(v, np.ndarray) else v)!r}")
        got[name] = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:16]
    assert got == GOLDEN


def test_passes_keep_bits(monkeypatch):
    # holding moments in passes of whole trials give the same bits as one pass
    sc, pol, cfg = _golden_cases()["holding-ttl-below-9000"]
    whole = simulate(sc, pol, cfg)
    monkeypatch.setattr(mcsim, "_CHUNK", 1000)
    parts = simulate(sc, pol, cfg)
    for f in dataclasses.fields(whole):
        assert np.array_equal(getattr(whole, f.name), getattr(parts, f.name)), f.name


def test_holding_moments_match_dense_recount():
    rng = np.random.default_rng(8)
    cases = [(1, 0, 5, 3), (6, 2, 40, 7), (9, 20, 25, 12), (12, 0, 30, 5),
             (10, 9, 30, 6), (10, 50, 30, 6), (7, 3, 20, 200)]
    for n, ttl, trials, relays in cases:
        first = np.where(rng.random((trials, relays)) < 0.7,
                         rng.integers(0, n, (trials, relays)), n)
        # four more relays: equal starts in trial 0, a start one past the
        # first relay's end in trial 1, a hold clipped at n - 1 in trial 2;
        # trial 3 has no contact and every relay of trial 4 starts in one
        # sub-slot
        extra = np.full((trials, 4), n)
        extra[[0, 1], 0] = 0
        extra[0, 1] = 0
        extra[1, 2] = min(n - 1, ttl + 1)
        extra[2, 3] = n - 1
        first = np.concatenate((first, extra), axis=1)
        first[3] = n
        first[4] = n // 2
        _check_holding_moments(first, ttl, n)
    # starts later than the TTL, yet no copy ends inside the horizon
    _check_holding_moments(np.array([[7, 8, 10], [9, 10, 10], [7, 9, 9]]), 2, 10)


def _check_holding_moments(first, ttl, n):
    y = np.zeros((first.shape[0], n), dtype=np.int64)
    for t, k in zip(*np.nonzero(first < n)):
        s = first[t, k]
        y[t, s:min(s + ttl, n - 1) + 1] += 1
    y_sum, y_sq = mcsim._holding_moments(first.astype(np.int32), ttl, n)
    assert np.array_equal(y_sum, y.sum(axis=0))
    assert np.array_equal(y_sq, (y * y).sum(axis=0))


def _hazard_rows():
    """Cumulative acceptance hazards as simulate builds them, each with
    whether the guide table places its variates (None: either way)."""
    def hazard(sc, pol, c=0):
        return np.concatenate(([0.0], np.cumsum(sc.rates[c] * sc.eff_slot * pol.probs[c])))
    rows = {}
    sc = make_scenario([0.3, 0.15], 1.0, slots=40, populations=[3, 2], resolution=3)
    for h in (1.5, 7.25, 60.999, 100.5, 119.0):
        rows[f"threshold-{h}"] = (hazard(sc, expand_threshold(ThresholdPolicy((h, h)), sc)), True)
    a4, a4_pol = _golden_cases()["holding-a4-250-slots"][:2]
    for c in range(3):
        rows[f"threshold-a4-{c}"] = (hazard(a4, a4_pol, c), True)
    fine, fine_pol = _golden_cases()["holding-131072-subslots-5"][:2]
    rows["threshold-131072"] = (hazard(fine, fine_pol), True)
    rng = np.random.default_rng(3)
    for i in range(4):
        mu = rng.random(sc.subslots)
        mu[rng.random(sc.subslots) < 0.8] = 0.0         # long zero-mass runs
        mu[:5 * i] = 0.0
        rows[f"general-{i}"] = (hazard(sc, Policy(np.stack((mu, mu)))), None)
    mu = np.ones(sc.subslots)
    mu[10:90] = mu[100:] = 0.0
    rows["general-long-runs"] = (hazard(sc, Policy(np.stack((mu, mu)))), False)
    mu[:] = 1e-320   # a subnormal total: one bucket
    rows["general-subnormal"] = (hazard(sc, Policy(np.stack((mu, mu)))), False)
    one = make_scenario([0.3], 1.0, slots=1)
    rows["one-subslot"] = (hazard(one, Policy(np.full((1, 1), 0.4))), True)
    return rows


def test_guide_placement_equals_searchsorted():
    for name, (hc, guided) in _hazard_rows().items():
        n = hc.size - 1
        guide = mcsim._guide(hc)
        scale = guide[0]
        edges = np.arange(1, int(hc[-1] * scale) + 2) / scale if scale else []
        q = np.concatenate([hc, edges, [0.0, np.nextafter(hc[-1], 0.0)]])
        q = np.concatenate([q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf)])
        q = q[(q >= 0.0) & (q < hc[-1])]   # the variates simulate places
        want = np.clip(np.searchsorted(hc, q, "right") - 1, 0, n - 1)
        assert np.array_equal(mcsim._place(hc, guide, q), want), name
        assert guided is None or (guide[1] is not None) == guided, name


def test_simconfig_normalises_numpy_seed():
    sc = make_scenario([0.3], 1.0, slots=3, populations=[2])
    pol = Policy(np.ones((1, 3)))
    cfg = SimConfig(trials=100, seed=np.int64(3))
    assert type(cfg.seed) is int and cfg.seed == 3
    a = simulate(sc, pol, cfg)
    b = simulate(sc, pol, SimConfig(trials=100, seed=3))
    assert (a.delivery_freq, a.mean_energy) == (b.delivery_freq, b.mean_energy)
    assert type(SimConfig(trials=np.int32(5), seed=0).trials) is int


def test_simconfig_rejects_float_trials():
    with pytest.raises(TypeError):
        SimConfig(trials=2.0, seed=1)


def test_simconfig_rejects_float_seed():
    with pytest.raises(TypeError):
        SimConfig(trials=2, seed=1.5)


def test_simconfig_rejects_bool_trials():
    with pytest.raises(TypeError):
        SimConfig(trials=True, seed=1)
