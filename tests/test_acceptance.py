"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).

Two checks are strict expected-failures; each asserts exactly what was asked
and is annotated with the measured fact that makes it unattainable:

* A1-reported: the quoted thresholds (7.87, 15.99) for the reference
  two-class instance are budget-exact but dominated under the implemented
  delivery law; the solver and an independent exhaustive 0.01-step scan both
  place the optimum near (13.29, 12.95) with a strictly larger objective.
* A5-instancewise: the grid-quality lower bound holds against the true
  optimum, which is unobservable; measured against the rounded-up upper
  bound it is violated by construction as soon as the bound is closer to one
  than the rounding gap (always, at these grid sizes).
"""

import csv
import math
import time

import numpy as np
import pytest

from twohop import (
    COMBINED_GUARANTEE,
    Policy,
    SimConfig,
    ThresholdPolicy,
    arrival_rate_greedy,
    class_independent,
    delivery_probability,
    enumerate_saturating,
    evaluate,
    expand_threshold,
    greedy_construct,
    grid_search,
    holding_laplace,
    ratio_bound,
    saturating_threshold,
    simulate,
    threshold_energy,
    threshold_objective,
    uniform_policy,
    validate,
)
from twohop.cli import main as cli_main, sample_table_scenario
from twohop.greedy import GreedyVariant, combined_best
from twohop.gridsearch import brute_force_saturating
from twohop.mcsim import holding_expectation
from conftest import (
    brute_force_integer_optimum,
    integer_objective,
    make_scenario,
    random_small_scenario,
    two_class_reference,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------------------
# A1: reference two-class instance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference_solution():
    sc = two_class_reference(resolution=100)
    t0 = time.perf_counter()
    rep = grid_search(sc)
    elapsed = time.perf_counter() - t0
    return sc, rep, elapsed


def test_a1_energy_runtime_and_oracle(reference_solution):
    sc, rep, elapsed = reference_solution
    energy = threshold_energy(rep.policy.thresholds, sc)
    ok_energy = abs(energy - 0.7) <= 1e-6
    ok_time = elapsed < 10.0

    # independent oracle: exhaustive 0.01-step scan of saturating profiles
    best = (-1.0, None)
    for frac, fixed in ((0, 1), (1, 0)):
        for h in range(sc.subslots):
            base = [0.0, 0.0]
            base[fixed] = float(h)
            lo_e = threshold_energy(base, sc)
            base[frac] = float(sc.max_threshold)
            hi_e = threshold_energy(base, sc)
            if lo_e <= sc.budget + 1e-9 and hi_e >= sc.budget - 1e-9:
                probe = [0.0, 0.0]
                probe[fixed] = float(h)
                r = saturating_threshold(frac, probe, sc)
                probe[frac] = r
                f = threshold_objective(probe, sc)
                if f > best[0]:
                    best = (f, tuple(probe))
    ok_oracle = rep.objective == pytest.approx(best[0], abs=1e-10) and all(
        a == pytest.approx(b, abs=1e-6) for a, b in zip(rep.policy.thresholds, best[1]))
    ok = ok_energy and ok_time and ok_oracle
    report("A1 reference instance (energy, runtime, oracle argmax)", ok,
           f"(energy={energy:.9f}, {elapsed:.2f}s, "
           f"h={tuple(round(h / 100, 4) for h in rep.policy.thresholds)} slots)")
    assert ok_energy and ok_time and ok_oracle


@pytest.mark.xfail(strict=True, reason=(
    "quoted thresholds (7.87, 15.99) are budget-exact but dominated under the "
    "implemented delivery law; solver and exhaustive scan agree on a different "
    "argmax with strictly larger objective"))
def test_a1_reported_thresholds(reference_solution):
    sc, rep, _ = reference_solution
    slots = [h / sc.resolution for h in rep.policy.thresholds]
    ok = abs(slots[0] - 7.87) <= 0.05 and abs(slots[1] - 15.99) <= 0.05
    report("A1 reported thresholds (7.87, 15.99) +/- 0.05", ok,
           f"(got {tuple(round(s, 4) for s in slots)}; "
           f"objective at quoted point {threshold_objective([787.0, 1599.0], sc):.6f}"
           f" < solver objective {rep.objective:.6f})")
    assert ok


# ---------------------------------------------------------------------------
# A2: enumeration completeness
# ---------------------------------------------------------------------------

def test_a2_enumeration_matches_brute_force():
    rng = np.random.default_rng(20260810)
    mismatches = 0
    instances = 0
    while instances < 50:
        beacon = 0.05 if instances % 2 else 0.0
        sc = random_small_scenario(rng, n_classes=2, max_slots=12,
                                   beacon_scale=beacon)
        for frac_c in range(2):
            enum = {tuple(sorted(a.items()))
                    for a, _ in enumerate_saturating(sc, frac_c)}
            if enum != brute_force_saturating(sc, frac_c):
                mismatches += 1
        instances += 1
    report("A2 enumeration == brute force (50 instances)", mismatches == 0,
           f"({mismatches} mismatches)")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# A3: analytic formula oracles
# ---------------------------------------------------------------------------

def test_a3_laplace_and_delivery_oracles():
    rng = np.random.default_rng(3)
    worst_mgf = 0.0
    sc_cache = {}
    for _ in range(1000):
        n_pop = int(rng.integers(1, 13))
        p_target = float(rng.uniform(0.0, 0.99))
        s = float(rng.uniform(0.01, 4.0))
        if n_pop not in sc_cache:
            sc_cache[n_pop] = make_scenario([5.0], 1.0, slots=1,
                                            populations=[n_pop])
        sc = sc_cache[n_pop]
        x = min(-math.log(1 - p_target) / 5.0, 1.0)
        pol = Policy(np.array([[x]]))
        p = 1 - math.exp(-5.0 * x)
        direct = sum(math.comb(n_pop, y) * p ** y * (1 - p) ** (n_pop - y)
                     * math.exp(-s * y) for y in range(n_pop + 1))
        worst_mgf = max(worst_mgf, abs(holding_laplace(s, 0, 0, pol, sc) - direct))

    worst_f = 0.0
    for _ in range(60):
        sc = random_small_scenario(rng, n_classes=int(rng.integers(1, 4)),
                                   max_slots=7)
        pol = Policy(rng.uniform(0, 1, size=(len(sc.classes), sc.subslots)))
        prod = 1.0
        for c, cls in enumerate(sc.classes):
            lam, dt = sc.rates[c], sc.eff_slot
            for h in range(sc.subslots):
                lo = max(0, h - cls.ttl_slots)
                p = 1.0 - math.exp(-lam * dt * float(pol.probs[c][lo:h + 1].sum()))
                prod *= sum(
                    math.comb(cls.population, y) * p ** y
                    * (1 - p) ** (cls.population - y) * math.exp(-lam * dt * y)
                    for y in range(cls.population + 1))
        worst_f = max(worst_f, abs(delivery_probability(pol, sc.subslots, sc)
                                   - (1.0 - prod)))
    ok = worst_mgf <= 1e-12 and worst_f <= 1e-10
    report("A3 analytic oracles (binomial transform, delivery product)", ok,
           f"(mgf gap {worst_mgf:.2e}, delivery gap {worst_f:.2e})")
    assert worst_mgf <= 1e-12
    assert worst_f <= 1e-10


# ---------------------------------------------------------------------------
# A4/A5/A10: table-instance sample
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table_sample():
    rng = np.random.default_rng(810)
    records = []
    for i in range(104):
        with_beacons = i % 2 == 0
        ident, sc = sample_table_scenario(rng, resolution=5,
                                          with_beacons=with_beacons)
        rep = grid_search(sc)
        rec = {
            "ident": f"{ident}_i{i}",
            "sc": sc,
            "objective": rep.objective,
            "ub": rep.upper_bound,
            "ratio": rep.objective / rep.upper_bound if rep.upper_bound else 1.0,
            "greedy": [greedy_construct(sc).objective],
            "beacons": with_beacons,
            "arrival": evaluate(arrival_rate_greedy(sc), sc).delivery_prob,
            "uniform": evaluate(uniform_policy(sc, class_independent(sc)),
                                sc).delivery_prob,
        }
        if not with_beacons:
            rec["greedy"].append(
                greedy_construct(sc, GreedyVariant.GAIN_PER_COST).objective)
            rec["greedy"].append(combined_best(sc).objective)
        records.append(rec)
    return records


def test_a4_approximation_ratios(table_sample):
    ratios = np.array([r["ratio"] for r in table_sample])
    greedy_ok = np.array([
        all(g >= 0.99 * r["objective"] - 1e-12 for g in r["greedy"])
        for r in table_sample])
    median = float(np.median(ratios))
    minimum = float(ratios.min())
    frac = float(greedy_ok.mean())
    ok = median >= 0.99 and minimum >= 0.95 and frac >= 0.90
    report("A4 approximation ratios (104 instances, resolution 5)", ok,
           f"(median={median:.5f}, min={minimum:.5f}, greedy within 1% on "
           f"{frac * 100:.0f}%)")
    assert median >= 0.99
    assert minimum >= 0.95
    assert frac >= 0.90


def test_a5_bound_formula_exact():
    value = ratio_bound(2, 10, math.inf)
    ok = value == 1.0 - 2.0 ** -10
    report("A5 bound formula at exponent 10, many-class limit", ok,
           f"(value={value!r})")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "the quality bound holds against the true optimum, which is unobservable; "
    "measured against the rounded-up upper bound it fails by construction once "
    "the bound is closer to one than the rounding gap"))
def test_a5_bound_vs_upper_bound_instancewise(table_sample):
    sc_ref = two_class_reference(resolution=5)
    rep = grid_search(sc_ref)
    checks = [(rep.objective / rep.upper_bound,
               ratio_bound(sc_ref.slots, 5, 2))]
    checks += [(r["ratio"], ratio_bound(r["sc"].slots, 5, len(r["sc"].classes)))
               for r in table_sample]
    violations = sum(1 for ratio, bound in checks if ratio < bound - 1e-15)
    report("A5 objective/upper-bound >= quality bound on every instance",
           violations == 0, f"({violations}/{len(checks)} violations)")
    assert violations == 0


def test_a10_grid_dominates_everything(table_sample):
    slack = 1e-9
    bad = 0
    for r in table_sample:
        competitors = list(r["greedy"]) + [r["arrival"], r["uniform"]]
        if any(c > r["objective"] + slack for c in competitors):
            bad += 1
    rng = np.random.default_rng(55)
    for trial in range(20):
        sc = random_small_scenario(rng, n_classes=2, max_slots=9,
                                   beacon_scale=0.02 if trial % 2 else 0.0)
        rep = grid_search(sc)
        competitors = [
            greedy_construct(sc).objective,
            evaluate(arrival_rate_greedy(sc), sc).delivery_prob,
            evaluate(uniform_policy(sc, class_independent(sc)), sc).delivery_prob,
        ]
        if any(c > rep.objective + slack for c in competitors):
            bad += 1
    report("A10 grid dominates greedy variants and baselines", bad == 0,
           f"({bad} violations over {len(table_sample) + 20} instances)")
    assert bad == 0


# ---------------------------------------------------------------------------
# A6: submodularity
# ---------------------------------------------------------------------------

def test_a6_submodular_marginal_gains():
    rng = np.random.default_rng(6)
    worst = 0.0
    comparisons = 0

    def f_of(mask, sc):
        return delivery_probability(Policy(mask.astype(float)), sc.subslots, sc)

    while comparisons < 10_000:
        sc = random_small_scenario(rng, n_classes=2, max_slots=6)
        n = sc.subslots
        ground = [(c, k) for c in range(2) for k in range(n)]
        perm = rng.permutation(len(ground))
        for _ in range(25):
            na = int(rng.integers(0, len(ground) - 1))
            nb = int(rng.integers(na, len(ground) - 1))
            mask_a = np.zeros((2, n), dtype=bool)
            mask_b = np.zeros((2, n), dtype=bool)
            for j in perm[:na]:
                mask_a[ground[j]] = True
            for j in perm[:nb]:
                mask_b[ground[j]] = True
            e = ground[perm[nb]]
            base_a, base_b = f_of(mask_a, sc), f_of(mask_b, sc)
            mask_a[e] = True
            mask_b[e] = True
            gain_a = f_of(mask_a, sc) - base_a
            gain_b = f_of(mask_b, sc) - base_b
            worst = min(worst, gain_a - gain_b)
            comparisons += 1
            if comparisons >= 10_000:
                break
    ok = worst >= -1e-12
    report("A6 diminishing marginal gains (10000 nested comparisons)", ok,
           f"(worst gain difference {worst:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# A7: greedy certificates
# ---------------------------------------------------------------------------

def test_a7_greedy_certificates():
    rng = np.random.default_rng(7)
    online_bad = 0
    combined_bad = 0
    for trial in range(20):
        beacon = 0.02 if trial % 4 == 0 else 0.0
        sc = random_small_scenario(rng, n_classes=2, max_slots=8,
                                   beacon_scale=beacon)
        best_int = brute_force_integer_optimum(sc)
        rep = greedy_construct(sc)
        if integer_objective(rep, sc) < rep.online_bound * best_int - 1e-9:
            online_bad += 1
        if beacon == 0.0:
            # the better of the two variants' integer profiles
            both = max(integer_objective(greedy_construct(sc, variant), sc)
                       for variant in GreedyVariant)
            if both < COMBINED_GUARANTEE * best_int - 1e-9:
                combined_bad += 1
    ok = online_bad == 0 and combined_bad == 0
    report("A7 greedy certificates vs brute-forced integer optimum", ok,
           f"({online_bad} online, {combined_bad} combined violations)")
    assert ok


# ---------------------------------------------------------------------------
# A8: Monte Carlo validation
# ---------------------------------------------------------------------------

def test_a8_monte_carlo_validation():
    # exact moments: energy, per-class transmissions, holding trajectory
    sc = make_scenario([0.3, 0.2], 1.0, slots=8, populations=[6, 4],
                       ttl=[3, 8], beta=[0.002, 0.001])
    pol = expand_threshold(ThresholdPolicy((5.0, 6.5)), sc)
    rec = validate(sc, pol, SimConfig(trials=100_000, seed=808,
                                      record_holding=True))
    out = simulate(sc, pol, SimConfig(trials=100_000, seed=808,
                                      record_holding=True))
    exact_hold = holding_expectation(pol, sc)
    hold_ok = bool(np.all(np.abs(out.mean_holding - exact_hold)
                          <= 3.0 * out.mean_holding_ci + 1e-9))
    energy_ok = rec.energy_gap <= 3.0 * rec.energy_ci
    tx_ok = bool(np.all(np.abs(rec.empirical_tx - rec.analytic_tx)
                        <= 3.0 * out.mean_tx_ci + 1e-9))

    # delivery-law gap on low-intensity instances
    gaps = []
    for lam_slot, pop, slots in [(0.01, 5, 10), (0.005, 10, 12), (0.0125, 4, 8)]:
        sc_low = make_scenario([lam_slot, 0.8 * lam_slot], 1.0, slots=slots,
                               populations=[pop, pop])
        pol_low = expand_threshold(
            ThresholdPolicy((slots - 1.0, slots - 2.5)), sc_low)
        rec_low = validate(sc_low, pol_low, SimConfig(trials=100_000, seed=81))
        gaps.append(rec_low.delivery_gap)
    delivery_ok = max(gaps) <= 0.02
    ok = hold_ok and energy_ok and tx_ok and delivery_ok
    report("A8 Monte Carlo validation (energy, tx, holding, delivery gap)", ok,
           f"(energy gap {rec.energy_gap:.4f}, max delivery gap {max(gaps):.4f})")
    assert hold_ok
    assert energy_ok
    assert tx_ok
    assert delivery_ok


# ---------------------------------------------------------------------------
# A9: scalability
# ---------------------------------------------------------------------------

def test_a9_scalability(tmp_path):
    from twohop.cli import sample_scalability_scenario

    rng = np.random.default_rng(99)
    _, sc100 = sample_scalability_scenario(rng, 100)
    t0 = time.perf_counter()
    rep = greedy_construct(sc100)
    t_greedy = time.perf_counter() - t0
    greedy_ok = t_greedy < 60.0 and evaluate(rep.policy, sc100).feasible

    _, sc3 = sample_scalability_scenario(rng, 3)
    t0 = time.perf_counter()
    grid_search(sc3, timeout_s=300.0)
    t_grid = time.perf_counter() - t0
    grid_ok = t_grid < 300.0

    out = tmp_path / "scal.csv"
    code = cli_main(["sweep", "--mode", "scalability", "--classes", "5",
                     "--seed", "4", "--resolution", "3",
                     "--algorithms", "grid,greedy1", "--timeout", "2.0",
                     "--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    status = {r["algorithm"]: r["status"] for r in rows}
    graceful_ok = code == 0 and status["grid"] == "timeout" and status["greedy1"] == "ok"
    ok = greedy_ok and grid_ok and graceful_ok
    report("A9 scalability", ok,
           f"(greedy 100 classes {t_greedy:.1f}s, grid 3 classes {t_grid:.1f}s, "
           f"5-class grid timeout handled: {graceful_ok})")
    assert greedy_ok
    assert grid_ok
    assert graceful_ok
