"""Bit-exactness of the solver loops and model kernels against verbatim
copies of their earlier forms.

The loops are the fixed 200-step ``saturating_threshold`` bisection, the
fixed 100-step shave in ``class_independent``, the budget bisection that
evaluated every midpoint (also under energies offset by a bounded noise),
the greedy award loop that
looked every per-class value up again on each iteration (whose integer-only
mode also checks the greedy's profile before its top-up), and the greedy
certificates solved through ``boundary_threshold`` and its two exceptions
(and, by bytes, the saturating solve's one-segment Newton exit);
each pair is compared by repr over seeded instances with one to four
classes, with and without beacons, with shared radios, with free radios
next to charging ones, and with budgets near zero and near the all-full
cost.  The kernels are the log-miss evaluators (at a batch of
thresholds, at every integer threshold, and under a general policy) and
the three transmission-energy loops, and the per-class slopes and
tail-bracket prefix before they were cached; they are compared bit for bit
over seeded scenarios at resolutions 1-5 with TTLs below and at or above
the last sub-slot, fractional and integer thresholds, and general policies.
Beside the copies, every saturating threshold and every shave of
``class_independent`` is also checked by its energies alone, which hold
for any correct root, not only for the old bits; so are the greedy's
profiles (within budget, a maximal integer phase, a top-up on the budget
boundary), and the grid's choice is checked against every enumerated
candidate scored by exact sums of log-miss terms.
"""

import math
import sys
import time
import zlib
from dataclasses import replace
from typing import Iterator

import numpy as np
import pytest

import twohop.baselines
import twohop.greedy
import twohop.gridsearch
from twohop import (GreedyVariant, arrival_rate_greedy, class_independent, greedy_construct,
                    model)
from twohop.baselines import _uniform_energy, uniform_policy
from twohop.cli import sample_table_scenario
from twohop.greedy import GreedyReport, cardinality_cap, min_slots
from twohop.gridsearch import (
    _LEAF_CHUNK,
    _RESIDUAL_TOL,
    _SNAP,
    BudgetExceededError,
    BudgetUnboundedError,
    SolveReport,
    SolveTimeout,
    _Best,
    _completion_masses,
    _costly_classes,
    _energy_margin,
    _full_profile,
    _prune_margin,
    _ranges,
    _remaining,
    _solve_for,
    _solve_saturating_vec,
    boundary_threshold,
    brute_force_saturating,
    enumerate_saturating,
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
    _law,
    _laws,
    _log_miss_slopes,
    _log_miss_terms,
    _tx_energy,
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
from conftest import integer_objective, integer_profile, make_scenario, random_small_scenario


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


def bisect_budget_copy(energy_at, lo: float, hi: float, budget: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if energy_at(mid) > budget:
            if mid == hi:
                break
            hi = mid
        else:
            if mid == lo:
                break
            lo = mid
    return lo


def saturating_threshold_copy(c: int, thresholds, sc: Scenario) -> float:
    # the energy read through the module attribute, so that a patched probe
    # serves both sides
    hi = float(sc.max_threshold)
    tol = budget_tolerance(sc.budget)
    energy_at = twohop.gridsearch._energy_probe(c, thresholds, sc)
    if energy_at(0.0) > sc.budget + tol:
        return 0.0
    if energy_at(hi) <= sc.budget + tol:
        return hi
    h = bisect_budget_copy(energy_at, 0.0, hi, sc.budget)
    return 0.0 if h < _SNAP else h


def class_independent_copy(sc: Scenario) -> float:
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
            deriv += sum(rate for rate, _ in sc.beacons)
            if res > 0.0:
                hi = h
            else:
                lo = h
            step = h - res / deriv if deriv > 0.0 else None
            h = step if step is not None and lo < step < hi else 0.5 * (lo + hi)

    def energy_at(mid: float) -> float:
        return twohop.baselines.energy_spent(expand_threshold(uniform_policy(sc, mid), sc), sc)

    if energy_at(h) > sc.budget + tol:
        h = bisect_budget_copy(energy_at, math.floor(h), h, sc.budget)
    return float(h)


def solve_saturating_one_segment_copy(rem, rho_n: float, g: float, beacon: float, m2,
                                      hi: float):
    # the one-segment Newton exit: every row leaves when the largest
    # residual converges
    rem = np.atleast_1d(np.asarray(rem, dtype=float))
    m2 = np.asarray(m2, dtype=float)
    tol = _RESIDUAL_TOL
    out = np.full(rem.shape, np.nan)

    cap = rho_n * -np.expm1(-g * hi) + beacon * np.maximum(0.0, hi - m2)
    exceeded = rem < -tol
    unbounded = rem > cap + tol
    core = ~(exceeded | unbounded)
    out[unbounded] = np.inf
    if not core.any():
        return out

    r = rem[core]
    m2c = m2[core] if m2.ndim else m2
    if rho_n <= 0.0 or g <= 0.0:
        sol = np.where(r <= tol, 0.0, m2c + (r / beacon if beacon > 0.0 else np.inf))
        out[core] = np.clip(sol, 0.0, hi)
        return out

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = r / rho_n
        closed = np.where(ratio < 1.0, -np.log1p(-np.minimum(ratio, 1.0 - 1e-16)) / g, np.inf)
    sol = np.clip(closed, 0.0, None)
    needs_newton = sol > m2c + _SNAP
    if beacon > 0.0 and needs_newton.any():
        idx = np.flatnonzero(needs_newton)
        h = np.minimum(np.where(np.isfinite(sol[idx]), sol[idx], hi), hi)
        mm = m2c[idx] if m2c.ndim else m2c
        h = np.maximum(h, mm)
        rr = r[idx]
        live = slice(None)
        for _ in range(64):
            hl, ml = h[live], mm[live] if mm.ndim else mm
            f = rho_n * -np.expm1(-g * hl) + beacon * (hl - ml) - rr[live]
            fp = rho_n * g * np.exp(-g * hl) + beacon
            step = f / fp
            h[live] = np.clip(hl - step, ml, hi)
            if np.abs(f).max() < tol:
                break
        f = rho_n * -np.expm1(-g * h) + beacon * (h - mm) - rr
        bad = np.abs(f) >= tol
        if bad.any():
            lo_b = np.where(bad, mm, h)
            hi_b = np.where(bad, np.full_like(h, hi), h)
            for _ in range(200):
                mid = 0.5 * (lo_b + hi_b)
                fm = rho_n * -np.expm1(-g * mid) + beacon * (mid - mm) - rr
                take_hi = fm > 0.0
                hi_b = np.where(take_hi, mid, hi_b)
                lo_b = np.where(take_hi, lo_b, mid)
            h = np.where(bad, 0.5 * (lo_b + hi_b), h)
        sol[idx] = h
    out[core] = np.clip(sol, 0.0, hi)
    return out


def affordable_copy(c: int, fixed: dict, sc: Scenario) -> int:
    try:
        r = boundary_threshold(c, fixed, sc)
    except BudgetExceededError:
        return 0
    except BudgetUnboundedError:
        return sc.max_threshold
    return max(0, min(int(math.floor(r + _SNAP)), sc.max_threshold))


def cardinality_cap_copy(sc: Scenario) -> int:
    return max(affordable_copy(c, {}, sc) for c in range(len(sc.classes)))


def min_slots_copy(c: int, sc: Scenario) -> int:
    others = {c2: sc.max_threshold for c2 in range(len(sc.classes)) if c2 != c}
    return affordable_copy(c, others, sc)


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
    # costly classes on a free radio next to a charging one: beaconed draws
    # with their last radio's beacon cost zeroed, then one instance with a
    # costless class beside them
    for i in range(12):
        sc = random_small_scenario(rng, n_classes=3 + i % 2, max_slots=10, beacon_scale=0.05,
                                   share_prob=0.6, budget_frac=BUDGET_FRACS[i % 3])
        *charging, last = sc.technologies
        out.append(replace(sc, technologies=(*charging, Technology(last.ident, 0.0))))
    out.append(make_scenario([0.1, 0.2, 0.15], 0.3, slots=6, beta=[0.0, 0.02, 0.0],
                             rho=[1.0, 1.0, 0.0]))
    # a beacon-free budget that buys the all-full profile: greedy ends
    # without a top-up
    sc = make_scenario([0.1, 0.2], 0.3, slots=6)
    out.append(replace(sc, budget=threshold_energy([sc.max_threshold] * 2, sc)))
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
    # costly classes on a free radio next to a charging one, shared or with
    # a costless class beside them
    mixed = [sc for sc in INSTANCES if sc.beacons and any(
        not is_costless(c, sc) and all(c not in m for _, m in sc.beacons)
        for c in range(len(sc.classes)))]
    assert sum(any(len(m) > 1 for _, m in sc.beacons) for sc in mixed) >= 5
    assert any(any(is_costless(c, sc) for c in range(len(sc.classes))) for sc in mixed)


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


def _table_sample() -> list[Scenario]:
    """The 104 A4 draws of the acceptance table sample (seed 810)."""
    rng = np.random.default_rng(810)
    return [sample_table_scenario(rng, resolution=5, with_beacons=i % 2 == 0)[1]
            for i in range(104)]


TABLE_SAMPLE = _table_sample()


def _bisection_instances() -> list[Scenario]:
    """Seeded instances for the bracketed bisection: shared radios, zero and
    infinite budgets, flat energies (a class whose transmissions saturate
    within a sub-slot, with the budget just below its plateau, where few
    points certify) and a costless class next to a costly one."""
    rng = np.random.default_rng(83)
    out = []
    for i in range(24):
        sc = random_small_scenario(rng, n_classes=1 + i % 3, max_slots=12, beacon_scale=0.05,
                                   share_prob=0.8, budget_frac=BUDGET_FRACS[i % 3])
        out.append(sc)
        out.append(replace(sc, budget=(0.0, math.inf)[i % 2]))
    for budget in (0.5 - 2e-9, 0.5 - 1e-6, 0.49999):
        out.append(make_scenario([60.0, 0.2], budget, slots=8, rho=[0.5, 0.3], beta=[0.0, 0.01],
                                 resolution=3))
    out.append(make_scenario([0.1, 0.2], 0.2, slots=6, rho=[0.0, 1.0], resolution=2))
    return out


BISECTION_INSTANCES = _bisection_instances()


def _saturating_calls(monkeypatch, instances) -> list[tuple]:
    """Every saturating_threshold call (class, thresholds, scenario) that
    arrival_rate_greedy and greedy_construct make on the instances, and
    calls at silent, random fractional and integer thresholds."""
    calls = []

    def recorded(c, thresholds, sc):
        calls.append((c, tuple(thresholds), sc))
        return saturating_threshold(c, thresholds, sc)

    rng = np.random.default_rng(84)
    with monkeypatch.context() as m:
        m.setattr(twohop.baselines, "saturating_threshold", recorded)
        m.setattr(twohop.greedy, "saturating_threshold", recorded)
        for sc in instances:
            arrival_rate_greedy(sc)
            greedy_construct(sc)
            if _free(sc):
                greedy_construct(sc, GreedyVariant.GAIN_PER_COST)
    for sc in instances:
        q = len(sc.classes)
        for hs in ([0.0] * q, rng.uniform(0.0, sc.max_threshold, q).tolist(),
                   rng.integers(0, sc.subslots, q).astype(float).tolist()):
            calls += [(c, tuple(hs), sc) for c in range(q)]
    return calls


def _noisy(energy, amplitude: float):
    """energy plus a fixed pseudo-random offset of at most ``amplitude`` at
    each point: a function within that much of a nondecreasing one, whose
    evaluations read over and within the budget in turn near the
    crossing."""
    def noisy(*args):
        point = args[0].probs if isinstance(args[0], Policy) else np.float64(args[0])
        spread = zlib.crc32(point.tobytes()) / 2.0 ** 31 - 1.0
        return energy(*args) + amplitude * spread
    return noisy


def _energy_scale(sc: Scenario, expanded: bool) -> float:
    """sum tx_cost pop + sum rate (n + 2 k (+ 1)): the energy scale X of
    ``gridsearch._energy_margin``, computed here on its own."""
    n = sc.subslots
    return (sum(cls.tx_cost * cls.population for cls in sc.classes)
            + sum(rate * (n + 2 * len(members) + expanded) for rate, members in sc.beacons))


@pytest.mark.parametrize("noise", [False, True], ids=["exact", "noisy"])
def test_bracketed_bisection_matches_every_midpoint(monkeypatch, noise):
    # saturating_threshold and class_independent against the verbatim loop
    # that evaluates every midpoint.  Noisy: every energy both sides read is
    # offset by up to 2 u X, u = 2**-53, which keeps it within the margin's
    # derived bound of a nondecreasing function, but makes the evaluations
    # near the crossing disagree with a bracket certified with a zero margin
    # or on the wrong side of the budget
    instances = INSTANCES + TABLE_SAMPLE + BISECTION_INSTANCES
    calls = _saturating_calls(monkeypatch, instances)
    results = set()
    with monkeypatch.context() as m:
        if noise:
            def probe(c, thresholds, sc):
                return _noisy(model._energy_probe(c, thresholds, sc),
                              2.0 ** -52 * _energy_scale(sc, False))

            def spent(pol, sc):
                return _noisy(model.energy_spent, 2.0 ** -52 * _energy_scale(sc, True))(pol, sc)

            m.setattr(twohop.gridsearch, "_energy_probe", probe)
            m.setattr(twohop.baselines, "energy_spent", spent)
        for c, hs, sc in calls:
            got = saturating_threshold(c, hs, sc)
            assert repr(got) == repr(saturating_threshold_copy(c, hs, sc))
            results.add("0" if got == 0.0 else "grid" if got == sc.max_threshold else "solved")
        for sc in instances:
            assert repr(class_independent(sc)) == repr(class_independent_copy(sc))
    assert len(calls) > 2000 and results == {"0", "grid", "solved"}


def test_bracketed_bisection_evaluates_few_midpoints(monkeypatch):
    # energy evaluations per _bisect_budget call on the table sample, the
    # aims' and the midpoints': ends that certified nothing would leave the
    # full bisection's 60 or so, on average and at worst
    counts = []

    def counted(energy_at, *args):
        n = len(counts)
        counts.append(0)

        def energy(h):
            counts[n] += 1
            return energy_at(h)

        return bisect(energy, *args)

    bisect = twohop.gridsearch._bisect_budget
    monkeypatch.setattr(twohop.gridsearch, "_bisect_budget", counted)
    monkeypatch.setattr(twohop.baselines, "_bisect_budget", counted)
    for sc in TABLE_SAMPLE:
        arrival_rate_greedy(sc)
        greedy_construct(sc)
        class_independent(sc)
    assert len(counts) >= 200
    assert sum(counts) / len(counts) <= 25
    assert max(counts) <= 45


def _root_delta(sc: Scenario, moved, r: float, top: float, margin: float) -> float:
    """How far past a returned root r the energy must read over the budget:
    2 ulp(top) + margin / s, s = the sum over the moved classes of
    tx_cost pop g e^{-g x}, g = lam dt.  Transmission terms are concave and
    beacon terms nondecreasing, so s bounds the energy's slope up to x,
    taken at min(r + 1, top) when that covers r + delta, else at top.  The
    bisection's over end lies within an ulp of r and reads over the budget,
    so its exact energy is above budget - margin / 2 (``margin`` is twice
    the rounding bound); the slope adds a margin more by r + delta, so a
    read there is over the budget.  The second ulp covers rounding r + delta."""
    for x in (min(r + 1.0, top), top):
        s = sum(sc.classes[c].tx_cost * sc.classes[c].population * sc.rates[c] * sc.eff_slot
                * math.exp(-sc.rates[c] * sc.eff_slot * x) for c in moved)
        delta = 2.0 * math.ulp(top) + (margin / s if s > 0.0 else math.inf)
        if r + delta <= x:
            break
    return delta


def _certify_root(energy, r: float, top: float, budget: float, delta: float) -> None:
    """r and r - delta read within the budget and r + delta (at most top)
    over it."""
    assert energy(max(r - delta, 0.0)) <= budget
    assert energy(r) <= budget < energy(min(r + delta, top))


def test_saturating_roots_are_certified_by_their_energy(monkeypatch):
    # every returned threshold r checked by energies, not against a copy:
    # r = 0 when the energy at 0 is over budget + tol, else r = hi when the
    # energy at hi is within it; otherwise the root lies below r + delta,
    # below _SNAP + delta for r = 0 (the _SNAP rule), and r itself reads
    # within the budget
    instances = INSTANCES + TABLE_SAMPLE + BISECTION_INSTANCES
    calls = _saturating_calls(monkeypatch, instances)
    kinds = []
    for c, hs, sc in calls:
        r = saturating_threshold(c, hs, sc)
        hi, tol = float(sc.max_threshold), budget_tolerance(sc.budget)

        def energy(h: float) -> float:
            probe = list(hs)
            probe[c] = h
            return threshold_energy(probe, sc)

        if energy(0.0) > sc.budget + tol:
            assert r == 0.0
            kinds.append("over at 0")
        elif r == hi:
            assert energy(hi) <= sc.budget + tol
            kinds.append("hi")
        else:
            delta = _root_delta(sc, [c], max(r, _SNAP), hi, _energy_margin(sc))
            if r == 0.0:
                assert sc.budget < energy(min(_SNAP + delta, hi))
                kinds.append("below snap")
            else:
                _certify_root(energy, r, hi, sc.budget, delta)
                kinds.append("solved")
    assert len(calls) > 2000
    assert all(kinds.count(kind) >= 20 for kind in ("over at 0", "hi", "below snap", "solved"))


def test_class_independent_shaves_are_certified_by_their_energy(monkeypatch):
    # every shave of class_independent's common threshold h (a bisection on
    # the expanded policy's energy over [floor(h), h]) returns a root
    # certified like saturating_threshold's, every class moving at once
    shaves = []

    def recorded(energy_at, lo, hi, *args):
        shaves.append((lo, hi, bisect(energy_at, lo, hi, *args)))
        return shaves[-1][2]

    bisect = twohop.baselines._bisect_budget
    monkeypatch.setattr(twohop.baselines, "_bisect_budget", recorded)
    certified = 0
    for sc in INSTANCES + TABLE_SAMPLE + BISECTION_INSTANCES:
        shaves.clear()
        h = class_independent(sc)

        def energy(x: float) -> float:
            return energy_spent(expand_threshold(uniform_policy(sc, x), sc), sc)

        for lo, hi, r in shaves:
            assert h == r and lo <= r < hi
            delta = _root_delta(sc, range(len(sc.classes)), r, hi, _energy_margin(sc, True))
            _certify_root(energy, r, hi, sc.budget, delta)
            certified += 1
    assert certified >= 20


def test_one_segment_newton_matches_the_one_segment_exit():
    # one segment over many rows: the per-segment exit keeps every row live
    # until all of them converge, the iteration of the old one-segment exit.
    # Rows as in _leaf_batches' countable check: the fractional class's
    # remaining budget over every integer threshold of another class, nudged
    # both ways, on beaconed A4 draws; some rows overspend (NaN), some
    # cannot exhaust the budget (+inf)
    rng = np.random.default_rng(85)
    seen = {"nan": 0, "inf": 0, "newton": 0}
    for i in range(24):
        sc = sample_table_scenario(rng, resolution=2 + i % 4, n_classes=2 + i % 2)[1]
        for f in range(len(sc.classes)):
            c = (f + 1) % len(sc.classes)
            masses = _completion_masses(f, {c: np.arange(sc.subslots)}, sc, 0.0)
            rem, m2 = _remaining(f, masses, sc, _tx_energy(masses.items(), sc))
            nudge = 0.3 * sc.budget
            m2 = np.broadcast_to(m2, rem.shape)
            rem, m2 = np.concatenate((rem - nudge, rem + nudge)), np.tile(m2, 2)
            cls = sc.classes[f]
            args = (rem, cls.tx_cost * cls.population, sc.rates[f] * sc.eff_slot,
                    sc.beacon_rate(cls.technology), m2, float(sc.max_threshold))
            got = _solve_saturating_vec(*args, starts=(0,))
            assert got.tobytes() == solve_saturating_one_segment_copy(*args).tobytes()
            seen["nan"] += int(np.isnan(got).sum())
            seen["inf"] += int(np.isinf(got).sum())
            seen["newton"] += int((np.isfinite(got) & (got > m2 + _SNAP)).sum())
    assert min(seen.values()) >= 100


def _integer_outputs(rep, sc: Scenario, integer: GreedyReport) -> None:
    """rep's integer profile, its objective, iterations and certificates
    equal those of the copy's integer-only run ``integer``."""
    assert repr(integer_profile(rep, sc)) == repr(integer.policy.thresholds)
    assert repr(integer_objective(rep, sc)) == repr(integer.objective)
    assert repr((rep.iterations, rep.cardinality_cap, rep.online_bound, rep.offline_bound)) == \
        repr((integer.iterations, integer.cardinality_cap, integer.online_bound,
              integer.offline_bound))


@pytest.mark.parametrize("topup", [True, False], ids=["topup", "integer"])
def test_greedy_matches_per_iteration_loop(topup):
    # topup: the whole report against the copy's top-up mode; integer: the
    # profile before the top-up against the copy's integer-only mode
    compared = set()
    for sc in INSTANCES:
        variants = [GreedyVariant.GAIN]
        if _free(sc):
            variants.append(GreedyVariant.GAIN_PER_COST)
        for variant in variants:
            rep = greedy_construct(sc, variant)
            if topup:
                assert repr(rep) == repr(greedy_construct_per_iteration(sc, variant))
            else:
                _integer_outputs(rep, sc, greedy_construct_per_iteration(
                    sc, variant, fractional_topup=False))
            compared.add((variant, rep.topup_class is not None))
    assert compared == {(variant, topped_up) for variant in GreedyVariant
                        for topped_up in (True, False)}


def test_greedy_matches_per_iteration_loop_at_the_budget_boundary():
    # budgets whose limit budget + tolerance steps one ulp at a time across
    # the energy of the greedy's final profile: the last award is affordable
    # on one side and not on the other, so an award energy computed with
    # other bits shows as a different iteration count
    flips = 0
    for sc in INSTANCES[:48]:
        variant = GreedyVariant.GAIN_PER_COST if _free(sc) else GreedyVariant.GAIN
        k = integer_profile(greedy_construct(sc, variant), sc)
        target = threshold_energy(k, sc)
        base = target / (1.0 + BUDGET_RTOL) if target > 1.0 else target - BUDGET_RTOL
        if base <= 0.0:   # nothing awarded
            continue
        seen = set()
        for j in range(-8, 9):
            bsc = replace(sc, budget=base + j * math.ulp(base))
            rep = greedy_construct(bsc, variant)
            _integer_outputs(rep, bsc, greedy_construct_per_iteration(
                bsc, variant, fractional_topup=False))
            seen.add(rep.iterations)
        flips += len(seen) > 1
    assert flips >= 20


def _moved(hs, c: int, h: float) -> list[float]:
    """The profile hs with class c's threshold at h."""
    out = list(hs)
    out[c] = h
    return out


def test_greedy_profiles_are_maximal_and_end_on_the_budget():
    # a sibling of the per-iteration copy that holds for any award rule:
    # the profile reads within budget + tol; its integer phase, the floor of
    # every threshold, is maximal (no costly class below the grid's end
    # affords one more sub-slot, read within the energy margin); and the
    # profile ends on the budget boundary: a top-up's root is certified as
    # saturating_threshold's roots are, and every other costly class below
    # the grid's end reads over the budget once raised by its root delta
    # past _SNAP, the most a declined top-up may leave
    seen = {"topup": 0, "integer": 0}
    for sc in INSTANCES + TABLE_SAMPLE:
        n1 = float(sc.max_threshold)
        tol, margin = budget_tolerance(sc.budget), _energy_margin(sc)
        for variant in list(GreedyVariant) if _free(sc) else [GreedyVariant.GAIN]:
            rep = greedy_construct(sc, variant)
            hs = rep.policy.thresholds
            assert threshold_energy(hs, sc) <= sc.budget + tol
            k = tuple(float(math.floor(h)) for h in hs)
            assert k == integer_profile(rep, sc)
            for c in _costly_classes(sc):
                if k[c] < n1:
                    assert threshold_energy(_moved(k, c, k[c] + 1.0), sc) > \
                        sc.budget + tol - margin
                if hs[c] == n1:
                    continue

                def energy(h: float) -> float:
                    return threshold_energy(_moved(hs, c, h), sc)

                delta = _root_delta(sc, [c], max(hs[c], _SNAP), n1, margin)
                if c != rep.topup_class:
                    assert sc.budget < energy(min(hs[c] + _SNAP + delta, n1))
                else:
                    _certify_root(energy, hs[c], n1, sc.budget, delta)
            seen["integer" if rep.topup_class is None else "topup"] += 1
    assert seen["topup"] >= 200 and seen["integer"] >= 3


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
    k = np.arange(n)
    a = np.maximum(0, k - cls.ttl_slots)
    out = np.empty(h.shape[0])
    rows = max(1, _CHUNK_CELLS // max(n, 1))
    for start in range(0, h.shape[0], rows):
        stop = min(start + rows, h.shape[0])
        jj = j[start:stop, None]
        w = np.clip(np.minimum(k + 1, jj) - a, 0.0, None)
        w += alpha[start:stop, None] * ((a <= jj) & (jj <= k))
        out[start:stop] = cls.population * log_miss_terms_copy(-lam * dt, w).sum(axis=1)
    return out


def log_miss_terms_copy(x: float, w: np.ndarray) -> np.ndarray:
    """log1p(-p g), p = 1 - e^{x w}, g = 1 - e^x; past lam dt = 37, where
    that rounds to -inf, log(e^{x w} + e^x p) through logaddexp."""
    p = -np.expm1(x * w)
    g = -math.expm1(x)
    with np.errstate(divide="ignore"):
        out = np.log1p(-p * g)
    lost = np.isneginf(out)
    out[lost] = np.logaddexp(x * w[lost], x + np.log(p[lost]))
    return out


def log_miss_sums_copy(x: float, ttl: int, n: int) -> np.ndarray:
    terms = log_miss_terms_copy(x, np.arange(ttl + 2.0))
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
    for tech in sc.technologies:
        members = sc.tech_members[tech.ident]
        if not members or tech.beacon_cost == 0.0:
            continue
        active = 1.0 - np.prod(1.0 - pol.probs[list(members), :], axis=0)
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


def test_certificates_match_boundary_copy():
    # each class's solo end (the cap is their maximum) and its end beside
    # every other class in full, against the copies that solve through
    # boundary_threshold and map its exceptions to 0 and the whole grid
    outcomes = {"solo": set(), "beside full": set()}
    for sc in INSTANCES:
        n1 = sc.max_threshold
        assert repr(cardinality_cap(sc)) == repr(cardinality_cap_copy(sc))
        for c in range(len(sc.classes)):
            for kind, got, want in (
                    ("solo", twohop.greedy._affordable(c, False, sc), affordable_copy(c, {}, sc)),
                    ("beside full", min_slots(c, sc), min_slots_copy(c, sc))):
                assert repr(got) == repr(want)
                outcomes[kind].add("0" if want == 0 else "grid" if want == n1 else "solved")
    assert outcomes == {kind: {"0", "solved", "grid"} for kind in outcomes}


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


def log_miss_fsum(c: int, h: float, sc: Scenario) -> float:
    """class_log_miss(c, [h], sc)[0] with every term through math and the
    terms summed exactly by math.fsum: a sub-slot whose window holds mass w
    misses with 1 - p g = e^{x w} + e^x p, p = 1 - e^{x w}, g = 1 - e^x,
    x = -lam dt, taken through log1p while p g < 1/2 and as a log of the
    two positive parts otherwise, where neither cancels."""
    cls = sc.classes[c]
    x = -sc.rates[c] * sc.eff_slot
    g = -math.expm1(x)
    terms = []
    for k in range(sc.subslots):
        w = min(k + 1, h) - min(max(0, k - cls.ttl_slots), h)
        p = -math.expm1(x * w)
        terms.append(math.log1p(-p * g) if p * g < 0.5
                     else math.log(math.exp(x * w) + math.exp(x) * p))
    return cls.population * math.fsum(terms)


def test_log_miss_matches_exact_sums_within_the_derived_bound():
    # a reference that shares no rounding with the copies above: the table
    # and fractional thresholds against log_miss_fsum, held to the record's
    # own bound (48 + log2 n + 11 E) u |T[n - 1]| (gridsearch._prune_margin);
    # grids up to 250 sub-slots, one TTL below n - 1, one at it and one past
    # it per scenario, and lam dt past 37 on every fourth
    rng = np.random.default_rng(125)
    checked = 0
    for i, n in enumerate((1, 2, 3, 7, 40, 128, 250, 5, 19, 64, 97, 250)):
        lam = np.exp(rng.uniform(math.log(1e-4), math.log(2.0), 3))
        if i % 4 == 3:
            lam[0] = rng.uniform(38.0, 60.0)
        sc = make_scenario(lam.tolist(), 1.0, slots=n, populations=[3, 1, 40],
                           ttl=[int(rng.integers(1, n - 1)) if n > 2 else 1, n - 1 or 1,
                                n + int(rng.integers(0, 4))])
        ints = np.arange(n)
        frac = np.clip(np.concatenate((rng.uniform(0.0, n - 1.0, 20), ints[1:] - 1e-12)),
                       0.0, n - 1.0)
        for c in range(3):
            table = class_log_miss_table(c, sc)
            bound = _law(c, sc).margins[0] * abs(table[-1])
            got = np.concatenate((table[ints], class_log_miss(c, frac, sc)))
            want = [log_miss_fsum(c, float(h), sc) for h in np.concatenate((ints, frac))]
            assert np.all(np.abs(got - want) <= bound)
            checked += got.size
    assert checked >= 5000


def test_log_miss_kernels_cross_chunk_boundaries(monkeypatch):
    # small chunks split every batch and every table build into several
    # blocks of rows (one row each when cells < n, a ragged last block
    # otherwise); a row's sum must not depend on the block it sits in, and
    # a class whose TTL reaches the last sub-slot, whose windows skip the
    # lower end, must keep the bits of the two-ended windows
    rng = np.random.default_rng(122)
    for cells in (1, 50, 301):
        monkeypatch.setattr(model, "_CHUNK_CELLS", cells)
        _laws.cache_clear()
        seen = set()
        try:
            for sc in KERNEL_SCENARIOS[:40:4] + KERNEL_SCENARIOS[40:]:
                n = sc.subslots
                h = _threshold_batch(rng, n)
                rows = max(1, cells // n)
                for c, cls in enumerate(sc.classes):
                    seen.add((rows == 1, h.size % rows != 0 or n % rows != 0,
                              cls.ttl_slots >= n - 1))
                    assert _same_bits(class_log_miss(c, h, sc), class_log_miss_copy(c, h, sc))
                    sums = log_miss_sums_copy(-sc.rates[c] * sc.eff_slot,
                                              min(cls.ttl_slots, n - 1), n)
                    assert _same_bits(class_log_miss_table(c, sc), cls.population * sums)
        finally:
            _laws.cache_clear()
        one_row, ragged, full_ttl = (set(flags) for flags in zip(*seen))
        assert full_ttl == {True, False}
        if cells == 1:
            assert one_row == {True}
        else:
            assert ragged == {True, False}


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1250, 2000])
def test_full_ttl_rows_match_the_window_path(n):
    # the row kernel writes each row by slices (integer-mass caps, the
    # threshold's own term, a falling run, zeros) for every TTL, the copies
    # evaluate a term per window; both must sum the same bits for TTLs of
    # 1, 2, n / 7, n - 2, n - 1 (every copy kept) and past it, also past
    # lam dt = 37, where _log_miss_terms takes its logaddexp branch
    rng = np.random.default_rng(n)
    heads = np.unique(np.concatenate(([0, n - 1], rng.integers(0, n, 30)))).astype(float)
    h = np.clip(np.concatenate((heads, heads - 1e-12, heads + 1e-12,
                                rng.uniform(0.0, n - 1, 30))), 0.0, n - 1.0)
    ttls = sorted({1, 2, max(1, n // 7), max(1, n - 2), max(1, n - 1), n + 2})
    for lam in (0.004, 0.3, 40.0):
        sc = make_scenario([lam] * len(ttls), 1.0, slots=n, populations=[7] * len(ttls),
                           ttl=ttls)
        x = -sc.rates[0] * sc.eff_slot
        for c, ttl in enumerate(ttls):
            sums = log_miss_sums_copy(x, min(ttl, n - 1), n)
            assert np.array_equal(class_log_miss_table(c, sc).view(np.int64),
                                  (7 * sums).view(np.int64))
            assert np.array_equal(class_log_miss(c, h, sc).view(np.int64),
                                  class_log_miss_copy(c, h, sc).view(np.int64))
        assert (lam > 37.0) == (-math.expm1(x) == 1.0)    # the logaddexp branch


def log_miss_slopes_copy(c: int, sc: Scenario) -> np.ndarray:
    cls = sc.classes[c]
    n = sc.subslots
    ttl = min(cls.ttl_slots, n)     # any TTL >= n - 1 keeps every copy to the end
    x = sc.rates[c] * sc.eff_slot
    g = -math.expm1(-x)
    decay = np.exp(-x * np.arange(ttl + 1))
    lead = math.exp(-x)
    if lead > 0.0:
        phi = -g * x * decay / (lead + g * decay)
    else:   # past x = 745 e^-x underflows and g is 1: phi is -x, -x/2, then 0
        phi = np.zeros(ttl + 1)
        phi[0] = -x
        phi[1:2] = -x / 2
    csum = np.concatenate(([0.0], np.cumsum(phi)))
    j = np.arange(n)
    last = np.minimum(ttl, n - 1 - j)                   # k - j runs over 0..last
    flat = np.maximum(np.minimum(last, ttl - j) + 1, 0)  # terms at mass j
    lo, hi = ttl - last, np.minimum(ttl + 1, j)         # the rest: masses lo..hi-1
    rest = np.where(hi > lo, csum[hi] - csum[lo], 0.0)
    return cls.population * (flat * phi[np.minimum(j, ttl)] + rest)


def test_cached_class_kernels_match_copies():
    # the slopes, the row kernel's integer-mass caps, their prefix (the
    # tail bracket's, where the TTL keeps every copy) and the transmission
    # terms, cached per class key, against the expressions that rebuilt them
    # on every call; a TTL of n - 1 and the longer ones share a key, and
    # lam dt runs past 37 (logaddexp terms) and 745 (e^-x underflows)
    extra = [make_scenario([lam, 0.02], 1.0, slots=n, populations=[5, 2], ttl=[n + 2, n],
                           resolution=res)
             for lam in (0.004, 40.0, 800.0) for n, res in ((1, 1), (2, 1), (250, 5))]
    seen = set()
    for sc in KERNEL_SCENARIOS + extra:
        n = sc.subslots
        for c, cls in enumerate(sc.classes):
            x = -sc.rates[c] * sc.eff_slot
            law = _law(c, sc)
            assert _same_bits(_log_miss_slopes(c, sc), log_miss_slopes_copy(c, sc))
            weight = cls.tx_cost * cls.population
            assert _same_bits(_tx_energy([(c, np.arange(n))], sc),
                              [weight * -math.expm1(x * v) for v in range(n)])
            full = cls.ttl_slots >= n - 1
            cap = min(cls.ttl_slots, n - 1) + 1    # a window's largest mass
            caps = _log_miss_terms(x, np.minimum(np.arange(1.0, n + 1), cap))
            assert _same_bits(law.caps, caps)
            prefix = np.concatenate(([0.0], np.cumsum(caps[:n - 1])))
            assert _same_bits(law.prefix, prefix)
            if full:
                assert _same_bits(law.caps, _log_miss_terms(x, np.arange(1.0, n + 1)))
                assert _same_bits(law.prefix, np.concatenate(
                    ([0.0], np.cumsum(_log_miss_terms(x, np.arange(1.0, n))))))
                value, _ = twohop.gridsearch._tail_bracket(c, sc, [np.zeros(n)] * 3)
                j = np.arange(n)
                assert _same_bits(value(j + 0.5, j), cls.population * (
                    prefix[j] + (n - j) * _log_miss_terms(x, j + 0.5)))
            seen.add((full, -x > 745.0, -x > 37.0))
    assert {(False, False, False), (True, False, False), (True, True, True),
            (True, False, True)} <= seen


def delivery_probability_fsum(pol: Policy, k: int, sc: Scenario) -> float:
    """delivery_probability with every TTL window summed exactly."""
    total = 0.0
    for c, cls in enumerate(sc.classes):
        mu = pol.probs[c]
        w = np.array([math.fsum(mu[max(0, j - cls.ttl_slots):j + 1]) for j in range(k)])
        total += cls.population * float(model._log_miss_terms(-sc.rates[c] * sc.eff_slot, w).sum())
    return -math.expm1(total)


def test_delivery_probability_matches_copy():
    # the copy takes every window as a difference of prefix sums: the same
    # bits on threshold rows, whose windows are exact, and on rows whose
    # windows all start at sub-slot 0; other rows sum each window from its
    # own entries and are held to the exactly summed windows instead
    rng = np.random.default_rng(123)
    for sc in KERNEL_SCENARIOS:
        n = sc.subslots
        long_ttl = np.array([[cls.ttl_slots >= n - 1] for cls in sc.classes])
        thresholds = [expand_threshold(ThresholdPolicy(tuple(hs)), sc)
                      for hs in rng.uniform(0.0, n - 1, (3, len(sc.classes)))]
        for pol in _policies(rng, sc):
            for k in sorted({1, n // 2 + 1, n}):
                assert delivery_probability(pol, k, sc) == pytest.approx(
                    delivery_probability_fsum(pol, k, sc), rel=1e-12, abs=0.0)
                for bitwise in (Policy(np.where(long_ttl, pol.probs, 0.0)), *thresholds):
                    assert repr(delivery_probability(bitwise, k, sc)) == \
                        repr(delivery_probability_copy(bitwise, k, sc))


def test_delivery_of_expanded_thresholds_is_threshold_objective():
    rng = np.random.default_rng(124)
    checked = 0
    for sc in KERNEL_SCENARIOS:
        n1 = sc.max_threshold
        draws = [rng.uniform(0.0, n1, len(sc.classes)) for _ in range(30)]
        draws += [rng.integers(0, n1 + 1, len(sc.classes)).astype(float) for _ in range(10)]
        # the baselines' profiles, whose CLI rows report threshold_objective
        draws += [arrival_rate_greedy(sc).thresholds,
                  uniform_policy(sc, class_independent(sc)).thresholds]
        for hs in draws:
            tp = ThresholdPolicy(tuple(hs))
            assert repr(delivery_probability(expand_threshold(tp, sc), sc.subslots, sc)) == \
                repr(threshold_objective(tp.thresholds, sc))
            checked += 1
    assert checked >= 1890


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
            # same bits, though a numpy h no longer makes a beacon-free value numpy
            assert _same_bits(_uniform_energy(h, sc), uniform_energy_copy(h, sc))


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
                _tx_energy(_completion_masses(frac_c, fixed, sc, 0.0).items(), sc), rows.shape)
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
                masses = _completion_masses(frac_c, child, sc, 0.0)
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
        masses = _completion_masses(frac_c, {}, sc, 0.0)
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


def _small_grid_instances():
    """One to three costly classes on at most 40 sub-slots; beacons on own
    and shared radios or none; TTL as drawn, 1 or the full horizon; a
    costless class beside the costly ones in every fifth; budgets at 1-2%,
    5-95% and 97-99% of the all-full cost, and a few that buy the all-full
    profile."""
    rng = np.random.default_rng(12)
    fracs = ((0.01, 0.02), (0.05, 0.95), (0.97, 0.99))
    out = []
    for i in range(72):
        sc = random_small_scenario(rng, n_classes=1 + i % 3, max_slots=(40, 40, 14)[i % 3],
                                   beacon_scale=0.3 if (i // 3) % 2 else 0.0, share_prob=0.5,
                                   budget_frac=fracs[(i // 6) % 3])
        ttl = (i // 18) % 3
        classes = [replace(cls, ttl_slots=(cls.ttl_slots, 1, sc.subslots)[ttl])
                   for cls in sc.classes]
        techs = sc.technologies
        if i % 5 == 0:
            techs += (Technology("free", 0.0),)
            classes.append(replace(classes[0], tx_cost=0.0, technology="free"))
        out.append(replace(sc, classes=tuple(classes), technologies=techs,
                           budget=math.inf if i % 24 == 23 else sc.budget))
    return out


SMALL_GRID_INSTANCES = _small_grid_instances()


def test_grid_search_is_within_the_derived_bound_of_exact_candidate_sums():
    # a sibling of the exhaustive copy whose reference shares none of the
    # code's rounding: every enumerate_saturating candidate scored by the
    # sum over classes of log_miss_fsum.  grid's profile is a candidate, or
    # the all-full profile, and its exact log-miss is at most the least
    # candidate's plus twice every class's derived table bound
    # (margins[0] |T_c[n - 1]|) plus 16 u S, S = sum_c |T_c[n - 1]|, for the
    # sums across classes.  The candidates come from the walker that
    # grid_search runs too, so their integer parts are checked against
    # brute_force_saturating, which reads only energies
    u = 2.0 ** -53
    kinds = set()
    for sc in SMALL_GRID_INSTANCES:
        n1, q = float(sc.max_threshold), len(sc.classes)
        costly = _costly_classes(sc)
        assert 1 <= len(costly) <= 3 and sc.subslots <= 40

        def exact(hs) -> float:
            return math.fsum(log_miss_fsum(c, h, sc) for c, h in enumerate(hs))

        candidates = set()
        for f in costly:
            found = list(enumerate_saturating(sc, f))
            assert {tuple(sorted(a.items())) for a, _ in found} == {
                tuple((c, h) for c, h in profile if c in costly)
                for profile in brute_force_saturating(sc, f)}
            candidates |= {tuple(r if c == f else float(a.get(c, n1)) for c in range(q))
                           for a, r in found}
        got = grid_search(sc).policy.thresholds
        if got == (n1,) * q:
            assert threshold_energy(got, sc) <= sc.budget + budget_tolerance(sc.budget)
            kinds.add("full")
            continue
        assert got in candidates
        tops = [abs(float(class_log_miss_table(c, sc)[-1])) for c in range(q)]
        bound = 2.0 * sum(_law(c, sc).margins[0] * t for c, t in enumerate(tops))
        assert exact(got) <= min(map(exact, candidates)) + bound + 16.0 * u * sum(tops)
        kinds.add(len(costly))
    assert kinds == {"full", 1, 2, 3}
