"""Grid-search oracles: boundary solver, feasible ranges, enumeration
completeness against brute force, solver optimality, and the quality bound."""

import dataclasses
import math

import numpy as np
import pytest

import twohop.gridsearch
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
)
from twohop.cli import sample_table_scenario
from twohop.gridsearch import (
    _SNAP,
    FeasibleRange,
    SolveTimeout,
    _Best,
    _completion_masses,
    _costly_classes,
    _hull_bounds,
    _leaf_batches,
    _prune_margin,
    _ranges,
    _solve_saturating_vec,
    _tail_bracket,
    brute_force_saturating,
)
from twohop.model import (
    Technology,
    _log_miss_slopes,
    _tx_energy,
    budget_tolerance,
    class_log_miss,
    class_log_miss_table,
    is_costless,
)
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


def test_grid_search_matches_exhaustive_three_and_four_classes():
    # every candidate ranked in log-miss space, summed as the grid search
    # sums it (integer classes in class order, then the fractional class),
    # with the lexicographic tie-break; three classes walk two vector
    # levels, four walk three
    rng = np.random.default_rng(29)
    checked = 0
    for trial in range(16):
        n_classes = 3 + trial % 2
        sc = random_small_scenario(rng, n_classes=n_classes, max_slots=7 if n_classes == 3 else 5,
                                   beacon_scale=0.05, share_prob=0.5)
        if threshold_energy([sc.max_threshold] * n_classes, sc) <= sc.budget + budget_tolerance(sc.budget):
            continue
        tables = [class_log_miss_table(c, sc) for c in range(n_classes)]
        best, count = (math.inf, ()), 0
        for frac_c in range(n_classes):
            for assigned, r in enumerate_saturating(sc, frac_c):
                val = 0
                for c in sorted(assigned):
                    val = val + tables[c][assigned[c]]
                val = float(val + class_log_miss(frac_c, [r], sc)[0])
                hs = tuple(r if c == frac_c else float(assigned[c]) for c in range(n_classes))
                best = min(best, (val, hs))
                count += 1
        rep = grid_search(sc)
        assert rep.enumerated == count
        assert rep.policy.thresholds == best[1]
        checked += 1
    assert checked >= 10


def test_leaf_chunks_keep_candidates_and_bits(monkeypatch):
    # chunks of a few rows (whole prefixes, which on four classes span
    # several upper-level prefixes) enumerate the same profiles, with the
    # same bits, as one pass per block
    rng = np.random.default_rng(32)
    for n_classes in (3,) * 6 + (4,) * 6:
        sc = random_small_scenario(rng, n_classes=n_classes, max_slots=8 if n_classes == 3 else 6,
                                   beacon_scale=0.05, share_prob=0.5)
        whole = [list(enumerate_saturating(sc, f)) for f in range(n_classes)]
        rep = grid_search(sc)
        monkeypatch.setattr(twohop.gridsearch, "_LEAF_CHUNK", 3)
        assert [list(enumerate_saturating(sc, f)) for f in range(n_classes)] == whole
        chunked = grid_search(sc)
        monkeypatch.undo()
        assert (chunked.policy, chunked.objective, chunked.upper_bound, chunked.enumerated) \
            == (rep.policy, rep.objective, rep.upper_bound, rep.enumerated)


def _scalar_range(c, partial, sc):
    """The range rule on two scalar boundary solves, and which branch set it."""
    n1 = sc.max_threshold
    try:
        hi, kind = min(n1, math.floor(boundary_threshold(c, partial, sc, "zero") + _SNAP)), "solved"
    except BudgetExceededError:
        return (0, -1), "overspent"
    except BudgetUnboundedError:
        hi, kind = n1, "hi-unbounded"
    try:
        lo = max(0, math.ceil(boundary_threshold(c, partial, sc, "full") - _SNAP))
    except BudgetExceededError:
        lo, kind = 0, "lo-overspent"
    except BudgetUnboundedError:
        return (0, -1), "unsaturable"
    return (lo, hi), kind if lo <= hi else "empty"


def test_range_kernel_rows_match_scalar_boundaries():
    # one kernel call over a block of prefixes: every row is the ceil/floor
    # of the scalar boundary solves at the full and the silent completion,
    # and a raised boundary maps to the range the scalar rule gives it
    rng = np.random.default_rng(33)
    kinds = set()
    for trial in range(40):
        n_classes = 3 + trial % 2
        sc = random_small_scenario(rng, n_classes=n_classes, max_slots=8,
                                   beacon_scale=0.05 if trial % 4 < 2 else 0.0, share_prob=0.5,
                                   budget_frac=(0.02, 0.98))
        frac_c, c = (int(k) for k in rng.choice(n_classes, 2, replace=False))
        others = [k for k in range(n_classes) if k not in (frac_c, c)]
        prefix = [k for k in others if rng.random() < 0.7] or others[:1]
        block = {k: rng.integers(0, sc.subslots, 30) for k in prefix}
        lo, hi = _ranges(c, block, sc)
        for i in range(30):
            partial = PartialAssignment(frac_c, {k: int(v[i]) for k, v in block.items()})
            expect, kind = _scalar_range(c, partial, sc)
            assert (int(lo[i]), int(hi[i])) == expect
            assert feasible_range(c, partial, sc) == FeasibleRange(*expect)
            kinds.add(kind)
    assert kinds == {"solved", "overspent", "hi-unbounded", "lo-overspent", "unsaturable",
                     "empty"}


def test_log_miss_slopes_bracket_fractional_tails():
    # table instances (full TTL) and short-TTL instances: the slope table is
    # the right derivative (Richardson forward difference), and every tail
    # lies between the tangent and the chord up to the pruning margin
    rng = np.random.default_rng(30)
    scenarios = [sample_table_scenario(rng, resolution=2, with_beacons=i % 2 == 0)[1]
                 for i in range(6)]
    scenarios += [random_small_scenario(rng, n_classes=2, max_slots=40, min_slots_count=20)
                  for _ in range(6)]
    # a TTL far beyond the horizon keeps every copy, like a TTL of n - 1
    scenarios.append(dataclasses.replace(scenarios[-1], classes=tuple(
        dataclasses.replace(cls, ttl_slots=10 ** 6) for cls in scenarios[-1].classes)))
    for sc in scenarios:
        tables = [class_log_miss_table(c, sc) for c in range(len(sc.classes))]
        j = np.arange(sc.max_threshold)
        for c, table in enumerate(tables):
            slopes = _log_miss_slopes(c, sc)
            step = 1e-4
            fd1 = (class_log_miss(c, j + step, sc) - table[j]) / step
            fd2 = (class_log_miss(c, j + 2 * step, sc) - table[j]) / (2 * step)
            assert np.abs(2 * fd1 - fd2 - slopes[j]).max() <= 1e-7 * np.abs(slopes).max()
            alpha = rng.uniform(0.0, 1.0, j.size)
            exact = class_log_miss(c, j + alpha, sc)
            margin = _prune_margin(c, sc, tables)
            assert np.all(table[j] + alpha * slopes[j] - margin <= exact)
            assert np.all(exact <= (1.0 - alpha) * table[j] + alpha * table[j + 1] + margin)


def test_segmented_solve_matches_separate_calls():
    # beacon cases that take the Newton branch: each segment stops on its own
    # residuals, so solving two segments together gives the separate bits
    rng = np.random.default_rng(31)
    joint_differs = 0
    for _ in range(40):
        rho, g, beacon = rng.uniform(0.5, 5.0), rng.uniform(0.001, 0.2), rng.uniform(1e-4, 0.05)
        rem = rng.uniform(0.1, 0.99, 6) * rho
        # paid beacon cover below the closed-form root: the Newton branch
        m2 = rng.uniform(0.0, 0.9, 6) * -np.log1p(-rem / rho) / g
        apart = np.concatenate([_solve_saturating_vec(rem[s], rho, g, beacon, m2[s], 60.0)
                                for s in (slice(0, 2), slice(2, 6))])
        together = _solve_saturating_vec(rem, rho, g, beacon, m2, 60.0, starts=[0, 2])
        assert np.array_equal(apart, together)
        joint_differs += not np.array_equal(apart, _solve_saturating_vec(rem, rho, g, beacon, m2, 60.0))
    assert joint_differs > 0    # one segment would change the bits


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
    assert grid_search(sc).upper_bound == pytest.approx(
        threshold_objective([5.0, 5.0], sc), abs=1e-12)


# ---------------------------------------------------------------------------
# branch and bound: the Lagrangian hull bound on last-level prefixes
# ---------------------------------------------------------------------------

def _bound_instances():
    """Random three- and four-class instances with beacons (own and shared
    radios), a costless class, TTL 1, and budgets near zero, anywhere and
    near the all-full cost; those the all-full profile fits are left out."""
    rng = np.random.default_rng(34)
    fracs = ((0.01, 0.02), (0.05, 0.95), (0.97, 0.99))
    out = []
    for i in range(60):
        n_classes = 3 + i % 2
        sc = random_small_scenario(rng, n_classes=n_classes, max_slots=12 if n_classes == 3 else 8,
                                   beacon_scale=0.4 if i % 3 else 0.0, share_prob=0.5,
                                   budget_frac=fracs[i % 3], min_slots_count=4)
        classes, techs = list(sc.classes), list(sc.technologies)
        if i % 4 == 1:
            classes = [dataclasses.replace(cls, ttl_slots=1) for cls in classes]
        if i % 6 < 2:
            techs.append(Technology("free", 0.0))
            classes[0] = dataclasses.replace(classes[0], tx_cost=0.0, technology="free")
        sc = dataclasses.replace(sc, classes=tuple(classes), technologies=tuple(techs))
        full = threshold_energy([sc.max_threshold] * n_classes, sc)
        if full > sc.budget + budget_tolerance(sc.budget):
            out.append(sc)
    return out


BOUND_INSTANCES = _bound_instances()


def _hulls(sc):
    tables = [class_log_miss_table(c, sc) for c in range(len(sc.classes))]
    pinned = sum(tables[c][-1] for c in range(len(sc.classes)) if is_costless(c, sc))
    full = threshold_energy([sc.max_threshold] * len(sc.classes), sc)
    return tables, pinned, _hull_bounds(sc, tables, pinned, full, _Best())


def test_bound_instances_cover_the_cases():
    shared = [sc for sc in BOUND_INSTANCES if any(
        len(m) > 1 and sc.tech_by_id[t].beacon_cost > 0.0 for t, m in sc.tech_members.items())]
    assert len(shared) >= 5
    assert any(any(is_costless(c, sc) for c in range(len(sc.classes))) for sc in BOUND_INSTANCES)
    assert any(all(cls.ttl_slots == 1 for cls in sc.classes) for sc in BOUND_INSTANCES)
    assert {len(sc.classes) for sc in BOUND_INSTANCES} == {3, 4}
    assert len(BOUND_INSTANCES) >= 25


def test_hull_bound_holds_below_every_prefix():
    # every last-level prefix the walker expands: the bound minus its margin
    # stays below the exact log-miss of each of its candidates, and below
    # the tangent by no more than what the tangent test itself allows; the
    # rounded-up bound stays below each rounded-up value
    checked = tight = 0
    for sc in BOUND_INSTANCES:
        tables, pinned, hulls = _hulls(sc)
        n1 = sc.max_threshold
        for frac_c, hull in hulls.items():
            slopes, table = _log_miss_slopes(frac_c, sc), tables[frac_c]
            lows = {}
            for levels, vals, r in _leaf_batches(sc, frac_c):
                if r.size == 0:
                    continue
                known = known_up = np.full(r.shape, pinned)
                for c, h in zip(levels, vals):
                    known = known + tables[c][h]
                    known_up = known_up + tables[c][np.minimum(h + 1, n1)]
                j = r.astype(int)
                tangent = known + (table[j] + (r - j) * slopes[j])
                exact = known + class_log_miss(frac_c, r, sc)
                up = known_up + table[np.minimum(np.floor(r + _SNAP).astype(int) + 1, n1)]
                for i in range(r.size):
                    key = tuple(int(v[i]) for v in vals[:-1])
                    old = lows.get(key, (math.inf,) * 3)
                    lows[key] = (min(old[0], tangent[i]), min(old[1], exact[i]), min(old[2], up[i]))
            if not lows:
                continue
            prefix = [c for c in _costly_classes(sc) if c != frac_c][:-1]
            fixed = {c: np.array([key[k] for key in lows]) for k, c in enumerate(prefix)}
            row_tx = _tx_energy(_completion_masses(frac_c, fixed, sc, "zero").items(), sc)
            bound, bound_up = hull.bounds(fixed, row_tx)
            tangent, exact, up = (np.array([low[k] for low in lows.values()]) for k in range(3))
            slack = hull.margin - _prune_margin(frac_c, sc, tables)
            assert np.all(bound - hull.margin <= exact)
            assert np.all(bound - slack <= tangent)
            assert np.all(bound_up - hull.margin_up <= up)
            checked += len(lows)
            tight += int(np.sum(bound > exact - 0.1 * np.abs(exact)))
    assert checked >= 400 and tight >= checked // 2


def test_hull_bound_holds_at_every_profile_energy():
    # each profile of the last level's class c and the fractional class f,
    # the other classes silent, at its own energy (no budget tolerance):
    # integer and fractional tails for the log-miss, and tails within _SNAP
    # below the next sub-slot (which round up one sub-slot further) for the
    # rounded-up log-miss
    checked = 0
    for sc in BOUND_INSTANCES:
        tables, _, hulls = _hulls(sc)
        n1 = sc.max_threshold
        for frac_c, hull in hulls.items():
            c = [k for k in _costly_classes(sc) if k != frac_c][-1]
            slopes = _log_miss_slopes(frac_c, sc)
            for v in range(n1 + 1):
                for j in range(n1 + 1):
                    for alpha in (0.0, 0.3, 0.7, 1.0 - _SNAP / 2):
                        r = j + alpha
                        if r > n1:
                            continue
                        hs = [0.0] * len(sc.classes)
                        hs[c], hs[frac_c] = float(v), r
                        g, g_up = hull.at(np.array([threshold_energy(hs, sc)]))
                        if alpha < 0.5:
                            tangent = tables[c][v] + (tables[frac_c][j] + alpha * slopes[j])
                            exact = tables[c][v] + class_log_miss(frac_c, [r], sc)[0]
                            assert g[0] - hull.margin <= exact
                            assert g[0] - (hull.margin - _prune_margin(frac_c, sc, tables)) \
                                <= tangent
                        up = (tables[c][min(v + 1, n1)]
                              + tables[frac_c][min(math.floor(r + _SNAP) + 1, n1)])
                        assert g_up[0] - hull.margin_up <= up
                        checked += 1
    assert checked >= 20_000


def test_pruned_rows_count_only_closable_leaves(monkeypatch):
    # budgets that put the silent-completion end of a last-level range
    # within _SNAP of the next integer: the range keeps that leaf, whose
    # closure overspends, so the range count of such a row exceeds its
    # candidates; a pruned row must still add only what closing it adds
    rng = np.random.default_rng(36)
    short = 0
    for _ in range(40):
        slots = int(rng.integers(6, 14))
        sc = make_scenario([float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.2, 0.6)),
                            float(rng.uniform(0.05, 0.5))], 1.0, slots=slots,
                           rho=[float(rng.uniform(0.5, 3.0)), float(rng.uniform(2.0, 8.0)),
                                float(rng.uniform(0.5, 3.0))],
                           populations=[1, 1, int(rng.integers(1, 4))])
        p0, k = int(rng.integers(1, slots - 1)), int(rng.integers(1, 3))
        tx = [_tx_energy([(c, h)], sc) for c, h in ((0, p0), (1, k - 5e-10))]
        sc = dataclasses.replace(sc, budget=tx[0] + tx[1])
        rows = np.arange(sc.subslots)
        lo, hi = _ranges(1, {0: rows}, sc)
        closed = sum(r.size for _, _, r in _leaf_batches(sc, 2))
        short += int(np.sum(np.maximum(hi - lo + 1, 0))) > closed
        rep = grid_search(sc)
        with monkeypatch.context() as m:
            m.setattr(twohop.gridsearch, "_hull_bounds", lambda *args: {})
            whole = grid_search(sc)
        assert repr((rep.policy, rep.objective, rep.upper_bound, rep.enumerated)) == \
            repr((whole.policy, whole.objective, whole.upper_bound, whole.enumerated))
    assert short >= 10


def test_tail_bracket_lies_within_its_margin():
    # full-TTL classes with n 1-1250 sub-slots, populations 1-60 and
    # lam dt 1e-4-40; tails j + a at j = 0, n - 1 and a random j, with
    # a = 0, 1e-12, U(0, 1) and 1 - 1e-12; a second class's table entries
    # are the known sum added on both sides
    rng = np.random.default_rng(37)
    checked = moved = 0
    for i in range(240):
        n = (1, 2, 1250)[i] if i < 3 else int(np.exp(rng.uniform(0.0, math.log(1250.0))))
        lam = (1e-4, 40.0)[i % 2] if i < 8 else float(np.exp(rng.uniform(math.log(1e-4),
                                                                           math.log(40.0))))
        sc = make_scenario([lam, float(rng.uniform(0.01, 0.4))], 1.0, slots=n,
                           populations=[int(rng.integers(1, 61)) for _ in range(2)])
        tables = [class_log_miss_table(c, sc) for c in range(2)]
        value, mb = _tail_bracket(0, sc, tables)
        heads = np.array(sorted({0, n - 1, int(rng.integers(0, n))}), dtype=float)
        r = (heads[:, None] + [0.0, 1e-12, float(rng.uniform()), 1.0 - 1e-12]).ravel()
        r = r[r <= n - 1]
        known = tables[1][rng.integers(0, n, r.size)]
        gap = np.abs((known + value(r, r.astype(int)))
                     - (known + class_log_miss(0, r, sc)))
        assert np.all(gap <= mb)
        checked += r.size
        moved += int(np.any(gap > 0.0))
    assert checked >= 1000 and moved >= 100


def test_pruned_counter():
    # most of the anchor three-class table instance is ruled out unclosed;
    # one and two classes leave a single walker level, so nothing is pruned.
    # The tail bracket sends under 1% of the candidates of the anchor and of
    # i29 (whose flat optimum kept 131,790 tangents) to class_log_miss
    rng = np.random.default_rng(810)
    draws = [sample_table_scenario(rng, resolution=5, with_beacons=i % 2 == 0)[1]
             for i in range(30)]
    rep = grid_search(draws[19])
    assert len(draws[19].classes) == 3
    assert rep.pruned >= 0.9 * rep.enumerated
    assert 0 < rep.evaluated < 0.01 * rep.enumerated
    flat = grid_search(draws[29])
    assert 0 < flat.evaluated < 0.01 * flat.enumerated
    small = [sc for sc in draws if len(sc.classes) < 3]
    rng = np.random.default_rng(35)
    small += [random_small_scenario(rng, n_classes=1 + i % 2, max_slots=12,
                                    beacon_scale=0.05 * (i % 2), share_prob=0.5)
              for i in range(20)]
    assert len(small) >= 30
    assert all(grid_search(sc).pruned == 0 for sc in small)


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
