"""Grid-search oracles: boundary solver, feasible ranges, enumeration
completeness against brute force, solver optimality, and the quality bound."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import twohop.gridsearch
from twohop import (
    BudgetExceededError,
    BudgetUnboundedError,
    ThresholdPolicy,
    arrival_rate_greedy,
    boundary_threshold,
    class_independent,
    enumerate_saturating,
    evaluate,
    expand_threshold,
    feasible_range,
    greedy_construct,
    grid_search,
    ratio_bound,
    saturating_threshold,
    threshold_energy,
    threshold_objective,
    uniform_policy,
)
from twohop.cli import sample_scalability_scenario, sample_table_scenario
from twohop.gridsearch import (
    _PINNED_LOG_MISS,
    _SNAP,
    SolveTimeout,
    _Best,
    _completion_masses,
    _costly_classes,
    _ends,
    _hull_bounds,
    _leaf_batches,
    _prune_margin,
    _ranges,
    _remaining,
    _solve_for,
    _solo_ends,
    _solve_saturating_vec,
    _tail_bracket,
    brute_force_saturating,
)
from twohop.model import (
    Technology,
    _law,
    _log_miss_slopes,
    _tx_energy,
    budget_tolerance,
    class_log_miss,
    class_log_miss_table,
    is_costless,
)
from conftest import (
    beacon_only,
    make_scenario,
    random_small_scenario,
    scale_costs,
    two_class_reference,
)


# ---------------------------------------------------------------------------
# boundary threshold
# ---------------------------------------------------------------------------

def test_boundary_single_class_closed_form():
    sc = make_scenario([0.1], -math.expm1(-0.2), slots=5)
    r = boundary_threshold(0, {}, sc)
    assert r == pytest.approx(2.0, abs=1e-10)


def test_boundary_reference_instance_vs_bisection():
    sc = two_class_reference()
    r = boundary_threshold(0, {1: 15}, sc)
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
        boundary_threshold(0, {1: 4}, sc)
    rich = make_scenario([0.1], 5.0, slots=5)
    with pytest.raises(BudgetUnboundedError):
        boundary_threshold(0, {}, rich)


def test_boundary_beacon_branch_vs_blackbox():
    # the Newton branch (threshold sticking out past the paid beacon cover)
    # must agree with blackbox bisection on the exact energy
    rng = np.random.default_rng(11)
    for _ in range(50):
        sc = random_small_scenario(rng, n_classes=3, beacon_scale=0.05,
                                   share_prob=0.7)
        assigned = {1: int(rng.integers(0, sc.subslots))}
        try:
            r = boundary_threshold(0, assigned, sc)
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
    r = boundary_threshold(0, {1: h2}, sc)
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
    lo, hi = feasible_range(1, {}, sc)
    # exhaustive scan over integer h2: keep those with a saturating h1
    tol = budget_tolerance(sc.budget)
    valid = []
    for h2 in range(sc.subslots):
        lo_e = threshold_energy([0.0, float(h2)], sc)
        hi_e = threshold_energy([float(sc.max_threshold), float(h2)], sc)
        if lo_e <= sc.budget + tol and hi_e >= sc.budget - tol:
            valid.append(h2)
    assert valid == list(range(lo, hi + 1))
    assert (lo, hi) == (11, 19)


def test_feasible_range_zero_budget():
    sc = make_scenario([0.1, 0.2], 0.0, slots=5)
    assert feasible_range(1, {}, sc) == (0, 0)


def test_feasible_range_empty_prunes():
    # an already-overspent branch yields an empty range for the next class
    sc = make_scenario([0.1, 0.2, 0.15], 0.05, slots=5)
    lo, hi = feasible_range(2, {1: 4}, sc)
    assert lo > hi


# ---------------------------------------------------------------------------
# enumeration completeness
# ---------------------------------------------------------------------------

def _with_beacon_only_and_scaled(rng, scenarios, draw, count):
    """``scenarios``, then ``count`` draws given a costly class whose only
    cost is a shared charging radio (``beacon_only``), then ``count`` with
    every cost and the budget scaled by 1e6, 1e9 and 1e12, past the
    budget-end kernel's absolute residual tolerance."""
    scenarios += [beacon_only(rng, draw()) for _ in range(count)]
    for _ in range(count):
        sc = draw()
        scenarios += [scale_costs(sc, f) for f in (1e6, 1e9, 1e12)]
    return scenarios


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(21)
    scenarios = [random_small_scenario(rng, n_classes=2, max_slots=12,
                                       beacon_scale=0.05 if trial % 2 else 0.0)
                 for trial in range(60)]
    scenarios = _with_beacon_only_and_scaled(rng, scenarios, lambda: random_small_scenario(
        rng, n_classes=2, max_slots=12, beacon_scale=0.05, share_prob=0.5), 20)
    checked = 0
    for sc in scenarios:
        for frac_c in range(2):
            enum = {tuple(sorted(a.items()))
                    for a, _ in enumerate_saturating(sc, frac_c)}
            brute = brute_force_saturating(sc, frac_c)
            assert enum == brute
            checked += 1
    assert checked == 2 * (60 + 20 + 60)


def test_enumeration_three_classes():
    rng = np.random.default_rng(22)

    def draw():
        return random_small_scenario(rng, n_classes=3, max_slots=6,
                                     beacon_scale=0.03, share_prob=0.6)

    for sc in _with_beacon_only_and_scaled(rng, [draw() for _ in range(10)], draw, 5):
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


@pytest.mark.parametrize("chunk", [257, twohop.gridsearch._LEAF_CHUNK, 65_536])
def test_chunk_size_moves_no_bit_on_deep_walks(monkeypatch, chunk):
    # the twelve three-class draws of the seed-810 table stream's first 30
    # (n up to 1,250) and the 4-class scalability draw at seed 4, n = 100
    # (2.4 million candidates): every parent prefix keeps its own Newton
    # segment, so the chunk size moves no output bit; the digest was taken
    # at 65,536-row chunks before the walker dropped its dead temporaries.
    # Only the library-only pruned count may move, as the incumbents update
    # between chunks
    rng = np.random.default_rng(810)
    draws = [sample_table_scenario(rng, resolution=5, with_beacons=i % 2 == 0)[1]
             for i in range(30)]
    deep = [sc for sc in draws if len(sc.classes) == 3]
    deep.append(sample_scalability_scenario(np.random.default_rng(4), 4, resolution=1)[1])
    assert len(deep) == 13 and deep[-1].subslots == 100
    monkeypatch.setattr(twohop.gridsearch, "_LEAF_CHUNK", chunk)
    outputs = []
    for sc in deep:
        rep = grid_search(sc)
        assert 0 <= rep.pruned <= rep.enumerated
        outputs.append(repr((rep.policy, rep.objective, rep.upper_bound, rep.enumerated)))
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "0525a369f83eceb49bfd696ea66f97a2598167773fd7a2a408f01ee4218607d2"


def _finite_ttl_draws():
    """21 A4 draws at resolutions 1-3 whose classes keep a copy for one
    sub-slot, n // 7 or n - 2 sub-slots, the three TTLs rotated over the
    classes from draw to draw; every other draw charges beacons."""
    rng = np.random.default_rng(29)
    out = []
    for i in range(21):
        sc = sample_table_scenario(rng, resolution=1 + i % 3, with_beacons=i % 2 == 0)[1]
        n = sc.subslots
        ttls = (1, max(1, n // 7), max(1, n - 2))
        out.append(dataclasses.replace(sc, classes=tuple(
            dataclasses.replace(cls, ttl_slots=ttls[(i + c) % 3])
            for c, cls in enumerate(sc.classes))))
    return out


def test_finite_ttl_solver_outputs_golden():
    # every A4 draw keeps each copy to the horizon, so the table goldens
    # never reach a TTL window that drops a copy; these draws do, through
    # every solver the table runs.  The digests were taken before the
    # window path and the full-TTL rows became one row kernel
    draws = _finite_ttl_draws()
    assert {1, 2, 3} == {len(sc.classes) for sc in draws}
    assert any(sc.beacons and len(sc.technologies) < len(sc.classes) for sc in draws)
    assert all(cls.ttl_slots < sc.subslots - 1 for sc in draws for cls in sc.classes)
    outputs = {"grid": [], "greedy1": [], "arrival": [], "uniform": []}
    for sc in draws:
        rep = grid_search(sc)
        outputs["grid"].append(repr((rep.objective, rep.upper_bound, rep.policy.thresholds,
                                     rep.enumerated)))
        for name, tp in (("greedy1", greedy_construct(sc).policy),
                         ("arrival", arrival_rate_greedy(sc)),
                         ("uniform", uniform_policy(sc, class_independent(sc)))):
            outputs[name].append(repr((threshold_objective(tp.thresholds, sc), tp.thresholds)))
    digests = {name: hashlib.sha256("\n".join(reprs).encode()).hexdigest()
               for name, reprs in outputs.items()}
    assert digests == {
        "grid": "f5670eece8cb7466b47033351f33a582b27a14b208edf0ab2194e4df08c51d25",
        "greedy1": "57fecb683e4485f737ba5fe52e1aa5a36ba994c76906aabe1d43f041e71a3b5e",
        "arrival": "6533a5e24c86268855a1e2871e7d566f00f52a0cc4e7699f59aedb5139330df9",
        "uniform": "1bb277c097ee51389e4bac14699b88ed8ab67a03e9423c57859bd89ebfce1f00",
    }


def test_walker_holds_few_temporaries():
    # the 4-class scalability draw at seed 4, n = 300, walks 66 million
    # candidates over three levels; each level holds about _LEAF_CHUNK rows
    # of arrays, so the walk's traced peak stays a few MiB (6.7 MiB at
    # 8,192-row chunks, 52 MiB at 65,536)
    sc = sample_scalability_scenario(np.random.default_rng(4), 4, resolution=3)[1]
    assert sc.subslots == 300
    for c in range(len(sc.classes)):
        class_log_miss_table(c, sc)     # cached before tracing: not the walker's
    tracemalloc.start()
    try:
        grid_search(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def _full_completion_boundary(c, assigned, sc):
    """The boundary solve of class c with the costly classes not yet assigned
    at full transmission: NaN when they overspend, inf when c cannot
    exhaust the rest."""
    masses = _completion_masses(c, assigned, sc, float(sc.max_threshold))
    return float(_solve_for(c, *_remaining(c, masses, sc, _tx_energy(masses.items(), sc)),
                            sc)[0])


def _scalar_range(c, assigned, sc):
    """The range rule on two scalar boundary solves, and which branch set it."""
    n1 = sc.max_threshold
    try:
        hi, kind = min(n1, math.floor(boundary_threshold(c, assigned, sc) + _SNAP)), "solved"
    except BudgetExceededError:
        return (0, -1), "overspent"
    except BudgetUnboundedError:
        hi, kind = n1, "hi-unbounded"
    lo = _full_completion_boundary(c, assigned, sc)
    if math.isnan(lo):
        lo, kind = 0, "lo-overspent"
    elif math.isinf(lo):
        return (0, -1), "unsaturable"
    else:
        lo = max(0, math.ceil(lo - _SNAP))
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
            assigned = {k: int(v[i]) for k, v in block.items()}
            expect, kind = _scalar_range(c, assigned, sc)
            assert (int(lo[i]), int(hi[i])) == expect
            assert feasible_range(c, assigned, sc) == expect
            kinds.add(kind)
    assert kinds == {"solved", "overspent", "hi-unbounded", "lo-overspent", "unsaturable",
                     "empty"}


def test_solo_ends_are_the_one_row_ends():
    # the cached silent and full ends of each class keep the bits of the
    # one-row _ends calls that the walker, boundary_threshold and greedy's
    # certificates made, NaN (overspent) and +inf (unexhaustible) included
    rng = np.random.default_rng(44)
    kinds = set()
    for i in range(40):
        sc = random_small_scenario(rng, n_classes=1 + i % 3, max_slots=10,
                                   beacon_scale=0.05 if i % 2 else 0.0, share_prob=0.6,
                                   budget_frac=((0.0, 0.02), (0.05, 0.95), (0.97, 1.2))[i % 3])
        n1 = float(sc.max_threshold)
        for c in range(len(sc.classes)):
            ends = _solo_ends(c, sc)
            assert not ends.flags.writeable
            assert np.array_equal(ends.view(np.int64),
                                  _ends(c, {}, sc, (0.0, n1)).view(np.int64))
            for row, fill in enumerate((0.0, n1)):
                one = _ends(c, {}, sc, (fill,))
                assert repr(float(ends[row, 0])) == repr(float(one[0, 0]))
                kinds.add("nan" if np.isnan(one[0, 0]) else "inf" if np.isinf(one[0, 0])
                          else "solved")
    assert kinds == {"nan", "inf", "solved"}


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


def test_grid_search_timeout_checked_during_table_builds(monkeypatch):
    # the deadline is checked after each class's log-miss table, before the
    # rest of the set-up and the walk
    builds = []

    def counted(c, sc):
        builds.append(c)
        return class_log_miss_table(c, sc)

    monkeypatch.setattr(twohop.gridsearch, "class_log_miss_table", counted)
    sc = make_scenario([0.1, 0.2, 0.3], 0.5, slots=8)
    with pytest.raises(SolveTimeout):
        grid_search(sc, timeout_s=0)
    assert len(builds) <= 1


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
            row_tx = _tx_energy(_completion_masses(frac_c, fixed, sc, 0.0).items(), sc)
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


def test_prune_margin_is_one_value_per_class_key():
    # a TTL of n - 1 and a longer one keep every copy and share one record,
    # slopes included, so they share one margin: the slope term's
    # 32 n + 96, which covers the longer TTL
    sc = make_scenario([0.05, 0.05], 1.0, slots=14, populations=[3, 3], ttl=[13, 20])
    tables = [class_log_miss_table(c, sc) for c in range(2)]
    assert _law(0, sc) is _law(1, sc)
    assert _prune_margin(0, sc, tables) == _prune_margin(1, sc, tables)
    x = sc.rates[0] * sc.eff_slot
    assert _law(0, sc).margins[1] == (32 * 14 + 96) * math.exp(x) * 2.0 ** -53


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


def _stream_draws(*indices: int) -> list:
    """Draws of the seed-810 A4 stream (resolution 5, beacons on even draw
    indices) at the given indices."""
    rng = np.random.default_rng(810)
    draws = [sample_table_scenario(rng, resolution=5, with_beacons=i % 2 == 0)[1]
             for i in range(max(indices) + 1)]
    return [draws[i] for i in indices]


def test_pinned_upper_bound_drops_the_rounded_up_prune(monkeypatch):
    # i712 and i720 of table-sweep's three-class tail report an objective of
    # exactly 1.0: past _PINNED_LOG_MISS the upper bound can only read 1.0,
    # so the prune rule drops its rounded-up half and rules out more
    # prefixes, every output unchanged.  i528 and i347 stay below 1.0, so the
    # rule never engages there, and their upper bound is the unpruned walk's,
    # which dropping the rounded-up half for good would move
    assert -math.expm1(_PINNED_LOG_MISS + 2.5) == 1.0
    pinned, unpinned = _stream_draws(712, 720), _stream_draws(528, 347)

    def run(sc):
        rep = grid_search(sc)
        return (rep.policy, rep.objective, rep.upper_bound, rep.enumerated), rep.pruned

    on = [run(sc) for sc in pinned + unpinned]
    monkeypatch.setattr(twohop.gridsearch, "_PINNED_LOG_MISS", -math.inf)
    off = [run(sc) for sc in pinned + unpinned]
    monkeypatch.setattr(twohop.gridsearch, "_hull_bounds", lambda *args: {})
    walked = [run(sc) for sc in unpinned]
    assert [out for out, _ in on] == [out for out, _ in off]
    for (out, pruned), (_, pruned_off), (out_walked, unpruned) in zip(on[2:], off[2:], walked):
        assert out[1] < out[2] < 1.0 and pruned == pruned_off > 0 == unpruned
        assert out == out_walked
    for (out, pruned), (_, pruned_off) in zip(on[:2], off[:2]):
        assert out[1] == out[2] == 1.0 and pruned > pruned_off


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


def _costless_fractional_class():
    sc = make_scenario([0.1, 0.2], 0.5, slots=4, rho=[1.0, 0.0])
    with pytest.raises(ValueError, match="fractional class must have a positive cost"):
        next(enumerate_saturating(sc, 1))


def _one_slot_bound():
    # no grid refinement: the continuous limit 1/q
    assert ratio_bound(1, 3, 4) == 0.25
    assert ratio_bound(1, 1, math.inf) == 0.0


@pytest.mark.parametrize("check", [_costless_fractional_class, _one_slot_bound],
                         ids=["enumerate-costless-fractional", "ratio-bound-one-slot"])
def test_gridsearch_edge_inputs(check):
    check()


def test_ratio_bound_validates_arguments():
    with pytest.raises(ValueError):
        ratio_bound(0, 1, 2)
    with pytest.raises(ValueError):
        ratio_bound(2, 0, 2)
