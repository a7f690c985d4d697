"""The beaconing radios of a scenario: ``Scenario.beacons`` lists every
technology with a nonzero beacon cost and at least one member class, and
every energy expression, solver and beacon-free check reads that list.

A technology that no class uses charges nothing, so adding one to a
scenario must leave every output bit unchanged, and must not stop the
algorithms that need a scenario without beacon costs."""

import dataclasses
import pickle

import numpy as np
import pytest

from twohop import (
    GreedyVariant,
    NodeClass,
    Policy,
    Scenario,
    SimConfig,
    Technology,
    arrival_rate_greedy,
    class_independent,
    combined_best,
    energy_spent,
    expand_threshold,
    greedy_construct,
    grid_search,
    simulate,
    threshold_energy,
)
from twohop.baselines import _uniform_energy
from twohop.cli import run_algorithm
from twohop.gridsearch import saturating_threshold
from twohop.model import beacon_activity
from conftest import RANGE_M, SLOT_LEN, ARENA, speed_for

UNUSED = Technology("unused", 0.05)


def _scenario(radios) -> Scenario:
    """Four classes over seven slots on the technologies ``radios`` (ident,
    beacon cost), in that order: classes 0 and 1 share "shared", class 2 is
    on "free" and class 3 on "own"; the budget is 0.4 of the all-full
    energy."""
    techs = tuple(Technology(ident, cost) for ident, cost in radios)
    classes = tuple(
        NodeClass(population=p, ttl_slots=ttl, speed=speed_for(lam), range_m=RANGE_M,
                  tx_cost=rho, technology=tech)
        for p, ttl, lam, rho, tech in [(2, 7, 0.12, 0.6, "shared"), (3, 3, 0.05, 0.9, "shared"),
                                       (1, 7, 0.3, 0.4, "free"), (2, 5, 0.08, 0.7, "own")])
    probe = Scenario(classes, techs, 7 * SLOT_LEN, SLOT_LEN, ARENA, 1.0)
    full = threshold_energy([probe.max_threshold] * len(classes), probe)
    return dataclasses.replace(probe, budget=0.4 * full)


def _with_unused(sc: Scenario, at: int) -> Scenario:
    techs = list(sc.technologies)
    techs.insert(at, UNUSED)
    return dataclasses.replace(sc, technologies=tuple(techs))


BEACONING = _scenario([("shared", 0.03), ("free", 0.0), ("own", 0.02)])
BEACON_FREE = _scenario([("shared", 0.0), ("free", 0.0), ("own", 0.0)])


def _same(a, b) -> bool:
    return pickle.dumps(a) == pickle.dumps(b)


def test_beacons_lists_charging_radios_in_scenario_order():
    assert BEACONING.beacons == ((0.03, (0, 1)), (0.02, (3,)))
    assert BEACON_FREE.beacons == ()
    for at in range(4):
        assert _with_unused(BEACONING, at).beacons == BEACONING.beacons
        assert _with_unused(BEACON_FREE, at).beacons == ()
    res3 = dataclasses.replace(BEACONING, resolution=3)
    assert res3.beacons == ((0.03 / 3, (0, 1)), (0.02 / 3, (3,)))


@pytest.mark.parametrize("at", [0, 2, 3])
def test_an_unused_radio_changes_no_energy(at):
    rng = np.random.default_rng(41)
    for base in (BEACONING, BEACON_FREE):
        sc = _with_unused(base, at)
        n1 = sc.max_threshold
        for _ in range(20):
            hs = rng.uniform(0.0, n1, 4)
            assert repr(threshold_energy(hs, sc)) == repr(threshold_energy(hs, base))
            pol = Policy(rng.uniform(0.0, 1.0, (4, sc.subslots)))
            assert repr(energy_spent(pol, sc)) == repr(energy_spent(pol, base))
            assert _same(list(beacon_activity(pol, sc)), list(beacon_activity(pol, base)))
            for c in range(4):
                assert repr(saturating_threshold(c, hs, sc)) == \
                    repr(saturating_threshold(c, hs, base))
            h = float(rng.uniform(0.0, n1))
            assert repr(_uniform_energy(h, sc)) == repr(_uniform_energy(h, base))


@pytest.mark.parametrize("base", [BEACONING, BEACON_FREE], ids=["beaconing", "beacon-free"])
def test_an_unused_radio_changes_no_solver_output(base):
    sc = _with_unused(base, 1)
    rep, ref = grid_search(sc), grid_search(base)
    assert ref.pruned > 0 or base is BEACON_FREE   # the hull bound's charges run
    fields = ("policy", "objective", "upper_bound", "ratio_bound", "enumerated", "pruned",
              "evaluated")
    assert [repr(getattr(rep, f)) for f in fields] == [repr(getattr(ref, f)) for f in fields]
    assert repr(greedy_construct(sc)) == repr(greedy_construct(base))
    assert repr(arrival_rate_greedy(sc)) == repr(arrival_rate_greedy(base))
    assert repr(class_independent(sc)) == repr(class_independent(base))
    tp = arrival_rate_greedy(base)
    cfg = SimConfig(trials=3000, seed=5)
    assert _same(simulate(sc, expand_threshold(tp, sc), cfg),
                 simulate(base, expand_threshold(tp, base), cfg))


def test_an_unused_radio_does_not_block_the_beacon_free_algorithms():
    sc = _with_unused(BEACON_FREE, 0)
    rep = greedy_construct(sc, GreedyVariant.GAIN_PER_COST)
    assert repr(rep) == repr(greedy_construct(BEACON_FREE, GreedyVariant.GAIN_PER_COST))
    assert repr(combined_best(sc)) == repr(combined_best(BEACON_FREE))
    for name in ("greedy2", "combined"):
        assert repr(run_algorithm(name, sc)) == repr(run_algorithm(name, BEACON_FREE))
    # a radio that charges its member classes still blocks them
    with pytest.raises(ValueError):
        greedy_construct(BEACONING, GreedyVariant.GAIN_PER_COST)
    with pytest.raises(ValueError):
        combined_best(BEACONING)

