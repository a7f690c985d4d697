"""Shared scenario builders for the test suite.

Scenarios derive contact rates from geometry, so helpers invert the rate
formula (fixing R and L, solving for the speed) to hit exact per-slot
lambda * slot_len products.
"""

import math
from dataclasses import replace

import numpy as np

from twohop import NodeClass, Scenario, Technology, threshold_energy, threshold_objective
from twohop.model import is_costless

SPEED_CONSTANT = 1.3693
SLOT_LEN = 100.0
ARENA = 500.0
RANGE_M = 15.0


def speed_for(lam_per_slot: float, slot_len: float = SLOT_LEN,
              arena: float = ARENA, range_m: float = RANGE_M) -> float:
    lam = lam_per_slot / slot_len
    return lam * math.pi * arena * arena / (8.0 * SPEED_CONSTANT * range_m)


def make_scenario(lam_slot, budget, *, slots, populations=None, rho=None, beta=None,
                  ttl=None, resolution=1, shared_tech=False):
    """Scenario with exact per-slot contact products lam_slot (list).

    ttl is given in whole slots (defaults to the full horizon); beta is one
    beacon cost per class unless shared_tech groups everyone on one radio.
    """
    n = len(lam_slot)
    populations = populations or [1] * n
    rho = rho or [1.0] * n
    beta = beta if beta is not None else [0.0] * n
    ttl = ttl or [slots] * n
    techs = []
    classes = []
    for i in range(n):
        tech_id = "shared" if shared_tech else f"t{i}"
        if not shared_tech or i == 0:
            techs.append(Technology(tech_id, beta[i]))
        classes.append(NodeClass(
            population=populations[i],
            ttl_slots=ttl[i] * resolution,
            speed=speed_for(lam_slot[i]),
            range_m=RANGE_M,
            tx_cost=rho[i],
            technology=tech_id,
        ))
    return Scenario(tuple(classes), tuple(techs), deadline=slots * SLOT_LEN,
                    slot_len=SLOT_LEN, arena_radius=ARENA, budget=budget,
                    resolution=resolution)


def two_class_reference(resolution: int = 1) -> Scenario:
    """The worked two-class instance: K=20, budget 0.7, populations (1, 2),
    per-slot contact products (0.021, 0.020), full TTL, unit tx cost."""
    return make_scenario([0.021, 0.02], 0.7, slots=20, populations=[1, 2],
                         resolution=resolution)


def random_small_scenario(rng: np.random.Generator, *, n_classes=2, max_slots=10,
                          beacon_scale=0.0, share_prob=0.5,
                          budget_frac=(0.05, 0.95), min_slots_count=2):
    """Random coarse instance with distinct contact rates, optional beacons,
    and a budget drawn as a fraction of the all-full cost."""
    slots = int(rng.integers(min_slots_count, max_slots + 1))
    techs: dict[str, Technology] = {}
    classes = []
    tech_count = 0
    for _ in range(n_classes):
        if techs and rng.random() < share_prob:
            tech_id = str(rng.choice(sorted(techs)))
        else:
            tech_id = f"t{tech_count}"
            tech_count += 1
            beacon = float(rng.uniform(0.0, beacon_scale)) if beacon_scale else 0.0
            techs[tech_id] = Technology(tech_id, beacon)
        classes.append(NodeClass(
            population=int(rng.integers(1, 8)),
            ttl_slots=int(rng.integers(1, slots + 1)),
            speed=speed_for(float(rng.uniform(0.01, 0.4))),
            range_m=RANGE_M,
            tx_cost=float(rng.uniform(0.05, 1.0)),
            technology=tech_id,
        ))
    probe = Scenario(tuple(classes), tuple(techs.values()), slots * SLOT_LEN,
                     SLOT_LEN, ARENA, 1.0, 1)
    full = threshold_energy([probe.max_threshold] * n_classes, probe)
    budget = float(rng.uniform(*budget_frac)) * full
    return Scenario(tuple(classes), tuple(techs.values()), slots * SLOT_LEN,
                    SLOT_LEN, ARENA, budget, 1)


def beacon_only(rng: np.random.Generator, sc: Scenario,
                budget_frac=(0.05, 0.95)) -> Scenario:
    """sc with class 0 moved, transmission cost 0, onto class 1's radio,
    which charges beacons (drawn in [0.01, 0.3] where it charged none): a
    costly class whose only cost is a radio it shares.  The budget is
    redrawn as a fraction of the new all-full cost."""
    tech = sc.classes[1].technology
    techs = tuple(replace(t, beacon_cost=t.beacon_cost or float(rng.uniform(0.01, 0.3)))
                  if t.ident == tech else t for t in sc.technologies)
    classes = (replace(sc.classes[0], tx_cost=0.0, technology=tech),) + sc.classes[1:]
    probe = replace(sc, classes=classes, technologies=techs)
    full = threshold_energy([probe.max_threshold] * len(classes), probe)
    return replace(probe, budget=float(rng.uniform(*budget_frac)) * full)


def scale_costs(sc: Scenario, factor: float) -> Scenario:
    """sc with every transmission and beacon cost and the budget times factor."""
    return replace(sc, budget=sc.budget * factor,
                   classes=tuple(replace(c, tx_cost=c.tx_cost * factor) for c in sc.classes),
                   technologies=tuple(replace(t, beacon_cost=t.beacon_cost * factor)
                                      for t in sc.technologies))


def integer_profile(rep, sc: Scenario) -> tuple[float, ...]:
    """The integer profile a greedy report's award loop ended on, before the
    top-up: the topped-up class holds the iterations that the other costly
    classes' thresholds leave over."""
    hs = list(rep.policy.thresholds)
    c = rep.topup_class
    if c is not None:
        hs[c] = float(rep.iterations - sum(int(h) for c2, h in enumerate(hs)
                                           if c2 != c and not is_costless(c2, sc)))
    return tuple(hs)


def integer_objective(rep, sc: Scenario) -> float:
    """Objective of the greedy's integer profile (``integer_profile``)."""
    return threshold_objective(integer_profile(rep, sc), sc)


def brute_force_integer_optimum(sc: Scenario) -> float:
    """Best objective over every budget-feasible integer threshold profile."""
    import itertools

    from twohop.model import budget_tolerance, threshold_objective

    n = sc.subslots
    tol = budget_tolerance(sc.budget)
    best = 0.0
    for combo in itertools.product(range(n), repeat=len(sc.classes)):
        hs = [float(h) for h in combo]
        if threshold_energy(hs, sc) <= sc.budget + tol:
            best = max(best, threshold_objective(hs, sc))
    return best
