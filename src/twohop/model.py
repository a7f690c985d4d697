"""Analytic model of two-hop forwarding in a multi-class delay tolerant network.

A single source holds a packet that must reach a single sink within a
deadline.  Mobile relays are grouped into classes; contacts with the source
and with the sink follow independent Poisson processes whose rate depends on
the class mobility profile.  A forwarding policy gives, per class and per
(sub-)slot, the probability that the source hands a copy to a relay it meets.
Relays keep a copy for a local time-to-live and then discard it for good.

This module holds the domain types plus the closed-form evaluation of a
policy: delivery probability under the product-form per-slot approximation,
and expected energy (transmissions plus per-technology beaconing) that is
charged against a global budget.

Everything here is a pure function of immutable values (scenarios and
policies never mutate after construction), so concurrent use needs no
locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BUDGET_RTOL",
    "NodeClass",
    "Policy",
    "PolicyEvaluation",
    "Scenario",
    "ScenarioError",
    "Technology",
    "ThresholdPolicy",
    "beacon_activity",
    "budget_tolerance",
    "class_log_miss",
    "class_log_miss_table",
    "contact_rate",
    "delivery_probability",
    "energy_spent",
    "evaluate",
    "expand_threshold",
    "expected_holding",
    "expected_received",
    "extract_threshold",
    "holding_laplace",
    "is_costless",
    "q_no_receive",
    "threshold_energy",
    "threshold_objective",
    "within_budget",
]

# Relative slack applied to the budget when deciding feasibility; saturating
# thresholds are produced by root finding and only match the budget to solver
# tolerance.
BUDGET_RTOL = 1e-9

# Row chunk used when materialising threshold-by-slot matrices.
_CHUNK_CELLS = 4_000_000

# Per-class tables (log-miss sums, tx terms) kept in memory; each holds subslots floats.
_TABLE_CACHE_SIZE = 256


def budget_tolerance(budget: float) -> float:
    """Absolute feasibility slack for a given budget."""
    return BUDGET_RTOL * max(1.0, budget)


class ScenarioError(ValueError):
    """Raised when a scenario or one of its components violates an invariant."""


@dataclass(frozen=True)
class Technology:
    """A radio technology shared by one or more node classes.

    ``beacon_cost`` is the energy charged per (whole) slot in which any class
    using this technology may transmit; neighbour discovery has to run during
    the whole slot regardless of how many classes share the radio.
    """

    ident: str
    beacon_cost: float

    def __post_init__(self):
        if not self.ident:
            raise ScenarioError("technology ident must be non-empty")
        if not (0.0 <= self.beacon_cost < math.inf):
            raise ScenarioError(
                f"technology {self.ident!r}: beacon_cost must be finite and >= 0")


@dataclass(frozen=True)
class NodeClass:
    """One category of mobile relays.

    ``ttl_slots`` counts sub-slots of the policy grid (a relay that receives a
    copy in sub-slot k still holds it during sub-slots k .. k+ttl_slots and
    then discards it permanently).  Scenario files carry the TTL in whole
    slots; the CLI converts on ingestion.
    """

    population: int
    ttl_slots: int
    speed: float       # m/s
    range_m: float     # communication range, m
    tx_cost: float     # energy per forwarded copy
    technology: str    # Technology.ident

    def __post_init__(self):
        if not (isinstance(self.population, int) and self.population >= 1):
            raise ScenarioError("population must be an integer >= 1")
        if not (isinstance(self.ttl_slots, int) and self.ttl_slots >= 1):
            raise ScenarioError("ttl_slots must be an integer >= 1")
        if not (0.0 < self.speed < math.inf):
            raise ScenarioError("speed must be finite and > 0")
        if not (0.0 < self.range_m < math.inf):
            raise ScenarioError("range_m must be finite and > 0")
        if not (0.0 <= self.tx_cost < math.inf):
            raise ScenarioError("tx_cost must be finite and >= 0")


@dataclass(frozen=True)
class Scenario:
    """A full problem instance.

    The horizon is split into ``slots = floor(deadline / slot_len)`` whole
    slots; with ``resolution`` m each slot is further split into m sub-slots,
    so policies live on a grid of ``slots * resolution`` sub-slots of length
    ``slot_len / resolution`` seconds.  All per-slot formulas below operate on
    that sub-slot grid.
    """

    classes: tuple[NodeClass, ...]
    technologies: tuple[Technology, ...]
    deadline: float       # seconds
    slot_len: float       # seconds
    arena_radius: float   # m
    budget: float         # energy units
    resolution: int = 1
    speed_constant: float = 1.3693

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "technologies", tuple(self.technologies))
        if not self.classes:
            raise ScenarioError("at least one class required")
        if not (0.0 < self.deadline < math.inf):
            raise ScenarioError("deadline must be finite and > 0")
        if not (0.0 < self.slot_len < math.inf):
            raise ScenarioError("slot_len must be finite and > 0")
        if self.deadline / self.slot_len < 1.0:
            raise ScenarioError("deadline shorter than one slot")
        if self.deadline / self.slot_len == math.inf:
            raise ScenarioError("deadline spans too many slots")
        if not (0.0 < self.arena_radius < math.inf):
            raise ScenarioError("arena_radius must be finite and > 0")
        # an infinite budget is valid: every class then transmits in full
        if not (self.budget >= 0.0):
            raise ScenarioError("budget must be >= 0")
        if not (isinstance(self.resolution, int) and self.resolution >= 1):
            raise ScenarioError("resolution must be an integer >= 1")
        if not (0.0 < self.speed_constant < math.inf):
            raise ScenarioError("speed_constant must be finite and > 0")
        idents = [t.ident for t in self.technologies]
        if len(set(idents)) != len(idents):
            raise ScenarioError("technology idents must be unique")
        known = set(idents)
        for i, cls in enumerate(self.classes):
            if cls.technology not in known:
                raise ScenarioError(f"classes[{i}]: unknown technology {cls.technology!r}")

    @cached_property
    def slots(self) -> int:
        """Number of whole slots K."""
        return math.floor(self.deadline / self.slot_len)

    @cached_property
    def subslots(self) -> int:
        """Length of the policy grid."""
        return self.slots * self.resolution

    @cached_property
    def eff_slot(self) -> float:
        """Sub-slot duration in seconds."""
        return self.slot_len / self.resolution

    @property
    def max_threshold(self) -> int:
        """Largest admissible threshold (the final sub-slot stays silent)."""
        return self.subslots - 1

    @cached_property
    def rates(self) -> tuple[float, ...]:
        """Per-class contact rate at source and sink, 1/s."""
        return tuple(contact_rate(c, self) for c in self.classes)

    @cached_property
    def tech_by_id(self) -> dict[str, Technology]:
        return {t.ident: t for t in self.technologies}

    @cached_property
    def tech_members(self) -> dict[str, tuple[int, ...]]:
        """Class indices grouped by technology ident."""
        groups: dict[str, list[int]] = {t.ident: [] for t in self.technologies}
        for i, cls in enumerate(self.classes):
            groups[cls.technology].append(i)
        return {k: tuple(v) for k, v in groups.items()}

    def beacon_rate(self, tech_id: str) -> float:
        """Beacon energy per active sub-slot for one technology."""
        return self.tech_by_id[tech_id].beacon_cost / self.resolution


def is_costless(c: int, sc: Scenario) -> bool:
    """True when transmissions of class c consume no energy at all.

    Such a class is saturated to full transmission before any optimisation:
    the gain is monotone and the budget is untouched.
    """
    cls = sc.classes[c]
    return cls.tx_cost == 0.0 and sc.tech_by_id[cls.technology].beacon_cost == 0.0


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Policy:
    """Per-class forwarding probabilities on the sub-slot grid.

    ``probs`` has shape (n_classes, n_subslots); entry (c, k) is the
    probability that the source forwards to a class-c relay met during
    sub-slot k.  The array is stored read-only.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2:
            raise ValueError("policy must be a 2-D array (classes x sub-slots)")
        # written so that NaN fails the check
        if not (arr.min(initial=0.0) >= -1e-12 and arr.max(initial=0.0) <= 1.0 + 1e-12):
            raise ValueError("forwarding probabilities must be finite and lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n_classes(self) -> int:
        return self.probs.shape[0]

    def mass(self, c: int) -> float:
        """Total transmission mass of class c (sum of its probabilities)."""
        return float(self.probs[c].sum())

    @staticmethod
    def zeros(sc: Scenario) -> "Policy":
        return Policy(np.zeros((len(sc.classes), sc.subslots)))


@dataclass(frozen=True)
class ThresholdPolicy:
    """The canonical policy form: transmit with probability 1 before the
    per-class threshold, with the fractional tail on the threshold sub-slot,
    and never afterwards."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(h) for h in self.thresholds))
        for h in self.thresholds:
            if not (h >= 0.0) or not math.isfinite(h):
                raise ValueError("thresholds must be finite and >= 0")

    @property
    def n_classes(self) -> int:
        return len(self.thresholds)


def expand_threshold(tp: ThresholdPolicy, sc: Scenario) -> Policy:
    """Materialise a threshold policy on the scenario's sub-slot grid.

    Raises ValueError when a threshold falls outside [0, subslots - 1].
    """
    n = sc.subslots
    if tp.n_classes != len(sc.classes):
        raise ValueError("threshold count does not match scenario classes")
    rows = np.zeros((tp.n_classes, n))
    for c, h in enumerate(tp.thresholds):
        if h < -1e-12 or h > (n - 1) + 1e-12:
            raise ValueError(f"threshold {h} for class {c} outside [0, {n - 1}]")
        h = min(max(h, 0.0), float(n - 1))
        j = int(math.floor(h))
        rows[c, :j] = 1.0
        if j < n:
            rows[c, j] = h - j
    return Policy(rows)


def extract_threshold(pol: Policy, sc: Scenario, atol: float = 1e-9) -> ThresholdPolicy:
    """Inverse of expand_threshold; rejects vectors that are not threshold shaped."""
    hs = []
    for c in range(pol.n_classes):
        h = pol.mass(c)
        hs.append(h)
    cand = ThresholdPolicy(tuple(hs))
    back = expand_threshold(cand, sc)
    if not np.allclose(back.probs, pol.probs, atol=atol, rtol=0.0):
        raise ValueError("policy is not threshold shaped")
    return cand


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def contact_rate(cls: NodeClass, sc: Scenario) -> float:
    """Poisson contact rate (1/s) of one class-c node at source or sink:
    8 * w * R_c * v_c / (pi * L^2)."""
    return 8.0 * sc.speed_constant * cls.range_m * cls.speed / (math.pi * sc.arena_radius ** 2)


def _windows(cum, ttl: int, n: int) -> np.ndarray:
    """Policy mass in the TTL window of every sub-slot k < n,
    w[k] = cum(k + 1) - cum(max(0, k - ttl)), where cum(m) is the mass of
    the first m sub-slots: ``_prefix_mass`` of a policy row, or min(m, h)
    for a threshold h.  A column of thresholds gives one C-ordered row of
    windows per threshold, so a row sum keeps numpy's pairwise order."""
    k = np.arange(n)
    return cum(k + 1) - cum(np.maximum(0, k - ttl))


def _prefix_mass(mu: np.ndarray):
    """cum(m) of a policy row: the sum of its first m entries."""
    return np.concatenate(([0.0], np.cumsum(mu))).__getitem__


def q_no_receive(mu_c: Sequence[float], k: int, k2: int, lam: float, dt: float) -> float:
    """Probability that one relay receives nothing during sub-slots k..k2
    (inclusive): exp(-lam * dt * sum(mu_c[k:k2+1]))."""
    mu = np.asarray(mu_c, dtype=float)
    if not (0 <= k <= k2 < mu.shape[0]):
        raise ValueError(f"window [{k}, {k2}] outside policy of length {mu.shape[0]}")
    # k..k2 is the TTL window of sub-slot k2 for a TTL of k2 - k
    return math.exp(-lam * dt * _windows(_prefix_mass(mu), k2 - k, k2 + 1)[k2])


def _p_receive(c: int, k: int, ttl: int, pol: Policy, sc: Scenario) -> float:
    """Probability that one class-c relay received a copy in the TTL window
    of sub-slot k, taken through expm1 so that a small mass keeps its
    relative precision."""
    if not (0 <= k < sc.subslots):
        raise ValueError("slot index outside horizon")
    w = _windows(_prefix_mass(pol.probs[c]), ttl, sc.subslots)[k]
    return -math.expm1(-sc.rates[c] * sc.eff_slot * w)


def expected_received(c: int, k: int, pol: Policy, sc: Scenario) -> float:
    """Expected number of class-c relays that got a copy by sub-slot k."""
    # a TTL of the whole horizon keeps every copy: the window is 0..k
    return sc.classes[c].population * _p_receive(c, k, sc.subslots, pol, sc)


def expected_holding(c: int, k: int, pol: Policy, sc: Scenario) -> float:
    """Expected number of class-c relays still holding a copy at sub-slot k.

    Only receptions within the trailing TTL window max(0, k - ttl)..k count;
    older copies have been discarded.
    """
    cls = sc.classes[c]
    return cls.population * _p_receive(c, k, cls.ttl_slots, pol, sc)


def holding_laplace(s: float, c: int, h: int, pol: Policy, sc: Scenario) -> float:
    """E[exp(-s * Y)] for the class-c holding count Y at sub-slot h.

    Relays receive independently, so Y is binomial(population, p) with p the
    per-node holding probability; the expectation is the binomial moment
    generating function (1 - p * (1 - e^-s))^population.
    """
    if not (s > 0.0):
        raise ValueError("s must be > 0")
    cls = sc.classes[c]
    p = _p_receive(c, h, cls.ttl_slots, pol, sc)
    return (1.0 - p * -math.expm1(-s)) ** cls.population


# ---------------------------------------------------------------------------
# Objective and budget functionals
# ---------------------------------------------------------------------------

def _log_miss_terms(x: float, w) -> np.ndarray:
    """Per-relay log of no delivery in a sub-slot whose TTL window holds
    policy mass w: log1p(-(1 - e^{x w}) g), g = 1 - e^x, x = -lam dt.

    Past lam dt of about 37, g and p g round to 1 and log1p gives -inf
    where the value is finite; those entries alone take the same quantity
    as log(e^{x w} + e^x p) = logaddexp(x w, x + log p)."""
    xw = x * w
    p = -np.expm1(xw)
    g = -math.expm1(x)
    if g < 1.0:     # p <= 1, so p g <= g < 1 and every entry is finite
        return np.log1p(-p * g)
    with np.errstate(divide="ignore"):
        out = np.log1p(-p * g)
    lost = np.isneginf(out)
    out[lost] = np.logaddexp(xw[lost], x + np.log(p[lost]))
    return out


def _threshold_sums(h: np.ndarray, ttl: int, n: int, terms) -> np.ndarray:
    """For each threshold in h, the sum over sub-slots k < n of terms(w[k]),
    w the TTL windows at cum(m) = min(m, h); about _CHUNK_CELLS cells at a
    time, each threshold's terms one C-ordered row in k order."""
    out = np.empty(h.shape[0])
    rows = max(1, _CHUNK_CELLS // n)
    for start in range(0, h.shape[0], rows):
        col = h[start:start + rows, None]
        out[start:start + rows] = terms(_windows(lambda m: np.minimum(m, col), ttl, n)).sum(axis=1)
    return out


def delivery_probability(pol: Policy, k: int, sc: Scenario) -> float:
    """Probability that the sink has the packet by the end of sub-slot k-1.

    Product over classes and sub-slots of the holding-count Laplace
    transforms evaluated at s = lam_c * dt, subtracted from one.  The value
    is nondecreasing under any pointwise increase of the policy.
    """
    if not (1 <= k <= sc.subslots):
        raise ValueError("horizon k must lie in [1, subslots]")
    if pol.probs.shape != (len(sc.classes), sc.subslots):
        raise ValueError("policy shape does not match scenario")
    total = 0.0
    for c, cls in enumerate(sc.classes):
        w = _windows(_prefix_mass(pol.probs[c]), cls.ttl_slots, k)
        total += cls.population * float(_log_miss_terms(-sc.rates[c] * sc.eff_slot, w).sum())
    return -math.expm1(total)


def beacon_activity(pol: Policy, sc: Scenario) -> Iterator[tuple[Technology, np.ndarray]]:
    """Per-sub-slot probability that each beaconing technology is active.

    Yields (technology, 1 - prod(1 - mu)) over the classes on that
    technology, in scenario order, for every technology with member classes
    and a nonzero beacon cost.
    """
    for tech in sc.technologies:
        members = sc.tech_members[tech.ident]
        if not members or tech.beacon_cost == 0.0:
            continue
        yield tech, 1.0 - np.prod(1.0 - pol.probs[list(members), :], axis=0)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tx_terms(weight: float, scale: float, n: int) -> np.ndarray:
    """weight * -expm1(scale * v) at the integer thresholds v < n, each
    through math.expm1 as the scalar path takes it (read-only)."""
    terms = np.array([weight * -math.expm1(scale * v) for v in range(n)])
    terms.flags.writeable = False
    return terms


def _tx_energy(masses, sc: Scenario):
    """Transmission energy tx_cost * population * (1 - e^{-lam dt mass}) of
    the (class, mass) pairs ``masses``, summed in their order.  An array mass
    holds integer thresholds and reads its terms from ``_tx_terms``, so each
    entry carries the bits of the scalar path."""
    total = 0.0
    classes, rates, dt = sc.classes, sc.rates, sc.eff_slot
    for c, h in masses:
        weight, scale = classes[c].tx_cost * classes[c].population, -rates[c] * dt
        total = total + (_tx_terms(weight, scale, sc.subslots)[h] if isinstance(h, np.ndarray)
                         else weight * -math.expm1(scale * h))
    return total


def energy_spent(pol: Policy, sc: Scenario) -> float:
    """Expected energy drawn by a policy over the whole horizon.

    Transmission part: tx_cost * population * (reception probability over all
    sub-slots), summed over classes.  Beaconing part: for every technology and
    sub-slot, the per-sub-slot beacon share is paid whenever at least one of
    its classes could transmit (probability 1 - prod(1 - mu)).
    """
    if pol.probs.shape != (len(sc.classes), sc.subslots):
        raise ValueError("policy shape does not match scenario")
    total = _tx_energy(enumerate(float(row.sum()) for row in pol.probs), sc)
    for tech, active in beacon_activity(pol, sc):
        total += sc.beacon_rate(tech.ident) * float(active.sum())
    return total


def threshold_energy(thresholds: Sequence[float], sc: Scenario) -> float:
    """energy_spent for a threshold policy, in closed form (no expansion).

    The transmission mass of class c is its threshold; the beacon term of a
    technology covers max(floor(h)) full sub-slots plus the combined
    fractional tails sitting on that last sub-slot.
    """
    hs = [float(h) for h in thresholds]
    if len(hs) != len(sc.classes):
        raise ValueError("threshold count does not match scenario classes")
    total = _tx_energy(enumerate(hs), sc)
    for tech in sc.technologies:
        members = sc.tech_members[tech.ident]
        if not members or tech.beacon_cost == 0.0:
            continue
        total += sc.beacon_rate(tech.ident) * _beacon_span(hs, members)
    return total


def _beacon_span(hs: list[float], members: tuple[int, ...]) -> float:
    """Sub-slots a technology beacons through: max(floor(h)) plus the
    chance that some member's fractional tail on that last sub-slot sends."""
    floors = [math.floor(hs[c]) for c in members]
    m = max(floors)
    tail = 1.0
    for c, f in zip(members, floors):
        if f == m:
            tail *= 1.0 - (hs[c] - f)
    return m + 1.0 - tail


def _energy_probe(c: int, thresholds: Sequence[float], sc: Scenario):
    """threshold_energy as a function of class c's threshold, the others
    fixed at ``thresholds``.  The terms without class c (the other classes'
    transmission energies and the beacons of every other technology) are
    computed once; each call adds every term in threshold_energy's order,
    so it returns the same bits."""
    hs = [float(h) for h in thresholds]
    cls = sc.classes[c]
    weight, scale = cls.tx_cost * cls.population, -sc.rates[c] * sc.eff_slot
    head = _tx_energy(((k, hs[k]) for k in range(c)), sc)
    later = [_tx_energy([(k, hs[k])], sc) for k in range(c + 1, len(hs))]
    beacons = []    # (rate, members) on c's technology, the energy elsewhere
    for tech in sc.technologies:
        members = sc.tech_members[tech.ident]
        if not members or tech.beacon_cost == 0.0:
            continue
        rate = sc.beacon_rate(tech.ident)
        beacons.append((rate, members) if c in members else rate * _beacon_span(hs, members))

    def energy_at(h: float) -> float:
        total = head + weight * -math.expm1(scale * h)
        for term in later:
            total = total + term
        hs[c] = h
        for term in beacons:
            total += term if isinstance(term, float) else term[0] * _beacon_span(hs, term[1])
        return total

    return energy_at


# ---------------------------------------------------------------------------
# Fast per-class delivery factors for threshold policies
# ---------------------------------------------------------------------------

def class_log_miss(c: int, thresholds: Iterable[float], sc: Scenario) -> np.ndarray:
    """log miss factor of class c at horizon = subslots, for a batch of
    threshold values (real valued, fractional tails allowed).

    The factor is the product over sub-slots of the class Laplace transforms;
    delivery probability of a threshold profile H is
    1 - exp(sum_c class_log_miss(c, [H_c])).
    """
    cls = sc.classes[c]
    n = sc.subslots
    x = -sc.rates[c] * sc.eff_slot
    h = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if h.size and (h.min() < -1e-9 or h.max() > (n - 1) + 1e-9):
        raise ValueError("threshold outside policy grid")
    h = np.clip(h, 0.0, float(n - 1))
    return cls.population * _threshold_sums(h, cls.ttl_slots, n,
                                            lambda w: _log_miss_terms(x, w))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _log_miss_sums(x: float, ttl: int, n: int) -> np.ndarray:
    """Per-relay class_log_miss over np.arange(n), x = -lam dt, TTL <= n - 1,
    with the same bits: at an integer threshold every window mass is an
    integer in 0..ttl + 1, so the rows gather one term per mass."""
    terms = _log_miss_terms(x, np.arange(ttl + 2.0))
    out = _threshold_sums(np.arange(n), ttl, n, terms.__getitem__)
    out.flags.writeable = False
    return out


def class_log_miss_table(c: int, sc: Scenario) -> np.ndarray:
    """class_log_miss at every integer threshold 0..subslots-1, read-only.
    The sums are cached by the class's own -lam dt, TTL and grid length, so
    scenarios differing in budget, beacons, costs, population or other
    classes share them."""
    cls, n = sc.classes[c], sc.subslots
    table = cls.population * _log_miss_sums(-sc.rates[c] * sc.eff_slot,
                                            min(cls.ttl_slots, n - 1), n)
    table.flags.writeable = False
    return table


def _log_miss_slopes(c: int, sc: Scenario) -> np.ndarray:
    """Right derivative D[j] of class_log_miss(c, j + a) in a at a = 0, for
    every integer threshold j; the log-miss is convex in the fractional tail
    a, so T[j] + a D[j] bounds it from below on [j, j + 1].

    The tail on sub-slot j raises the window mass of sub-slots
    k = j .. min(j + ttl, n - 1), where the mass at a = 0 is
    min(j, ttl - (k - j)).  A term at mass w moves at
    phi(w) = -g x e^{-xw} / (1 - g + g e^{-xw}), x = lam dt, so D[j] sums
    phi over those masses: at most ttl + 1 terms equal to phi(j), the rest a
    run of consecutive masses read off a prefix sum of phi(0..ttl).
    """
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


def threshold_objective(thresholds: Sequence[float], sc: Scenario) -> float:
    """Delivery probability of a threshold profile at the full horizon."""
    total = sum(float(class_log_miss(c, [h], sc)[0]) for c, h in enumerate(thresholds))
    return -math.expm1(total)


# ---------------------------------------------------------------------------
# Evaluation record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyEvaluation:
    """Delivery probability, expected energy, and the budget verdict."""

    delivery_prob: float
    energy_spent: float
    feasible: bool


def evaluate(pol: Policy | ThresholdPolicy, sc: Scenario) -> PolicyEvaluation:
    """Evaluate a policy (or threshold policy) against a scenario."""
    if isinstance(pol, ThresholdPolicy):
        pol = expand_threshold(pol, sc)
    f = delivery_probability(pol, sc.subslots, sc)
    e = energy_spent(pol, sc)
    return PolicyEvaluation(f, e, within_budget(e, sc))


def within_budget(energy: float, sc: Scenario) -> bool:
    """The feasibility verdict on an energy draw: at most the budget plus
    its tolerance."""
    return energy <= sc.budget + budget_tolerance(sc.budget)
