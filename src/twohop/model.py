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
    "holding_laplace",
    "is_costless",
    "threshold_energy",
    "threshold_objective",
    "within_budget",
]

# Relative slack applied to the budget when deciding feasibility; saturating
# thresholds are produced by root finding and only match the budget to solver
# tolerance.
BUDGET_RTOL = 1e-9

# Cells per block of threshold rows in _threshold_sums: 2^16 float64 cells
# are 512 KiB, so a block's rows, its run terms and their indices stay in a
# core's L2 cache (2 MiB on a current Xeon) and no solve holds more than a
# few MiB of them.  On a 2-core Xeon, 2^16 and 2^17 built tables and
# evaluated 4,096 thresholds fastest of 2^13..2^20 at n = 1,250 and 10,000
# (a TTL of n / 7 at n = 10,000: 132 ms per table, 268 ms at 2^13 and
# 163 ms at 2^20).  A block holds whole rows, each summed alone in k order,
# so the size cannot move a bit.
_CHUNK_CELLS = 2 ** 16

# Per-class law records (``_Law``) kept in memory; each holds up to five subslots-float arrays.
_TABLE_CACHE_SIZE = 256


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
            try:
                rate = contact_rate(cls, self)
            except (OverflowError, ZeroDivisionError):   # arena_radius ** 2 overflows or is 0
                rate = math.nan
            if not (0.0 < rate < math.inf and 0.0 < rate * self.eff_slot < math.inf):
                raise ScenarioError(f"classes[{i}]: contact rate must be finite and > 0,"
                                    f" also per sub-slot (got {rate!r} per second)")

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

    @cached_property
    def beacons(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """(beacon energy per active sub-slot, member classes) of every
        technology that charges beacons, one with a nonzero cost and at
        least one class, in scenario order."""
        return tuple((self.beacon_rate(t.ident), self.tech_members[t.ident])
                     for t in self.technologies
                     if t.beacon_cost != 0.0 and self.tech_members[t.ident])


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
        object.__setattr__(self, "probs", _read_only(np.clip(arr, 0.0, 1.0)))

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


def expand_threshold(tp: ThresholdPolicy, sc: Scenario) -> Policy:
    """Materialise a threshold policy on the scenario's sub-slot grid.

    Raises ValueError when a threshold falls outside [0, subslots - 1].
    """
    n = sc.subslots
    if len(tp.thresholds) != len(sc.classes):
        raise ValueError("threshold count does not match scenario classes")
    rows = np.zeros((len(sc.classes), n))
    for c, h in enumerate(tp.thresholds):
        if h < -1e-12 or h > (n - 1) + 1e-12:
            raise ValueError(f"threshold {h} for class {c} outside [0, {n - 1}]")
        h = min(max(h, 0.0), float(n - 1))
        j = int(math.floor(h))
        rows[c, :j] = 1.0
        if j < n:
            rows[c, j] = h - j
    return Policy(rows)


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def contact_rate(cls: NodeClass, sc: Scenario) -> float:
    """Poisson contact rate (1/s) of one class-c node at source or sink:
    8 * w * R_c * v_c / (pi * L^2)."""
    return 8.0 * sc.speed_constant * cls.range_m * cls.speed / (math.pi * sc.arena_radius ** 2)


def _row_windows(mu: np.ndarray, ttl: int, n: int) -> np.ndarray:
    """Policy mass in the TTL window of every sub-slot k < n of a policy row,
    w[k] = sum(mu[max(0, k - ttl):k + 1]).

    A window that starts at sub-slot 0 is a prefix sum.  Every later window
    spans ttl + 1 sub-slots, so with the row cut into blocks of ttl + 1 it
    is the suffix of one block plus a prefix of the next, each summed within
    its block: a small window keeps its relative precision after a large
    prefix, where a difference of prefix sums would not."""
    mu = np.asarray(mu[:n], dtype=float)
    w = np.cumsum(mu)
    b = ttl + 1
    if n > b:
        blocks = np.concatenate((mu, np.zeros(-n % b))).reshape(-1, b)
        head = np.cumsum(blocks, axis=1).ravel()
        tail = np.cumsum(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        s = np.arange(1, n - ttl)   # window starts; a start on a block edge spans that block
        w[b:] = tail[s] + np.where(s % b != 0, head[s + ttl], 0.0)
    return w


def _p_receive(c: int, k: int, ttl: int, pol: Policy, sc: Scenario) -> float:
    """Probability that one class-c relay received a copy in the TTL window
    of sub-slot k, taken through expm1 so that a small mass keeps its
    relative precision."""
    if not (0 <= k < sc.subslots):
        raise ValueError("slot index outside horizon")
    w = _row_windows(pol.probs[c], ttl, sc.subslots)[k]
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


def _threshold_sums(j: np.ndarray, v: np.ndarray, caps: np.ndarray, ttl: int,
                    runs) -> np.ndarray:
    """For each threshold h[r] = j[r] + a with own term v[r], the sum over
    sub-slots k < n of the log-miss terms of its TTL windows, whose masses
    min(k + 1, h) - min(max(0, k - ttl), h) are exact (h - m is, for an
    integer m <= h).  So h's row is, in k order: ``caps[k]`` for k < j; v
    for k = j..ttl; ``runs(r, m)``, the terms at the masses h[r] - m, with
    m = k - ttl for k = b..e - 1, b = max(j, ttl + 1), e = min(n, j + ttl + 1);
    then 0, which sums as the term at mass 0 does.  About _CHUNK_CELLS cells
    at a time, each row written by slices in one C-ordered block and summed
    alone in k order; one ``runs`` call per block evaluates its rows' runs."""
    n, cut = caps.size, ttl + 1
    out = np.empty(v.size)
    rows = max(1, _CHUNK_CELLS // n)
    block = np.empty((min(rows, v.size), n))
    for start in range(0, v.size, rows):
        part = block[:min(rows, v.size - start)]
        part[:] = caps
        spans = []
        for i, (row, q, t) in enumerate(zip(part, j[start:start + rows].tolist(),
                                            v[start:start + rows].tolist())):
            row[q:cut] = t
            b = q if q > cut else cut
            if b < n:
                e = min(n, q + cut)
                row[e:] = 0.0
                if b < e:
                    spans.append((i, b, e))
        if spans:
            i, b, e = np.array(spans).T
            size = e - b
            first = np.cumsum(size) - size      # each run's offset in the flat terms
            flat = runs(np.repeat(start + i, size),
                        np.arange(size.sum()) + np.repeat(b - ttl - first, size))
            for (i, b, e), f in zip(spans, first.tolist()):
                part[i, b:e] = flat[f:f + e - b]
        out[start:start + rows] = part.sum(axis=1)
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
        w = _row_windows(pol.probs[c], cls.ttl_slots, k)
        total += cls.population * float(_log_miss_terms(-sc.rates[c] * sc.eff_slot, w).sum())
    return -math.expm1(total)


def beacon_activity(pol: Policy, sc: Scenario) -> Iterator[tuple[float, np.ndarray]]:
    """Per-sub-slot probability that each beaconing technology is active.

    Yields (beacon rate, 1 - prod(1 - mu)) over the member classes of each
    of ``sc.beacons``, in scenario order.
    """
    for rate, members in sc.beacons:
        yield rate, 1.0 - np.prod(1.0 - pol.probs[list(members), :], axis=0)


def _tx_energy(masses, sc: Scenario):
    """Transmission energy tx_cost * population * (1 - e^{-lam dt mass}) of
    the (class, mass) pairs ``masses``, summed in their order; an array mass
    (integer thresholds) reads ``_Law.tx``, with the scalar path's bits."""
    total = 0.0
    classes, rates, dt = sc.classes, sc.rates, sc.eff_slot
    for c, h in masses:
        weight = classes[c].tx_cost * classes[c].population
        total = total + (weight * _law(c, sc).tx[h] if isinstance(h, np.ndarray)
                         else weight * -math.expm1(-rates[c] * dt * h))
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
    for rate, active in beacon_activity(pol, sc):
        total += rate * float(active.sum())
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
    # written so that NaN fails the check
    if not all(-1e-9 <= h <= sc.max_threshold + 1e-9 for h in hs):
        raise ValueError("threshold outside policy grid")
    return _energy_probe(0, hs, sc)(hs[0])


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
    """Energy of a threshold profile as a function of class c's threshold,
    the others fixed at ``thresholds``: the transmission energies in class
    order, then the beacons of each of ``sc.beacons``.  The terms without
    class c (the other classes' transmission energies and the beacons of
    every other technology) are computed once.  ``threshold_energy`` is
    this probe read at class 0's own threshold, so the two share every
    bit."""
    hs = [float(h) for h in thresholds]
    cls = sc.classes[c]
    weight, scale = cls.tx_cost * cls.population, -sc.rates[c] * sc.eff_slot
    head = _tx_energy(((k, hs[k]) for k in range(c)), sc)
    later = [_tx_energy([(k, hs[k])], sc) for k in range(c + 1, len(hs))]
    # (rate, members) on c's technology, the energy elsewhere
    beacons = [(rate, members) if c in members else rate * _beacon_span(hs, members)
               for rate, members in sc.beacons]

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
    n = sc.subslots
    h = np.atleast_1d(np.asarray(thresholds, dtype=float))
    # written so that NaN fails the check
    if h.size and not (h.min() >= -1e-9 and h.max() <= (n - 1) + 1e-9):
        raise ValueError("threshold outside policy grid")
    return sc.classes[c].population * _law(c, sc).at(np.clip(h, 0.0, float(n - 1)))


@dataclass(frozen=True)
class _Law:
    """The per-relay log-miss law of one class key: x = -lam dt, the TTL
    clipped to n - 1 (any longer TTL keeps every copy too) and the grid
    length n; callers scale by the population.  Each field is built on first
    use and read-only.  It is a pure function of the key, so a race builds
    the same bits twice and concurrent use still needs no locking."""

    x: float
    ttl: int
    n: int

    @cached_property
    def sums(self) -> np.ndarray:
        """``at`` over np.arange(n) with the same bits, every term read from
        the terms v at the integer masses 0..n - 1."""
        v = _log_miss_terms(self.x, np.arange(float(self.n)))
        return _read_only(_threshold_sums(np.arange(self.n), v, self.caps, self.ttl,
                                          lambda r, m: v[r - m]))

    def at(self, h: np.ndarray) -> np.ndarray:
        """The sums at thresholds h in [0, n - 1], fractional tails allowed."""
        return _threshold_sums(h.astype(int), _log_miss_terms(self.x, h), self.caps, self.ttl,
                               lambda r, m: _log_miss_terms(self.x, h[r] - m))

    @cached_property
    def slopes(self) -> np.ndarray:
        """Right derivative D[j] of ``at(j + a)`` in a at a = 0.

        The tail on sub-slot j raises the window mass of sub-slots
        k = j .. min(j + ttl, n - 1), where the mass at a = 0 is
        min(j, ttl - (k - j)).  A term at mass w moves at
        phi(w) = -g l e^{-lw} / (1 - g + g e^{-lw}), l = lam dt, so D[j]
        sums phi over those masses: at most ttl + 1 terms equal to phi(j),
        the rest a run of consecutive masses read off a prefix sum of
        phi(0..ttl).  A TTL of n - 1, the key's for any TTL that keeps every
        copy, gives every D[j] the operands that one of n gives."""
        ttl, n, lam_dt = self.ttl, self.n, -self.x
        g = -math.expm1(-lam_dt)
        decay = np.exp(-lam_dt * np.arange(ttl + 1))
        lead = math.exp(-lam_dt)
        if lead > 0.0:
            phi = -g * lam_dt * decay / (lead + g * decay)
        else:   # past l = 745 e^-l underflows and g is 1: phi is -l, -l/2, then 0
            phi = np.zeros(ttl + 1)
            phi[0] = -lam_dt
            phi[1:2] = -lam_dt / 2
        csum = np.concatenate(([0.0], np.cumsum(phi)))
        j = np.arange(n)
        last = np.minimum(ttl, n - 1 - j)                   # k - j runs over 0..last
        flat = np.maximum(np.minimum(last, ttl - j) + 1, 0)  # terms at mass j
        lo, hi = ttl - last, np.minimum(ttl + 1, j)         # the rest: masses lo..hi-1
        rest = np.where(hi > lo, csum[hi] - csum[lo], 0.0)
        return _read_only(flat * phi[np.minimum(j, ttl)] + rest)

    @cached_property
    def caps(self) -> np.ndarray:
        """The term at the integer mass min(k + 1, ttl + 1) of every sub-slot
        k < n: sub-slot k's term in the row of every threshold h >= k + 1."""
        return _read_only(_log_miss_terms(
            self.x, np.minimum(np.arange(1.0, self.n + 1), self.ttl + 1)))

    @cached_property
    def prefix(self) -> np.ndarray:
        """0, then the running sum of ``caps[:n - 1]``."""
        return _read_only(np.concatenate(([0.0], np.cumsum(self.caps[:self.n - 1]))))

    def tail(self, r: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``at(r)`` in closed form where the TTL keeps every copy, r = j + a:
        sub-slots k < j hold the masses 1..j, the other n - j hold r."""
        return self.prefix[j] + (self.n - j) * _log_miss_terms(self.x, r)

    @cached_property
    def tx(self) -> np.ndarray:
        """-expm1(x v) at the integer thresholds v < n through math.expm1, as
        the scalar path takes it; callers multiply by tx_cost * population."""
        return _read_only(np.array([-math.expm1(self.x * v) for v in range(self.n)]))

    @cached_property
    def margins(self) -> tuple[float, float, float]:
        """The class factors of the rounding bounds derived in gridsearch:
        ``_prune_margin``'s of the sums and of the slopes (inf past
        lam dt = 709, where e^(lam dt) overflows), and ``_tail_bracket``'s."""
        lam_dt, n, u = -self.x, self.n, 2.0 ** -53
        tail = (n + math.log2(n) + 40) * u
        if lam_dt > 709.0:
            return math.inf, math.inf, tail
        ttl = n if self.ttl == n - 1 else self.ttl
        return ((48 + math.log2(n) + 11 * math.expm1(lam_dt) / lam_dt) * u,
                (32 * ttl + 96) * math.exp(lam_dt) * u, tail)


_laws = lru_cache(maxsize=_TABLE_CACHE_SIZE)(_Law)


def _law(c: int, sc: Scenario) -> _Law:
    """Class c's cached law record."""
    n = sc.subslots
    return _laws(-sc.rates[c] * sc.eff_slot, min(sc.classes[c].ttl_slots, n - 1), n)


def class_log_miss_table(c: int, sc: Scenario) -> np.ndarray:
    """class_log_miss at every integer threshold 0..subslots-1, read-only:
    the population times the class's cached ``_Law.sums``."""
    return _read_only(sc.classes[c].population * _law(c, sc).sums)


def _log_miss_slopes(c: int, sc: Scenario) -> np.ndarray:
    """The population times ``_Law.slopes``: the right derivative D[j] of
    class_log_miss(c, j + a) in a at a = 0 at every integer threshold j;
    convex in a, the log-miss lies above T[j] + a D[j] on [j, j + 1]."""
    return sc.classes[c].population * _law(c, sc).slopes


def threshold_objective(thresholds: Sequence[float], sc: Scenario) -> float:
    """Delivery probability of a threshold profile at the full horizon."""
    if len(thresholds) != len(sc.classes):
        raise ValueError("threshold count does not match scenario classes")
    total = sum(_log_miss_at(c, h, sc) for c, h in enumerate(thresholds))
    return -math.expm1(total)


def _log_miss_at(c: int, h: float, sc: Scenario) -> float:
    """class_log_miss(c, [h], sc)[0] with its bits: an integer h on the grid
    reads the class's sums times the population (the table entry) once they
    are built; any other is evaluated, which builds no O(n^2)-cell table."""
    law = _law(c, sc)
    if "sums" in law.__dict__ and float(h).is_integer() and 0.0 <= h <= sc.max_threshold:
        return float(sc.classes[c].population * law.sums[int(h)])
    return float(class_log_miss(c, [h], sc)[0])


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
