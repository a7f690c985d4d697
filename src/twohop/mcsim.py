"""Seeded Monte Carlo realisation of the two-hop contact process.

The analytic delivery law treats the per-slot holding counts as independent;
the simulator realises the generative model itself, so the gap between the
two can be measured.  Per relay, source contacts form a Poisson process
thinned by the forwarding probability of the sub-slot they land in; the
first accepted contact infects the relay, the copy survives for the local
TTL, and an independent Poisson sink process decides whether the packet is
delivered while the copy is held.  Expected transmissions and holding counts
are exact under this model, unlike the delivery law itself.

Trials are processed in fixed-size batches; each batch draws from its own
counter-based substream keyed by (seed, batch index), so results depend only
on the seed and the inputs, never on scheduling.  Per relay, a batch draws a
source and a sink variate for every trial, whichever rows are then evaluated:
without holding counts only the accepted contacts of undelivered trials
(delivery is a monotone OR; transmissions count acceptances alone), with them
every accepted contact.  A guide table places each contact of a threshold
policy in its sub-slot with the bits of a binary search; other policies keep
the search.  The holding moments are exact integer sums read off each
trial's ranked starts.  Either way the outputs keep their bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Policy,
    Scenario,
    _row_windows,
    beacon_activity,
    delivery_probability,
    energy_spent,
    expected_received,
)

__all__ = ["SimConfig", "SimOutcome", "ValidationRecord", "holding_expectation",
           "simulate", "validate"]

_BATCH = 8192
_CHUNK = 1 << 18   # trials x relays per holding-moment pass
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls."""

    trials: int
    seed: int
    record_holding: bool = False

    def __post_init__(self):
        if isinstance(self.trials, bool):
            raise TypeError("trials must be an integer, not bool")
        # numpy integers become Python ints: equal seeds, equal substream keys
        object.__setattr__(self, "trials", operator.index(self.trials))
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class SimOutcome:
    """Aggregated Monte Carlo estimates with 95% half-widths.

    ``mean_tx`` counts successful forwards per class and trial;
    ``mean_holding`` (when recorded) is the per-class, per-sub-slot average
    number of relays holding a copy.
    """

    delivery_freq: float
    ci95_halfwidth: float
    mean_energy: float
    mean_energy_ci: float
    trials: int
    mean_tx: np.ndarray = field(default_factory=lambda: np.empty(0))
    mean_tx_ci: np.ndarray = field(default_factory=lambda: np.empty(0))
    mean_holding: np.ndarray | None = None
    mean_holding_ci: np.ndarray | None = None


@dataclass
class ValidationRecord:
    """Analytic predictions against empirical estimates."""

    analytic_delivery: float
    empirical_delivery: float
    delivery_gap: float
    delivery_ci: float
    analytic_energy: float
    empirical_energy: float
    energy_gap: float
    energy_ci: float
    flagged: bool
    trials: int
    analytic_tx: np.ndarray | None = None
    empirical_tx: np.ndarray | None = None
    analytic_holding: np.ndarray | None = None
    empirical_holding: np.ndarray | None = None


def holding_expectation(pol: Policy, sc: Scenario) -> np.ndarray:
    """Exact per-class, per-sub-slot expected holding counts of the simulated
    process (one reception per relay, permanent discard after the TTL).

    A relay holds at sub-slot k when its first accepted contact fell inside
    [k - ttl, k]; relays that accepted earlier have discarded for good, so the
    expectation is population * (Q(0, k-ttl-1) - Q(0, k)) with Q the
    no-acceptance probability, taken as Q(0, k-ttl-1) times the window's
    acceptance probability (through expm1, so a small mass keeps its
    relative precision).  For k < ttl this coincides with the window
    expression used by the delivery law; beyond it the delivery law admits
    re-acceptance and sits above the true mean.
    """
    n = sc.subslots
    out = np.empty((len(sc.classes), n))
    for c, cls in enumerate(sc.classes):
        x = sc.rates[c] * sc.eff_slot
        cum = np.concatenate(([0.0], np.cumsum(pol.probs[c])))
        q_before = np.exp(-x * cum[np.maximum(0, np.arange(n) - cls.ttl_slots)])
        w = _row_windows(pol.probs[c], cls.ttl_slots, n)
        out[c] = cls.population * q_before * -np.expm1(-x * w)
    return out


def _guide(hc: np.ndarray) -> tuple:
    """Guide table (Chen & Asau 1974) for placing a variate e in [0, hc[-1])
    at its sub-slot, the last k with hc[k] <= e.

    The bucket int(e * scale) is monotone in e, so a boundary in a lower
    bucket than e's is below e and one in a higher bucket is above it: e's
    sub-slot lies in [lo, hi] of its bucket (capped below the first boundary
    equal to hc[-1]).  With about 2 n buckets a bucket holds at most one
    boundary where the hazard rises at full rate, as on threshold rows, and
    one comparison with hc picks between lo and hi.  A zero-mass run puts
    several boundaries in one bucket; such rows keep the binary search.
    Returns (scale, probe), probe the top of each bucket's range, or None.
    """
    n = hc.size - 1
    scale = 2 * n / float(hc[-1])
    if not math.isfinite(scale):   # subnormal hc[-1]: one bucket
        scale = 0.0
    keys = (hc * scale).astype(np.intp)
    below = np.searchsorted(keys, np.arange(keys[-1] + 2))   # boundaries below each bucket
    lo = np.maximum(below[:-1] - 1, 0)
    hi = np.minimum(below[1:], np.searchsorted(hc, hc[-1])) - 1
    return scale, hi if (hi - lo).max() <= 1 else None


def _place(hc: np.ndarray, guide: tuple, e: np.ndarray) -> np.ndarray:
    """Sub-slots of the variates e in [0, hc[-1]), equal to
    clip(searchsorted(hc, e, "right") - 1, 0, n - 1)."""
    scale, probe = guide
    if probe is None:
        return np.clip(np.searchsorted(hc, e, side="right") - 1, 0, hc.size - 2)
    probe = probe[(e * scale).astype(np.intp)]
    return probe - (hc[probe] > e)


def _holding_moments(first: np.ndarray, ttl: int, n: int) -> np.ndarray:
    """Per-sub-slot sums over trials of y and y*y (rows 0 and 1), y[t, k]
    counting the relays holding at sub-slot k of trial t, from a (trials,
    relays) matrix of each relay's start sub-slot (n for no contact), which
    is sorted here row by row; a copy is held through min(k + ttl, n - 1).

    Just before its s-th start a trial holds s - expired copies, expired
    counting the earlier copies whose end is at or before that start, so
    y*y jumps there by 2(s - expired) + 1.  Just before the end of its j-th
    copy it holds started - j, started counting its starts before that end,
    so y*y falls there by 2(started - j) - 1 if the end is inside the
    horizon.  The rank s gives the jumps at the starts.  A row's entries lie
    in [0, n], so row t shifted by t*(n + 1) leaves the whole matrix sorted,
    and one search of it counts expired and started, only for starts late
    enough to follow an end and for copies that end inside the horizon: with
    TTL >= n - 1 there is nothing to count.
    """
    m = n + 1
    life = min(ttl, n) + 1   # sub-slots from a start to the copy's end
    trials, relays = first.shape
    first.sort(axis=1)
    start = first.ravel()
    ending = np.flatnonzero(start < n - life)               # copies that end inside the horizon
    late = np.flatnonzero((start >= life) & (start < n))   # starts an end may precede
    keys = start
    if ending.size or late.size:
        keys = (first + np.arange(0, trials * m, m)[:, None]).ravel()
    # a cell's row holds (index found) - (index of the row's first cell) entries <= v
    held = np.searchsorted(keys, keys[ending] + (life - 1), "right") - ending   # started - j
    expired = np.searchsorted(keys, keys[late] - life, "right") - (late - late % relays)
    end = start[ending] + life
    y_sum = np.bincount(start, minlength=m) - np.bincount(end, minlength=m)
    y_sq = (np.bincount(start, np.tile(np.arange(1.0, 2 * relays, 2), trials), m)
            - np.bincount(start[late], 2.0 * expired, m)
            - np.bincount(end, 2.0 * held - 1.0, m))
    return np.cumsum(np.stack((y_sum, y_sq)), axis=1)[:, :n]


def simulate(sc: Scenario, pol: Policy, cfg: SimConfig) -> SimOutcome:
    """Run the contact process for cfg.trials independent packets.

    Per relay and trial: the first source contact accepted by the forwarding
    probabilities (sampled exactly by inverting the piecewise-linear
    cumulative acceptance hazard) infects the relay within its sub-slot; the
    copy is held from the contact instant to the end of sub-slot
    (reception + ttl) and discarded for good; the packet is delivered when
    any relay's first sink contact after reception falls inside its holding
    window and before the horizon.  Energy sums one tx_cost per successful
    forward plus the expected beacon energy, the analytic budget's
    probability-weighted term, added to every trial.

    A contact is placed only if its trial is undelivered, or for every
    accepted contact when cfg.record_holding is set; either way the draws
    and the outputs the two paths share are bit-identical.
    """
    n = sc.subslots
    n_classes = len(sc.classes)
    if pol.probs.shape != (n_classes, n):
        raise ValueError("policy shape does not match scenario")
    dt = sc.eff_slot
    horizon = n * dt

    beacon_const = sum(rate * float(active.sum()) for rate, active in beacon_activity(pol, sc))

    # per class: cumulative acceptance hazard over sub-slot boundaries
    hazards = [np.concatenate(([0.0], np.cumsum(sc.rates[c] * dt * pol.probs[c])))
               for c in range(n_classes)]
    guides = [_guide(hc) if hc[-1] > 0.0 else None for hc in hazards]   # None: no contact accepted

    delivered_total, energy_sum, energy_sq = 0, 0.0, 0.0
    tx_sum, tx_sq = np.zeros((2, n_classes))
    hold = np.zeros((n_classes, 2, n))   # per class: sums of y and y*y

    for batch_index, done in enumerate(range(0, cfg.trials, _BATCH)):
        size = min(_BATCH, cfg.trials - done)
        rng = np.random.Generator(np.random.Philox(key=[
            np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(batch_index)]))
        delivered = np.zeros(size, dtype=bool)
        tx_batch = np.zeros((n_classes, size))
        for c, cls in enumerate(sc.classes):
            lam, hc, guide = sc.rates[c], hazards[c], guides[c]
            # per trial and relay: the start sub-slot of its copy, n for none
            first = (np.full((size, cls.population), n, dtype=np.int32)
                     if cfg.record_holding and guide is not None else None)
            for node in range(cls.population):
                e1 = rng.standard_exponential(size)
                g = rng.standard_exponential(size)
                if guide is None:
                    continue
                accepted = e1 < hc[-1]
                tx_batch[c] += accepted
                rows = np.flatnonzero(accepted if cfg.record_holding
                                      else accepted & ~delivered)
                if rows.size == 0:
                    continue
                e = e1[rows]
                idx = _place(hc, guide, e)
                u = idx * dt + (e - hc[idx]) / (lam * pol.probs[c][idx])
                hold_end = np.minimum((idx + cls.ttl_slots + 1) * dt, horizon)
                delivered[rows[g[rows] < lam * np.maximum(hold_end - u, 0.0)]] = True
                if first is not None:
                    first[rows, node] = idx
            if first is not None:   # in passes of whole trials, to bound the temporaries
                step = max(1, _CHUNK // cls.population)
                for lo in range(0, size, step):
                    hold[c] += _holding_moments(first[lo:lo + step], cls.ttl_slots, n)

        energy_batch = np.zeros(size)
        for c, cls in enumerate(sc.classes):
            energy_batch += cls.tx_cost * tx_batch[c]
        energy_batch += beacon_const

        delivered_total += int(delivered.sum())
        energy_sum += float(energy_batch.sum())
        energy_sq += float((energy_batch ** 2).sum())
        tx_sum += tx_batch.sum(axis=1)
        tx_sq += (tx_batch ** 2).sum(axis=1)

    t = cfg.trials
    freq = delivered_total / t
    # normal approximation plus a 1/t continuity guard so single-trial runs
    # report an honestly wide interval
    ci = _Z95 * math.sqrt(freq * (1.0 - freq) / t) + 1.0 / t

    def mean_ci(s, sq):
        m = s / t
        if t < 2:
            return m, np.full_like(m, math.inf)
        var = np.maximum(sq / t - m * m, 0.0) * t / (t - 1)
        return m, _Z95 * np.sqrt(var / t)

    mean_energy, energy_ci = map(float, mean_ci(energy_sum, energy_sq))
    tx_mean, tx_ci = mean_ci(tx_sum, tx_sq)
    outcome = SimOutcome(delivery_freq=freq, ci95_halfwidth=ci, mean_energy=mean_energy,
                         mean_energy_ci=energy_ci, trials=t, mean_tx=tx_mean, mean_tx_ci=tx_ci)
    if cfg.record_holding:
        outcome.mean_holding, outcome.mean_holding_ci = mean_ci(hold[:, 0], hold[:, 1])
    return outcome


def validate(sc: Scenario, pol: Policy, cfg: SimConfig) -> ValidationRecord:
    """Compare analytic predictions with a simulation run.

    The energy expectation is exact under the model, so its gap is judged
    against three Monte Carlo half-widths.  The delivery law is an
    approximation; its gap is reported and flagged only beyond
    max(0.02, three half-widths).  The exact transmission counts and, with
    ``record_holding``, holding trajectory are returned next to the
    simulated ones but not judged: at one check per class and sub-slot,
    some would fall outside three half-widths on correct runs.
    """
    outcome = simulate(sc, pol, cfg)
    analytic_f = delivery_probability(pol, sc.subslots, sc)
    analytic_e = energy_spent(pol, sc)

    analytic_tx = np.array([expected_received(c, sc.subslots - 1, pol, sc)
                            for c in range(len(sc.classes))])

    delivery_gap = abs(outcome.delivery_freq - analytic_f)
    energy_gap = abs(outcome.mean_energy - analytic_e)
    flagged = delivery_gap > max(0.02, 3.0 * outcome.ci95_halfwidth)
    if math.isfinite(outcome.mean_energy_ci):
        flagged = flagged or energy_gap > 3.0 * max(outcome.mean_energy_ci, 1e-15)

    record = ValidationRecord(
        analytic_delivery=analytic_f,
        empirical_delivery=outcome.delivery_freq,
        delivery_gap=delivery_gap,
        delivery_ci=outcome.ci95_halfwidth,
        analytic_energy=analytic_e,
        empirical_energy=outcome.mean_energy,
        energy_gap=energy_gap,
        energy_ci=outcome.mean_energy_ci,
        flagged=flagged,
        trials=outcome.trials,
        analytic_tx=analytic_tx,
        empirical_tx=outcome.mean_tx,
    )
    if cfg.record_holding:
        record.analytic_holding = holding_expectation(pol, sc)
        record.empirical_holding = outcome.mean_holding
    return record
