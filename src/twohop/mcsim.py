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
on the seed and the inputs, never on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Policy,
    Scenario,
    beacon_activity,
    delivery_probability,
    energy_spent,
    expected_received,
)

__all__ = ["SimConfig", "SimOutcome", "ValidationRecord", "holding_expectation",
           "simulate", "validate"]

_BATCH = 8192
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    ``beacon_accounting`` is "expected" (the probability-weighted beacon
    energy is added deterministically, matching the analytic budget
    expression) or "sampled" (a beacon event is drawn per technology and
    sub-slot; exploratory only).
    """

    trials: int
    seed: int
    record_holding: bool = False
    beacon_accounting: str = "expected"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.beacon_accounting not in ("expected", "sampled"):
            raise ValueError("beacon_accounting must be 'expected' or 'sampled'")


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
        csum = np.concatenate(([0.0], np.cumsum(pol.probs[c])))
        ks = np.arange(n)
        lo = np.maximum(0, ks - cls.ttl_slots)
        q_before = np.exp(-x * csum[lo])
        out[c] = cls.population * q_before * -np.expm1(-x * (csum[ks + 1] - csum[lo]))
    return out


def simulate(sc: Scenario, pol: Policy, cfg: SimConfig) -> SimOutcome:
    """Run the contact process for cfg.trials independent packets.

    Per relay and trial: the first source contact accepted by the forwarding
    probabilities (sampled exactly by inverting the piecewise-linear
    cumulative acceptance hazard) infects the relay within its sub-slot; the
    copy is held from the contact instant to the end of sub-slot
    (reception + ttl) and discarded for good; the packet is delivered when
    any relay's first sink contact after reception falls inside its holding
    window and before the horizon.  Energy sums one tx_cost per successful
    forward plus the beacon share per cfg.beacon_accounting.
    """
    n = sc.subslots
    n_classes = len(sc.classes)
    if pol.probs.shape != (n_classes, n):
        raise ValueError("policy shape does not match scenario")
    dt = sc.eff_slot
    horizon = n * dt

    # (energy per active sub-slot, activity probability) per beaconing technology
    beacons = [(sc.beacon_rate(tech.ident), active)
               for tech, active in beacon_activity(pol, sc)]
    sampled_beacons = cfg.beacon_accounting == "sampled" and bool(beacons)
    beacon_const = 0.0
    if not sampled_beacons:
        for rate, active in beacons:
            beacon_const += rate * float(active.sum())

    # per class: cumulative acceptance hazard over sub-slot boundaries
    hazards = []
    for c in range(n_classes):
        lam = sc.rates[c]
        hc = np.concatenate(([0.0], np.cumsum(lam * dt * pol.probs[c])))
        hazards.append(hc)

    delivered_total = 0
    energy_sum = 0.0
    energy_sq = 0.0
    tx_sum = np.zeros(n_classes)
    tx_sq = np.zeros(n_classes)
    hold_sum = np.zeros((n_classes, n)) if cfg.record_holding else None
    hold_sq = np.zeros((n_classes, n)) if cfg.record_holding else None

    done = 0
    batch_index = 0
    while done < cfg.trials:
        size = min(_BATCH, cfg.trials - done)
        rng = np.random.Generator(np.random.Philox(key=[
            np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(batch_index)]))
        delivered = np.zeros(size, dtype=bool)
        tx_batch = np.zeros((n_classes, size))
        for c, cls in enumerate(sc.classes):
            lam = sc.rates[c]
            hc = hazards[c]
            total_hazard = hc[-1]
            diff = np.zeros((size, n + 1)) if cfg.record_holding else None
            for _node in range(cls.population):
                e1 = rng.standard_exponential(size)
                g = rng.standard_exponential(size)
                if total_hazard <= 0.0 or lam <= 0.0:
                    continue
                accepted = e1 < total_hazard
                if not accepted.any():
                    continue
                idx = np.searchsorted(hc, e1[accepted], side="right") - 1
                idx = np.clip(idx, 0, n - 1)
                mu = pol.probs[c][idx]
                offset = (e1[accepted] - hc[idx]) / (lam * mu)
                u = idx * dt + offset
                hold_end = np.minimum((idx + cls.ttl_slots + 1) * dt, horizon)
                window = np.maximum(hold_end - u, 0.0)
                hit = g[accepted] < lam * window
                rows = np.where(accepted)[0]
                delivered[rows[hit]] = True
                tx_batch[c, rows] += 1.0
                if cfg.record_holding:
                    ends = np.minimum(idx + cls.ttl_slots, n - 1)
                    np.add.at(diff, (rows, idx), 1.0)
                    np.add.at(diff, (rows, ends + 1), -1.0)
            if cfg.record_holding:
                y = np.cumsum(diff[:, :-1], axis=1)
                hold_sum[c] += y.sum(axis=0)
                hold_sq[c] += (y * y).sum(axis=0)

        energy_batch = np.zeros(size)
        for c, cls in enumerate(sc.classes):
            energy_batch += cls.tx_cost * tx_batch[c]
        if sampled_beacons:
            for rate, active in beacons:
                draws = rng.random((size, n)) < active
                energy_batch += rate * draws.sum(axis=1)
        else:
            energy_batch += beacon_const

        delivered_total += int(delivered.sum())
        energy_sum += float(energy_batch.sum())
        energy_sq += float((energy_batch ** 2).sum())
        tx_sum += tx_batch.sum(axis=1)
        tx_sq += (tx_batch ** 2).sum(axis=1)
        done += size
        batch_index += 1

    t = cfg.trials
    freq = delivered_total / t
    # normal approximation plus a 1/t continuity guard so single-trial runs
    # report an honestly wide interval
    ci = _Z95 * math.sqrt(freq * (1.0 - freq) / t) + 1.0 / t

    def mean_ci(s: float, sq: float) -> tuple[float, float]:
        m = s / t
        if t < 2:
            return m, math.inf
        var = max(sq / t - m * m, 0.0) * t / (t - 1)
        return m, _Z95 * math.sqrt(var / t)

    mean_energy, energy_ci = mean_ci(energy_sum, energy_sq)
    tx_mean = np.empty(n_classes)
    tx_ci = np.empty(n_classes)
    for c in range(n_classes):
        tx_mean[c], tx_ci[c] = mean_ci(tx_sum[c], tx_sq[c])

    outcome = SimOutcome(
        delivery_freq=freq,
        ci95_halfwidth=ci,
        mean_energy=mean_energy,
        mean_energy_ci=energy_ci,
        trials=t,
        mean_tx=tx_mean,
        mean_tx_ci=tx_ci,
    )
    if cfg.record_holding:
        hold_mean = hold_sum / t
        if t >= 2:
            var = np.maximum(hold_sq / t - hold_mean ** 2, 0.0) * t / (t - 1)
            outcome.mean_holding_ci = _Z95 * np.sqrt(var / t)
        else:
            outcome.mean_holding_ci = np.full((n_classes, n), math.inf)
        outcome.mean_holding = hold_mean
    return outcome


def validate(sc: Scenario, pol: Policy, cfg: SimConfig, *,
             delivery_tol: float = 0.02, ci_mult: float = 3.0) -> ValidationRecord:
    """Compare analytic predictions with a simulation run.

    The energy and holding expectations are exact under the model, so their
    gaps are judged against ci_mult times the Monte Carlo half-width.  The
    delivery law is an approximation; its gap is reported and flagged only
    beyond max(delivery_tol, ci_mult * half-width).
    """
    outcome = simulate(sc, pol, cfg)
    analytic_f = delivery_probability(pol, sc.subslots, sc)
    analytic_e = energy_spent(pol, sc)

    analytic_tx = np.array([expected_received(c, sc.subslots - 1, pol, sc)
                            for c in range(len(sc.classes))])

    delivery_gap = abs(outcome.delivery_freq - analytic_f)
    energy_gap = abs(outcome.mean_energy - analytic_e)
    flagged = delivery_gap > max(delivery_tol, ci_mult * outcome.ci95_halfwidth)
    if math.isfinite(outcome.mean_energy_ci):
        flagged = flagged or energy_gap > ci_mult * max(outcome.mean_energy_ci, 1e-15)

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
