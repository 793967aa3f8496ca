"""The Section-6 extrapolation model.

The paper's simplest scenario: users of product A consider switching to
a diverse pair AB.  Over a reference period, ``m_A`` bugs were reported
for A; of those, only ``m_AB`` also fail B.  Under the ideal-scenario
assumptions (stable usage profile, complete reporting, one report per
failure), the expected system-failure count drops from ``m_A`` to
``m_AB``, i.e. the failure-rate ratio is ``m_AB / m_A``.

Section 6 then lists the ways reality breaks the ideal scenario; the
model exposes each as an explicit knob:

* *per-bug failure rates vary* — the ratio is re-weighted by a rate
  distribution instead of counting bugs equally;
* *reporting is incomplete and biased* — subtle (non-self-evident)
  failures are under-reported by a configurable factor, which the paper
  argues biases the naive estimate *against* diversity;
* *usage profiles differ* — see :mod:`repro.reliability.profiles`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dialects.features import SERVER_KEYS
from repro.faults.spec import Detectability
from repro.study.runner import StudyResult


@dataclass
class PairGain:
    """Failure-count evidence for one ordered product pair (A -> AB)."""

    m_a: int        # bugs reported for A that fail A
    m_ab: int       # of those, bugs that also fail B

    @property
    def ratio(self) -> float:
        """Naive failure-rate ratio m_AB / m_A (lower is better)."""
        if self.m_a == 0:
            return 0.0
        return self.m_ab / self.m_a


def pair_gains_from_study(study: StudyResult) -> dict[tuple[str, str], PairGain]:
    """Compute m_A and m_AB for every ordered server pair from the
    executed study (the paper's Table 4 viewed as reliability evidence)."""
    gains: dict[tuple[str, str], PairGain] = {}
    for product_a in SERVER_KEYS:
        for product_b in SERVER_KEYS:
            if product_a == product_b:
                continue
            m_a = 0
            m_ab = 0
            for report in study.corpus.reported_for(product_a):
                cell = study.outcome(report.bug_id, product_a)
                if not cell.failed:
                    continue
                m_a += 1
                if study.outcome(report.bug_id, product_b).failed:
                    m_ab += 1
            gains[(product_a, product_b)] = PairGain(m_a, m_ab)
    return gains


@dataclass
class ReliabilityModel:
    """Failure-rate model for a set of bugs with uncertainty knobs.

    Parameters
    ----------
    rate_dispersion:
        Shape parameter of the per-bug failure-rate distribution
        (log-normal sigma).  0 means all bugs fail equally often;
        larger values reproduce Adams' observation that a few bugs
        dominate the failure count.
    subtle_underreporting:
        Multiplier >= 1 on the *true* prevalence of non-self-evident
        failures relative to their reported count (Section 6: bug
        reports under-represent subtle failures, so the diversity gain
        computed from reports is an underestimate).
    """

    rate_dispersion: float = 0.0
    subtle_underreporting: float = 1.0
    seed: int = 0

    def expected_ratio(
        self,
        shared_bugs: int,
        exclusive_bugs: int,
        *,
        shared_subtle: int = 0,
        exclusive_subtle: int = 0,
        samples: int = 2000,
    ) -> tuple[float, float, float]:
        """Monte Carlo estimate of the failure-*rate* ratio mAB/mA.

        Each bug draws a failure rate from a log-normal distribution;
        subtle bugs' rates are inflated by ``subtle_underreporting``
        (they occur more often than reports suggest).  Returns the
        (mean, 5th percentile, 95th percentile) of the rate-weighted
        ratio across ``samples`` random draws.
        """
        if shared_bugs + exclusive_bugs == 0:
            return (0.0, 0.0, 0.0)
        rng = random.Random(self.seed)
        ratios = []
        for _ in range(samples):
            shared_rate = self._total_rate(
                rng, shared_bugs, shared_subtle
            )
            exclusive_rate = self._total_rate(
                rng, exclusive_bugs, exclusive_subtle
            )
            total = shared_rate + exclusive_rate
            ratios.append(shared_rate / total if total > 0 else 0.0)
        ratios.sort()
        mean = sum(ratios) / len(ratios)
        low = ratios[int(0.05 * len(ratios))]
        high = ratios[min(int(0.95 * len(ratios)), len(ratios) - 1)]
        return (mean, low, high)

    def _total_rate(self, rng: random.Random, bugs: int, subtle: int) -> float:
        total = 0.0
        for index in range(bugs):
            rate = (
                rng.lognormvariate(0.0, self.rate_dispersion)
                if self.rate_dispersion > 0
                else 1.0
            )
            if index < subtle:
                rate *= self.subtle_underreporting
            total += rate
        return total


def gain_with_uncertainty(
    study: StudyResult,
    product_a: str,
    product_b: str,
    *,
    rate_dispersion: float = 1.0,
    subtle_underreporting: float = 1.0,
    samples: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """(mean, p5, p95) of the failure-rate ratio mAB/mA for pair A+B,
    propagating per-bug rate variation and reporting bias."""
    shared = 0
    shared_subtle = 0
    exclusive = 0
    exclusive_subtle = 0
    for report in study.corpus.reported_for(product_a):
        cell_a = study.outcome(report.bug_id, product_a)
        if not cell_a.failed:
            continue
        subtle = cell_a.detectability is Detectability.NON_SELF_EVIDENT
        if study.outcome(report.bug_id, product_b).failed:
            shared += 1
            shared_subtle += int(subtle)
        else:
            exclusive += 1
            exclusive_subtle += int(subtle)
    model = ReliabilityModel(
        rate_dispersion=rate_dispersion,
        subtle_underreporting=subtle_underreporting,
        seed=seed,
    )
    return model.expected_ratio(
        shared,
        exclusive,
        shared_subtle=shared_subtle,
        exclusive_subtle=exclusive_subtle,
        samples=samples,
    )
