"""Analytic availability model for replicated configurations.

Section 2.1: "Availability could also be improved because servers that
are diagnosed as correct can continue operation while recovery is
performed on the faulty server[s]."  This module gives the closed-form
steady-state comparison: each replica alternates between *up* and
*recovering* (an alternating renewal process with failure rate
``lambda`` and mean repair time ``1/mu``), replicas fail independently,
and the service is available while at least ``quorum`` replicas are up.

The paper's argument in numbers: a diverse pair whose members each
offer 99.9% availability delivers ~99.9999% when one replica suffices
(detection-only reads), while lock-step configurations needing *all*
replicas (full comparison on every statement) are slightly *less*
available than a single server — the trade the middleware's policies
navigate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from repro.middleware.supervisor import backoff_delay
from repro.net.client import MAX_RECONNECT_ATTEMPTS, RECONNECT_BACKOFF_CAP


@dataclass(frozen=True)
class ReplicaAvailability:
    """Steady-state availability of one replica.

    ``failure_rate`` (lambda) is failures per unit time; ``repair_rate``
    (mu) is recoveries per unit time; availability = mu / (lambda + mu).
    """

    failure_rate: float
    repair_rate: float

    def __post_init__(self) -> None:
        if self.failure_rate < 0 or self.repair_rate <= 0:
            raise ValueError("rates must be positive (repair strictly)")

    @property
    def availability(self) -> float:
        return self.repair_rate / (self.failure_rate + self.repair_rate)

    @property
    def unavailability(self) -> float:
        return 1.0 - self.availability


def k_of_n_availability(replicas: list[ReplicaAvailability], quorum: int) -> float:
    """Probability that at least ``quorum`` of the replicas are up.

    Exact computation over the independent up/down states (the replica
    count in this domain is tiny, so enumeration beats approximation).
    """
    if not 1 <= quorum <= len(replicas):
        raise ValueError("quorum must be between 1 and the replica count")
    total = 0.0
    indices = range(len(replicas))
    for up_count in range(quorum, len(replicas) + 1):
        for up_set in combinations(indices, up_count):
            up = set(up_set)
            probability = 1.0
            for index, replica in enumerate(replicas):
                probability *= (
                    replica.availability if index in up else replica.unavailability
                )
            total += probability
    return total


def service_availability(
    replicas: list[ReplicaAvailability], *, policy: str = "any"
) -> float:
    """Availability of the diverse service under a middleware policy.

    ``any``
        Service answers while >= 1 replica is up (reads under
        detection-oriented operation; recovery runs in background).
    ``majority``
        Service answers while a strict majority is up (masking writes).
    ``all``
        Lock-step: every statement needs every replica (full comparison
        with no degraded mode) — *lower* than a single server.
    """
    count = len(replicas)
    if policy == "any":
        return k_of_n_availability(replicas, 1)
    if policy == "majority":
        return k_of_n_availability(replicas, count // 2 + 1)
    if policy == "all":
        return k_of_n_availability(replicas, count)
    raise ValueError(f"unknown policy {policy!r}")


def nines(availability: float) -> float:
    """Availability expressed in 'nines' (0.999 -> 3.0)."""
    if availability >= 1.0:
        return math.inf
    if availability <= 0.0:
        return 0.0
    return -math.log10(1.0 - availability)


def improvement_summary(
    single: ReplicaAvailability, replicas: list[ReplicaAvailability]
) -> dict[str, float]:
    """Availability of 1v vs the diverse configuration per policy."""
    return {
        "single": single.availability,
        "diverse_any": service_availability(replicas, policy="any"),
        "diverse_majority": service_availability(replicas, policy="majority"),
        "diverse_lockstep": service_availability(replicas, policy="all"),
    }


@dataclass(frozen=True)
class TimeoutPolicyModel:
    """Deadline-based timeout detection: the false-positive trade-off.

    The middleware's watchdog declares any statement whose virtual cost
    exceeds ``deadline`` a performance failure.  That is the only
    detector that can represent a *hang* (a replica that never answers),
    but it cuts both ways: healthy statements have a cost distribution
    with a tail, and every healthy statement past the deadline is a
    false positive that quarantines a good replica.  This model prices
    that trade-off, so a deployment can pick a deadline instead of
    guessing one.

    Healthy statement costs are modelled log-normal with median
    ``cost_median`` and shape ``cost_sigma`` (Adams-style heavy tails);
    a *stall* adds ``stall_delay`` virtual-cost units on top of the
    healthy cost; a *hang* costs infinitely much.
    """

    #: Statement deadline budget in virtual-cost units.
    deadline: float
    #: Median virtual cost of a healthy statement.
    cost_median: float = 1.0
    #: Log-normal sigma of healthy statement cost (0 = deterministic).
    cost_sigma: float = 0.5
    #: Extra virtual cost a stall fault adds to the healthy cost.
    stall_delay: float = 100.0

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("the deadline must be positive")
        if self.cost_median <= 0:
            raise ValueError("the median statement cost must be positive")
        if self.cost_sigma < 0 or self.stall_delay < 0:
            raise ValueError("sigma and stall delay must be non-negative")

    def _exceed_probability(self, threshold: float) -> float:
        """P(healthy statement cost > threshold) under the log-normal."""
        if threshold <= 0:
            return 1.0
        if self.cost_sigma == 0:
            return 1.0 if self.cost_median > threshold else 0.0
        z = (math.log(threshold) - math.log(self.cost_median)) / self.cost_sigma
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    @property
    def false_positive_rate(self) -> float:
        """P(a healthy statement blows the deadline) — each such event
        needlessly quarantines a good replica."""
        return self._exceed_probability(self.deadline)

    @property
    def hang_detection_probability(self) -> float:
        """A hang's infinite cost always exceeds a finite deadline."""
        return 1.0

    @property
    def stall_detection_probability(self) -> float:
        """P(a stalled statement blows the deadline): the stall adds
        ``stall_delay`` to the healthy cost, so detection fails only
        when the deadline exceeds the stall by more than the healthy
        cost covers."""
        return self._exceed_probability(self.deadline - self.stall_delay)

    @property
    def detection_latency(self) -> float:
        """Virtual cost spent before a hang is declared: the watchdog
        must wait out the whole deadline budget (the cost-ratio check,
        by contrast, needs an answer it will never get)."""
        return self.deadline


#: P(the session is still resumable when the client reconnects).
RESUME_PROBABILITY = 0.95
#: Fraction of the statement mix provably re-execution-safe.
REEXECUTION_SAFE_FRACTION = 0.5


@dataclass(frozen=True)
class NetworkPolicyModel:
    """Client-observed availability through the serving layer's wire.

    The models above price what the *middleware* can answer; a served
    deployment adds a network path that loses, delays,
    and resets frames.  The session supervisor turns most of those
    losses into invisible retries — resume the session, resend the same
    sequence number, let the server deduplicate — so a request is only
    *lost* when the retry discipline runs out of road:

    * every attempt in the reconnect budget failed (circuit open), or
    * the session expired mid-flight **and** the statement is not
      provably re-execution-safe, so no further attempt is permitted
      (the :class:`~repro.net.errors.RetryUnsafe` path).

    Each attempt independently fails with ``loss_probability`` (drop,
    reset, corrupt frame, or timeout on either direction of the round
    trip).  After a failed attempt the session resumes with
    :data:`RESUME_PROBABILITY` (it expired otherwise — outages longer
    than the idle deadline), and an expired session only permits a
    retry for the :data:`REEXECUTION_SAFE_FRACTION` of the statement
    mix the static analyzer proves safe.  The attempt budget (one initial attempt plus
    :data:`~repro.net.client.MAX_RECONNECT_ATTEMPTS`) and the backoff
    schedule are the session supervisor's own, which price the latency
    of surviving.
    """

    #: P(one request/response round trip is lost or reset).
    loss_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")

    @property
    def continuation_probability(self) -> float:
        """P(a failed attempt is allowed another try): the session
        resumed (always retryable — the server deduplicates), or it
        expired but the statement is provably safe to re-submit."""
        return RESUME_PROBABILITY + (1.0 - RESUME_PROBABILITY) * REEXECUTION_SAFE_FRACTION

    def request_success_probability(self) -> float:
        """P(a request eventually receives an exactly-once answer)."""
        p = self.loss_probability
        s = 1.0 - p
        c = self.continuation_probability
        step = p * c
        return s * sum(step**k for k in range(MAX_RECONNECT_ATTEMPTS + 1))

    def expected_retry_delay(self) -> float:
        """E[backoff spent | request succeeds] — the latency price of
        surviving the lossy wire (virtual time units)."""
        p = self.loss_probability
        s = 1.0 - p
        c = self.continuation_probability
        total = 0.0
        weight = 0.0
        elapsed = 0.0
        for attempt in range(MAX_RECONNECT_ATTEMPTS + 1):
            elapsed += backoff_delay(attempt, RECONNECT_BACKOFF_CAP)
            probability = ((p * c) ** attempt) * s
            total += probability * elapsed
            weight += probability
        if weight == 0.0:
            return 0.0
        return total / weight
