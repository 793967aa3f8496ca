"""Monte Carlo simulation of the failure process of redundant servers.

Simulates a demand stream against 1-version, 2-version (detection) and
3-version (masking) configurations whose per-demand failure behaviour
is parameterised from the study's bug evidence: each configuration sees
the same underlying "bug activations", and the outcome per demand is
derived from which replicas the activated bug affects and whether the
failures are detectable by comparison.

This quantifies the paper's qualitative claim: diversity converts most
failures into *detected* failures (fail-safe) and masks them entirely
with three versions, leaving only the rare identical-failure bugs as
undetected wrong results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.study.runner import StudyResult


@dataclass
class BugProfile:
    """Per-demand activation profile of one bug."""

    bug_id: str
    rate: float                       # activation probability per demand
    failing_servers: frozenset[str]
    self_evident: dict[str, bool]
    identical_outputs: bool           # failures indistinguishable across servers


@dataclass
class SimulationOutcome:
    """Counts over the simulated demand stream for one configuration."""

    demands: int = 0
    correct: int = 0
    undetected_wrong: int = 0  # silent wrong answers delivered to the client
    detected: int = 0          # failure detected (service can fail safe / retry)
    masked: int = 0            # wrong replica out-voted; correct answer delivered

    @property
    def undetected_rate(self) -> float:
        return self.undetected_wrong / self.demands if self.demands else 0.0


def bug_profiles_from_study(
    study: StudyResult,
    *,
    base_rate: float = 1e-4,
    rate_dispersion: float = 1.0,
    seed: int = 0,
) -> list[BugProfile]:
    """Build per-bug activation profiles from the executed study.

    Each failing bug gets a per-demand activation rate drawn from a
    log-normal around ``base_rate`` (Adams-style variation).
    """
    rng = random.Random(seed)
    profiles = []
    for report in study.corpus:
        failing = study.failed_on(report)
        if not failing:
            continue
        self_evident = {
            server: study.outcome(report.bug_id, server).self_evident
            for server in failing
        }
        rate = base_rate * (
            rng.lognormvariate(0.0, rate_dispersion) if rate_dispersion > 0 else 1.0
        )
        profiles.append(
            BugProfile(
                bug_id=report.bug_id,
                rate=min(rate, 1.0),
                failing_servers=failing,
                self_evident=self_evident,
                identical_outputs=bool(report.identical_with),
            )
        )
    return profiles


class FailureProcessSimulator:
    """Simulates a demand stream over a replica configuration."""

    def __init__(self, profiles: Sequence[BugProfile], *, seed: int = 0) -> None:
        self.profiles = list(profiles)
        self._rng = random.Random(seed)

    def run(
        self, configuration: Sequence[str], demands: int
    ) -> SimulationOutcome:
        """Simulate ``demands`` demands against the given replica set.

        Per demand, each bug activates independently with its rate; an
        activated bug makes its failing replicas answer wrongly.  The
        adjudication is: all-agree-and-correct -> correct; minority
        wrong -> masked (for >=3 replicas) or detected (2 replicas with
        differing answers); all replicas wrong with identical output ->
        undetected wrong answer; single replica -> its failure is
        undetected unless self-evident.
        """
        outcome = SimulationOutcome()
        replicas = list(configuration)
        for _ in range(demands):
            outcome.demands += 1
            wrong: set[str] = set()
            any_self_evident = False
            identical = True
            for profile in self.profiles:
                affected = profile.failing_servers & set(replicas)
                if not affected:
                    continue
                if self._rng.random() >= profile.rate:
                    continue
                wrong |= affected
                any_self_evident = any_self_evident or any(
                    profile.self_evident.get(server, False) for server in affected
                )
                # Conservative: a demand's failures are only identical
                # across replicas when every activated bug produces
                # identical outputs on all the replicas it affects.
                identical = identical and profile.identical_outputs
            if not wrong:
                outcome.correct += 1
                continue
            if len(replicas) == 1:
                if any_self_evident:
                    outcome.detected += 1
                else:
                    outcome.undetected_wrong += 1
                continue
            correct_replicas = [r for r in replicas if r not in wrong]
            if any_self_evident:
                # A crash/exception is visible regardless of voting.
                if correct_replicas:
                    outcome.masked += 1
                else:
                    outcome.detected += 1
                continue
            if not correct_replicas:
                # Every replica wrong: identical outputs slip through.
                if identical and len(wrong) >= 2:
                    outcome.undetected_wrong += 1
                else:
                    outcome.detected += 1
                continue
            if len(correct_replicas) * 2 > len(replicas):
                outcome.masked += 1
            elif len(replicas) == 2:
                outcome.detected += 1
            else:
                outcome.detected += 1
        return outcome

    def compare_configurations(
        self, demands: int, configurations: Optional[dict[str, Sequence[str]]] = None
    ) -> dict[str, SimulationOutcome]:
        """Run the standard comparison: single servers vs diverse pairs
        vs a diverse triple."""
        if configurations is None:
            configurations = {
                "1v-IB": ["IB"],
                "1v-PG": ["PG"],
                "1v-OR": ["OR"],
                "1v-MS": ["MS"],
                "2v-IB+PG": ["IB", "PG"],
                "2v-PG+OR": ["PG", "OR"],
                "2v-OR+MS": ["OR", "MS"],
                "3v-IB+PG+OR": ["IB", "PG", "OR"],
            }
        return {
            name: self.run(config, demands) for name, config in configurations.items()
        }
