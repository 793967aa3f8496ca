"""Usage-profile sensitivity (Section 6's last difficulty).

Different installations exercise different statement mixes, so the same
bug set yields different failure rates per site.  A
:class:`UsageProfile` weights bug activation rates by how much the
profile exercises each bug's trigger area (statement kind / feature
tags); ``profile_sensitivity`` shows how the diversity gain varies
across profiles — the paper's point that "the number of bugs whose
effects can be tolerated gives little information about the resulting
dependability gains" for a *specific* installation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.faults.spec import FailureKind
from repro.reliability.simulate import BugProfile, FailureProcessSimulator
from repro.study.runner import StudyResult


@dataclass(frozen=True)
class UsageProfile:
    """A named workload emphasis: weights per statement-area.

    Areas are coarse buckets of what a bug script exercises: ``query``
    (SELECT-heavy sites), ``ddl`` (schema-churning sites), ``update``
    (OLTP sites), ``arith`` (computation-heavy sites).
    """

    name: str
    weights: dict[str, float] = field(default_factory=dict)

    def weight_for(self, area: str) -> float:
        return self.weights.get(area, 1.0)


STANDARD_PROFILES = [
    UsageProfile("uniform", {}),
    UsageProfile("reporting", {"query": 4.0, "update": 0.25}),
    UsageProfile("oltp", {"update": 4.0, "query": 0.5, "ddl": 0.1}),
    UsageProfile("schema-churn", {"ddl": 6.0}),
    UsageProfile("analytics", {"arith": 5.0, "query": 2.0}),
]


def bug_area(study: StudyResult, bug_id: str) -> str:
    """Coarse statement-area bucket a bug's script exercises most."""
    report = study.corpus.get(bug_id)
    script = report.script.upper()
    if "MOD(" in script or "/ " in script or "%" in script or "AVG(" in script:
        return "arith"
    if "CREATE VIEW" in script or "DROP TABLE" in script or "CREATE CLUSTERED" in script:
        return "ddl"
    if report.bug_id.lower().replace("-", "_") + "_probe" in report.script.lower():
        # Generic scripts end in a select + update probe: split by the
        # failing statement kind.
        if report.home_failure and report.home_failure[0] is FailureKind.OTHER:
            return "update"
    return "query"


def weighted_profiles(
    study: StudyResult,
    base_profiles: Sequence[BugProfile],
    usage: UsageProfile,
) -> list[BugProfile]:
    """Rescale bug activation rates for one usage profile."""
    result = []
    for profile in base_profiles:
        area = bug_area(study, profile.bug_id)
        result.append(
            BugProfile(
                bug_id=profile.bug_id,
                rate=min(profile.rate * usage.weight_for(area), 1.0),
                failing_servers=profile.failing_servers,
                self_evident=profile.self_evident,
                identical_outputs=profile.identical_outputs,
            )
        )
    return result


def profile_sensitivity(
    study: StudyResult,
    base_profiles: Sequence[BugProfile],
    configuration: Sequence[str],
    *,
    demands: int = 20000,
    profiles: Sequence[UsageProfile] = tuple(STANDARD_PROFILES),
    seed: int = 0,
) -> dict[str, float]:
    """Undetected-failure rate of ``configuration`` under each usage
    profile (same bugs, different emphasis)."""
    rates = {}
    for usage in profiles:
        simulator = FailureProcessSimulator(
            weighted_profiles(study, base_profiles, usage), seed=seed
        )
        outcome = simulator.run(configuration, demands)
        rates[usage.name] = outcome.undetected_rate
    return rates
