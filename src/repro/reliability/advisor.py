"""Deployment advisor: Section 6.2's decision problem, in code.

"How can then individual user organisations decide whether diversity is
a suitable option for them?"  Given an executed study, the advisor
scores every candidate replica set on the evidence the paper says
matters:

* **shared failures** — bugs failing more than one member (the mAB of
  Section 6; fewer is better);
* **non-detectable failures** — identical wrong answers inside the set
  (the paper's four dangerous bugs; these also poison majority voting,
  see experiment M2);
* **masking quorum** — whether the set can out-vote a wrong member;
* **throughput cost** — replica count as a proxy for the comparison
  overhead of experiment W1.

Scores are lexicographic — correctness evidence first, cost last —
matching the paper's advice that the candidate users are those with
"serious concerns about dependability [and] modest throughput
requirements".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from repro.dialects.features import SERVER_KEYS
from repro.study.runner import StudyResult
from repro.study.tables import _identical_failures  # shared ND definition


@dataclass(frozen=True)
class ConfigurationScore:
    """Evidence-based score for one candidate replica set."""

    members: tuple[str, ...]
    shared_failure_bugs: int
    nondetectable_bugs: int
    can_mask: bool
    replica_count: int

    @property
    def sort_key(self) -> tuple:
        # Fewer identical failures first, then fewer shared failures,
        # prefer masking ability, then lower cost.
        return (
            self.nondetectable_bugs,
            self.shared_failure_bugs,
            0 if self.can_mask else 1,
            self.replica_count,
        )


def score_configuration(study: StudyResult, members: Iterable[str]) -> ConfigurationScore:
    """Score one replica set against the study's bug evidence."""
    member_set = tuple(members)
    shared = 0
    nondetectable = 0
    for report in study.corpus:
        failing = study.failed_on(report) & set(member_set)
        if len(failing) < 2:
            continue
        shared += 1
        # Identical outputs among every failing pair => the wrong answer
        # is unanimous within the set (and wins any vote).
        pairs = list(combinations(sorted(failing), 2))
        if pairs and all(
            _identical_failures(study, report.bug_id, x, y) for x, y in pairs
        ):
            nondetectable += 1
    return ConfigurationScore(
        members=member_set,
        shared_failure_bugs=shared,
        nondetectable_bugs=nondetectable,
        can_mask=len(member_set) >= 3,
        replica_count=len(member_set),
    )


def recommend(
    study: StudyResult,
    *,
    sizes: tuple[int, ...] = (2, 3),
    required: Optional[str] = None,
) -> list[ConfigurationScore]:
    """All candidate replica sets, best first.

    ``required`` pins one product the organisation already runs (the
    paper's scenario: users of product A considering AB).
    """
    candidates = []
    for size in sizes:
        for members in combinations(SERVER_KEYS, size):
            if required is not None and required not in members:
                continue
            candidates.append(score_configuration(study, members))
    return sorted(candidates, key=lambda score: score.sort_key)


def advise(study: StudyResult, current_product: str) -> str:
    """A short human-readable recommendation for a product-A user."""
    ranked = recommend(study, required=current_product)
    best = ranked[0]
    partner_list = "+".join(best.members)
    lines = [
        f"Current product: {current_product}",
        f"Best evidence-backed configuration: {partner_list}",
        f"  bugs failing >1 member: {best.shared_failure_bugs}",
        f"  identical (non-detectable) failures: {best.nondetectable_bugs}",
        f"  masking capable: {'yes' if best.can_mask else 'no (detection only)'}",
        "Runner-up configurations:",
    ]
    for score in ranked[1:4]:
        lines.append(
            f"  {'+'.join(score.members)}: shared {score.shared_failure_bugs}, "
            f"non-detectable {score.nondetectable_bugs}"
        )
    return "\n".join(lines)
