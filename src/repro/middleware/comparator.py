"""Result comparison and vote grouping across diverse replicas."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Optional

from repro.errors import SqlError
from repro.middleware.normalizer import normalize_result

#: Types whose equal values are spelled one way: equal values of these
#: types get equal vote keys under every normalisation.
_PLAIN = frozenset((type(None), bool, int, str))


@dataclass
class ReplicaAnswer:
    """One replica's answer to one statement."""

    replica: str
    status: str  # 'ok' | 'error' | 'crash'
    columns: tuple[str, ...] = ()
    rows: tuple[tuple, ...] = ()
    rowcount: int = 0
    virtual_cost: float = 0.0
    error: str = ""
    result: Any = None  # the raw engine Result for the winning answer
    #: ``normalize_result`` of this answer, computed at most once and
    #: shared by :meth:`ResultComparator.compare` with identical answers.
    _normal: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, replica: str, result: Any) -> "ReplicaAnswer":
        """The ``ok`` answer of a replica whose statement ran: the
        columns, rows, rowcount and cost of its engine ``result``."""
        return cls(
            replica=replica,
            status="ok",
            columns=tuple(result.columns),
            rows=tuple(result.rows),
            rowcount=result.rowcount,
            virtual_cost=result.virtual_cost,
            result=result,
        )

    def unwrap(self):
        """The engine :class:`~repro.sqlengine.engine.Result` behind a
        winning answer.  An ``error`` answer re-raises: when it wins
        the vote, erroring *is* the agreed-correct behaviour (e.g. a
        genuine constraint violation)."""
        if self.status == "error":
            raise SqlError(self.error)
        return self.result

    def vote_key(self, *, normalize: bool = True, ordered: bool = True) -> tuple:
        """Hashable ballot: answers with equal keys agree.

        ``ordered=False`` votes on the row *multiset*: used when the
        static analyzer proves the statement carries no ORDER BY
        guarantee, so two correct products may return different row
        permutations without disagreeing (no ORDER BY probe needed).
        """
        if self.status == "crash":
            return ("crash",)
        if self.status == "error":
            # Error *presence* is the vote; products word errors
            # differently, which must not read as disagreement.
            return ("error",)
        if normalize:
            if self._normal is None:
                self._normal = normalize_result(self.columns, self.rows)
            columns, rows = self._normal
            if not ordered:
                # Normalised values mix None with tagged tuples, which
                # do not order against each other — sort by repr, which
                # is total and canonical after normalisation.
                rows = tuple(sorted(rows, key=repr))
            # Affected-rowcount is part of the answer: a replica
            # reporting a wrong rowcount (the study's "other" failure
            # class) must disagree with its peers.
            return ("ok", columns, rows, self.rowcount)
        # Bit-exact comparison: Python would otherwise equate
        # Decimal('10.00') with 10, hiding representation diffs.
        columns = tuple(self.columns)
        rows = tuple(
            tuple((type(value).__name__, repr(value)) for value in row)
            for row in self.rows
        )
        if not ordered:
            rows = tuple(sorted(rows))
        return ("ok", columns, rows, self.rowcount)


def identical(a: ReplicaAnswer, b: ReplicaAnswer) -> bool:
    """True when ``a`` and ``b`` get equal vote keys under both
    normalisations and both orderings, decided without normalising.

    Errors and crashes vote on their presence.  Ok answers need equal
    columns, rowcount and rows (so the same row shape), and value by
    value the same type; outside ``None``/bool/int/str also the same
    ``repr`` — for a Decimal that spells sign, digits and exponent, so
    equal ``as_tuple()``; for a float it tells ``-0.0`` from ``0.0``.
    The check runs column by column in C (``map``/``zip``)."""
    if a.status != b.status:
        return False
    if a.status != "ok":
        return True
    if a.rowcount != b.rowcount or a.columns != b.columns or a.rows != b.rows:
        return False
    for left, right in zip(zip_longest(*a.rows), zip_longest(*b.rows)):
        types = list(map(type, left))
        if types != list(map(type, right)):
            return False
        if not _PLAIN.issuperset(types) and list(map(repr, left)) != list(map(repr, right)):
            return False
    return True


@dataclass
class ComparisonResult:
    """Outcome of comparing all replicas' answers to one statement."""

    groups: list[list[ReplicaAnswer]] = field(default_factory=list)

    @property
    def unanimous(self) -> bool:
        return len(self.groups) == 1

    @property
    def largest(self) -> list[ReplicaAnswer]:
        return self.groups[0]

    def majority(self, total: int) -> Optional[list[ReplicaAnswer]]:
        """The agreeing group holding a strict majority of ``total``
        replicas, if any."""
        if self.groups and len(self.groups[0]) * 2 > total:
            return self.groups[0]
        return None

    @property
    def disagreement(self) -> bool:
        return len(self.groups) > 1

    def minority_replicas(self) -> list[str]:
        """Replicas outside the largest agreeing group."""
        return [
            answer.replica for group in self.groups[1:] for answer in group
        ]


class ResultComparator:
    """Groups replica answers into agreement classes.

    ``normalize`` applies the representation canonicalisation of
    Section 4.3; turning it off (ablation A1) makes representation
    differences look like failures.
    """

    def __init__(self, *, normalize: bool = True) -> None:
        self.normalize = normalize

    def compare(
        self, answers: list[ReplicaAnswer], *, ordered: bool = True
    ) -> ComparisonResult:
        """Agreement classes, largest first, members in input order.

        Answers first fall into classes of :func:`identical` answers: a
        single class is a unanimous round and nothing is normalised.
        Otherwise each class's first member computes the vote key once
        and classes with equal keys merge."""
        reps: list[ReplicaAnswer] = []  # the first answer of each identity class
        labels: list[int] = []
        for answer in answers:
            label = next((i for i, rep in enumerate(reps) if identical(rep, answer)), len(reps))
            if label == len(reps):
                reps.append(answer)
            labels.append(label)
        if len(reps) > 1:
            by_key: dict[tuple, int] = {}  # vote key -> first class with it
            merged = [
                by_key.setdefault(rep.vote_key(normalize=self.normalize, ordered=ordered), i)
                for i, rep in enumerate(reps)
            ]
            for answer, label in zip(answers, labels):
                answer._normal = reps[label]._normal
            labels = [merged[label] for label in labels]
        buckets: dict[int, list[ReplicaAnswer]] = {}
        for answer, label in zip(answers, labels):
            buckets.setdefault(label, []).append(answer)
        groups = sorted(buckets.values(), key=lambda group: (-len(group), group[0].replica))
        return ComparisonResult(groups=groups)
