"""The BugReport record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.spec import Detectability, FailureKind, FaultSpec


@dataclass
class BugReport:
    """One bug report from a server's public repository.

    Attributes
    ----------
    bug_id:
        Repository identifier, e.g. ``IB-223512``.
    reported_for:
        Server key (IB/PG/OR/MS) whose repository the report came from.
    script:
        The bug script: SQL that reproduces the failure, written in the
        reported server's dialect.
    gate_features:
        Gated feature tags the script deliberately uses; they determine
        which other servers the script can be translated to.
    runnable_on:
        Ground-truth set of servers the script runs on (reported server
        plus every server whose dialect supports all gate features and
        that is not in ``translation_pending``).
    translation_pending:
        Servers whose dialect could host the script but for which the
        (manual, in the paper) translation is still outstanding — the
        "further work" row of Table 1.
    home_failure:
        ``(kind, detectability)`` of the failure on the reported server,
        or None for Heisenbugs (no failure observed on re-run).
    foreign_failures:
        Servers *other than* the reported one where the script also
        fails, with their failure classification.
    identical_with:
        Servers whose failure produces byte-identical output to the
        reported server's failure (the non-detectable coincident class).
    heisenbug:
        True when re-running the script shows no failure; the seeded
        fault only activates in stress mode.
    """

    bug_id: str
    reported_for: str
    title: str
    script: str
    gate_features: tuple[str, ...] = ()
    runnable_on: frozenset[str] = frozenset()
    translation_pending: frozenset[str] = frozenset()
    home_failure: Optional[tuple[FailureKind, Detectability]] = None
    foreign_failures: dict[str, tuple[FailureKind, Detectability]] = field(
        default_factory=dict
    )
    identical_with: frozenset[str] = frozenset()
    heisenbug: bool = False
    notes: str = ""
    #: Fault specs this bug seeds, keyed by server.
    faults: dict[str, list[FaultSpec]] = field(default_factory=dict)

    @property
    def failing_servers(self) -> frozenset[str]:
        servers = set(self.foreign_failures)
        if self.home_failure is not None:
            servers.add(self.reported_for)
        return frozenset(servers)
