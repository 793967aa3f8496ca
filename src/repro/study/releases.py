"""Later product releases (Section 7 future work).

"Repeating this study on later releases of the servers, to verify
whether the general conclusions drawn here are repeated" — this module
models release trains for the four products.  Each release fixes a
deterministic subset of the product's seeded faults: named fixes first
(the one the paper documents: PostgreSQL 7.0.3 corrects the
clustered-index bug behind the five MSSQL script failures), then the
oldest-reported faults, in bug-id order — mirroring how maintenance
releases burn down a bug backlog.

Later releases here never *introduce* faults: the question the paper
asks is whether the diversity conclusions survive the bug burn-down,
not whether software regresses (they do survive; see
``tests/test_releases.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bugs.corpus import Corpus
from repro.faults.spec import FaultSpec
from repro.servers.product import ServerProduct
from repro.servers.registry import make_server


@dataclass(frozen=True)
class Release:
    """One maintenance release of a product.

    ``fix_fraction`` of the studied release's faults are fixed (oldest
    bug ids first), in addition to the explicitly ``named_fixes``.
    """

    server: str
    version: str
    fix_fraction: float = 0.0
    named_fixes: frozenset[str] = frozenset()

    def fixed_fault_ids(self, faults: list[FaultSpec]) -> frozenset[str]:
        ordered = sorted(fault.fault_id for fault in faults)
        count = int(round(self.fix_fraction * len(ordered)))
        return frozenset(ordered[:count]) | self.named_fixes


#: Release trains per product.  The studied versions come first; the
#: PostgreSQL 7.0.3 fix set is the one Section 5 documents.
RELEASE_TRAINS: dict[str, list[Release]] = {
    "IB": [
        Release("IB", "6.0"),
        Release("IB", "6.5", fix_fraction=0.4),
    ],
    "PG": [
        Release("PG", "7.0.0"),
        Release("PG", "7.0.3", named_fixes=frozenset({"PG-CLUSTERED-INDEX"})),
        Release("PG", "7.1", fix_fraction=0.4,
                named_fixes=frozenset({"PG-CLUSTERED-INDEX", "PG-43"})),
    ],
    "OR": [
        Release("OR", "8.0.5"),
        Release("OR", "8.1.7", fix_fraction=0.4),
    ],
    "MS": [
        Release("MS", "7"),
        Release("MS", "7 SP4", fix_fraction=0.4),
    ],
}


def release(server: str, version: str) -> Release:
    for candidate in RELEASE_TRAINS[server]:
        if candidate.version == version:
            return candidate
    raise KeyError(f"unknown release {server} {version}")


def faults_for_release(corpus: Corpus, server: str, version: str) -> list[FaultSpec]:
    """The server's fault catalog with the release's fixes applied."""
    baseline = corpus.faults_for(server)
    fixed = release(server, version).fixed_fault_ids(baseline)
    return [fault for fault in baseline if fault.fault_id not in fixed]


def make_release_server(
    corpus: Corpus, server: str, version: str, **kwargs
) -> ServerProduct:
    """A server product at a given release level."""
    return make_server(server, faults_for_release(corpus, server, version), **kwargs)


def release_fault_catalogs(
    corpus: Corpus, versions: Optional[dict[str, str]] = None
) -> dict[str, list[FaultSpec]]:
    """Per-server fault catalogs for a mixed-release deployment.

    ``versions`` maps server key to release version; servers absent
    from the map stay at the studied release.
    """
    versions = versions or {}
    catalogs = {}
    for server in RELEASE_TRAINS:
        if server in versions:
            catalogs[server] = faults_for_release(corpus, server, versions[server])
        else:
            catalogs[server] = corpus.faults_for(server)
    return catalogs
