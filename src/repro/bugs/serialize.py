"""Corpus serialisation.

Adoption-grade plumbing: export the bug corpus (scripts + ground truth)
to JSON for external analysis, and re-import a corpus summary for
cross-checking.  Fault objects are behavioural and are *not*
serialised — the JSON captures the observable evidence, which is what
downstream analysis consumes.  An executed study's classifications are
exported by :func:`repro.study.reporting.study_to_dict`.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.bugs.corpus import Corpus
from repro.bugs.report import BugReport


def report_to_dict(report: BugReport) -> dict[str, Any]:
    """JSON-friendly view of one bug report."""
    home = None
    if report.home_failure is not None:
        kind, detectability = report.home_failure
        home = {"kind": kind.value, "detectability": detectability.value}
    return {
        "bug_id": report.bug_id,
        "reported_for": report.reported_for,
        "title": report.title,
        "script": report.script,
        "gate_features": list(report.gate_features),
        "runnable_on": sorted(report.runnable_on),
        "translation_pending": sorted(report.translation_pending),
        "home_failure": home,
        "foreign_failures": {
            server: {"kind": kind.value, "detectability": det.value}
            for server, (kind, det) in sorted(report.foreign_failures.items())
        },
        "identical_with": sorted(report.identical_with),
        "heisenbug": report.heisenbug,
        "notes": report.notes,
    }


def corpus_to_dict(corpus: Corpus) -> dict[str, Any]:
    return {
        "paper": "Gashi, Popov & Strigini, DSN 2004",
        "total_reports": len(corpus),
        "reports": [report_to_dict(report) for report in corpus],
    }


def corpus_to_json(corpus: Corpus, *, indent: Optional[int] = 2) -> str:
    return json.dumps(corpus_to_dict(corpus), indent=indent)


def summarise_corpus(data: dict[str, Any]) -> dict[str, Any]:
    """Recompute headline counts from a corpus JSON dict (round-trip
    verification for exported data)."""
    reports = data["reports"]
    per_server: dict[str, int] = {}
    failing = coincident = heisenbugs = 0
    for report in reports:
        per_server[report["reported_for"]] = per_server.get(report["reported_for"], 0) + 1
        failing_servers = set(report["foreign_failures"])
        if report["home_failure"] is not None:
            failing_servers.add(report["reported_for"])
        if failing_servers:
            failing += 1
        if len(failing_servers) > 1:
            coincident += 1
        if report["heisenbug"]:
            heisenbugs += 1
    return {
        "total": len(reports),
        "per_server": per_server,
        "failing_somewhere": failing,
        "coincident": coincident,
        "heisenbugs": heisenbugs,
    }
