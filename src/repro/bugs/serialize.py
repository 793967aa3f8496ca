"""Corpus serialisation.

Adoption-grade plumbing: export the bug corpus (scripts + ground truth)
to JSON for external analysis (``python -m repro export``).  Fault
objects are behavioural and are *not* serialised — the JSON captures
the observable evidence, which is what downstream analysis consumes.
"""

from __future__ import annotations

import json
from typing import Any

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


#: Spaces per nesting level of the exported JSON.
JSON_INDENT = 2


def corpus_to_json(corpus: Corpus) -> str:
    return json.dumps(corpus_to_dict(corpus), indent=JSON_INDENT)

