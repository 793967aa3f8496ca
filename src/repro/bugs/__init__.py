"""The 181-bug-report corpus of the study.

The corpus models the bug repositories the authors mined: 55 Interbase,
57 PostgreSQL, 18 Oracle, and 51 MSSQL reports, each with a runnable
*bug script* and a fault seeded into the server(s) it affects.  The
per-server marginals (which scripts can run where, which fail where,
and how the failures classify) reproduce the paper's Tables 1-4; the
13 cross-server bugs of Section 5 are modelled individually in
:mod:`repro.bugs.notable`.

Public surface:

* :func:`repro.bugs.corpus.build_corpus` — the full corpus plus the
  per-server fault catalogs.
* :class:`repro.bugs.report.BugReport` — one bug report.
* :func:`repro.bugs.corpus.minimize_report` — one report's script
  shrunk to its static trigger slice.
"""

from repro.bugs.corpus import Corpus, build_corpus, minimize_report
from repro.bugs.report import BugReport

__all__ = ["BugReport", "Corpus", "build_corpus", "minimize_report"]
