"""Corpus construction: 181 bug reports with seeded faults.

``build_corpus`` expands the frozen ground truth of
:mod:`repro.bugs.groundtruth` into concrete :class:`BugReport` objects:
the 13 Section-5 bugs come from :mod:`repro.bugs.notable`; the rest are
generated with per-bug schemas, dialect gate features, and faults whose
failure regions are scoped to the bug's own tables.  Everything is
deterministic — building the corpus twice gives identical objects.

:func:`minimize_report` shrinks one report's script to the slice its
seeded faults (and the corpus's shared PostgreSQL fault) need, using
the static slicing of :mod:`repro.analysis.dataflow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.dataflow import (
    SliceResult,
    build_graph,
    portability_anchors,
    slice_graph,
    trigger_matches,
)
from repro.bugs import groundtruth as gt
from repro.bugs.notable import NOTABLE_CELLS, notable_bugs, pg_clustered_index_fault
from repro.bugs.report import BugReport
from repro.bugs.scripts import build_generic_script, probe_table
from repro.dialects.translator import ScriptPieces
from repro.errors import FeatureNotSupported
from repro.faults.effects import (
    CrashEffect,
    ErrorEffect,
    PerformanceEffect,
    RowcountSkewEffect,
    RowDropEffect,
)
from repro.faults.spec import Detectability, FailureKind, FaultSpec
from repro.faults.triggers import RelationTrigger

K = FailureKind
D = Detectability

#: Error-message flavour per product.
_ERROR_STYLE = {
    "IB": "unsuccessful metadata update: internal gds software consistency check",
    "PG": "ERROR: ExecEvalExpr: unknown expression type",
    "OR": "ORA-00600: internal error code, arguments: [{}]",
    "MS": "Server: Msg 8624, Level 16: Internal SQL Server error",
}

#: Starting report number per server for generated bug ids, chosen to
#: look like each repository's numbering and avoid the notable ids.
_ID_BASE = {"IB": 224000, "PG": 100, "OR": 1061000, "MS": 57000}


def _make_generic_fault(
    server: str,
    bug_id: str,
    prefix: str,
    kind: FailureKind,
    detectability: Detectability,
    *,
    heisenbug: bool = False,
    serial: int = 0,
) -> FaultSpec:
    """Build the seeded fault for a generated bug's home server."""
    probe = probe_table(prefix)
    select_trigger = RelationTrigger([probe], kind="select")
    update_trigger = RelationTrigger([probe], kind="update")
    if heisenbug:
        return FaultSpec(
            fault_id=bug_id,
            description="intermittent wrong result under load (Heisenbug)",
            trigger=select_trigger,
            effect=RowDropEffect(keep_one_in=2, offset=serial % 2),
            kind=K.INCORRECT_RESULT,
            detectability=D.NON_SELF_EVIDENT,
            heisenbug=True,
        )
    if kind is K.ENGINE_CRASH:
        return FaultSpec(
            fault_id=bug_id,
            description="query over this schema crashes the core engine",
            trigger=select_trigger,
            effect=CrashEffect("access violation in query executor"),
            kind=kind,
            detectability=D.SELF_EVIDENT,
        )
    if kind is K.PERFORMANCE:
        return FaultSpec(
            fault_id=bug_id,
            description="pathological plan: unacceptable execution time",
            trigger=select_trigger,
            effect=PerformanceEffect(factor=500.0),
            kind=kind,
            detectability=D.SELF_EVIDENT,
        )
    if kind is K.INCORRECT_RESULT and detectability is D.SELF_EVIDENT:
        return FaultSpec(
            fault_id=bug_id,
            description="valid query rejected with a spurious error",
            trigger=select_trigger,
            effect=ErrorEffect(_ERROR_STYLE[server].format(serial)),
            kind=kind,
            detectability=detectability,
        )
    if kind is K.INCORRECT_RESULT:
        return FaultSpec(
            fault_id=bug_id,
            description="query silently returns wrong rows",
            trigger=select_trigger,
            effect=RowDropEffect(keep_one_in=2, offset=serial % 2),
            kind=kind,
            detectability=detectability,
        )
    if kind is K.OTHER and detectability is D.SELF_EVIDENT:
        return FaultSpec(
            fault_id=bug_id,
            description="spurious lock-timeout error on a valid update",
            trigger=update_trigger,
            effect=ErrorEffect("lock conflict on no-wait transaction (spurious)"),
            kind=kind,
            detectability=detectability,
        )
    # OTHER, non-self-evident: correct rows, wrong reported rowcount.
    return FaultSpec(
        fault_id=bug_id,
        description="update reports a wrong affected-row count",
        trigger=update_trigger,
        effect=RowcountSkewEffect(delta=1),
        kind=K.OTHER,
        detectability=D.NON_SELF_EVIDENT,
    )


@dataclass
class Corpus:
    """The full study corpus: 181 reports plus per-server fault catalogs."""

    reports: list[BugReport]
    _by_id: dict[str, BugReport] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_id = {report.bug_id: report for report in self.reports}
        if len(self._by_id) != len(self.reports):
            raise ValueError("duplicate bug ids in corpus")

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self) -> Iterator[BugReport]:
        return iter(self.reports)

    def get(self, bug_id: str) -> BugReport:
        return self._by_id[bug_id]

    def reported_for(self, server: str) -> list[BugReport]:
        return [report for report in self.reports if report.reported_for == server]

    def faults_for(self, server: str) -> list[FaultSpec]:
        """Every fault seeded in ``server`` across the corpus, plus the
        shared PostgreSQL clustered-index fault."""
        faults = [
            fault
            for report in self.reports
            for fault in report.faults.get(server, [])
        ]
        if server == "PG":
            faults.append(pg_clustered_index_fault())
        return faults

    def faults_by_server(self) -> dict[str, list[FaultSpec]]:
        return {server: self.faults_for(server) for server in gt.SERVER_KEYS}


def _fw_assignments(
    server: str, group: str, generic_total: int
) -> list[frozenset[str]]:
    """Per-generic-bug translation-pending target sets for one cell.

    Targets are assigned to consecutive bugs without overlap, in the
    order the FURTHER_WORK table lists them.
    """
    assignments: list[set[str]] = [set() for _ in range(generic_total)]
    pointer = 0
    for target, allocations in gt.FURTHER_WORK.get(server, {}).items():
        for cell_group, count in allocations:
            if cell_group != group:
                continue
            for _ in range(count):
                if pointer >= generic_total:
                    raise ValueError(
                        f"further-work allocation overflows cell {server}/{group}"
                    )
                assignments[pointer].add(target)
                pointer += 1
    return [frozenset(item) for item in assignments]


def build_corpus() -> Corpus:
    """Build the deterministic 181-report corpus."""
    notables = notable_bugs()
    notable_by_cell: dict[tuple[str, str], list[BugReport]] = {}
    for report in notables:
        cell = NOTABLE_CELLS[report.bug_id]
        notable_by_cell.setdefault(cell, []).append(report)

    reports: list[BugReport] = []
    for server in gt.SERVER_KEYS:
        se_pool = list(gt.SE_POOLS[server])
        nse_pool = list(gt.NSE_POOLS[server])
        # Remove the kinds pinned by this server's notable bugs.
        for report in notables:
            if report.reported_for != server or report.home_failure is None:
                continue
            kind, detectability = report.home_failure
            pool = se_pool if detectability is D.SELF_EVIDENT else nse_pool
            pool.remove(kind)
        serial = 0
        for group, total, failing, self_evident in gt.CELLS[server]:
            cell_notables = notable_by_cell.get((server, group), [])
            notable_failing = [r for r in cell_notables if r.home_failure is not None]
            notable_se = sum(
                1 for r in notable_failing if r.home_failure[1] is D.SELF_EVIDENT
            )
            generic_total = total - len(cell_notables)
            generic_failing = failing - len(notable_failing)
            generic_se = self_evident - notable_se
            generic_nse = generic_failing - generic_se
            generic_nf = generic_total - generic_failing
            if min(generic_total, generic_failing, generic_se, generic_nse, generic_nf) < 0:
                raise ValueError(f"inconsistent cell {server}/{group}")

            reports.extend(cell_notables)
            fw_sets = _fw_assignments(server, group, generic_total)
            group_servers = gt.expand_group(group)
            for index in range(generic_total):
                serial += 1
                number = _ID_BASE[server] + serial
                bug_id = f"{server}-{number}"
                prefix = bug_id.lower().replace("-", "_")
                if index < generic_se:
                    kind = se_pool.pop(0)
                    home: Optional[tuple] = (kind, D.SELF_EVIDENT)
                    heisenbug = False
                elif index < generic_se + generic_nse:
                    kind = nse_pool.pop(0)
                    home = (kind, D.NON_SELF_EVIDENT)
                    heisenbug = False
                else:
                    kind = K.INCORRECT_RESULT
                    home = None
                    heisenbug = True

                pending = fw_sets[index]
                support = frozenset(group_servers | pending)
                choices = gt.FEATURE_CHOICES[gt.canonical_group(support)]
                features = choices[index % len(choices)]
                script = build_generic_script(
                    prefix, features, oracle_spelling=(server == "OR")
                )
                fault = _make_generic_fault(
                    server,
                    bug_id,
                    prefix,
                    kind,
                    home[1] if home else D.NON_SELF_EVIDENT,
                    heisenbug=heisenbug,
                    serial=serial,
                )
                reports.append(
                    BugReport(
                        bug_id=bug_id,
                        reported_for=server,
                        title=fault.description,
                        script=script,
                        gate_features=tuple(features),
                        runnable_on=group_servers,
                        translation_pending=pending,
                        home_failure=home,
                        heisenbug=heisenbug,
                        faults={server: [fault]},
                    )
                )
        if se_pool or nse_pool:
            raise ValueError(
                f"kind pools for {server} not exhausted: "
                f"{len(se_pool)} SE / {len(nse_pool)} NSE left"
            )
    return Corpus(reports)


def minimize_report(report: BugReport, script: ScriptPieces) -> SliceResult:
    """Shrink a corpus bug script, whose pieces ``script`` are, to its
    trigger slice.

    Anchors: every statement that any of the report's seeded fault
    triggers matches — evaluated per hosting server on that server's
    *translated* statement sequence (a token rewrite renames words, so
    it keeps every statement at its index) — plus one carrier statement per gated
    feature, so the CANNOT_RUN / FURTHER_WORK classification of every
    server is preserved.  The paper's shared PostgreSQL clustered-index
    fault is included whenever PostgreSQL hosts the script.
    """
    graph = build_graph(script)
    anchors: dict[int, str] = {}
    for server in gt.SERVER_KEYS:
        if server not in report.runnable_on:
            continue
        faults = list(report.faults.get(server, []))
        if server == "PG":
            faults.append(pg_clustered_index_fault())
        if not faults:
            continue
        hosted = script
        if server != report.reported_for:
            try:
                hosted = script.translated(server)
            except FeatureNotSupported:  # pragma: no cover - lint territory
                continue
        for index in trigger_matches(hosted, faults):
            anchors.setdefault(index, "trigger")
    for index in portability_anchors(script):
        anchors.setdefault(index, "portability")
    return slice_graph(graph, anchors)
