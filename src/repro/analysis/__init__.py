"""Static SQL semantic analysis: per-statement verdicts without execution.

Four verdict families, four consumers:

* **Order determinism** (:class:`OrderVerdict`) — is the result row
  order stable across correct products?  Consumed by the middleware
  comparator, which votes on row *multisets* for statically-unordered
  SELECTs instead of manufacturing false divergences.
* **Read/write sets + re-execution safety** (:class:`AccessVerdict`) —
  which relations a statement reads vs mutates, and whether re-running
  it reproduces both the state and the answer.  Consumed by the
  supervisor's retry gate, generalising "reads retry once, writes
  never" to proof-carrying idempotence.
* **Dialect portability** (:class:`PortabilityVerdict`) — each server's
  can-run/cannot-run verdict predicted from traits alone.  Cross-checked
  against the dynamic translator outcome by the lint.
* **Fault reachability** (:class:`FaultReachability`) — which seeded
  faults are statically reachable from the corpus scripts; the static
  complement of the dynamic dead-fault audit, covering Heisenbugs too.

Three *script-level* layers compose the per-statement facts:

* **Whole-script dataflow** (:mod:`repro.analysis.dataflow`) — per
  statement def/use sets over (table, column) cells, a def-use graph,
  backward slices, dead-statement/dead-column findings, and static
  minimization of a script to the slice its targets and fault triggers
  need (:func:`minimize_script`; :func:`repro.bugs.minimize_report`
  applies it to a corpus bug script), validated dynamically by the lint.
* **Dialect-divergence abstract interpretation**
  (:mod:`repro.analysis.divergence`) — per product pair, can these two
  products legitimately disagree on this statement?  ``AGREE_PROVEN`` /
  ``BENIGN_DIALECT`` / ``UNKNOWN`` verdicts consumed by the comparator
  (benign divergence is not suspicion) and the Table-4 pipeline.
* **Predicate abstraction** (:mod:`repro.analysis.predicates`) — the
  value lattice's interpreter (:mod:`repro.sqlengine.plan.lattice`:
  three-valued truth, nullability, interval and category facts, the
  same the divergence analysis reads) over schema-seeded environments;
  powers the static TLP partition oracle (:func:`tlp_partition`),
  rewrite-soundness certificates (:func:`certify_rewrites`), and
  dead-predicate lint findings.
* **Transaction-conflict analysis** (:mod:`repro.analysis.conflicts`) —
  pairwise statement commutativity over def/use cells
  (:func:`classify_pair`), whole-interleaving serializability
  verdicts with anomaly witnesses (:func:`analyze_sessions`), and the
  per-statement commuting certificates
  (:func:`commutes_with_footprint`) the served dispatcher uses to admit
  statements past an open transaction instead of parking them.

Everything exported here is a function of SQL text and schema (at most
a bare :class:`~repro.sqlengine.engine.Engine` certifies a rewrite),
and a whole-script analysis reads the script's one
:class:`~repro.dialects.translator.ScriptPieces`: it
runs no product, fault or middleware, so the package sits below all
three in the layer table (DESIGN.md section 3).
The one exception is :mod:`repro.analysis.lint`, which runs the corpus
through the study harness and is therefore imported on its own:
``python -m repro lint`` (:func:`repro.analysis.lint.run_lint`) gates
all of it in CI.
"""

from repro.analysis.conflicts import (
    AnomalyKind,
    AnomalyWitness,
    ConflictKind,
    InterleavingReport,
    PairConflict,
    SerializabilityVerdict,
    VerdictStatus,
    analyze_sessions,
    classify_pair,
    commutes_with_footprint,
    session_transactions,
)

from repro.analysis.dataflow import (
    DefUse,
    ScriptGraph,
    SliceResult,
    StatementNode,
    build_graph,
    minimize_script,
    statement_def_use,
)
from repro.analysis.divergence import (
    PROFILES,
    DivergenceAtom,
    DivergenceKind,
    DivergenceVerdict,
    SemanticProfile,
    StatementDivergence,
    analyze_divergence,
)
from repro.analysis.predicates import (
    DeadPredicateFinding,
    PredicateEnv,
    RewriteCertificate,
    StatementAbstraction,
    TlpCertificate,
    TlpTriple,
    abstract_truth,
    abstract_value,
    certify_rewrites,
    summarize_statement,
    tlp_partition,
)
from repro.analysis.reachability import (
    StaticContext,
    FaultReachability,
    script_contexts,
    server_contexts,
)
from repro.analysis.schema import ScriptSchema, TableInfo, ViewInfo
from repro.analysis.verdicts import (
    VOLATILE_FUNCTIONS,
    WRITE_KINDS,
    AccessVerdict,
    OrderVerdict,
    PortabilityVerdict,
    StatementVerdict,
    analyze_statement,
    predicted_hosts,
    script_portability,
    statement_portability,
)
from repro.sqlengine.plan.lattice import AbstractTruth, AbstractValue, Interval

__all__ = [
    "AbstractTruth",
    "AbstractValue",
    "AccessVerdict",
    "AnomalyKind",
    "AnomalyWitness",
    "ConflictKind",
    "DeadPredicateFinding",
    "DefUse",
    "DivergenceAtom",
    "DivergenceKind",
    "DivergenceVerdict",
    "FaultReachability",
    "InterleavingReport",
    "Interval",
    "PairConflict",
    "OrderVerdict",
    "PROFILES",
    "PortabilityVerdict",
    "PredicateEnv",
    "RewriteCertificate",
    "ScriptGraph",
    "ScriptSchema",
    "SemanticProfile",
    "SerializabilityVerdict",
    "SliceResult",
    "StatementAbstraction",
    "StatementDivergence",
    "StatementNode",
    "StatementVerdict",
    "StaticContext",
    "TableInfo",
    "TlpCertificate",
    "TlpTriple",
    "VOLATILE_FUNCTIONS",
    "VerdictStatus",
    "ViewInfo",
    "WRITE_KINDS",
    "abstract_truth",
    "abstract_value",
    "analyze_divergence",
    "analyze_sessions",
    "analyze_statement",
    "build_graph",
    "certify_rewrites",
    "classify_pair",
    "commutes_with_footprint",
    "minimize_script",
    "predicted_hosts",
    "script_contexts",
    "script_portability",
    "server_contexts",
    "session_transactions",
    "statement_def_use",
    "statement_portability",
    "summarize_statement",
    "tlp_partition",
]
