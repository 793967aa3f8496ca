"""Experiment D1 — what the script-level static layer buys.

Three measurements:

* **Slice-size reduction** — every corpus bug script minimized to its
  static trigger slice (:func:`repro.bugs.corpus.minimize_report`);
  reports the corpus-wide statement reduction (the lint separately
  proves every slice reproduces its ground-truth classification).
* **Analyzer throughput** — def/use extraction plus divergence
  analysis over every corpus statement, in statements per second: the
  script-level pass must stay cheap enough for the middleware hot path.
* **Comparator false-divergence ablation** — a four-version majority
  middleware with a *raw* (non-normalizing) comparator, exposed to
  strictly benign behaviours: profile-consistent dialect renderings
  (CHAR padding, DATE midnight timestamps, numeric scale — seeded with
  :class:`~repro.faults.effects.DialectRenderEffect` on exactly the
  replicas whose semantic profile carries the behaviour) and a benign
  scan reorder.  With the divergence analyzer on, every such
  disagreement must be labelled ``benign_dialect`` — zero
  ``fault_indicating`` labels, zero quarantines — while a genuine
  row-drop fault must still be labelled ``fault_indicating``.  The
  ablation (``static_analysis=False``) suspects replicas for behaving
  correctly.

Writes ``BENCH_dataflow.json``.  Run standalone for CI smoke
coverage::

    PYTHONPATH=src python benchmarks/bench_dataflow.py --smoke
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis import ScriptSchema  # noqa: E402
from repro.analysis.dataflow import statement_def_use  # noqa: E402
from repro.analysis.divergence import analyze_divergence  # noqa: E402
from repro.bugs import build_corpus, minimize_report  # noqa: E402
from repro.faults import (  # noqa: E402
    DialectRenderEffect,
    FaultSpec,
    RelationTrigger,
    RowDropEffect,
    ScanOrderEffect,
)
from repro.middleware import DiverseServer  # noqa: E402
from repro.servers import make_server  # noqa: E402
from repro.sqlengine.analysis import extract_traits  # noqa: E402
from repro.sqlengine.parser import parse_statement  # noqa: E402
from repro.study.runner import split_statements  # noqa: E402

QUERIES = 30

#: Which replica gets which rendering effect: exactly the products
#: whose semantic profile departs from the shared evaluator's output
#: (the evaluator pads CHAR, keeps DATE date-typed, preserves scale).
RENDER_FAULTS = {
    "MS": [
        FaultSpec(
            "D1-NOPAD",
            "renders CHAR columns without trailing blanks (MS semantics)",
            RelationTrigger(["ledger"], kind="select"),
            DialectRenderEffect("rstrip"),
        ),
        FaultSpec(
            "D1-DATETIME-MS",
            "renders DATE values as midnight timestamps",
            RelationTrigger(["ledger"], kind="select"),
            DialectRenderEffect("datetime"),
        ),
    ],
    "IB": [
        FaultSpec(
            "D1-DATETIME-IB",
            "renders DATE values as midnight timestamps",
            RelationTrigger(["ledger"], kind="select"),
            DialectRenderEffect("datetime"),
        ),
    ],
    "OR": [
        FaultSpec(
            "D1-DATETIME-OR",
            "renders DATE values as midnight timestamps",
            RelationTrigger(["ledger"], kind="select"),
            DialectRenderEffect("datetime"),
        ),
        FaultSpec(
            "D1-SCALE",
            "renders exact numerics at canonical scale (Oracle semantics)",
            RelationTrigger(["ledger"], kind="select"),
            DialectRenderEffect("strip-scale"),
        ),
    ],
}


def make_four_version(static_analysis, faults_by_server, *, normalize):
    server = DiverseServer(
        [
            make_server(key, faults_by_server.get(key, []))
            for key in ("IB", "PG", "OR", "MS")
        ],
        adjudication="majority",
        static_analysis=static_analysis,
        normalize=normalize,
    )
    server.execute(
        "CREATE TABLE ledger (id INTEGER PRIMARY KEY, amount NUMERIC(10,2), "
        "tag CHAR(8), booked DATE)"
    )
    for index in range(6):
        server.execute(
            f"INSERT INTO ledger (id, amount, tag, booked) VALUES "
            f"({index}, {index * 10}.50, 't{index % 3}', '2004-06-{index + 1:02d}')"
        )
    return server


def run_dialect_renderings(static_analysis, queries):
    """Benign profile-consistent renderings under a raw comparator."""
    server = make_four_version(
        static_analysis, RENDER_FAULTS, normalize=False
    )
    for _ in range(queries):
        server.execute("SELECT tag FROM ledger WHERE id < 3 ORDER BY id")
        server.execute("SELECT booked FROM ledger WHERE id = 1")
        server.execute("SELECT amount FROM ledger WHERE id = 1")
    return server


def run_scan_reorder(static_analysis, queries):
    """Benign physical reorder of an unordered SELECT."""
    reorder = FaultSpec(
        "D1-SCANORDER",
        "returns ledger scans in reverse physical order",
        RelationTrigger(["ledger"], kind="select"),
        ScanOrderEffect(),
    )
    server = make_four_version(static_analysis, {"IB": [reorder]}, normalize=True)
    for _ in range(queries):
        server.execute("SELECT id, amount FROM ledger WHERE amount > 5")
    return server


def run_genuine_fault(static_analysis, queries):
    """A real row-drop fault must stay fault-indicating."""
    drop = FaultSpec(
        "D1-ROWDROP",
        "silently drops the last row of ledger scans",
        RelationTrigger(["ledger"], kind="select"),
        RowDropEffect(),
    )
    server = make_four_version(static_analysis, {"IB": [drop]}, normalize=True)
    for _ in range(queries):
        server.execute("SELECT id, amount FROM ledger WHERE amount > 5 ORDER BY id")
    return server


def run_slice_reduction(corpus):
    start = time.perf_counter()
    total = kept = 0
    per_report = []
    for report in corpus:
        sliced = minimize_report(report)
        size = len(sliced.kept) + len(sliced.dropped)
        total += size
        kept += len(sliced.kept)
        per_report.append(sliced.reduction)
    elapsed = time.perf_counter() - start
    return {
        "scripts": len(per_report),
        "statements": total,
        "kept": kept,
        "reduction": (total - kept) / total,
        "max_reduction": max(per_report),
        "seconds": elapsed,
    }


def run_throughput(corpus):
    parsed = []
    for report in corpus:
        for sql in split_statements(report.script):
            stmt = parse_statement(sql)
            parsed.append((stmt, extract_traits(stmt)))
    start = time.perf_counter()
    schema = ScriptSchema()
    for stmt, traits in parsed:
        statement_def_use(stmt, schema, traits)
        analyze_divergence(stmt, schema, traits=traits)
        schema.observe(stmt)
    elapsed = time.perf_counter() - start
    return len(parsed), elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast run with assertions (CI gate)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_dataflow.json"),
                        help="where to write the JSON results")
    args = parser.parse_args(argv)
    queries = 5 if args.smoke else QUERIES

    corpus = build_corpus()
    slices = run_slice_reduction(corpus)
    print("=== D1a: static trigger slices across the corpus ===")
    print(f"{slices['scripts']} scripts, {slices['statements']} statements, "
          f"{slices['kept']} kept "
          f"({100 * slices['reduction']:.1f}% dropped, "
          f"best script {100 * slices['max_reduction']:.0f}%) "
          f"in {slices['seconds'] * 1000:.0f} ms")

    count, elapsed = run_throughput(corpus)
    print("\n=== D1b: def/use + divergence throughput ===")
    print(f"{count} corpus statements analyzed in {elapsed * 1000:.0f} ms "
          f"({count / elapsed:.0f} stmt/s)")

    print("\n=== D1c: comparator divergence triage (raw comparator, "
          "profile-consistent renderings) ===")
    print(f"{'config':<22} {'disagreements':>14} {'benign':>8} "
          f"{'fault-indicating':>17} {'quarantines':>12}")
    triage = {}
    for label, on in [("analyzer on", True), ("ablation (off)", False)]:
        stats = run_dialect_renderings(on, queries).stats
        triage[label] = stats
        print(f"{label:<22} {stats.disagreements_detected:>14} "
              f"{stats.benign_dialect_divergences:>8} "
              f"{stats.fault_indicating_divergences:>17} "
              f"{stats.quarantines:>12}")
    analyzed = triage["analyzer on"]
    ablated = triage["ablation (off)"]

    reorder_stats = run_scan_reorder(True, queries).stats
    print(f"{'scan reorder (on)':<22} {reorder_stats.disagreements_detected:>14} "
          f"{reorder_stats.benign_dialect_divergences:>8} "
          f"{reorder_stats.fault_indicating_divergences:>17} "
          f"{reorder_stats.quarantines:>12}")

    genuine_stats = run_genuine_fault(True, queries).stats
    print(f"{'row-drop fault (on)':<22} {genuine_stats.disagreements_detected:>14} "
          f"{genuine_stats.benign_dialect_divergences:>8} "
          f"{genuine_stats.fault_indicating_divergences:>17} "
          f"{genuine_stats.quarantines:>12}")

    payload = {
        "experiment": "whole-script dataflow + divergence triage (D1)",
        "mode": "smoke" if args.smoke else "full",
        "corpus_scripts": slices["scripts"],
        "corpus_statements": slices["statements"],
        "slice_reduction": round(slices["reduction"], 4),
        "analyzer_stmt_per_s": round(count / elapsed, 1),
        "benign_runs_fault_indicating": analyzed.fault_indicating_divergences
        + reorder_stats.fault_indicating_divergences,
        "benign_runs_benign_labels": analyzed.benign_dialect_divergences,
        "benign_runs_quarantines": analyzed.quarantines
        + reorder_stats.quarantines,
        "ablation_fault_indicating": ablated.fault_indicating_divergences,
        "genuine_fault_indicating": genuine_stats.fault_indicating_divergences,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    # The acceptance criterion: zero fault-indicating labels (and zero
    # suspicion) on fault-free runs that include benign dialect and
    # scan-order effects — while a genuine fault still indicts.
    assert analyzed.disagreements_detected > 0, "renderings must disagree raw"
    assert analyzed.fault_indicating_divergences == 0, \
        "benign dialect rendering labelled fault-indicating"
    assert analyzed.benign_dialect_divergences > 0
    assert analyzed.quarantines == 0, "replica suspected for correct behaviour"
    assert reorder_stats.disagreements_detected == 0, \
        "multiset voting must absorb benign reorder entirely"
    assert reorder_stats.quarantines == 0
    assert ablated.fault_indicating_divergences > 0, \
        "ablation must expose the hazard"
    assert genuine_stats.fault_indicating_divergences > 0, \
        "a genuine row-drop must stay fault-indicating"
    assert slices["reduction"] > 0.1, "slicing must drop a nontrivial share"
    if args.smoke:
        print("smoke assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
