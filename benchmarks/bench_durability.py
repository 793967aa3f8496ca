"""Experiment D — what durability costs and what rebuild buys.

Four measurements over the durability subsystem:

* **D1: recovery time vs WAL length** — commit W writes with no
  checkpoints, power-cut, and time the full-history redo.  Recovery
  work should scale linearly with the log.
* **D2: checkpoint-interval trade-off** — the same run under
  progressively tighter checkpoint cadences: each checkpoint costs a
  snapshot at write time but bounds the redo tail at recovery time
  (the classic ARIES dial, here in miniature).
* **D3: online rebuild under live TPC-C** — retire one replica of a
  durable three-version majority deployment and rebuild it from a
  healthy donor while transactions keep flowing.  The acceptance bar
  is the paper's availability argument made concrete: the rebuild
  completes, the re-admitted replica agrees with the quorum, and the
  live traffic sees **zero** fault-indicating adjudication rounds
  while it happens.  The measured MTTR (in supervisor ticks) sits next
  to the :class:`repro.reliability.RebuildPolicyModel` prediction.
* **D4: disk storm restart** — torn/lost/corrupt WAL appends on one
  replica's disk, then a whole-deployment power cut: restart recovery
  must restore a consistent majority and quarantine-and-heal the
  damaged minority, with no residual disagreement.

Writes ``BENCH_durability.json`` next to the repository root.

Run standalone for CI smoke coverage::

    PYTHONPATH=src python benchmarks/bench_durability.py --smoke
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

from repro.durability import (  # noqa: E402
    DurabilityManager,
    DurableSession,
    MemoryMedium,
    engine_state_signature,
)
from repro.faults import (  # noqa: E402
    ChecksumCorruptionEffect,
    Detectability,
    FailureKind,
    FaultSpec,
    LostFlushEffect,
    SqlPatternTrigger,
    TornWriteEffect,
)
from repro.middleware import DiverseServer, ReplicaState, ServerConfig  # noqa: E402
from repro.middleware.supervisor import REBUILD_BATCH, REBUILD_SEED_ROWS  # noqa: E402
from repro.reliability import RebuildPolicyModel  # noqa: E402
from repro.servers import make_server  # noqa: E402
from repro.workload import WorkloadRunner  # noqa: E402

WAL_LENGTHS = (200, 800, 3200)
SMOKE_WAL_LENGTHS = (60, 120)
CHECKPOINT_INTERVALS = (None, 256, 64, 16)
TPCC_TRANSACTIONS = 120
SMOKE_TPCC_TRANSACTIONS = 20


def committed_session(writes, checkpoint_interval=None):
    session = DurableSession(
        make_server("IB"), name="IB", checkpoint_interval=checkpoint_interval
    )
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(10,2))")
    for i in range(writes):
        session.execute(f"INSERT INTO t VALUES ({i}, {i}.25)")
    return session


def timed_recovery(session, checkpoint_interval=None):
    image = session.power_cut()
    started = time.perf_counter()
    recovered, report = DurableSession.resume(
        make_server("IB"), image, name="IB", checkpoint_interval=checkpoint_interval
    )
    elapsed = time.perf_counter() - started
    assert engine_state_signature(recovered.product.engine) == engine_state_signature(
        session.product.engine
    ), "recovery must reproduce the committed state"
    return elapsed, report


def run_d1(lengths):
    series = []
    for writes in lengths:
        session = committed_session(writes)
        elapsed, report = timed_recovery(session)
        assert report.redone == writes + 1
        series.append({
            "wal_records": writes + 1,
            "recovery_s": round(elapsed, 4),
            "records_per_s": round((writes + 1) / elapsed, 0),
        })
    return series


def run_d2(writes):
    series = []
    for interval in CHECKPOINT_INTERVALS:
        session = committed_session(writes, checkpoint_interval=interval)
        elapsed, report = timed_recovery(session, checkpoint_interval=interval)
        if interval is not None:
            assert report.redone <= interval, (
                f"interval {interval} left a redo tail of {report.redone}"
            )
        series.append({
            "checkpoint_interval": interval,
            "checkpoints_taken": (writes + 1) // interval if interval else 0,
            "redo_tail": report.redone,
            "recovery_s": round(elapsed, 4),
        })
    redo_tails = [entry["redo_tail"] for entry in series]
    assert redo_tails == sorted(redo_tails, reverse=True), (
        "tighter checkpoint cadence must not lengthen the redo tail"
    )
    return series


def storm_faults():
    return [
        FaultSpec(
            "DISK-TORN", "tears the WAL append of stock updates",
            SqlPatternTrigger(r"UPDATE\s+stock"), TornWriteEffect(),
            kind=FailureKind.STORAGE, detectability=Detectability.SELF_EVIDENT,
        ),
        FaultSpec(
            "DISK-LOST", "loses the WAL append of district updates",
            SqlPatternTrigger(r"UPDATE\s+district"), LostFlushEffect(),
            kind=FailureKind.STORAGE, detectability=Detectability.NON_SELF_EVIDENT,
        ),
        FaultSpec(
            "DISK-ROT", "bit rot on the WAL append of history inserts",
            SqlPatternTrigger(r"INSERT\s+INTO\s+history"), ChecksumCorruptionEffect(),
            kind=FailureKind.STORAGE, detectability=Detectability.SELF_EVIDENT,
        ),
    ]


def durable_tpcc_server(medium, ib_faults=()):
    return DiverseServer(
        [make_server("IB", ib_faults), make_server("OR"), make_server("MS")],
        config=ServerConfig(
            adjudication="majority",
            durability=DurabilityManager(medium, checkpoint_interval=64),
        ),
    )


def run_d3(transactions):
    server = durable_tpcc_server(MemoryMedium())
    runner = WorkloadRunner(server, seed=7)
    runner.setup()
    runner.run(transactions)

    ib = server.replica("IB")
    donor_rows = server.replica("OR").product.engine.storage.row_count()
    server.supervisor.retire(ib)
    started_at = server.clock.now
    assert server.rebuild("IB")

    live = WorkloadRunner(server, seed=11)
    metrics = live.run(transactions)
    server.drive_rebuilds()
    mttr_ticks = ib.health.last_rebuild_duration

    assert ib.state is ReplicaState.ACTIVE, "rebuild must re-admit the replica"
    assert server.stats.rebuilds_completed == 1
    assert metrics.detected_disagreements == 0, (
        "a rebuild must not surface fault-indicating adjudication rounds"
    )
    assert server.verify_consistency() == {}, "re-admitted replica must agree"

    model = RebuildPolicyModel(
        seed_rows=donor_rows,
        seed_rate=REBUILD_SEED_ROWS,   # rows installed per tick
        replay_rate=REBUILD_BATCH,     # delta statements per tick
        write_arrival_rate=min(
            REBUILD_BATCH - 1,
            server.stats.writes / max(server.clock.now - started_at, 1.0),
        ),
        verify_cost=1.0,
    )
    return {
        "live_transactions": metrics.transactions,
        "donor_rows": donor_rows,
        "delta_replayed": server.stats.rebuild_replayed_statements,
        "mttr_ticks": mttr_ticks,
        "model_mttr_ticks": round(model.expected_rebuild_time(), 1),
        "disagreements_during_rebuild": metrics.detected_disagreements,
    }


def run_d4(transactions):
    medium = MemoryMedium()
    server = durable_tpcc_server(medium, ib_faults=storm_faults())
    runner = WorkloadRunner(server, seed=7)
    runner.setup()
    runner.run(transactions)
    stats = server.stats
    damage = {
        "wal_records": stats.wal_records,
        "torn": stats.wal_torn_writes,
        "lost": stats.wal_lost_flushes,
        "corrupt": stats.wal_corruptions,
    }
    assert damage["torn"] + damage["lost"] + damage["corrupt"] > 0, (
        "the storm must actually damage the log"
    )

    restarted = durable_tpcc_server(medium.clone(), ib_faults=storm_faults())
    started = time.perf_counter()
    outcome = restarted.durability.recover_server()
    elapsed = time.perf_counter() - started
    assert outcome.residual_disagreements == {}, "restart must re-converge"
    for healed in outcome.healed:
        restarted.recover(healed, force=True)
    assert restarted.verify_consistency() == {}
    return {
        **damage,
        "write_log_restored": outcome.write_log,
        "healed": outcome.healed,
        "crashed": outcome.crashed,
        "recovery_s": round(elapsed, 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--out", default=str(ROOT / "BENCH_durability.json"),
                        help="where to write the JSON results")
    args = parser.parse_args(argv)
    lengths = SMOKE_WAL_LENGTHS if args.smoke else WAL_LENGTHS
    transactions = SMOKE_TPCC_TRANSACTIONS if args.smoke else TPCC_TRANSACTIONS

    d1 = run_d1(lengths)
    print("=== D1: recovery time vs WAL length (no checkpoints) ===")
    print(f"{'records':>8} {'recovery s':>11} {'records/s':>10}")
    for entry in d1:
        print(f"{entry['wal_records']:>8} {entry['recovery_s']:>11.4f} "
              f"{entry['records_per_s']:>10.0f}")

    d2 = run_d2(lengths[-1])
    print("\n=== D2: checkpoint-interval trade-off "
          f"({lengths[-1] + 1} committed writes) ===")
    print(f"{'interval':>8} {'ckpts':>6} {'redo tail':>10} {'recovery s':>11}")
    for entry in d2:
        label = entry["checkpoint_interval"] or "none"
        print(f"{label!s:>8} {entry['checkpoints_taken']:>6} "
              f"{entry['redo_tail']:>10} {entry['recovery_s']:>11.4f}")

    d3 = run_d3(transactions)
    print("\n=== D3: online rebuild under live TPC-C ===")
    print(f"donor rows={d3['donor_rows']} delta replayed={d3['delta_replayed']} "
          f"MTTR={d3['mttr_ticks']} tick(s) "
          f"(model: {d3['model_mttr_ticks']})")
    print(f"live transactions={d3['live_transactions']} "
          f"fault-indicating adjudication rounds="
          f"{d3['disagreements_during_rebuild']}")

    d4 = run_d4(transactions)
    print("\n=== D4: disk storm restart ===")
    print(f"WAL records={d4['wal_records']} torn={d4['torn']} "
          f"lost={d4['lost']} corrupt={d4['corrupt']}")
    print(f"restored write log={d4['write_log_restored']} "
          f"healed={d4['healed'] or 'none'} in {d4['recovery_s']:.4f}s")

    payload = {
        "experiment": "durability and online rebuild (D)",
        "mode": "smoke" if args.smoke else "full",
        "d1_recovery_vs_wal_length": d1,
        "d2_checkpoint_tradeoff": d2,
        "d3_online_rebuild": d3,
        "d4_disk_storm": d4,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if args.smoke:
        print("smoke assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
