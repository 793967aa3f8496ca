"""Durability subsystem: WAL, checkpoints, recovery, rebuild, bank."""

import dataclasses
import json
from decimal import Decimal

import pytest

from repro import records
from repro.dialects.translator import translate_script
from repro.durability import (
    CheckpointStore,
    DurabilityManager,
    DurableSession,
    FileMedium,
    MemoryMedium,
    WriteAheadLog,
    build_checkpoint,
    classify_repro,
    encode_record,
    engine_state_signature,
    scan_records,
    storage_fault_bank,
    trigger_slice_signature,
)
from repro.faults import (
    ChecksumCorruptionEffect,
    CrashEffect,
    Detectability,
    FailureKind,
    FaultSpec,
    LostFlushEffect,
    RecoveryTrigger,
    SqlPatternTrigger,
    TornWriteEffect,
)
from repro.dialects.translator import ScriptPieces
from repro.faults.audit import dead_repro_faults
from repro.middleware import (
    DiverseServer,
    MiddlewareStats,
    ReplicaState,
    ServerConfig,
)
from repro.servers import make_server
from repro.sqlengine.engine import executable_text
from repro.workload import WorkloadRunner


def wal_on(medium, name="t/wal"):
    return WriteAheadLog(medium, name)


class TestWal:
    # Torn, rotted and oversize records (and damaged checkpoint blobs)
    # are pinned in the corruption matrix of tests/test_records.py.

    def test_append_scan_roundtrip(self):
        wal = wal_on(MemoryMedium())
        wal.append("INSERT INTO t VALUES (1)")
        wal.append("UPDATE t SET x = 2")
        scan = wal.scan()
        assert scan.clean
        assert [r.sql for r in scan.records] == [
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET x = 2",
        ]
        assert [r.lsn for r in scan.records] == [0, 1]

    def test_next_lsn_recomputed_from_medium(self):
        medium = MemoryMedium()
        wal_on(medium).append("A")
        wal_on(medium).append("B")
        assert [r.lsn for r in wal_on(medium).scan().records] == [0, 1]

    def test_lost_flush_leaves_detectable_gap(self):
        wal = wal_on(MemoryMedium())
        wal.append("A")
        wal.append("B", mutate=lambda data: None)  # lost flush
        wal.append("C")
        scan = wal.scan()
        assert scan.stopped == "lsn-gap"
        assert [r.sql for r in scan.records] == ["A"]

    def test_truncate_to_valid_is_idempotent(self):
        medium = MemoryMedium()
        wal = wal_on(medium)
        wal.append("A")
        wal.append("B")
        medium.corrupt("t/wal", len(encode_record(0, "A")) + 9)
        assert wal.truncate_to_valid() > 0
        assert wal.scan().clean
        assert wal.truncate_to_valid() == 0
        assert wal.next_lsn == 1


class TestCheckpoint:
    def test_store_save_load_prune(self):
        medium = MemoryMedium()
        store = CheckpointStore(medium, "IB")
        product = make_server("IB")
        product.execute("CREATE TABLE t (x INT)")
        names = [
            store.save(build_checkpoint(product, lsn=i, ddl=[]))
            for i in range(3)
        ]
        kept = medium.names("IB/")
        assert len(kept) == 2
        assert names[0] not in kept
        name, payload = store.load_all()[0]
        assert name == names[-1]
        assert payload["lsn"] == 2


class TestRecovery:
    def script_session(self, interval=None):
        session = DurableSession(make_server("IB"), checkpoint_interval=interval)
        session.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8,2));\n"
            "INSERT INTO t VALUES (1, 10.00);\n"
            "INSERT INTO t VALUES (2, 20.00);\n"
            "UPDATE t SET v = 15.50 WHERE id = 1;"
        )
        return session

    def test_full_redo_without_checkpoint(self):
        session = self.script_session()
        expected = engine_state_signature(session.product.engine)
        recovered, report = DurableSession.resume(make_server("IB"), session.power_cut())
        assert report.checkpoint is None
        assert report.redone == 4
        assert engine_state_signature(recovered.product.engine) == expected

    def test_checkpoint_plus_tail_redo(self):
        session = self.script_session(interval=2)
        expected = engine_state_signature(session.product.engine)
        recovered, report = DurableSession.resume(
            make_server("IB"), session.power_cut(), checkpoint_interval=2
        )
        assert report.checkpoint is not None
        assert report.watermark > 0
        assert report.redone == 4 - report.watermark
        assert engine_state_signature(recovered.product.engine) == expected
        assert len(recovered.store.ddl_history) == 1
        assert recovered.store.ddl_history[0].startswith("CREATE TABLE t")

    def test_checkpoint_beyond_salvaged_prefix_rejected(self):
        session = self.script_session(interval=4)  # checkpoint at lsn 4
        disk = session.power_cut()
        # Tear the log back to one record: the checkpoint's watermark
        # now vouches for history the log cannot.
        disk.truncate(f"{session.name}/wal", len(encode_record(0, session.store.wal.scan().records[0].sql)))
        recovered, report = DurableSession.resume(
            make_server("IB"), disk, name=session.name, checkpoint_interval=4
        )
        assert report.checkpoint is None
        assert report.checkpoints_skipped >= 1
        assert report.redone == 1
        # Only the CREATE TABLE survives.
        assert recovered.product.engine.storage.get_optional("t").snapshot() == []

    def test_a_checkpoint_row_of_the_wrong_width_falls_back(self):
        session = self.script_session()
        older = session.store.checkpoint(session.product)
        (_, payload), = session.store.checkpoints.load_all()
        payload["tables"][0]["rows"].append([3])  # t is two columns wide
        session.store.checkpoints.save(payload)
        recovered, report = DurableSession.resume(make_server("IB"), session.power_cut())
        assert report.checkpoint == older
        assert report.checkpoints_skipped == 1
        assert "row width 1 != table width 2" in report.warnings[0]
        assert recovered.product.state_signature() == session.product.state_signature()

    @pytest.mark.parametrize(
        "payload",
        [
            {"lsn": "x"},
            {"lsn": None},
            {"lsn": 0, "tables": [5]},
            {"lsn": 0, "ddl": 7},
            {"lsn": 0, "tables": [{"name": "t", "columns": 1, "rows": 3}]},
        ],
    )
    def test_a_checksummed_checkpoint_of_the_wrong_shape_falls_back_to_redo(self, payload):
        session = DurableSession(make_server("IB"))
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1)")
        disk = session.power_cut()
        disk.write("IB/ckpt-00000000", records.pack(json.dumps(payload).encode("utf-8")))
        recovered, report = DurableSession.resume(make_server("IB"), disk)
        assert report.checkpoint is None
        assert report.redone == 2
        assert recovered.product.state_signature() == session.product.state_signature()

    def test_the_older_layouts_with_generation_fields_still_recover(self):
        """WAL records with a ``"gen"`` field and a checkpoint with
        ``generation`` and ``taken_at``, as the logs once were written:
        the readers ignore keys they do not name."""
        medium = MemoryMedium()
        ddl = "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
        log = [ddl, "INSERT INTO t VALUES (1, 10)", "INSERT INTO t VALUES (2, 20)"]
        for lsn, sql in enumerate(log):
            record = {"lsn": lsn, "gen": 1, "sql": sql}
            medium.append("IB/wal", records.pack(json.dumps(record).encode("utf-8")))
        checkpoint = {
            "lsn": 2,
            "generation": 1,
            "taken_at": 7.0,
            "ddl": [ddl],
            "tables": [{"name": "t", "columns": 2, "rows": [[1, 10]]}],
        }
        medium.write("IB/ckpt-00000000", records.pack(json.dumps(checkpoint).encode("utf-8")))
        recovered, report = DurableSession.resume(make_server("IB"), medium)
        assert report.checkpoint == "IB/ckpt-00000000"
        assert (report.wal_records, report.redone) == (3, 1)
        result = recovered.product.execute("SELECT id, v FROM t ORDER BY id")
        assert result.rows == [(1, 10), (2, 20)]

    def test_open_transaction_rolled_back(self):
        session = self.script_session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (3, 30.00)")
        committed_rows = 2  # id 1 and 2; the in-flight insert must vanish
        recovered, report = DurableSession.resume(make_server("IB"), session.power_cut())
        assert report.aborted_transaction
        rows = recovered.product.engine.storage.get_optional("t").snapshot()
        assert len(rows) == committed_rows

    def test_recovery_idempotent(self):
        session = self.script_session(interval=2)
        disk = session.power_cut()
        disk.corrupt(f"{session.name}/wal", disk.size(f"{session.name}/wal") - 4)
        recovered, _ = DurableSession.resume(
            make_server("IB"), disk, name=session.name, checkpoint_interval=2
        )
        first = engine_state_signature(recovered.product.engine)
        again, report = DurableSession.resume(
            make_server("IB"), recovered.power_cut(), name=session.name,
            checkpoint_interval=2,
        )
        assert engine_state_signature(again.product.engine) == first
        assert report.stopped is None  # the first recovery truncated

    def test_checkpoint_interval_bounds_the_redo_tail(self):
        # The ARIES dial in miniature: each checkpoint costs a snapshot
        # at write time and bounds the redo tail at recovery time.
        tails = []
        for interval in (None, 256, 64, 16):
            session = DurableSession(make_server("IB"), checkpoint_interval=interval)
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(10,2))")
            for i in range(120):
                session.execute(f"INSERT INTO t VALUES ({i}, {i}.25)")
            recovered, report = DurableSession.resume(
                make_server("IB"), session.power_cut(), checkpoint_interval=interval
            )
            assert engine_state_signature(recovered.product.engine) == (
                engine_state_signature(session.product.engine)
            )
            assert report.redone <= (interval or 121)
            tails.append(report.redone)
        assert tails[0] == 121  # no checkpoint: the whole log is redone
        assert tails == sorted(tails, reverse=True)


class TestStorageEffects:
    def test_torn_write_keeps_proper_prefix(self):
        data = bytes(range(100))
        torn = TornWriteEffect(keep_fraction=0.5).apply_storage(None, data)
        assert torn == data[:50]
        assert TornWriteEffect(keep_fraction=0.0).apply_storage(None, data) == data[:1]
        assert len(TornWriteEffect(keep_fraction=1.0).apply_storage(None, data)) == 99

    def test_lost_flush_drops_record(self):
        assert LostFlushEffect().apply_storage(None, b"abc") is None

    def test_checksum_corruption_flips_payload_byte(self):
        data = encode_record(0, "SELECT 1")
        rotted = ChecksumCorruptionEffect(offset=2, xor=0x10).apply_storage(None, data)
        assert rotted != data
        assert len(rotted) == len(data)
        assert rotted[:8] == data[:8]  # header untouched: payload rot
        assert scan_records(rotted).stopped == "checksum-mismatch"

    def test_injector_storage_phase_fires_and_records(self):
        fault = FaultSpec(
            "T-STOR", "tears inserts",
            SqlPatternTrigger(r"INSERT\s+INTO\s+t\b"), TornWriteEffect(),
            kind=FailureKind.STORAGE,
            detectability=Detectability.SELF_EVIDENT,
        )
        session = DurableSession(make_server("IB", [fault]))
        session.execute("CREATE TABLE t (x INT)")
        session.execute("INSERT INTO t VALUES (1)")
        assert session.storage_fault_log == [("INSERT INTO t VALUES (1)", "torn")]
        assert "T-STOR" in session.product.fired_faults()
        scan = session.store.wal.scan()
        assert scan.stopped in ("torn-payload", "checksum-mismatch")
        assert [r.sql for r in scan.records] == ["CREATE TABLE t (x INT)"]

    def test_storage_fault_does_not_disturb_service_results(self):
        fault = FaultSpec(
            "T-LOST", "loses inserts",
            SqlPatternTrigger(r"INSERT"), LostFlushEffect(),
            kind=FailureKind.STORAGE,
        )
        session = DurableSession(make_server("IB", [fault]))
        session.execute("CREATE TABLE t (x INT)")
        session.execute("INSERT INTO t VALUES (1)")
        result = session.execute("SELECT x FROM t")
        assert result.rows == [(1,)]  # in-service state is undamaged


class TestFileMedium:
    def test_roundtrip_and_names(self, tmp_path):
        medium = FileMedium(str(tmp_path / "disk"))
        medium.append("a/wal", b"xy")
        medium.append("a/wal", b"z")
        medium.write("a/ckpt-1", b"snap")
        assert medium.read("a/wal") == b"xyz"
        assert medium.names("a/") == ["a/ckpt-1", "a/wal"]
        medium.truncate("a/wal", 1)
        assert medium.read("a/wal") == b"x"
        medium.delete("a/ckpt-1")
        assert medium.names() == ["a/wal"]
        assert medium.read("missing") == b""

    def test_append_and_write_return_only_after_fsync(self, tmp_path, monkeypatch):
        import os

        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        medium = FileMedium(str(tmp_path / "disk"))
        medium.append("a/wal", b"record")
        assert synced == ["wal"]
        medium.write("a/ckpt-1", b"snap")
        # The temp file before the rename, the directory after it.
        assert synced == ["wal", "ckpt-1.tmp", "a"]
        assert medium.read("a/ckpt-1") == b"snap"

    def test_durable_session_survives_real_files(self, tmp_path):
        medium = FileMedium(str(tmp_path / "disk"))
        session = DurableSession(make_server("IB"), medium, name="IB",
                                 checkpoint_interval=2)
        session.execute_script(
            "CREATE TABLE t (x INT, v DECIMAL(8,2));\n"
            "INSERT INTO t VALUES (1, 10.25);\n"
            "INSERT INTO t VALUES (2, 20.50);"
        )
        assert session.product.engine.storage.get_optional("t").snapshot()
        expected = engine_state_signature(session.product.engine)
        fresh = FileMedium(str(tmp_path / "disk"))  # a new process
        recovered, report = DurableSession.resume(
            make_server("IB"), fresh, name="IB", checkpoint_interval=2
        )
        assert engine_state_signature(recovered.product.engine) == expected
        assert report.wal_records == 3


def durable_server(medium, *, ib_faults=(), policy=None, interval=8):
    return DiverseServer(
        [make_server("IB", ib_faults), make_server("OR"), make_server("MS")],
        config=ServerConfig(
            adjudication="majority",
            policy=policy,
            durability=DurabilityManager(medium, checkpoint_interval=interval),
        ),
    )


SCRIPT = (
    "CREATE TABLE t (id INT PRIMARY KEY, v INT);\n"
    + "\n".join(f"INSERT INTO t VALUES ({i}, {i * 10});" for i in range(1, 13))
)


def run_script(server, sql):
    from repro.study.runner import split_statements

    for statement in split_statements(sql):
        server.execute(statement)


class TestOneStorePath:
    def test_session_and_single_replica_manager_leave_identical_bytes(self):
        statements = [
            "CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL (8, 2), d DATE)",
            *(
                f"INSERT INTO t VALUES ({i}, {i}.25, '2004-06-{i:02d}')"
                for i in range(1, 8)
            ),
            "UPDATE t SET v = 99.50 WHERE id = 3",
            "CREATE INDEX t_v ON t (v)",
            "DELETE FROM t WHERE id = 5",
        ]
        # The manager logs each statement in the replica's dialect; these
        # are spelled the way the IB translation renders them.
        assert [translate_script(sql, "IB") for sql in statements] == statements
        session = DurableSession(make_server("IB"), checkpoint_interval=4)
        managed = MemoryMedium()
        server = DiverseServer(
            [make_server("IB")],
            config=ServerConfig(
                adjudication="primary",
                durability=DurabilityManager(managed, checkpoint_interval=4),
            ),
        )
        for sql in statements:
            session.execute(sql)
            server.execute(sql)
        names = session.medium.names("IB/")
        assert any("/ckpt-" in name for name in names) and "IB/wal" in names
        assert managed.names("IB/") == names
        for name in names:
            assert managed.read(name) == session.medium.read(name), name


class TestDurabilityManager:
    def test_logs_shared_and_per_replica(self):
        medium = MemoryMedium()
        server = durable_server(medium)
        run_script(server, SCRIPT)
        manager = server.durability
        assert len(manager._shared.scan().records) == 13
        for key in ("IB", "OR", "MS"):
            assert len(manager.store(key).wal.scan().records) == 13
        assert server.stats.wal_records == 39
        assert server.stats.durable_checkpoints >= 3

    def test_restart_recovers_all_replicas(self):
        medium = MemoryMedium()
        server = durable_server(medium)
        run_script(server, SCRIPT)
        expected = engine_state_signature(server.replica("IB").product.engine)

        restarted = durable_server(medium.clone())
        outcome = restarted.durability.recover_server()
        assert outcome.write_log == 13
        assert outcome.crashed == [] and outcome.healed == []
        assert outcome.residual_disagreements == {}
        for key in ("IB", "OR", "MS"):
            replica = restarted.replica(key)
            assert replica.state is ReplicaState.ACTIVE
            assert engine_state_signature(replica.product.engine) == expected
        # Service continues: the restored write log feeds adjudication.
        restarted.execute("INSERT INTO t VALUES (99, 990)")
        assert restarted.stats.durable_recoveries == 1

    def test_minority_damage_healed_by_majority(self):
        medium = MemoryMedium()
        server = durable_server(medium, interval=None)
        run_script(server, SCRIPT)
        image = medium.clone()
        # Chew a hole early in IB's WAL: its recovery loses rows.
        image.corrupt("IB/wal", 60, xor=0x55)

        restarted = durable_server(image)
        outcome = restarted.durability.recover_server()
        assert outcome.healed == ["IB"]
        # Supervisor replay repairs IB from the restored write log.
        restarted.recover("IB", force=True)
        assert restarted.verify_consistency() == {}

    def test_disk_storm_restart_heals_the_damaged_minority(self):
        def storm():
            return [
                FaultSpec(
                    "DISK-TORN", "tears the WAL append of stock updates",
                    SqlPatternTrigger(r"UPDATE\s+stock"), TornWriteEffect(),
                    kind=FailureKind.STORAGE,
                ),
                FaultSpec(
                    "DISK-LOST", "loses the WAL append of district updates",
                    SqlPatternTrigger(r"UPDATE\s+district"), LostFlushEffect(),
                    kind=FailureKind.STORAGE,
                ),
                FaultSpec(
                    "DISK-ROT", "bit rot on the WAL append of history inserts",
                    SqlPatternTrigger(r"INSERT\s+INTO\s+history"), ChecksumCorruptionEffect(),
                    kind=FailureKind.STORAGE,
                ),
            ]

        medium = MemoryMedium()
        server = durable_server(medium, ib_faults=storm(), interval=64)
        runner = WorkloadRunner(server, seed=7)
        runner.setup()
        runner.run(20)
        stats = server.stats
        assert stats.wal_torn_writes + stats.wal_lost_flushes + stats.wal_corruptions > 0

        # Whole-deployment power cut: the majority restores a consistent
        # state and the damaged minority is quarantined and healed.
        restarted = durable_server(medium.clone(), ib_faults=storm(), interval=64)
        outcome = restarted.durability.recover_server()
        assert outcome.residual_disagreements == {}
        for key in outcome.healed:
            restarted.recover(key, force=True)
        assert restarted.verify_consistency() == {}

    def test_rebuild_under_live_tpcc_sees_no_disagreement(self):
        # The catch-up replays multi-table UPDATE / INSERT / DELETE
        # traffic that arrived while the donor image was being copied.
        server = durable_server(MemoryMedium(), interval=64)
        runner = WorkloadRunner(server, seed=7)
        runner.setup()
        runner.run(20)
        ib = server.replica("IB")
        server.supervisor.retire(ib)
        assert server.rebuild("IB")

        metrics = WorkloadRunner(server, seed=11).run(20)
        server.drive_rebuilds()
        assert ib.state is ReplicaState.ACTIVE
        assert server.stats.rebuilds_completed == 1
        assert server.stats.rebuild_replayed_statements > 0
        assert metrics.transactions == 20
        assert metrics.detected_disagreements == 0
        assert server.verify_consistency() == {}

    def test_bound_write_logs_the_text_replay_runs(self):
        # Supervisor replay runs the translation of the bound text, where
        # ``-5`` renders as ``- 5``: a record spliced from ``render_param``
        # values would log text that replay never runs.  Lifted literal
        # writes (and a ``-7`` that runs on its own text's handle) log
        # the translation of the text as sent.
        server = DiverseServer(
            [make_server(key) for key in ("IB", "PG", "OR", "MS")],
            config=ServerConfig(durability=DurabilityManager(MemoryMedium())),
        )
        server.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, f FLOAT, "
            "d DECIMAL(8, 2), s VARCHAR(20))"
        )
        insert = server.prepare("INSERT INTO t VALUES (?, ?, ?, ?, ?)")
        update = server.prepare("UPDATE t SET n = ?, f = ? WHERE id = ?")
        calls = [
            (insert.execute, (1, -5, -2.5, Decimal("-3.25"), "it's")),
            (insert.execute, (2, 7, 1.5e-7, Decimal("12.50"), 'say "hi"')),
            (insert.execute, (3, -1, 6.02e23, Decimal("0.01"), "")),
            (update.execute, (-40, -1e-300, 2)),
            (server.execute, "INSERT INTO t VALUES (4, 5, 2.5E-7, 3.25, 'it''s')"),
            (server.execute, "INSERT  INTO t(id, s) VALUES (5,'--x')"),
            (server.execute, "UPDATE t SET f = 1e3, s = 'y' WHERE id = 4"),
            (server.execute, "UPDATE t SET n = -7 WHERE id = 5"),
            (server.execute, "DELETE FROM t WHERE id = 3"),
        ]
        for run, argument in calls:
            run(argument)
            bound_sql = server.write_log[-1]
            for replica in server.replicas:
                logged = server.durability.store(replica.key).wal.scan().records[-1].sql
                replayed = server.pipeline.translation(bound_sql, replica.product.descriptor)
                assert logged == executable_text(replayed), (replica.key, bound_sql)
        # The literal INSERT ran on its shape, the ``-7`` on its own text.
        assert calls[4][1] not in server._prepared
        assert calls[7][1] in server._prepared
        assert server.stats.wal_records == 4 * (1 + len(calls))

    def test_bound_write_reaches_a_quarantined_replica_wal(self):
        # IB crashes replaying the CREATE, so it stays quarantined while
        # the bound write commits: it never ran the call, and its record
        # is still the translation of the bound text.
        relapse = FaultSpec(
            "F-RELAPSE",
            "crashes replaying the schema",
            RecoveryTrigger() & SqlPatternTrigger(r"CREATE"),
            CrashEffect("recovery deadlock"),
        )
        server = durable_server(MemoryMedium(), ib_faults=[relapse], interval=None)
        server.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, d DECIMAL(8, 2))")
        ib = server.replica("IB")
        server.supervisor.quarantine(ib)
        insert = server.prepare("INSERT INTO t VALUES (?, ?, ?)")
        insert.execute((1, -5, Decimal("-0.50")))
        assert ib.state is not ReplicaState.ACTIVE
        bound_sql = server.write_log[-1]
        assert bound_sql == "INSERT INTO t VALUES (1, -5, -0.50)"
        for replica in server.replicas:
            (_, record) = server.durability.store(replica.key).wal.scan().records
            assert record.sql == translate_script(bound_sql, replica.key)
            assert record.sql == "INSERT INTO t VALUES (1, - 5, - 0.50)"
        assert server.stats.wal_records == 3 * 2

    def test_quarantined_replica_wal_stays_current(self):
        medium = MemoryMedium()
        server = durable_server(medium, interval=None)
        run_script(server, SCRIPT)
        ib = server.replica("IB")
        server.supervisor.quarantine(ib)
        server.execute("INSERT INTO t VALUES (50, 500)")
        # The write reached IB's WAL even though IB did not serve it.
        assert len(server.durability.store("IB").wal.scan().records) == 14


#: A write Interbase 6 refuses (it has no MOD).  The middleware logs no
#: record a replica refused, so only a foreign or hand-made log holds one.
REFUSED = "UPDATE t SET a = MOD(a, 2)"


class TestRestartRecoveryMeetsARefusal:
    """A dialect refusal (``FeatureNotSupported``, not a ``SqlError``)
    during restart recovery is skipped with a warning, not raised."""

    def session(self):
        session = DurableSession(make_server("IB"))
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (3)")
        return session

    def test_resume_skips_a_refused_record(self):
        session = self.session()
        session.store.wal.append(REFUSED)
        recovered, report = DurableSession.resume(make_server("IB"), session.power_cut())
        assert report.redone == 3
        assert [w for w in report.warnings if "fn.MOD" in w] == [
            "WAL record 2 refused: feature 'fn.MOD' is not supported by server 'IB'"
        ]
        assert report.ddl_history == ["CREATE TABLE t (a INT)"]
        assert recovered.product.execute("SELECT a FROM t").rows == [(3,)]

    def test_recover_server_skips_a_refused_record(self):
        medium = MemoryMedium()
        server = durable_server(medium)
        server.execute("CREATE TABLE t (a INT)")
        server.execute("INSERT INTO t VALUES (3)")
        server.durability.store("IB").wal.append(REFUSED)
        restarted = durable_server(medium.clone())
        outcome = restarted.durability.recover_server()
        assert outcome.crashed == [] and outcome.healed == []
        assert outcome.residual_disagreements == {}
        assert any("fn.MOD" in w for w in outcome.reports["IB"].warnings)
        assert restarted.execute("SELECT a FROM t").rows == [(3,)]

    def test_a_checkpoint_whose_ddl_is_refused_falls_back_to_the_older_one(self):
        session = self.session()
        older = session.store.checkpoint(session.product)
        (_, payload), = session.store.checkpoints.load_all()
        payload["ddl"].append("CREATE VIEW v AS SELECT MOD(a, 2) AS m FROM t")
        session.store.checkpoints.save(payload)
        recovered, report = DurableSession.resume(make_server("IB"), session.power_cut())
        assert report.checkpoint == older
        assert report.checkpoints_skipped == 1
        assert "DDL refused" in report.warnings[0]
        assert recovered.product.state_signature() == session.product.state_signature()


class TestOnlineRebuild:
    def test_rebuild_readmits_retired_replica(self):
        medium = MemoryMedium()
        server = durable_server(medium)
        run_script(server, SCRIPT)
        ib = server.replica("IB")
        server.supervisor.retire(ib)
        assert ib.state is ReplicaState.RETIRED

        assert server.rebuild("IB")
        assert ib.state is ReplicaState.REBUILDING
        # Live traffic keeps flowing while the rebuild advances.
        for i in range(60, 70):
            server.execute(f"INSERT INTO t VALUES ({i}, {i})")
        server.drive_rebuilds()
        assert ib.state is ReplicaState.ACTIVE
        assert server.stats.rebuilds_completed == 1
        assert ib.health.rebuilds == 1
        # The live traffic never saw a disagreement while it happened.
        assert server.stats.disagreements_detected == 0
        assert server.verify_consistency() == {}
        # Re-baseline checkpoint was written on admission.
        assert server.durability.store("IB").checkpoints.load_all()

    def test_rebuild_needs_live_donor(self):
        server = DiverseServer(
            [make_server("IB"), make_server("OR")],
            config=ServerConfig(adjudication="compare",
                                durability=DurabilityManager(MemoryMedium())),
        )
        server.execute("CREATE TABLE t (x INT)")
        for replica in server.replicas:
            server.supervisor.retire(replica)
        assert not server.rebuild("IB")


class TestStorageBank:
    def test_every_banked_repro_matches_ground_truth(self):
        for report in storage_fault_bank():
            observed = classify_repro(report)
            assert report.matches(observed), (report.bug_id, observed)

    def test_bank_covers_all_three_classes(self):
        assert {r.expected_bucket for r in storage_fault_bank()} == {
            "torn", "lost", "corrupt",
        }

    def test_trigger_slices_unique_and_minimal(self):
        bank = storage_fault_bank()
        signatures = {trigger_slice_signature(r) for r in bank}
        assert len(signatures) == len(bank)
        for report in bank:
            assert report.minimized().dropped, report.bug_id

    def test_dead_storage_fault_detected(self):
        assert dead_repro_faults(
            (report, [ScriptPieces(report.script)]) for report in storage_fault_bank()
        ) == []
        broken = storage_fault_bank()[0]
        dead = type(broken)(
            **{**broken.__dict__,
               "fault": FaultSpec(
                   "STOR-DEAD", "matches nothing",
                   SqlPatternTrigger(r"DELETE\s+FROM\s+nowhere"),
                   TornWriteEffect(), kind=FailureKind.STORAGE,
               )}
        )
        entries = dead_repro_faults([(dead, [ScriptPieces(dead.script)])])
        assert [entry.fault_id for entry in entries] == ["STOR-DEAD"]


class TestDiskstormCli:
    def test_smoke(self, capsys):
        from repro.__main__ import main

        assert main(["diskstorm", "6"]) == 0
        out = capsys.readouterr().out
        assert "phase 2 -- power cut + restart" in out
        assert "IB final state: active" in out

    def test_an_inconsistent_ending_exits_1(self, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setattr(
            DiverseServer, "verify_consistency", lambda self: {"stock": ["IB"]}
        )
        assert main(["diskstorm", "6"]) == 1
        assert "consistency after rebuild: {'stock': ['IB']}" in capsys.readouterr().out


def test_durability_counters_present():
    """The rebuild and durability counters exist (guards against a
    rename breaking the telemetry consumers in the CLI drills and
    benchmarks)."""
    names = {field.name for field in dataclasses.fields(MiddlewareStats)}
    assert {
        "rebuilds_started", "rebuilds_completed", "rebuilds_failed",
        "rebuild_replayed_statements", "wal_records", "wal_torn_writes",
        "wal_lost_flushes", "wal_corruptions", "durable_checkpoints",
        "durable_recoveries",
    } <= names
