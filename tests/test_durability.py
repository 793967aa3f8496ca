"""Durability subsystem: WAL, checkpoints, recovery, rebuild, bank."""

import pytest

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
    Detectability,
    FailureKind,
    FaultSpec,
    LostFlushEffect,
    SqlPatternTrigger,
    TornWriteEffect,
)
from repro.faults.audit import dead_storage_faults
from repro.middleware import DiverseServer, ReplicaState, ServerConfig, SupervisorPolicy
from repro.middleware.supervisor import VirtualClock
from repro.reliability import RebuildPolicyModel
from repro.servers import make_server
from repro.workload import WorkloadRunner


def wal_on(medium, name="t/wal"):
    return WriteAheadLog(medium, name)


class TestWal:
    # Torn, rotted and oversize records (and damaged checkpoint blobs)
    # are pinned in the corruption matrix of tests/test_records.py.

    def test_append_scan_roundtrip(self):
        wal = wal_on(MemoryMedium())
        wal.append("INSERT INTO t VALUES (1)", 3)
        wal.append("UPDATE t SET x = 2", 3)
        scan = wal.scan()
        assert scan.clean
        assert [r.sql for r in scan.records] == [
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET x = 2",
        ]
        assert [r.lsn for r in scan.records] == [0, 1]
        assert scan.records[0].generation == 3

    def test_next_lsn_recomputed_from_medium(self):
        medium = MemoryMedium()
        wal_on(medium).append("A", 0)
        wal_on(medium).append("B", 0)
        assert [r.lsn for r in wal_on(medium).scan().records] == [0, 1]

    def test_lost_flush_leaves_detectable_gap(self):
        wal = wal_on(MemoryMedium())
        wal.append("A", 0)
        wal.append("B", 0, mutate=lambda data: None)  # lost flush
        wal.append("C", 0)
        scan = wal.scan()
        assert scan.stopped == "lsn-gap"
        assert [r.sql for r in scan.records] == ["A"]

    def test_truncate_to_valid_is_idempotent(self):
        medium = MemoryMedium()
        wal = wal_on(medium)
        wal.append("A", 0)
        wal.append("B", 0)
        medium.corrupt("t/wal", len(encode_record(0, 0, "A")) + 9)
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
            store.save(build_checkpoint(product.engine, lsn=i, ddl=[], taken_at=0.0))
            for i in range(3)
        ]
        kept = medium.names("IB/")
        assert len(kept) == 2
        assert names[0] not in kept
        name, payload = store.load_latest()
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
        disk.truncate(f"{session.name}/wal", len(encode_record(0, 0, session.store.wal.scan().records[0].sql)))
        recovered, report = DurableSession.resume(
            make_server("IB"), disk, name=session.name, checkpoint_interval=4
        )
        assert report.checkpoint is None
        assert report.checkpoints_skipped >= 1
        assert report.redone == 1
        # Only the CREATE TABLE survives.
        assert recovered.product.engine.storage.get_optional("t").snapshot() == []

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
        data = encode_record(0, 0, "SELECT 1")
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


class FrozenClock(VirtualClock):
    """Checkpoints carry ``taken_at``; a session has no clock (0.0)."""

    def advance(self, delta: float = 1.0) -> float:
        return self.now


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
                clock=FrozenClock(),
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

    def test_quarantined_replica_wal_stays_current(self):
        medium = MemoryMedium()
        server = durable_server(medium, interval=None)
        run_script(server, SCRIPT)
        ib = server.replica("IB")
        server.supervisor.quarantine(ib)
        server.execute("INSERT INTO t VALUES (50, 500)")
        # The write reached IB's WAL even though IB did not serve it.
        assert len(server.durability.store("IB").wal.scan().records) == 14


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
        assert server.durability.store("IB").checkpoints.load_latest() is not None

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

    def test_auto_rebuild_after_schedules_itself(self):
        medium = MemoryMedium()
        server = durable_server(
            medium, policy=SupervisorPolicy(auto_rebuild_after=5.0)
        )
        run_script(server, SCRIPT)
        ib = server.replica("IB")
        server.supervisor.retire(ib)
        for i in range(100, 130):
            server.execute(f"INSERT INTO t VALUES ({i}, {i})")
            if ib.state is ReplicaState.ACTIVE:
                break
        assert ib.state is ReplicaState.ACTIVE
        assert server.stats.rebuilds_started == 1


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
        assert dead_storage_faults(storage_fault_bank()) == []
        broken = storage_fault_bank()[0]
        dead = type(broken)(
            **{**broken.__dict__,
               "fault": FaultSpec(
                   "STOR-DEAD", "matches nothing",
                   SqlPatternTrigger(r"DELETE\s+FROM\s+nowhere"),
                   TornWriteEffect(), kind=FailureKind.STORAGE,
               )}
        )
        entries = dead_storage_faults([dead])
        assert [entry.fault_id for entry in entries] == ["STOR-DEAD"]


class TestRebuildPolicyModel:
    def test_seed_and_catchup_terms(self):
        model = RebuildPolicyModel(
            seed_rows=1000, seed_rate=100, replay_rate=50,
            write_arrival_rate=10, verify_cost=2.0,
        )
        assert model.seed_time == pytest.approx(10.0)
        # Backlog 10*10=100 statements drains at 40/s.
        assert model.catchup_time == pytest.approx(2.5)
        assert model.expected_rebuild_time() == pytest.approx(14.5)

    def test_idle_system_has_no_catchup(self):
        model = RebuildPolicyModel(seed_rows=500, seed_rate=50, replay_rate=10)
        assert model.catchup_time == 0.0
        assert model.expected_rebuild_time() == pytest.approx(10.0)

    def test_rebuild_that_cannot_catch_up(self):
        model = RebuildPolicyModel(
            seed_rows=100, seed_rate=10, replay_rate=5, write_arrival_rate=5
        )
        assert model.expected_rebuild_time() == float("inf")
        with pytest.raises(ValueError):
            model.effective_replica(0.01)

    def test_effective_replica_feeds_availability(self):
        model = RebuildPolicyModel(
            seed_rows=100, seed_rate=100, replay_rate=20, write_arrival_rate=2
        )
        replica = model.effective_replica(0.001)
        assert 0.99 < replica.availability < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RebuildPolicyModel(seed_rows=-1, seed_rate=1, replay_rate=1)
        with pytest.raises(ValueError):
            RebuildPolicyModel(seed_rows=1, seed_rate=0, replay_rate=1)


class TestDiskstormCli:
    def test_smoke(self, capsys):
        from repro.__main__ import main

        assert main(["diskstorm", "6"]) == 0
        out = capsys.readouterr().out
        assert "phase 2 -- power cut + restart" in out
        assert "IB final state: active" in out
