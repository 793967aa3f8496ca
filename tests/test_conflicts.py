"""Static transaction-conflict analysis and the admission path it unlocks.

Three layers under test: the statement-pair classifier and footprint
certificates, the whole-interleaving serializability verdicts (with the
concurrency-anomaly bank the lint gates), and the served dispatcher's
conflict-aware admission — commuting reads served mid-transaction,
everything unproven parked exactly as before.
"""

import dataclasses

import pytest

from repro.analysis import build_graph, statement_def_use
from repro.analysis.conflicts import (
    AnomalyKind,
    ConflictKind,
    VerdictStatus,
    analyze_sessions,
    classify_pair,
    commutes_with_footprint,
    session_transactions,
)
from repro.analysis.schema import ScriptSchema
from repro.faults import (
    Detectability,
    DirtyReadEffect,
    FailureKind,
    FaultSpec,
    LostUpdateEffect,
    PhantomRowEffect,
    SqlPatternTrigger,
)
from repro.bugs import minimize_report
from repro.dialects.translator import ScriptPieces
from repro.faults.audit import concurrency_fault_bank, dead_repro_faults
from repro.middleware import DiverseServer
from repro.net import (
    ClientPolicy,
    NetPolicy,
    NetServer,
    SessionSupervisor,
    SimulatedNetwork,
)
from repro.net import protocol
from repro.net import server as dispatcher
from repro.servers import make_server
from repro.sqlengine.analysis import extract_traits
from repro.sqlengine.parser import parse_statement
from repro.workload import WorkloadRunner, run_interleaved

TABLE_T = "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)"
TABLE_U = "CREATE TABLE u (id INT PRIMARY KEY, x INT)"


def analyze_bank_entry(entry):
    return analyze_sessions(
        [ScriptPieces(script) for script in entry.sessions], setup=ScriptPieces(entry.setup)
    )


def schema_for(*ddl):
    schema = ScriptSchema()
    for sql in ddl:
        schema.observe(parse_statement(sql))
    return schema


def def_use_of(sql, schema):
    stmt = parse_statement(sql)
    return statement_def_use(stmt, schema, extract_traits(stmt))


class TestPairClassifier:
    def classify(self, sql_a, sql_b):
        schema = schema_for(TABLE_T, TABLE_U)
        return classify_pair(def_use_of(sql_a, schema), def_use_of(sql_b, schema))

    def test_two_reads_commute(self):
        pair = self.classify(
            "SELECT a FROM t WHERE id = 1", "SELECT a FROM t WHERE id = 2"
        )
        assert pair.kind is ConflictKind.COMMUTES
        assert pair.cells == ()

    def test_read_of_written_column_is_rw(self):
        pair = self.classify(
            "SELECT a FROM t WHERE id = 1", "UPDATE t SET a = 5 WHERE id = 1"
        )
        assert pair.kind is ConflictKind.RW_CONFLICT
        assert ("t", "a") in pair.cells

    def test_read_of_untouched_column_commutes(self):
        pair = self.classify(
            "SELECT b FROM t WHERE id = 2", "UPDATE t SET a = 5 WHERE id = 1"
        )
        assert pair.kind is ConflictKind.COMMUTES

    def test_overlapping_writes_are_ww(self):
        pair = self.classify(
            "UPDATE t SET a = 5 WHERE id = 1", "UPDATE t SET a = 9 WHERE id = 1"
        )
        assert pair.kind is ConflictKind.WW_CONFLICT
        assert ("t", "a") in pair.cells

    def test_insert_against_read_is_phantom_risk(self):
        pair = self.classify(
            "SELECT b FROM t WHERE a > 3", "INSERT INTO t VALUES (9, 1, 2)"
        )
        assert pair.kind is ConflictKind.PHANTOM_RISK

    def test_cross_table_statements_commute(self):
        pair = self.classify(
            "UPDATE t SET a = 5 WHERE id = 1", "SELECT x FROM u WHERE id = 1"
        )
        assert pair.kind is ConflictKind.COMMUTES

    def test_txn_barrier_conflicts_with_everything(self):
        pair = self.classify("COMMIT", "SELECT a FROM t WHERE id = 1")
        assert pair.kind is ConflictKind.WW_CONFLICT
        assert pair.cells == ()


class TestFootprintCertificates:
    SCHEMA = (TABLE_T, TABLE_U)

    def certificate(self, sql, writes):
        schema = schema_for(*self.SCHEMA)
        return commutes_with_footprint(def_use_of(sql, schema), writes)

    def test_disjoint_read_commutes(self):
        assert self.certificate("SELECT b FROM t WHERE id = 2", {("t", "a")})
        assert self.certificate("SELECT x FROM u WHERE id = 1", {("t", "a")})

    def test_read_of_written_cell_does_not(self):
        assert not self.certificate("SELECT a FROM t WHERE id = 1", {("t", "a")})

    def test_star_read_never_commutes_with_table_write(self):
        assert not self.certificate("SELECT * FROM t", {("t", "a")})

    def test_membership_write_blocks_any_read_of_relation(self):
        # An INSERT/DELETE in the footprint widens to (t, *): the row
        # set is in flux, so even a disjoint-column read must park.
        assert not self.certificate("SELECT b FROM t WHERE id = 2", {("t", "*")})

    def test_writes_never_commute_even_when_disjoint(self):
        assert not self.certificate("UPDATE u SET x = 1 WHERE id = 1", {("t", "a")})

    def test_barriers_never_commute(self):
        assert not self.certificate("COMMIT", set())


class TestSessionSegmentation:
    SCRIPT = (
        "INSERT INTO t VALUES (3, 1, 2);\n"
        "BEGIN;\n"
        "SELECT a FROM t WHERE id = 1;\n"
        "UPDATE t SET a = 5 WHERE id = 1;\n"
        "COMMIT;\n"
        "BEGIN;\n"
        "UPDATE t SET b = 9 WHERE id = 2;\n"
        "ROLLBACK;\n"
        "BEGIN;\n"
        "SELECT b FROM t WHERE id = 2"
    )

    def test_segments_explicit_and_autocommit(self):
        txns = session_transactions(ScriptPieces(self.SCRIPT), 3, setup=ScriptPieces(TABLE_T))
        assert [t.label for t in txns] == ["S3.T0", "S3.T1", "S3.T2", "S3.T3"]
        assert [t.explicit for t in txns] == [False, True, True, True]
        # ROLLBACK closes T2 uncommitted; the unterminated trailing
        # BEGIN is conservatively uncommitted too.
        assert [t.committed for t in txns] == [True, True, False, False]
        assert [len(t.statements) for t in txns] == [1, 2, 1, 1]

    def test_statement_indices_count_barriers(self):
        txns = session_transactions(ScriptPieces(self.SCRIPT), 0, setup=ScriptPieces(TABLE_T))
        # BEGIN/COMMIT consume script positions: T1's statements sit at
        # indices 2 and 3 of the raw statement list.
        assert [s.index for s in txns[1].statements] == [2, 3]

    def test_footprints_aggregate_over_statements(self):
        txns = session_transactions(ScriptPieces(self.SCRIPT), 0, setup=ScriptPieces(TABLE_T))
        assert ("t", "a") in txns[1].writes
        assert ("t", "a") in txns[1].reads
        assert txns[1].multi_statement
        assert not txns[0].multi_statement


class TestInterleavingVerdicts:
    def test_disjoint_tables_prove_serializable(self):
        report = analyze_sessions(
            (
                ScriptPieces(
                    "BEGIN; SELECT a FROM t WHERE id = 1; "
                    "UPDATE t SET a = 2 WHERE id = 1; COMMIT"
                ),
                ScriptPieces(
                    "BEGIN; SELECT x FROM u WHERE id = 1; "
                    "UPDATE u SET x = 2 WHERE id = 1; COMMIT"
                ),
            ),
            setup=ScriptPieces(f"{TABLE_T};\n{TABLE_U}"),
        )
        assert report.verdict.status is VerdictStatus.SERIALIZABLE_PROVEN
        assert report.verdict.anomalies == ()
        assert report.pair_counts[ConflictKind.COMMUTES] > 0

    def test_unparseable_script_is_unknown(self):
        report = analyze_sessions((ScriptPieces("FROBNICATE THE THING"),))
        assert report.verdict.status is VerdictStatus.UNKNOWN
        assert "defeated" in report.verdict.reason

    def test_bank_anomalies_are_all_predicted(self):
        for entry in concurrency_fault_bank():
            report = analyze_bank_entry(entry)
            assert report.verdict.status is VerdictStatus.ANOMALY_POSSIBLE
            assert entry.anomaly.value in report.verdict.anomaly_kinds, entry.bug_id

    def test_lost_update_witness_is_a_wedge(self):
        entry = next(
            e for e in concurrency_fault_bank()
            if e.anomaly is AnomalyKind.LOST_UPDATE
        )
        report = analyze_bank_entry(entry)
        witness = next(
            w for w in report.verdict.anomalies
            if w.kind is AnomalyKind.LOST_UPDATE
        )
        assert ("account", "balance") in witness.cells
        assert set(witness.transactions) == {"S0.T0", "S1.T0"}
        # The schedule wedges one whole transaction inside the other:
        # first and last steps belong to the outer transaction's session.
        sessions = [step.session for step in witness.schedule]
        outer = sessions[0]
        assert sessions[-1] == outer
        assert any(s != outer for s in sessions[1:-1])
        assert str(witness.schedule[0]).startswith(f"S{outer}[")

    def test_write_skew_needs_no_ww_overlap(self):
        entry = next(
            e for e in concurrency_fault_bank()
            if e.anomaly is AnomalyKind.WRITE_SKEW
        )
        report = analyze_bank_entry(entry)
        assert report.pair_counts[ConflictKind.RW_CONFLICT] > 0
        assert "write_skew" in report.verdict.anomaly_kinds


# -- the served admission path ----------------------------------------------

SETUP = (
    TABLE_T,
    "INSERT INTO t VALUES (1, 10, 100)",
    "INSERT INTO t VALUES (2, 20, 200)",
    TABLE_U,
    "INSERT INTO u VALUES (1, 7)",
)

HOLDER_WRITE = "UPDATE t SET a = 11 WHERE id = 1"


def deployment(conflict_admission=True, ib_faults=(), **policy_kwargs):
    server = DiverseServer(
        [make_server("IB", list(ib_faults)), make_server("OR"), make_server("MS")],
        adjudication="majority",
    )
    policy_kwargs.setdefault("idle_deadline", 100_000.0)
    policy_kwargs.setdefault("queue_deadline", 50_000.0)
    policy = NetPolicy(conflict_admission=conflict_admission, **policy_kwargs)
    net_server = NetServer(server, policy)
    return server, net_server, SimulatedNetwork(net_server)


def handshake(network):
    port = network.connect()
    welcome = port.request(protocol.hello(), 8.0)
    return port, welcome["session"], welcome["token"]


def open_holder(network):
    """Schema + population, then a transaction left open mid-write."""
    port, session, token = handshake(network)
    seq = 0
    for sql in SETUP + ("BEGIN", HOLDER_WRITE):
        seq += 1
        reply = port.request(protocol.execute(session, token, seq, sql), 8.0)
        assert reply["type"] == "result", reply
    return port, session, token, seq


class TestConflictAdmission:
    def test_commuting_read_served_mid_transaction(self):
        _, net_server, network = deployment()
        open_holder(network)
        port, session, token = handshake(network)
        reply = port.request(
            protocol.execute(session, token, 1, "SELECT b FROM t WHERE id = 2"), 8.0
        )
        assert reply["type"] == "result"
        assert reply["rows"] == [[200]]
        assert net_server.stats.admitted_commuting == 1
        assert net_server.stats.parked_statements == 0

    def test_conflicting_read_parks_and_drains_after_commit(self):
        _, net_server, network = deployment()
        holder, hsession, htoken, seq = open_holder(network)
        port, session, token = handshake(network)
        port.send(
            protocol.execute(session, token, 1, "SELECT a FROM t WHERE id = 1")
        )
        network.pump()
        assert net_server.stats.parked_statements == 1
        assert net_server.stats.admitted_commuting == 0
        holder.request(protocol.execute(hsession, htoken, seq + 1, "COMMIT"), 8.0)
        network.pump()
        reply = port.recv(4.0)
        assert reply["type"] == "result"
        # Drained after COMMIT, so the reader observes the committed
        # write — exactly the PR 7 parking semantics for conflicts.
        assert reply["rows"] == [[11]]

    def test_disjoint_write_still_parks(self):
        # A write would land inside the holder's engine transaction and
        # be erased by its ROLLBACK: no certificate, however disjoint.
        _, net_server, network = deployment()
        holder, hsession, htoken, seq = open_holder(network)
        port, session, token = handshake(network)
        port.send(
            protocol.execute(session, token, 1, "UPDATE u SET x = 8 WHERE id = 1")
        )
        network.pump()
        assert net_server.stats.parked_statements == 1
        holder.request(protocol.execute(hsession, htoken, seq + 1, "ROLLBACK"), 8.0)
        network.pump()
        reply = port.recv(4.0)
        assert reply["type"] == "result"
        probe = port.request(
            protocol.execute(session, token, 2, "SELECT x FROM u WHERE id = 1"), 8.0
        )
        assert probe["rows"] == [[8]]

    def test_prepare_is_always_admitted(self):
        _, net_server, network = deployment()
        open_holder(network)
        port, session, token = handshake(network)
        reply = port.request(
            protocol.prepare(session, token, 1, "SELECT a FROM t WHERE id = ?"), 8.0
        )
        assert reply["type"] == "prepared"
        assert net_server.stats.admitted_commuting == 1

    def test_unknown_handle_parks_as_unknown(self):
        _, net_server, network = deployment()
        holder, hsession, htoken, seq = open_holder(network)
        port, session, token = handshake(network)
        port.send(protocol.execute(session, token, 1, "", handle=999))
        network.pump()
        assert net_server.stats.parked_statements == 1
        assert net_server.stats.parked_unknown == 1
        holder.request(protocol.execute(hsession, htoken, seq + 1, "COMMIT"), 8.0)
        network.pump()
        assert port.recv(4.0)["type"] == "error"

    def test_knob_off_restores_blanket_parking(self):
        _, net_server, network = deployment(conflict_admission=False)
        open_holder(network)
        port, session, token = handshake(network)
        port.send(
            protocol.execute(session, token, 1, "SELECT b FROM t WHERE id = 2")
        )
        network.pump()
        assert net_server.stats.parked_statements == 1
        assert net_server.stats.admitted_commuting == 0

    def test_parked_queue_observability(self):
        _, net_server, network = deployment()
        holder, hsession, htoken, seq = open_holder(network)
        readers = [handshake(network) for _ in range(2)]
        for port, session, token in readers:
            port.send(
                protocol.execute(session, token, 1, "SELECT a FROM t WHERE id = 1")
            )
        network.pump()
        assert net_server.stats.max_parked_depth == 2
        holder.request(protocol.execute(hsession, htoken, seq + 1, "COMMIT"), 8.0)
        network.pump()
        stats = net_server.stats
        assert stats.parked_wait_total >= stats.parked_wait_max > 0
        exported = {spec.name for spec in dataclasses.fields(stats)}
        for key in (
            "admitted_commuting",
            "parked_unknown",
            "max_parked_depth",
            "parked_wait_total",
            "parked_wait_max",
        ):
            assert key in exported

    @pytest.mark.parametrize("terminals", [2, 4, 8, 12])
    def test_admission_parks_less_and_answers_the_same(self, terminals, monkeypatch):
        # N terminals each offer one commuting and one conflicting read
        # behind the open write: certified admission serves the
        # commuting half at once, the blanket rung parks everything, and
        # both end with every statement answered and replicas agreeing.
        for constant in ("MAX_PARKED", "SHED_COMPARE_DEPTH", "SHED_REJECT_DEPTH"):
            monkeypatch.setattr(dispatcher, constant, 10_000)
        points = {}
        for admission in (True, False):
            server, net_server, network = deployment(conflict_admission=admission)
            holder, hsession, htoken, seq = open_holder(network)
            readers = [handshake(network) for _ in range(terminals)]
            for port, session, token in readers:
                for rseq, sql in enumerate(
                    ("SELECT b FROM t WHERE id = 2", "SELECT a FROM t WHERE id = 1"), 1
                ):
                    port.send(protocol.execute(session, token, rseq, sql))
            network.pump()
            stats = net_server.stats
            parked, admitted = stats.parked_statements, stats.admitted_commuting
            holder.request(protocol.execute(hsession, htoken, seq + 1, "COMMIT"), 8.0)
            network.pump()
            answered = sum(
                port.recv(4.0).get("type") == "result"
                for port, _, _ in readers
                for _ in range(2)
            )
            assert answered == 2 * terminals
            assert not server.verify_consistency()
            points[admission] = (parked, admitted)
        assert points[True][0] < points[False][0]
        assert points[True][1] == terminals
        assert points[False][1] == 0


#: (name, certified-COMMUTES against HOLDER_WRITE, trigger, statement).
READ_CLASSES = (
    ("commuting_read", True, r"SELECT\s+b\s+FROM\s+t", "SELECT b FROM t WHERE id = 2"),
    ("commuting_scan", True, r"SELECT\s+x\s+FROM\s+u", "SELECT x FROM u WHERE id = 1"),
    ("conflicting_read", False, r"SELECT\s+a\s+FROM\s+t", "SELECT a FROM t WHERE id = 1"),
)

ANOMALIES = (
    ("lost_update", lambda: LostUpdateEffect(delta=5.0)),
    ("dirty_read", lambda: DirtyReadEffect(delta=5.0)),
    ("phantom", PhantomRowEffect),
)


def read_behind_holder(sql, ib_faults=()):
    """One read offered while another session holds a write open,
    answered after the holder commits."""
    server, net_server, network = deployment(ib_faults=ib_faults)
    holder, hsession, htoken, seq = open_holder(network)
    port, session, token = handshake(network)
    port.send(protocol.execute(session, token, 1, sql))
    network.pump()
    admitted = net_server.stats.admitted_commuting
    holder.request(protocol.execute(hsession, htoken, seq + 1, "COMMIT"), 8.0)
    network.pump()
    return server, admitted, port.recv(4.0)


class TestAnomalyMatrix:
    """Every concurrency anomaly seeded on one replica, triggered by
    every admission class's read: it fires, is outvoted, and the client
    sees the fault-free answer — a COMMUTES certificate never smuggles a
    wrong answer past adjudication."""

    @pytest.mark.parametrize(
        "effect_name,make_effect", ANOMALIES, ids=[name for name, _ in ANOMALIES]
    )
    @pytest.mark.parametrize(
        "class_name,certified,pattern,sql", READ_CLASSES, ids=[c[0] for c in READ_CLASSES]
    )
    def test_anomaly_is_outvoted(
        self, effect_name, make_effect, class_name, certified, pattern, sql
    ):
        baseline, _, expected = read_behind_holder(sql)
        fault = FaultSpec(
            f"CONC-{effect_name.upper()}",
            f"{effect_name} injected into {class_name} answers",
            SqlPatternTrigger(pattern),
            make_effect(),
            kind=FailureKind.CONCURRENCY,
            detectability=Detectability.NON_SELF_EVIDENT,
        )
        server, admitted, reply = read_behind_holder(sql, [fault])
        stats = server.stats
        assert admitted == int(certified)
        assert stats.disagreements_detected > baseline.stats.disagreements_detected
        assert stats.failures_masked == stats.disagreements_detected
        assert reply["type"] == "result"
        assert reply["rows"] == expected["rows"]
        assert not server.verify_consistency()


class TestInterleavedConflictingTerminals:
    def test_unknown_granularity_is_rejected(self):
        with pytest.raises(ValueError):
            run_interleaved([], 1, granularity="bogus")

    def test_statement_granularity_served_terminals_stay_consistent(self):
        # Two TPC-C terminals interleaved after *every statement*, so
        # each terminal's statements land inside the other's open
        # transactions: commuting reads get admitted, conflicts park
        # (and shed at the queue deadline, absorbed by client retries).
        server, net_server, network = deployment(queue_deadline=12.0)
        supervisors = [
            SessionSupervisor(
                network,
                policy=ClientPolicy(request_timeout=24.0, circuit_threshold=16),
            )
            for _ in range(2)
        ]
        runners = [
            WorkloadRunner(supervisor, seed=11 + i, retries=6)
            for i, supervisor in enumerate(supervisors)
        ]
        runners[0].setup()
        metrics = run_interleaved(runners, 5, granularity="statement")
        assert metrics.transactions == 10
        assert metrics.statements > 0
        assert metrics.detected_disagreements == 0
        assert metrics.crashes == 0
        stats = net_server.stats
        assert stats.admitted_commuting + stats.parked_statements > 0
        assert not server.verify_consistency()

    def test_transaction_granularity_never_interleaves_mid_txn(self):
        server, net_server, network = deployment()
        supervisors = [
            SessionSupervisor(network, policy=ClientPolicy(request_timeout=16.0))
            for _ in range(2)
        ]
        runners = [
            WorkloadRunner(supervisor, seed=21 + i, retries=2)
            for i, supervisor in enumerate(supervisors)
        ]
        runners[0].setup()
        metrics = run_interleaved(runners, 4, granularity="transaction")
        assert metrics.transactions == 8
        # Whole transactions rotate: nothing ever arrives mid-txn, so
        # the admission path has no decisions to make.
        assert net_server.stats.admitted_commuting == 0
        assert net_server.stats.parked_statements == 0
        assert not server.verify_consistency()


# -- the lint gates ----------------------------------------------------------


def with_pieces(entry):
    """A bank entry paired with the pieces of its setup and sessions."""
    return entry, [ScriptPieces(script) for script in (entry.setup, *entry.sessions)]


def unreachable_entry():
    """A bank entry whose fault trigger matches none of its statements."""
    entry = concurrency_fault_bank()[0]
    dead = FaultSpec(
        "CONC-DEAD",
        "trigger pattern matches nothing in the repro",
        SqlPatternTrigger(r"ZZZ_NEVER_MATCHES"),
        LostUpdateEffect(delta=1),
        kind=FailureKind.CONCURRENCY,
        detectability=Detectability.NON_SELF_EVIDENT,
    )
    return dataclasses.replace(entry, bug_id="CONC-DEAD", fault=dead)


class TestConcurrencyLintGates:
    def test_shipped_bank_has_no_dead_faults(self):
        assert dead_repro_faults(map(with_pieces, concurrency_fault_bank())) == []

    def test_dead_trigger_is_detected(self):
        dead = dead_repro_faults([with_pieces(unreachable_entry())])
        assert [d.fault_id for d in dead] == ["CONC-DEAD"]

    def test_lint_flags_dead_concurrency_fault(self, monkeypatch):
        from repro.analysis import lint as lint_module

        monkeypatch.setattr(
            "repro.analysis.lint.concurrency_fault_bank",
            lambda: [unreachable_entry()],
        )
        findings = lint_module._check_concurrency_bank()
        assert [f.check for f in findings] == ["concurrency-dead-fault"]
        assert all(f.severity == "error" for f in findings)

    def test_lint_flags_certificate_drift(self, monkeypatch):
        from repro.analysis import lint as lint_module

        # Sessions on disjoint tables are serializable-proven: the bank
        # claiming a lost update there is certificate drift.
        entry = dataclasses.replace(
            concurrency_fault_bank()[0],
            sessions=(
                "SELECT balance FROM account WHERE acct_id = 1",
                "SELECT balance FROM account WHERE acct_id = 1",
            ),
        )
        monkeypatch.setattr(
            "repro.analysis.lint.concurrency_fault_bank", lambda: [entry]
        )
        findings = lint_module._check_concurrency_bank()
        assert "concurrency-certificate-drift" in [f.check for f in findings]

    def test_lint_exits_nonzero_on_dead_concurrency_fault(
        self, monkeypatch, corpus
    ):
        from repro.analysis.lint import run_lint

        monkeypatch.setattr(
            "repro.analysis.lint.concurrency_fault_bank",
            lambda: [unreachable_entry()],
        )
        lines = []
        assert run_lint(corpus, emit=lines.append) == 1
        assert any("concurrency-dead-fault" in line for line in lines)

    def test_dead_code_findings_are_warnings(self, corpus):
        from repro.analysis import lint as lint_module

        findings = [
            finding
            for report in corpus
            for script in [ScriptPieces(report.script)]
            for graph in [build_graph(script)]
            for finding in lint_module._check_dead_code(
                report, graph, minimize_report(report, script, graph)
            )
        ]
        assert findings
        assert all(f.severity == "warning" for f in findings)
        dead_statements = [f for f in findings if f.check == "dead-statement"]
        assert dead_statements
        assert all(f.statement_index is not None for f in dead_statements)
