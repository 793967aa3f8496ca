"""The served wire frontend: protocol, sessions, supervision, backpressure.

The acceptance bar for this layer is the exactly-once fault matrix at
the bottom of the file: every network fault effect crossed with every
statement class must leave the replicas byte-identical to a fault-free
run — no lost writes, no duplicated commits, no blind re-execution of
non-idempotent statements.
"""

import asyncio
from decimal import Decimal

import pytest

from repro.errors import NetworkError, NumericOverflow, ParseError, SqlError
from repro.faults import (
    ConnectionResetEffect,
    CorruptFrameEffect,
    DelayFrameEffect,
    DropFrameEffect,
    DuplicateFrameEffect,
    FaultInjector,
    FaultSpec,
    PartitionEffect,
    ReorderFrameEffect,
    SqlPatternTrigger,
)
from repro.middleware import DiverseServer
from repro.net import (
    ClientPolicy,
    ConnectionLost,
    FrameCorrupt,
    FrameStream,
    NetClient,
    NetPolicy,
    NetServer,
    ProtocolViolation,
    RetryUnsafe,
    SessionExpired,
    SessionSupervisor,
    SimulatedNetwork,
    encode_frame,
)
from repro.middleware.supervisor import RECOVERY_BACKOFF_CAP, backoff_delay
from repro.net import client as net_client
from repro.net import protocol
from repro.net import server as dispatcher
from repro.net import session as net_session
from repro.net.client import RECONNECT_BACKOFF_CAP
from repro.net.tcp import TcpNetServer, tcp_exchange
from repro.reliability import NetworkPolicyModel
from repro.reliability import availability
from repro.servers import make_server
from repro.workload import WorkloadRunner, run_interleaved


def deployment(net_faults=(), net_policy=None, ib_faults=()):
    server = DiverseServer(
        [make_server("IB", list(ib_faults)), make_server("OR"), make_server("MS")],
        adjudication="majority",
    )
    net_server = NetServer(server, net_policy or NetPolicy(idle_deadline=100_000.0))
    injector = FaultInjector(list(net_faults)) if net_faults else None
    network = SimulatedNetwork(net_server, injector=injector)
    return server, net_server, network


def net_fault(name, pattern, effect):
    return FaultSpec(name, name, SqlPatternTrigger(pattern), effect)


SETUP = (
    "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
    "INSERT INTO t VALUES (1, 10)",
    "INSERT INTO t VALUES (2, 20)",
)


def supervised(network, **policy_kwargs):
    policy_kwargs.setdefault("request_timeout", 8.0)
    return SessionSupervisor(network, policy=ClientPolicy(**policy_kwargs))


class TestFraming:
    # Frame damage and the scalar codec are pinned, for every user of
    # the record format at once, in tests/test_records.py.

    def test_stream_reassembles_arbitrary_chunking(self):
        stream = FrameStream()
        data = encode_frame({"type": "x", "a": 1}) + encode_frame({"type": "y"})
        messages = []
        for i in range(0, len(data), 3):
            messages.extend(stream.feed(data[i:i + 3]))
        assert [m["type"] for m in messages] == ["x", "y"]
        assert messages[0]["a"] == 1

    def test_stream_poisoned_after_corruption(self):
        stream = FrameStream()
        bad = bytearray(encode_frame({"type": "x"}))
        bad[-1] ^= 0x01
        with pytest.raises(FrameCorrupt):
            stream.feed(bytes(bad))
        with pytest.raises(FrameCorrupt):
            stream.feed(encode_frame({"type": "x"}))


class TestSessions:
    def test_duplicate_seq_answered_from_cache(self):
        _, net_server, network = deployment()
        port = network.connect()
        welcome = port.request(protocol.hello(), 8.0)
        session, token = welcome["session"], welcome["token"]
        first = port.request(
            protocol.execute(session, token, 1, SETUP[0]), 8.0
        )
        replay = port.request(
            protocol.execute(session, token, 1, SETUP[0]), 8.0
        )
        assert replay == first
        assert net_server.stats.duplicates_suppressed == 1
        # Executed exactly once: a second CREATE would be a SQL error.
        assert replay["type"] == "result"

    def test_seq_below_dedupe_window_is_a_gap(self, monkeypatch):
        monkeypatch.setattr(net_session, "DEDUPE_WINDOW", 2)
        _, net_server, network = deployment()
        port = network.connect()
        welcome = port.request(protocol.hello(), 8.0)
        session, token = welcome["session"], welcome["token"]
        for seq, sql in enumerate(SETUP, start=1):
            port.request(protocol.execute(session, token, seq, sql), 8.0)
        reply = port.request(protocol.execute(session, token, 1, SETUP[0]), 8.0)
        assert reply["type"] == "error"
        assert reply["code"] == protocol.ERR_SEQ_GAP
        assert net_server.stats.seq_gaps == 1

    def test_idle_expiry_rolls_back_open_transaction(self):
        server, net_server, network = deployment(
            net_policy=NetPolicy(idle_deadline=8.0)
        )
        port = network.connect()
        welcome = port.request(protocol.hello(), 8.0)
        session, token = welcome["session"], welcome["token"]
        for seq, sql in enumerate(SETUP, start=1):
            port.request(protocol.execute(session, token, seq, sql), 8.0)
        port.request(protocol.execute(session, token, 4, "BEGIN"), 8.0)
        port.request(
            protocol.execute(session, token, 5, "UPDATE t SET v = 99 WHERE id = 1"),
            8.0,
        )
        for _ in range(12):
            network.idle_tick()
        assert net_server.stats.sessions_expired == 1
        assert net_server.stats.rollbacks_on_expiry == 1
        fresh = supervised(network)
        rows = fresh.execute("SELECT v FROM t WHERE id = 1").rows
        assert rows == [(10,)] or rows == [[10]]

    def test_cross_session_ddl_reaches_prepared_handles(self):
        # A handle prepared in one session answers with the column a
        # different session's DDL added: handles never go stale, so
        # nothing is re-translated to serve it.
        server, _, network = deployment()
        writer = supervised(network)
        for sql in SETUP:
            writer.execute(sql)
        sql = "SELECT * FROM t WHERE id = ?"
        handle = writer.prepare(sql)
        assert list(handle.execute([1]).columns) == ["id", "v"]
        other = supervised(network)
        other.execute("ALTER TABLE t ADD COLUMN w INT")
        misses = server.pipeline.stats.translate_misses
        result = handle.execute([1])
        assert list(result.columns) == ["id", "v", "w"]
        assert [tuple(row) for row in result.rows] == [(1, 10, None)]
        # In process, the same middleware handle answers on every replica.
        asked = [replica.stats.statements for replica in server.replicas]
        unanimous = server.stats.unanimous
        result = server.prepare(sql).execute([2])
        assert list(result.columns) == ["id", "v", "w"]
        assert [replica.stats.statements for replica in server.replicas] == [
            count + 1 for count in asked
        ]
        assert server.stats.unanimous == unanimous + 1
        assert server.pipeline.stats.translate_misses == misses


class TestMalformedParams:
    """A CRC-valid execute frame with undecodable parameters is the
    client's protocol error, not the frame handler's crash."""

    @pytest.mark.parametrize(
        "params",
        [
            [{"$dec": "zz"}],
            [{"$date": "nope"}],
            [{"$": "decimal", "v": "zz"}],
            [{"$": "datetime", "v": 7}],
            5,
        ],
    )
    def test_error_reply_and_session_still_serves(self, params):
        _, net_server, network = deployment()
        port = network.connect()
        welcome = port.request(protocol.hello(), 8.0)
        session, token = welcome["session"], welcome["token"]
        for seq, sql in enumerate(SETUP, start=1):
            port.request(protocol.execute(session, token, seq, sql), 8.0)
        prepared = port.request(
            protocol.prepare(session, token, 4, "SELECT v FROM t WHERE id = ?"), 8.0
        )
        bad = protocol.execute(session, token, 5, "", handle=prepared["handle"])
        bad["params"] = params
        reply = port.request(bad, 8.0)
        assert reply["type"] == "error"
        assert reply["code"] == protocol.ERR_PROTOCOL
        assert net_server.stats.protocol_errors == 1
        # Nothing executed, so sequence number 5 is still unspent.
        good = port.request(
            protocol.execute(session, token, 5, "", params=[2], handle=prepared["handle"]),
            8.0,
        )
        assert good["type"] == "result"
        assert good["rows"] == [[20]]


class TestNonAsciiDigits:
    """``str.isdigit`` accepts characters ``int()`` and ``Decimal()``
    reject; a scanner that used it let such text leave every boundary
    as a builtin ``ValueError``.  Numbers are ASCII digits only, so the
    text is a ``LexError`` at the engine, the middleware and the served
    client, and the session goes on serving."""

    HOSTILE = ("SELECT ²", "SELECT 1 + ①")

    @pytest.mark.parametrize("sql", HOSTILE)
    def test_lex_error_at_engine_middleware_and_served_client(self, sql):
        from repro.errors import LexError

        server, _, network = deployment()
        with pytest.raises(LexError):
            make_server("IB").engine.execute(sql)
        with pytest.raises(LexError):
            server.execute(sql)
        client = supervised(network)
        with pytest.raises(LexError):
            client.execute(sql)
        before = client._seq
        assert client.execute("SELECT 1").rows == [(1,)]
        assert client._seq == before + 1

    @pytest.mark.parametrize("sql", HOSTILE)
    def test_frame_handler_answers_and_serves_the_next_seq(self, sql):
        _, net_server, network = deployment()
        port = network.connect()
        welcome = port.request(protocol.hello(), 8.0)
        session, token = welcome["session"], welcome["token"]
        reply = port.request(protocol.execute(session, token, 1, sql), 8.0)
        assert reply["type"] == "error"
        assert reply["code"] == protocol.ERR_SQL
        assert reply["error_type"] == "LexError"
        assert net_server.stats.sql_errors == 1
        good = port.request(protocol.execute(session, token, 2, "SELECT 1"), 8.0)
        assert good["type"] == "result"
        assert good["rows"] == [[1]]


class TestBuiltinEscapes:
    """Texts that used to leave ``Engine.execute`` as a builtin
    exception: a fraction or exponent where the grammar wants an
    integer (``ValueError`` from ``int()``), a float MOD operand beyond
    the float range (``ValueError: math domain error``) and a ROUND to
    more places than the decimal context holds
    (``decimal.InvalidOperation``).  Each is the parser's or the
    evaluator's own error at the engine and an ``SqlError`` at the
    middleware and the served client, and the session answers the next
    sequence number.  PostgreSQL and Oracle are the two products whose
    dialects have both LIMIT and MOD."""

    CASES = (
        ("SELECT 1 LIMIT 1.5", ParseError),
        ("CREATE TABLE u (a VARCHAR(1e3))", ParseError),
        (f"SELECT MOD(1{'0' * 400}.5, 2.5e0)", NumericOverflow),
        ("SELECT ROUND(1.5, 100)", NumericOverflow),
    )

    @pytest.mark.parametrize("sql,error", CASES, ids=[sql[:32] for sql, _ in CASES])
    def test_boundary_error_at_engine_middleware_and_served_client(self, sql, error):
        server = DiverseServer([make_server("PG"), make_server("OR")])
        network = SimulatedNetwork(NetServer(server, NetPolicy(idle_deadline=100_000.0)))
        with pytest.raises(error):
            make_server("PG").engine.execute(sql)
        with pytest.raises(SqlError):
            server.execute(sql)
        client = supervised(network)
        with pytest.raises(SqlError):
            client.execute(sql)
        before = client._seq
        assert client.execute("SELECT 1").rows == [(1,)]
        assert client._seq == before + 1


class TestNonFiniteNumbers:
    """No SQL value is NaN or infinite.  Each of these texts would make
    one (or raise a builtin ``OverflowError`` / ``InvalidOperation`` on
    the way); the source refuses it with an ``SqlError`` at the engine,
    the middleware and the served client, and the session goes on
    serving."""

    HOSTILE = (
        "SELECT POWER(10.0, 400)",
        "SELECT CEILING(1e308*10)",
        "SELECT 1 WHERE CAST('nan' AS FLOAT) > 0",
        "SELECT CAST('Infinity' AS DECIMAL)",
        "SELECT 1e999",
        "SELECT v FROM t ORDER BY v * 1e300 * 1e300",
        "SELECT SUM(x) FROM (SELECT 1e308 AS x FROM t) AS s",
        f"SELECT 1{'0' * 400} + 1.5e0",
    )

    @pytest.mark.parametrize("sql", HOSTILE, ids=lambda sql: sql[:48])
    def test_sql_error_at_engine_middleware_and_served_client(self, sql):
        server, _, network = deployment()
        engine = make_server("IB").engine
        for statement in SETUP:
            engine.execute(statement)
        with pytest.raises(SqlError):
            engine.execute(sql)
        client = supervised(network)
        for statement in SETUP:
            client.execute(statement)
        with pytest.raises(SqlError):
            server.execute(sql)
        with pytest.raises(SqlError):
            client.execute(sql)
        assert client.execute("SELECT v FROM t ORDER BY v").rows == [(10,), (20,)]

    @pytest.mark.parametrize(
        "value", [float("nan"), float("-inf"), Decimal("NaN"), Decimal("Infinity")], ids=repr
    )
    def test_bound_parameter_is_refused_before_any_replica_sorts(self, value):
        sql = "SELECT v FROM t ORDER BY v + ?"
        server, net_server, network = deployment()
        engine = make_server("IB").engine
        for statement in SETUP:
            engine.execute(statement)
        with pytest.raises(SqlError):
            engine.prepare(sql).execute((value,))
        client = supervised(network)
        for statement in SETUP:
            client.execute(statement)
        with pytest.raises(SqlError):
            server.execute(sql, [value])
        # On the wire the value never decodes: the sender's protocol error.
        with pytest.raises(ProtocolViolation):
            client.prepare(sql).execute([value])
        assert net_server.stats.protocol_errors == 1
        assert client.prepare(sql).execute([1]).rows == [(10,), (20,)]


class TestBackpressure:
    POLICY = NetPolicy(idle_deadline=100_000.0, queue_deadline=50_000.0)

    @pytest.fixture(autouse=True)
    def shallow_ladder(self, monkeypatch):
        monkeypatch.setattr(dispatcher, "SHED_COMPARE_DEPTH", 2)
        monkeypatch.setattr(dispatcher, "SHED_REJECT_DEPTH", 4)
        monkeypatch.setattr(dispatcher, "MAX_PARKED", 6)

    def _held_txn(self):
        _, net_server, network = deployment(net_policy=self.POLICY)
        holder = network.connect()
        welcome = holder.request(protocol.hello(), 8.0)
        session, token = welcome["session"], welcome["token"]
        seq = 0
        for sql in SETUP + ("BEGIN", "UPDATE t SET v = 11 WHERE id = 1"):
            seq += 1
            holder.request(protocol.execute(session, token, seq, sql), 8.0)
        return net_server, network, holder, session, token, seq

    def _flood(self, network, count):
        ports = []
        for index in range(count):
            port = network.connect()
            welcome = port.request(protocol.hello(), 8.0)
            port.send(protocol.execute(
                welcome["session"], welcome["token"], 1,
                f"INSERT INTO t VALUES ({300 + index}, {index})",
            ))
            ports.append(port)
        network.pump()
        return ports

    def test_ladder_parks_then_sheds_compares_then_rejects(self):
        net_server, network, holder, session, token, seq = self._held_txn()
        self._flood(network, 6)
        stats = net_server.stats
        assert stats.parked_statements == 4          # up to reject depth
        assert stats.shed_statements == 2            # the rest rejected
        # The holder's own read is served (not rejected) and sheds its
        # cross-replica compare under backlog.
        reply = holder.request(
            protocol.execute(session, token, seq + 1, "SELECT v FROM t WHERE id = 2"),
            8.0,
        )
        assert reply["type"] == "result"
        assert stats.shed_compares == 1
        # COMMIT is never rejected: it is what drains the queue.
        commit = holder.request(
            protocol.execute(session, token, seq + 2, "COMMIT"), 8.0
        )
        assert commit["type"] == "result"
        network.pump()
        assert len(net_server._parked) == 0

    def test_parked_statements_serve_after_commit(self):
        net_server, network, holder, session, token, seq = self._held_txn()
        ports = self._flood(network, 3)
        # Below the reject depth nothing is shed: the ladder parks first.
        assert net_server.stats.shed_statements == 0
        holder.request(protocol.execute(session, token, seq + 1, "COMMIT"), 8.0)
        network.pump()
        replies = [port.recv(8.0) for port in ports]
        assert all(reply["type"] == "result" for reply in replies)

    def test_writes_never_shed_their_replication(self):
        server, net_server, network = deployment(net_policy=self.POLICY)
        client = supervised(network)
        for sql in SETUP:
            client.execute(sql)
        assert net_server.stats.shed_compares == 0
        assert not server.verify_consistency()


class TestBackoffBoundaries:
    """The one ``backoff_delay``: the replica supervisor's recovery
    retries and the session supervisor's reconnects, each with its cap."""

    def test_supervisor_policy_attempt_zero_is_immediate(self):
        assert backoff_delay(0, RECOVERY_BACKOFF_CAP) == 0.0
        assert backoff_delay(-1, RECOVERY_BACKOFF_CAP) == 0.0
        assert backoff_delay(1, RECOVERY_BACKOFF_CAP) == 1.0

    def test_supervisor_policy_factor_growth_and_cap_clamp(self):
        assert [backoff_delay(n, 10.0) for n in range(1, 6)] == [1.0, 2.0, 4.0, 8.0, 10.0]
        # The cap also clamps a first delay that is already over it.
        assert backoff_delay(1, 0.5) == 0.5
        assert [backoff_delay(n, RECOVERY_BACKOFF_CAP) for n in (7, 8)] == [64.0, 64.0]

    def test_client_policy_mirrors_the_same_boundaries(self):
        assert backoff_delay(0, RECONNECT_BACKOFF_CAP) == 0.0
        assert [backoff_delay(n, RECONNECT_BACKOFF_CAP) for n in (1, 5, 6, 7)] == [
            1.0, 16.0, 32.0, 32.0,
        ]


class TestSupervisorRecovery:
    def test_dropped_write_resent_under_same_seq(self):
        server, net_server, network = deployment(
            [net_fault("DROP", r"VALUES \(7", DropFrameEffect(count=1))]
        )
        client = supervised(network)
        for sql in SETUP:
            client.execute(sql)
        client.execute("INSERT INTO t VALUES (7, 70)")
        assert client.stats.resends == 1
        assert net_server.stats.sessions_resumed == 1
        inserts = [sql for sql in server.write_log if "VALUES (7" in sql]
        assert len(inserts) == 1
        assert not server.verify_consistency()

    def test_duplicated_frames_dedupe_server_side(self):
        server, net_server, network = deployment(
            [net_fault("DUP", r"INSERT INTO t", DuplicateFrameEffect(gap=1.0))]
        )
        client = supervised(network)
        for sql in SETUP:
            client.execute(sql)
        assert net_server.stats.duplicates_suppressed >= 2
        assert len([s for s in server.write_log if "INSERT" in s]) == 2
        assert not server.verify_consistency()

    def test_connection_reset_resumes_session(self):
        _, net_server, network = deployment(
            [net_fault("RESET", r"SELECT v", ConnectionResetEffect(count=1))]
        )
        client = supervised(network)
        for sql in SETUP:
            client.execute(sql)
        result = client.execute("SELECT v FROM t WHERE id = 1")
        assert result.rows
        assert client.stats.reconnects >= 1
        assert net_server.stats.sessions_resumed == 1

    def test_mid_transaction_session_loss_raises_session_expired(self):
        _, net_server, network = deployment(
            [net_fault("DROP", r"COMMIT", DropFrameEffect(count=3))],
            net_policy=NetPolicy(idle_deadline=6.0),
        )
        client = supervised(network)
        for sql in SETUP:
            client.execute(sql)
        client.execute("BEGIN")
        client.execute("UPDATE t SET v = 99 WHERE id = 1")
        with pytest.raises(SessionExpired):
            client.execute("COMMIT")
        assert net_server.stats.rollbacks_on_expiry == 1
        # The transaction's effects rolled back with the session.
        fresh = supervised(network)
        assert fresh.execute("SELECT v FROM t WHERE id = 1").rows[0][0] == 10

    def test_session_loss_retries_only_reexecution_safe_statements(self):
        # A dropped SELECT outlives its session: the analyzer proves it
        # safe, so it re-executes on a fresh session.
        _, net_server, network = deployment(
            [net_fault("DROP", r"SELECT v", DropFrameEffect(count=1))],
            net_policy=NetPolicy(idle_deadline=6.0),
        )
        client = supervised(network, request_timeout=10.0)
        for sql in SETUP:
            client.execute(sql)
        assert client.execute("SELECT v FROM t WHERE id = 1").rows
        assert client.stats.safe_retries == 1

    def test_session_loss_never_retries_plain_writes(self):
        server, _, network = deployment(
            [net_fault("DROP", r"VALUES \(7", DropFrameEffect(count=1))],
            net_policy=NetPolicy(idle_deadline=6.0),
        )
        client = supervised(network, request_timeout=10.0)
        for sql in SETUP:
            client.execute(sql)
        with pytest.raises(RetryUnsafe):
            client.execute("INSERT INTO t VALUES (7, 70)")
        assert client.stats.unsafe_aborts == 1
        # Crucially: zero or one execution, never two.
        assert len([s for s in server.write_log if "VALUES (7" in s]) <= 1

    def test_circuit_breaker_opens_after_repeated_failures(self, monkeypatch):
        monkeypatch.setattr(net_client, "MAX_RECONNECT_ATTEMPTS", 2)
        _, _, network = deployment(
            [net_fault("DROP", r"SELECT v", DropFrameEffect())]  # unbounded
        )
        client = supervised(network, request_timeout=4.0, circuit_threshold=3)
        for sql in SETUP:
            client.execute(sql)
        with pytest.raises(ConnectionLost):
            client.execute("SELECT v FROM t WHERE id = 1")
        assert client.stats.circuit_open_failures >= 1

    def test_errors_cross_the_wire_as_middleware_exceptions(self):
        from repro.errors import SqlError

        _, _, network = deployment()
        client = supervised(network)
        client.execute(SETUP[0])
        with pytest.raises(SqlError):
            client.execute("INSERT INTO missing VALUES (1)")


# -- the acceptance matrix -------------------------------------------------

EFFECTS = (
    ("drop", lambda: DropFrameEffect(count=2)),
    ("delay", lambda: DelayFrameEffect(delay=4.0)),
    ("duplicate", lambda: DuplicateFrameEffect(gap=1.0)),
    ("reorder", lambda: ReorderFrameEffect(hold=2.0)),
    ("corrupt", lambda: CorruptFrameEffect(count=2)),
    ("reset", lambda: ConnectionResetEffect(count=2)),
    ("partition", lambda: PartitionEffect(duration=10.0)),
)

CLASSES = (
    ("read", r"SELECT\s+v\s+FROM\s+t",
     lambda i: f"SELECT v FROM t WHERE id = {1 + i % 2}"),
    ("write", r"VALUES\s*\(1\d\d",
     lambda i: f"INSERT INTO t VALUES ({101 + i}, {101 + i})"),
    ("idempotent_write", r"UPDATE\s+t\s+SET",
     lambda i: f"UPDATE t SET v = {50 + i} WHERE id = {1 + i % 2}"),
)


def run_class_script(build, net_faults=()):
    from repro.durability import engine_state_signature

    server, net_server, network = deployment(net_faults)
    client = supervised(network)
    for sql in SETUP:
        client.execute(sql)
    for index in range(4):
        client.execute(build(index))
    stats = client.stats
    client.close()
    return {
        "signature": tuple(
            engine_state_signature(replica.product.engine)
            for replica in server.replicas
        ),
        "write_log": server.write_log,
        "disagreements": server.verify_consistency(),
        "safe_retries": stats.safe_retries,
    }


class TestExactlyOnceFaultMatrix:
    @pytest.mark.parametrize("effect_name,make_effect", EFFECTS)
    @pytest.mark.parametrize("class_name,pattern,build", CLASSES)
    def test_state_identical_to_fault_free_run(
        self, effect_name, make_effect, class_name, pattern, build
    ):
        baseline = run_class_script(build)
        cell = run_class_script(
            build, [net_fault(f"NET-{effect_name}", pattern, make_effect())]
        )
        assert cell["disagreements"] == {} or not cell["disagreements"]
        assert cell["signature"] == baseline["signature"]
        assert cell["write_log"] == baseline["write_log"]
        if class_name == "write":
            # Plain writes recover only through same-seq dedupe, never
            # through analyzer-approved re-execution.
            assert cell["safe_retries"] == 0


class TestServedWorkload:
    def test_interleaved_terminals_count_network_errors_separately(self):
        _, _, network = deployment(
            [net_fault("DROP", r"SELECT w_tax", DropFrameEffect(count=2))]
        )
        supervisors = [supervised(network, request_timeout=16.0) for _ in range(2)]
        runners = [
            WorkloadRunner(supervisor, seed=3 + i, retries=2)
            for i, supervisor in enumerate(supervisors)
        ]
        runners[0].setup()
        metrics = run_interleaved(runners, 8)
        assert metrics.transactions == 16
        assert metrics.network_errors == 0  # supervisors absorbed the drops

    def test_network_error_is_a_repro_error(self):
        assert issubclass(ConnectionLost, NetworkError)


class TestNetworkPolicyModel:
    def test_zero_loss_is_near_perfect(self):
        model = NetworkPolicyModel(loss_probability=0.0)
        assert model.request_success_probability() == pytest.approx(1.0)
        assert model.expected_retry_delay() == 0.0

    def test_success_falls_with_loss_and_rises_with_attempts(self, monkeypatch):
        patient = NetworkPolicyModel(loss_probability=0.3).request_success_probability()
        clean = NetworkPolicyModel(loss_probability=0.05).request_success_probability()
        assert clean > patient
        monkeypatch.setattr(availability, "MAX_RECONNECT_ATTEMPTS", 1)
        lossy = NetworkPolicyModel(loss_probability=0.3).request_success_probability()
        assert patient > lossy


class TestTcpBinding:
    def test_hello_execute_and_dedupe_over_real_sockets(self):
        server = DiverseServer(
            [make_server("IB"), make_server("OR"), make_server("MS")],
            adjudication="majority",
        )
        net_server = NetServer(server, NetPolicy(idle_deadline=100_000.0))
        tcp = TcpNetServer(net_server)

        async def drive():
            await tcp.start()
            try:
                (welcome,) = await tcp_exchange(*tcp.address, [protocol.hello()])
                run = protocol.execute(welcome["session"], welcome["token"], 1, SETUP[0])
                first, replay = await tcp_exchange(*tcp.address, [run, run])
                return welcome, first, replay
            finally:
                await tcp.stop()

        welcome, first, replay = asyncio.run(drive())
        assert welcome["type"] == "welcome"
        assert first["type"] == "result"
        assert replay == first
        assert net_server.stats.duplicates_suppressed == 1

    def test_oversize_length_refused_before_any_payload_read(self):
        """The peer's length field never sizes a read: a header that
        claims more than the protocol maximum fails at once, although
        not one payload byte was sent (waiting for them would time out)."""

        async def hostile(reader, writer):
            await reader.read(4096)
            writer.write((protocol.MAX_FRAME_PAYLOAD + 1).to_bytes(4, "little") + bytes(4))
            await writer.drain()

        async def drive():
            server = await asyncio.start_server(hostile, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                await tcp_exchange(host, port, [protocol.hello()], timeout=30.0)
            finally:
                server.close()
                await server.wait_closed()

        with pytest.raises(FrameCorrupt):
            asyncio.run(asyncio.wait_for(drive(), 5.0))


class TestNetClientBasics:
    def test_reordered_replies_are_skipped_by_seq(self):
        _, _, network = deployment(
            [net_fault("REORDER", r"SELECT v", ReorderFrameEffect(hold=2.0))]
        )
        client = NetClient(network.connect(), timeout=16.0)
        client.hello()
        for seq, sql in enumerate(SETUP, start=1):
            client.execute(seq, sql)
        result = client.execute(4, "SELECT v FROM t WHERE id = 1")
        assert result.rows
