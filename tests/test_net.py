"""The served wire frontend: protocol, sessions, supervision, backpressure.

The acceptance bar for this layer is the exactly-once fault matrix at
the bottom of the file: every network fault effect crossed with every
statement class must leave the replicas byte-identical to a fault-free
run — no lost writes, no duplicated commits, no blind re-execution of
non-idempotent statements.
"""

import asyncio

import pytest

from repro.errors import NetworkError
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
from repro.middleware import DiverseServer, SupervisorPolicy
from repro.net import (
    ClientPolicy,
    ConnectionLost,
    FrameCorrupt,
    FrameStream,
    NetClient,
    NetPolicy,
    NetServer,
    RetryUnsafe,
    SessionExpired,
    SessionSupervisor,
    SimulatedNetwork,
    encode_frame,
)
from repro.net import protocol
from repro.net.tcp import TcpNetServer, tcp_exchange
from repro.reliability import NetworkPolicyModel
from repro.servers import make_server
from repro.workload import WorkloadRunner, run_interleaved


def deployment(net_faults=(), net_policy=None, ib_faults=()):
    server = DiverseServer(
        [make_server("IB", list(ib_faults)), make_server("OR"), make_server("MS")],
        adjudication="majority",
    )
    net_server = NetServer(server, net_policy or NetPolicy(idle_deadline=100_000.0))
    injector = FaultInjector("net", list(net_faults)) if net_faults else None
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

    def test_seq_below_dedupe_window_is_a_gap(self):
        _, net_server, network = deployment(
            net_policy=NetPolicy(idle_deadline=100_000.0, dedupe_window=2)
        )
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

    def test_cross_session_ddl_invalidates_prepared_handles(self):
        # Satellite: a handle prepared in one session goes stale when a
        # *different* session commits DDL; next execute re-prepares.
        _, net_server, network = deployment()
        writer = supervised(network)
        for sql in SETUP:
            writer.execute(sql)
        handle = writer.prepare("SELECT v FROM t WHERE id = ?")
        assert handle.execute([1]).rows
        other = supervised(network)
        other.execute("CREATE INDEX t_v ON t (v)")
        assert net_server.stats.handles_invalidated >= 1
        refreshed_before = net_server.stats.handles_refreshed
        assert handle.execute([2]).rows
        assert net_server.stats.handles_refreshed > refreshed_before


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


class TestBackpressure:
    POLICY = NetPolicy(
        idle_deadline=100_000.0,
        queue_deadline=50_000.0,
        shed_compare_depth=2,
        shed_reject_depth=4,
        max_parked=6,
    )

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
    def test_supervisor_policy_attempt_zero_is_immediate(self):
        policy = SupervisorPolicy(backoff_base=3.0)
        assert policy.backoff_delay(0) == 0.0
        assert policy.backoff_delay(-1) == 0.0
        assert policy.backoff_delay(1) == 3.0

    def test_supervisor_policy_factor_growth_and_cap_clamp(self):
        policy = SupervisorPolicy(
            backoff_base=1.0, backoff_factor=3.0, backoff_cap=10.0
        )
        assert [policy.backoff_delay(n) for n in range(1, 5)] == [
            1.0, 3.0, 9.0, 10.0,
        ]
        # The cap also clamps a base that is already over it.
        over = SupervisorPolicy(backoff_base=50.0, backoff_cap=10.0)
        assert over.backoff_delay(1) == 10.0

    def test_client_policy_mirrors_the_same_boundaries(self):
        policy = ClientPolicy(
            backoff_base=2.0, backoff_factor=2.0, backoff_cap=5.0
        )
        assert policy.backoff_delay(0) == 0.0
        assert [policy.backoff_delay(n) for n in range(1, 4)] == [2.0, 4.0, 5.0]


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

    def test_circuit_breaker_opens_after_repeated_failures(self):
        _, _, network = deployment(
            [net_fault("DROP", r"SELECT v", DropFrameEffect())]  # unbounded
        )
        client = supervised(
            network, request_timeout=4.0, circuit_threshold=3,
            max_reconnect_attempts=2,
        )
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

    def test_success_falls_with_loss_and_rises_with_attempts(self):
        lossy = NetworkPolicyModel(loss_probability=0.3, max_attempts=2)
        patient = NetworkPolicyModel(loss_probability=0.3, max_attempts=7)
        assert patient.request_success_probability() > \
            lossy.request_success_probability()
        clean = NetworkPolicyModel(loss_probability=0.05, max_attempts=7)
        assert clean.request_success_probability() > \
            patient.request_success_probability()

    def test_served_availability_composes_with_middleware(self):
        model = NetworkPolicyModel(loss_probability=0.1)
        assert model.served_availability(0.999) < 0.999
        assert model.served_availability(0.999) == pytest.approx(
            0.999 * model.request_success_probability()
        )


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
