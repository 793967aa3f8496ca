"""Prepared-statement pipeline: parse/translate/analyze once, execute many.

Covers the redesigned execution API end to end: engine-level prepared
handles, parameter substitution, the ServerConfig construction surface
(keyword-only settings), middleware prepared execution
and batching semantics (down to identical adjudication of the bug
corpus), the stale-verdict regression after DDL, and a property test
that prepared execution is observationally identical to literal
execution on every product under corpus fault injection.
"""

from __future__ import annotations

import traceback
import warnings
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OrderVerdict
from repro.bugs import build_corpus
from repro.dialects.features import DialectDescriptor
from repro.errors import FeatureNotSupported, MiddlewareError, ReproError, SqlError
from repro.faults import FaultSpec, RelationTrigger, RowDropEffect
from repro.middleware import DiverseServer, PreparedStatement, ServerConfig
from repro.middleware.pipeline import StatementPipeline
from repro.servers import make_server
from repro.sqlengine import Engine
from repro.sqlengine.lexer import render_tokens, tokenize
from repro.sqlengine.params import (
    param_text,
    placeholder_positions,
    render_param,
    splice_texts,
    substitute_params,
)
from repro.workload import TpccGenerator, WorkloadRunner

CORPUS = build_corpus()

ACCOUNTS_DDL = (
    "CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner VARCHAR(20), "
    "balance NUMERIC(10,2))"
)
ACCOUNTS_INSERT = "INSERT INTO accounts (id, owner, balance) VALUES (?, ?, ?)"
ACCOUNT_ROWS = [
    (1, "ann", Decimal("120.00")),
    (2, "bob", Decimal("80.00")),
    (3, "cat", Decimal("310.00")),
]


def _pair():
    return DiverseServer(
        [make_server("IB"), make_server("OR")],
        config=ServerConfig(adjudication="compare"),
    )


# -- parameter rendering and substitution ---------------------------------


class TestParamSubstitution:
    def test_render_param_scalars(self):
        assert render_param(None) == "NULL"
        assert render_param(True) == "TRUE"
        assert render_param(False) == "FALSE"
        assert render_param(42) == "42"
        assert render_param(Decimal("12.50")) == "12.50"
        assert render_param("ann") == "'ann'"

    def test_render_param_escapes_quotes(self):
        assert render_param("o'brien") == "'o''brien'"

    def test_render_param_rejects_unknown_types(self):
        with pytest.raises(SqlError):
            render_param(object())

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.integers(min_value=10**30).flatmap(lambda n: st.sampled_from([n, -n])),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
                      max_value=1e-300, min_value=-1e-300),
            st.decimals(allow_nan=False, allow_infinity=False),
            st.sampled_from([
                -0.0, 5e-324, -2.5e-310, 1.5e-07, -6.02e23, 1e16,
                Decimal("-0"), Decimal("1E+2"), Decimal("-3.25"), Decimal("1E-7"),
                Decimal("-1.5E+3"), Decimal("0E-7"), -(2**63), 10**100,
                "it's", "--", "-5", "line\nbreak", "snowman \u2603", "''",
            ]),
            st.text(),
        )
    )
    def test_param_text_is_the_rendering_of_the_rendered_value(self, value):
        # A replica's WAL record splices this text into its translated
        # template; replay runs the rendering of the whole bound text.
        assert param_text(value) == render_tokens(tokenize(render_param(value)))

    def test_param_text_spaces_a_leading_minus_only(self):
        assert param_text(-5) == "- 5"
        assert param_text(Decimal("-0")) == "- 0"
        assert param_text(1.5e-07) == "1.5e-07"
        assert param_text(Decimal("1E+2")) == "1E+2"
        assert param_text("-5") == "'-5'"
        assert [param_text(v) for v in (None, True, False)] == ["NULL", "TRUE", "FALSE"]

    def test_a_negative_value_after_a_minus_is_spaced(self):
        # ``--`` would open a comment that swallows the rest of the text.
        sql = "UPDATE t SET v = -? WHERE id = ?"
        positions = placeholder_positions(sql)
        assert substitute_params(sql, (-5, 1)) == "UPDATE t SET v = - -5 WHERE id = 1"
        assert splice_texts(sql, positions, ("- 5", "1")) == (
            "UPDATE t SET v = - - 5 WHERE id = 1"
        )
        # Every other bound text keeps its spelling.
        assert substitute_params(sql, (5, 1)) == "UPDATE t SET v = -5 WHERE id = 1"
        assert substitute_params(sql, ("-x", 1)) == "UPDATE t SET v = -'-x' WHERE id = 1"
        assert substitute_params("SELECT ? - ?", (-5, -5)) == "SELECT -5 - -5"
        assert substitute_params("SELECT ?", (-5,)) == "SELECT -5"

    def test_count_placeholders(self):
        assert len(placeholder_positions("SELECT 1")) == 0
        assert len(placeholder_positions("SELECT ? WHERE a = ?")) == 2

    def test_question_mark_in_string_literal_is_not_a_placeholder(self):
        sql = "SELECT '?' FROM t WHERE a = ?"
        assert len(placeholder_positions(sql)) == 1
        assert substitute_params(sql, (7,)) == "SELECT '?' FROM t WHERE a = 7"

    def test_substitution_is_positional(self):
        bound = substitute_params(
            "INSERT INTO t (a, b) VALUES (?, ?)", (1, "x")
        )
        assert bound == "INSERT INTO t (a, b) VALUES (1, 'x')"

    def test_substitution_count_mismatch(self):
        with pytest.raises(SqlError):
            substitute_params("SELECT ?", ())
        with pytest.raises(SqlError):
            substitute_params("SELECT ?", (1, 2))


# -- engine-level prepared handles ----------------------------------------


class TestEnginePrepared:
    def _engine(self) -> Engine:
        eng = Engine("test")
        eng.execute(ACCOUNTS_DDL)
        return eng

    def test_execute_binds_parameters(self):
        eng = self._engine()
        insert = eng.prepare(ACCOUNTS_INSERT)
        for row in ACCOUNT_ROWS:
            insert.execute(row)
        result = eng.execute("SELECT owner FROM accounts ORDER BY id")
        assert result.rows == [("ann",), ("bob",), ("cat",)]

    def test_prepared_select_matches_literal(self):
        eng = self._engine()
        eng.prepare(ACCOUNTS_INSERT).executemany(ACCOUNT_ROWS)
        query = eng.prepare(
            "SELECT owner, balance FROM accounts WHERE balance >= ? ORDER BY id"
        )
        prepared = query.execute((Decimal("100.00"),))
        literal = eng.execute(
            "SELECT owner, balance FROM accounts "
            "WHERE balance >= 100.00 ORDER BY id"
        )
        assert prepared.rows == literal.rows
        assert prepared.columns == literal.columns

    def test_parameter_count_enforced(self):
        eng = self._engine()
        insert = eng.prepare(ACCOUNTS_INSERT)
        with pytest.raises(SqlError):
            insert.execute((1, "ann"))
        with pytest.raises(SqlError):
            insert.execute((1, "ann", Decimal("1.00"), 9))

    def test_prepare_is_memoized(self):
        eng = self._engine()
        assert eng.prepare(ACCOUNTS_INSERT) is eng.prepare(ACCOUNTS_INSERT)

    def test_executemany_returns_one_result_per_row(self):
        eng = self._engine()
        results = eng.prepare(ACCOUNTS_INSERT).executemany(ACCOUNT_ROWS)
        assert len(results) == len(ACCOUNT_ROWS)
        assert all(r.rowcount == 1 for r in results)

    def test_server_product_prepares(self):
        server = make_server("PG")
        server.execute(ACCOUNTS_DDL)
        server.prepare(ACCOUNTS_INSERT).executemany(ACCOUNT_ROWS)
        result = server.prepare("SELECT COUNT(*) FROM accounts").execute(())
        assert result.rows == [(3,)]

    CASE_QUERY = "SELECT CASE WHEN id = ? THEN 1 ELSE 0 END FROM accounts"

    def test_the_dialect_gate_is_decided_once_per_handle(self, monkeypatch):
        asked = []
        missing_tags = DialectDescriptor.missing_tags
        monkeypatch.setattr(
            DialectDescriptor,
            "missing_tags",
            lambda descriptor, traits: asked.append(descriptor.key)
            or missing_tags(descriptor, traits),
        )
        server = make_server("PG")
        server.execute(ACCOUNTS_DDL)
        query = server.prepare(self.CASE_QUERY)
        asked.clear()
        for value in (1, 2, 3):
            query.execute((value,))
            query.execute((value,), self.CASE_QUERY.replace("?", str(value)))
        # Once for the handle's traits, once for its literal traits.
        assert asked == ["PG", "PG"]

    def test_a_refused_handle_refuses_every_execution(self):
        # Interbase 6 has no CASE: the refusal is not kept, so every
        # execution raises the gate's error afresh, literal or bound.
        server = make_server("IB")
        server.execute(ACCOUNTS_DDL)
        query = server.prepare(self.CASE_QUERY)
        for literal in (None, self.CASE_QUERY.replace("?", "1")) * 2:
            with pytest.raises(FeatureNotSupported) as refusal:
                query.execute((1,), literal)
            assert (refusal.value.feature, refusal.value.server) == ("clause.case", "IB")

    def test_a_kept_refusal_does_not_grow_its_traceback(self):
        # The pipeline keeps IB's translation refusal and raises it on
        # every hit; each raise starts a fresh traceback.
        pipeline = StatementPipeline()
        descriptor = make_server("IB").descriptor
        lengths = []
        for _ in range(5):
            with pytest.raises(FeatureNotSupported) as refusal:
                pipeline.translation(self.CASE_QUERY, descriptor)
            lengths.append(len(traceback.extract_tb(refusal.value.__traceback__)))
        assert len(set(lengths)) == 1, lengths
        assert (pipeline.stats.translate_misses, pipeline.stats.translate_hits) == (1, 4)


# -- ServerConfig construction surface ------------------------------------


class TestServerConfigApi:
    def test_config_object(self):
        server = DiverseServer(
            [make_server("IB"), make_server("OR")],
            config=ServerConfig(adjudication="compare", normalize=False),
        )
        assert server.adjudication == "compare"
        assert server.config.normalize is False

    def test_keyword_arguments_build_a_config(self):
        server = DiverseServer(
            [make_server("IB"), make_server("OR")], adjudication="compare"
        )
        assert server.config.adjudication == "compare"

    def test_positional_settings_are_rejected(self):
        # The DeprecationWarning shim is gone: settings are keyword-only.
        with pytest.raises(TypeError):
            DiverseServer([make_server("IB"), make_server("OR")], "compare", False)

    def test_config_and_kwargs_conflict(self):
        with pytest.raises(MiddlewareError):
            DiverseServer(
                [make_server("IB"), make_server("OR")],
                config=ServerConfig(),
                adjudication="compare",
            )

    def test_unknown_keyword_rejected(self):
        with pytest.raises(MiddlewareError):
            DiverseServer([make_server("IB"), make_server("OR")], juditication="x")

    def test_replicated_server_accepts_config(self):
        server = DiverseServer(
            [make_server("PG") for _ in range(3)],
            config=ServerConfig(adjudication="majority", allow_duplicates=True),
        )
        assert server.adjudication == "majority"
        assert len(server.replicas) == 3


# -- middleware prepared execution ----------------------------------------


class TestMiddlewarePrepared:
    def test_execute_rejects_unbound_parameters(self):
        server = _pair()
        with pytest.raises(MiddlewareError, match="prepare"):
            server.execute("SELECT ?")

    def test_prepare_is_memoized(self):
        server = _pair()
        server.execute(ACCOUNTS_DDL)
        assert server.prepare(ACCOUNTS_INSERT) is server.prepare(ACCOUNTS_INSERT)
        assert isinstance(server.prepare(ACCOUNTS_INSERT), PreparedStatement)

    def test_parameter_count_enforced(self):
        server = _pair()
        server.execute(ACCOUNTS_DDL)
        with pytest.raises(MiddlewareError):
            server.prepare(ACCOUNTS_INSERT).execute((1, "ann"))

    def test_prepared_matches_literal_execution(self):
        prepared_server, literal_server = _pair(), _pair()
        for server in (prepared_server, literal_server):
            server.execute(ACCOUNTS_DDL)
        prepared_server.prepare(ACCOUNTS_INSERT).executemany(ACCOUNT_ROWS)
        for row in ACCOUNT_ROWS:
            literal_server.execute(substitute_params(ACCOUNTS_INSERT, row))
        query = "SELECT owner, balance FROM accounts ORDER BY id"
        assert (
            prepared_server.execute(query).rows
            == literal_server.execute(query).rows
        )

    def test_executemany_charges_one_tick_per_row(self):
        server = _pair()
        server.execute(ACCOUNTS_DDL)
        before = server.clock.now
        server.prepare(ACCOUNTS_INSERT).executemany(ACCOUNT_ROWS)
        assert server.clock.now == pytest.approx(before + len(ACCOUNT_ROWS))

    def test_executemany_batch_stats(self):
        server = _pair()
        server.execute(ACCOUNTS_DDL)
        unanimous = server.stats.unanimous
        server.prepare(ACCOUNTS_INSERT).executemany(ACCOUNT_ROWS)
        assert server.stats.batches == 1
        assert server.stats.batched_statements == len(ACCOUNT_ROWS)
        assert server.stats.unanimous == unanimous + len(ACCOUNT_ROWS)

    def test_write_log_records_bound_text(self):
        server = _pair()
        server.execute(ACCOUNTS_DDL)
        server.prepare(ACCOUNTS_INSERT).execute((1, "ann", Decimal("120.00")))
        assert (
            server.write_log[-1]
            == "INSERT INTO accounts (id, owner, balance) VALUES (1, 'ann', 120.00)"
        )

    def test_front_end_runs_once_per_template(self):
        server = _pair()
        server.execute(ACCOUNTS_DDL)
        insert = server.prepare(ACCOUNTS_INSERT)
        insert.executemany(ACCOUNT_ROWS)
        stats = server.pipeline.stats
        parse_misses = stats.parse_misses
        translate_misses = stats.translate_misses
        insert.executemany([(4, "dee", Decimal("5.00")), (5, "eve", Decimal("6.00"))])
        assert server.pipeline.stats.parse_misses == parse_misses
        assert server.pipeline.stats.translate_misses == translate_misses

    def test_masked_divergence_warns_on_result(self):
        fault = FaultSpec(
            fault_id="TEST-MASK",
            description="drops rows from accounts queries",
            trigger=RelationTrigger(["accounts"], kind="select"),
            effect=RowDropEffect(keep_one_in=2),
        )
        server = DiverseServer(
            [make_server("IB", [fault]), make_server("OR"), make_server("MS")],
            config=ServerConfig(adjudication="majority"),
        )
        server.execute(ACCOUNTS_DDL)
        server.prepare(ACCOUNTS_INSERT).executemany(ACCOUNT_ROWS)
        result = server.execute("SELECT owner FROM accounts ORDER BY id")
        assert result.rows == [("ann",), ("bob",), ("cat",)]
        assert any("IB" in warning for warning in result.warnings)

    def test_preparing_never_changes_corpus_adjudication(self, corpus_adjudication):
        # Every statement of every script all four products run, prepared
        # and executed with no parameters: detections, masks, adjudication
        # failures and every answer equal literal execution's.
        assert corpus_adjudication(prepare=True) == corpus_adjudication()


# -- regression: verdict caches must track schema changes -----------------


class TestVerdictInvalidation:
    SELECT = "SELECT a, b FROM t ORDER BY a"

    @staticmethod
    def _order_verdict(server, sql):
        statement, traits, _ = server.pipeline.parsed(sql)
        return server.pipeline.verdict(sql, statement, server._schema, traits).order

    def test_create_index_refreshes_order_verdict(self):
        server = _pair()
        server.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        server.execute("INSERT INTO t (a, b) VALUES (1, 10), (2, 20)")
        server.execute(self.SELECT)
        assert self._order_verdict(server, self.SELECT) is OrderVerdict.PARTIAL

        server.execute("CREATE UNIQUE INDEX t_a ON t (a)")
        server.execute(self.SELECT)
        assert self._order_verdict(server, self.SELECT) is OrderVerdict.TOTAL

        server.execute("DROP INDEX t_a")
        server.execute(self.SELECT)
        assert self._order_verdict(server, self.SELECT) is OrderVerdict.PARTIAL

    def test_generation_tracks_replica_catalogs(self):
        server = _pair()
        server.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        server.execute("CREATE UNIQUE INDEX t_a ON t (a)")
        server.execute("DROP INDEX t_a")
        for replica in server.replicas:
            assert (
                replica.product.engine.catalog.generation
                == server.pipeline.generation
            )

    def test_prepared_handles_survive_ddl(self):
        server = _pair()
        server.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        insert = server.prepare("INSERT INTO t (a, b) VALUES (?, ?)")
        insert.execute((1, 10))
        server.execute("CREATE UNIQUE INDEX t_a ON t (a)")
        insert.execute((2, 20))
        result = server.execute("SELECT a FROM t ORDER BY a")
        assert result.rows == [(1,), (2,)]


# -- prepared workload mode -----------------------------------------------


class TestWorkloadPrepared:
    def test_use_prepared_requires_prepare(self):
        class ExecuteOnly:
            def execute(self, sql):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(ValueError):
            WorkloadRunner(ExecuteOnly(), use_prepared=True)

    def test_prepared_run_matches_literal_run(self):
        outcomes = []
        for use_prepared in (False, True):
            server = _pair()
            runner = WorkloadRunner(server, seed=6, use_prepared=use_prepared)
            runner.setup()
            metrics = runner.run(25, generator=TpccGenerator(seed=6))
            outcomes.append(
                (
                    metrics.transactions,
                    metrics.statements,
                    metrics.sql_errors,
                    metrics.detected_disagreements,
                    metrics.aborted_transactions,
                )
            )
        assert outcomes[0] == outcomes[1]


# -- property: prepared == literal under fault injection ------------------


def _observe(action):
    try:
        result = action()
    except ReproError as failure:
        return ("error", type(failure).__name__, str(failure))
    return ("ok", result.columns, result.rows, result.rowcount)


@given(
    rows=st.lists(
        st.tuples(
            st.text(alphabet="abcxy?' _", min_size=0, max_size=8),
            st.decimals(
                min_value=Decimal("-999.99"),
                max_value=Decimal("999.99"),
                places=2,
            ),
        ),
        min_size=1,
        max_size=4,
    ),
    threshold=st.integers(min_value=-2, max_value=6),
)
@settings(max_examples=15, deadline=None)
def test_prepared_equals_literal_on_every_product(rows, threshold):
    insert_template = "INSERT INTO things (id, label, amount) VALUES (?, ?, ?)"
    select_template = (
        "SELECT id, label, amount FROM things WHERE id >= ? ORDER BY id"
    )
    for key in ("IB", "PG", "OR", "MS"):
        prepared = make_server(key, CORPUS.faults_for(key))
        literal = make_server(key, CORPUS.faults_for(key))
        for server in (prepared, literal):
            server.execute(
                "CREATE TABLE things (id INTEGER PRIMARY KEY, "
                "label VARCHAR(20), amount NUMERIC(8,2))"
            )
        insert = prepared.prepare(insert_template)
        for index, (label, amount) in enumerate(rows):
            params = (index, label, amount)
            assert _observe(lambda: insert.execute(params)) == _observe(
                lambda: literal.execute(substitute_params(insert_template, params))
            ), (key, params)
        select = prepared.prepare(select_template)
        bound = substitute_params(select_template, (threshold,))
        assert _observe(lambda: select.execute((threshold,))) == _observe(
            lambda: literal.execute(bound)
        ), (key, threshold)


def test_no_deprecation_warning_from_keyword_construction():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        DiverseServer(
            [make_server("IB"), make_server("OR")],
            config=ServerConfig(adjudication="compare"),
        )
        DiverseServer([make_server("IB"), make_server("OR")], adjudication="compare")
