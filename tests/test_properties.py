"""Property-based tests (hypothesis) on core invariants."""

import dataclasses
import datetime
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import SERVER_KEYS, dialect
from repro.dialects.translator import ScriptPieces, render_tokens, translate_script
from repro.durability import DurabilityManager, MemoryMedium
from repro.errors import FeatureNotSupported, SqlError
from repro.middleware import DiverseServer, ServerConfig
from repro.middleware.comparator import ReplicaAnswer, ResultComparator, identical
from repro.middleware.pipeline import StatementPipeline
from repro.servers import make_server
from repro.servers.product import ServerProduct
from repro.sqlengine import Engine
from repro.sqlengine.analysis import extract_traits
from repro.sqlengine.engine import ParsedStatement, parse_once
from repro.sqlengine.functions import Accumulator
from repro.sqlengine.plan.physical import order_rows
from repro.sqlengine.lexer import split_statements, tokenize
from repro.sqlengine.params import placeholder_positions
from repro.sqlengine.parser import Parser, parse_prepared, parse_script, parse_statement
from repro.sqlengine.sqlgen import PredicateGenerator
from repro.sqlengine.tokens import TokenKind
from repro.sqlengine.values import (
    distinct_key,
    like_match,
    normalize_value,
    sql_add,
    sql_compare,
    sql_mul,
    tri_and,
    tri_not,
    tri_or,
)
from repro.study.classify import classify_run
from repro.study.runner import StudyRunner, run_script
from tests.reference import _Accumulator, _composite_order

tribool = st.sampled_from([True, False, None])

sql_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.decimals(allow_nan=False, allow_infinity=False, places=4,
                min_value=-10**6, max_value=10**6),
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
        max_size=12,
    ),
)

numbers = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.decimals(allow_nan=False, allow_infinity=False, places=4,
                min_value=-10**4, max_value=10**4),
)


class TestTriboolAlgebra:
    @given(a=tribool, b=tribool)
    def test_commutativity(self, a, b):
        assert tri_and(a, b) == tri_and(b, a)
        assert tri_or(a, b) == tri_or(b, a)

    @given(a=tribool, b=tribool, c=tribool)
    def test_associativity(self, a, b, c):
        assert tri_and(tri_and(a, b), c) == tri_and(a, tri_and(b, c))
        assert tri_or(tri_or(a, b), c) == tri_or(a, tri_or(b, c))

    @given(a=tribool, b=tribool)
    def test_de_morgan(self, a, b):
        assert tri_not(tri_and(a, b)) == tri_or(tri_not(a), tri_not(b))

    @given(a=tribool)
    def test_double_negation(self, a):
        assert tri_not(tri_not(a)) == a


class TestComparisonProperties:
    @given(a=numbers, b=numbers)
    def test_antisymmetry(self, a, b):
        left = sql_compare(a, b)
        right = sql_compare(b, a)
        assert left == -right

    @given(a=numbers, b=numbers, c=numbers)
    def test_transitivity(self, a, b, c):
        if sql_compare(a, b) <= 0 and sql_compare(b, c) <= 0:
            assert sql_compare(a, c) <= 0

    @given(a=numbers)
    def test_reflexivity(self, a):
        assert sql_compare(a, a) == 0

    @given(a=sql_scalars)
    def test_null_comparisons_unknown(self, a):
        assert sql_compare(None, a) is None
        assert sql_compare(a, None) is None

    @given(a=numbers, b=numbers)
    def test_distinct_key_consistent_with_compare(self, a, b):
        if sql_compare(a, b) == 0:
            assert distinct_key(a) == distinct_key(b)
        else:
            assert distinct_key(a) != distinct_key(b)

    @given(a=numbers, b=numbers)
    def test_arithmetic_commutativity(self, a, b):
        assert sql_compare(sql_add(a, b), sql_add(b, a)) == 0
        assert sql_compare(sql_mul(a, b), sql_mul(b, a)) == 0


class TestNormalizerProperties:
    @given(a=sql_scalars)
    def test_idempotence_of_equality(self, a):
        assert normalize_value(a) == normalize_value(a)

    @given(a=st.integers(min_value=-10**9, max_value=10**9))
    def test_int_decimal_representations_collide(self, a):
        assert normalize_value(a) == normalize_value(Decimal(a))
        assert normalize_value(a) == normalize_value(Decimal(a) * Decimal("1.00"))

    @given(text=st.text(max_size=10), pad=st.integers(min_value=0, max_value=5))
    def test_trailing_padding_insignificant(self, text, pad):
        assert normalize_value(text) == normalize_value(text + " " * pad)

    @given(a=numbers, b=numbers)
    def test_distinct_numbers_stay_distinct(self, a, b):
        if sql_compare(a, b) != 0:
            assert normalize_value(a) != normalize_value(b)


#: Each group holds values that are ``==`` to each other, or normalise
#: alike, or are spelled alike, without voting alike under every mode:
#: what a vote by identity must never confuse.
_TWINS = (
    (True, 1, 1.0, Decimal("1"), Decimal("1.0"), Decimal("1.00")),
    (False, 0, 0.0, -0.0, Decimal("0"), Decimal("-0"), Decimal("0.00")),
    (123456789012345, 123456789012345.0, Decimal("123456789012345")),
    ("a", "a  ", "A"),
    (datetime.date(2004, 6, 1), datetime.datetime(2004, 6, 1), datetime.datetime(2004, 6, 1, 9)),
    (None,),
)


@st.composite
def _ballots(draw):
    """2-6 replica answers, with repeats, drawn from a base answer and
    up to three variants of it — one twin swapped in, or the row order,
    column case, rowcount or status changed — over a ragged row shape,
    so identical, equal and merely normalise-equal answers all occur."""
    shape = draw(st.lists(st.lists(st.integers(0, len(_TWINS) - 1), max_size=3), max_size=3))
    rows = tuple(tuple(draw(st.sampled_from(_TWINS[group])) for group in row) for row in shape)
    pool = [dict(status="ok", columns=("v",), rows=rows, rowcount=1, flipped=False)]
    for _ in range(draw(st.integers(1, 3))):
        variant = dict(draw(st.sampled_from(pool)))
        cells = [(r, c) for r, row in enumerate(variant["rows"]) for c in range(len(row))]
        change = draw(st.sampled_from(["twin", "twin", "respell", "flip", "case", "count", "status"]))
        if change in ("twin", "respell") and cells:
            r, c = draw(st.sampled_from(cells))
            changed = [list(row) for row in variant["rows"]]
            twins = _TWINS[shape[r][c]]
            if change == "respell":  # same type, so only the spelling can tell them apart
                twins = [twin for twin in twins if type(twin) is type(changed[r][c])]
            changed[r][c] = draw(st.sampled_from(twins))
            variant["rows"] = tuple(tuple(row) for row in changed)
        elif change == "flip":
            variant["flipped"] = not variant["flipped"]
        elif change == "case":
            variant["columns"] = ("V",)
        elif change == "count":
            variant["rowcount"] = 0
        elif change == "status":
            variant["status"] = draw(st.sampled_from(["error", "crash"]))
        pool.append(variant)
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))
    return [
        ReplicaAnswer(
            replica=f"R{index}", status=spec["status"], columns=spec["columns"],
            rows=spec["rows"][::-1] if spec["flipped"] else spec["rows"], rowcount=spec["rowcount"],
        )
        for index, spec in enumerate(picks)
    ]


def _voted(answers, normalize, ordered):
    """The vote without identity classes: every answer's key, computed
    on a fresh copy so nothing a comparison cached can leak in."""
    buckets: dict = {}
    for answer in answers:
        key = dataclasses.replace(answer).vote_key(normalize=normalize, ordered=ordered)
        buckets.setdefault(key, []).append(answer.replica)
    return sorted(buckets.values(), key=lambda group: (-len(group), group[0]))


class TestIdentityVote:
    @settings(max_examples=300, deadline=None)
    @given(answers=_ballots(), normalize=st.booleans(), ordered=st.booleans())
    def test_identity_classes_vote_like_every_key(self, answers, normalize, ordered):
        comparison = ResultComparator(normalize=normalize).compare(answers, ordered=ordered)
        groups = [[answer.replica for answer in group] for group in comparison.groups]
        assert groups == _voted(answers, normalize, ordered)

    @settings(max_examples=300, deadline=None)
    @given(answers=_ballots())
    def test_identical_answers_get_equal_keys_under_every_mode(self, answers):
        a, b = answers[0], answers[1]
        if identical(a, b):
            for normalize in (False, True):
                for ordered in (False, True):
                    assert _voted([a, b], normalize, ordered) == [["R0", "R1"]]


_ORDER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.decimals(min_value=-3, max_value=3, places=1),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.sampled_from(["a", "a ", "b", "B"]),
    st.sampled_from([datetime.date(2004, 6, 1), datetime.datetime(2004, 6, 1, 9)]),
)

#: One kind per ORDER BY column, so that every key path of
#: ``order_rows`` is drawn: the raw ``int``/``Decimal`` and ``str``
#: keys, and the wrapped keys of floats, booleans, dates and mixes.
_ORDER_COLUMN_KINDS = [
    st.integers(-3, 3),
    st.one_of(st.integers(-3, 3), st.decimals(min_value=-3, max_value=3, places=1)),
    st.sampled_from(["a", "ab", "b", "B"]),
    st.sampled_from(["a", "a ", "a  ", "ab", "b ", "B"]),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.one_of(st.integers(-3, 3), st.floats(min_value=-3, max_value=3, allow_nan=False)),
    st.booleans(),
    st.sampled_from([datetime.date(2004, 6, 1), datetime.datetime(2004, 6, 1, 9)]),
    _ORDER_VALUES,
]


@st.composite
def _order_column(draw):
    kind = draw(st.sampled_from(_ORDER_COLUMN_KINDS))
    return st.one_of(st.none(), kind) if draw(st.booleans()) else kind


class TestOrderRows:
    @staticmethod
    def _check(rows_values, directions):
        decorated = [(values, (index,)) for index, values in enumerate(rows_values)]
        keys = [[values[item] for values in rows_values] for item in range(len(directions))]
        rows = [row for _, row in decorated]
        assert order_rows(keys, rows, directions) == _composite_order(decorated, directions)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), directions=st.lists(st.booleans(), min_size=1, max_size=3))
    def test_order_rows_equals_the_composite_key_sort(self, data, directions):
        columns = [data.draw(_order_column()) for _ in directions]
        self._check(data.draw(st.lists(st.tuples(*columns), max_size=12)), directions)

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("first", [0.1, Decimal("0.1")])
    def test_a_float_ties_its_decimal_in_input_order(self, first, descending):
        second = Decimal("0.1") if isinstance(first, float) else 0.1
        self._check([(first,), (second,)], [descending])
        assert order_rows([[first, second]], [(0,), (1,)], [descending]) == [(0,), (1,)]


class TestCountDistinct:
    """COUNT(DISTINCT) keys a group's values once per column
    (``values.column_keys``); the walker's accumulator keys each value
    by ``distinct_key`` as it arrives."""

    @staticmethod
    def _counts(values) -> list:
        counts = []
        for accumulator in (Accumulator("COUNT", True, False), _Accumulator("COUNT", True, False)):
            for value in values:
                accumulator.add(value)
            counts.append(accumulator.result())
        return counts

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_count_distinct_equals_the_walkers(self, data):
        values = data.draw(st.lists(data.draw(_order_column()), max_size=12))
        planned, walker = self._counts(values)
        assert planned == walker

    @pytest.mark.parametrize(
        ("values", "count"),
        [
            ([1, 1.0], 1),
            ([1, Decimal("1.00"), 2], 2),
            (["a", "a  ", "b"], 2),
            ([1, True], 2),
            ([None, 3, None], 1),
        ],
    )
    def test_mixed_columns_count_as_sql_compares(self, values, count):
        assert self._counts(values) == [count, count]


class TestLexerProperties:
    @given(text=st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                               whitelist_characters=" '_", max_codepoint=0x7F),
        max_size=30,
    ))
    def test_string_literal_roundtrip(self, text):
        escaped = text.replace("'", "''")
        token = tokenize(f"'{escaped}'")[0]
        assert token.kind is TokenKind.STRING
        assert token.value == text

    @given(n=st.integers(min_value=0, max_value=10**12))
    def test_integer_roundtrip(self, n):
        token = tokenize(str(n))[0]
        assert token.kind is TokenKind.NUMBER
        assert token.value == str(n)

    @given(sql=st.sampled_from([
        "SELECT a, b FROM t WHERE a >= 1 AND b <> 'x'",
        "INSERT INTO t (a) VALUES (1.5), (2e3)",
        "CREATE TABLE t (a INTEGER DEFAULT 'x''y')",
        "UPDATE t SET a = a || '-' WHERE a LIKE '%z%'",
    ]))
    def test_render_tokenize_fixpoint(self, sql):
        """render(tokenize(x)) is a fixpoint under re-tokenisation."""
        rendered = render_tokens(tokenize(sql))
        again = render_tokens(tokenize(rendered))
        assert rendered == again


def _tpcc_texts():
    """The TPC-C schema, population and one seed-1 stream, as literal
    statements and as ``?`` templates."""
    from repro.workload import schema
    from repro.workload.generator import TpccGenerator

    texts = [*schema.SCHEMA_STATEMENTS, *schema.populate_statements()]
    for transaction in TpccGenerator(seed=1).transactions(40):
        texts.extend(transaction.statements)
        texts.extend(template for template, _ in transaction.calls)
    return texts


class TestSharedTokenStream:
    """Parsing the tokens of a text is parsing the text: the layers
    that already hold a scan hand it on instead of scanning again."""

    def test_parsing_tokens_equals_parsing_text(self, corpus):
        texts = [report.script for report in corpus] + _tpcc_texts()
        for text in texts:
            assert Parser(tokenize(text)).parse_script() == parse_script(text), text

    def test_tpcc_placeholder_offsets_from_the_parse_equal_the_scan(self):
        templates = {text for text in _tpcc_texts() if "?" in text}
        assert templates
        for template in templates:
            _, positions = parse_prepared(template)
            assert list(positions) == placeholder_positions(template), template

    @given(
        conjuncts=st.lists(
            st.sampled_from([
                "a = ?", "b = '?'", "/* ? */ c = ?", "-- ?\n d < ?", '"?" = ?',
                "e IN (?, 'it''s ?', ?)", "f BETWEEN ? AND\n?", "g = 1",
            ]),
            min_size=1, max_size=6,
        )
    )
    def test_placeholder_offsets_from_the_parse_equal_the_scan(self, conjuncts):
        sql = "SELECT a FROM t WHERE " + " AND ".join(conjuncts)
        statement, positions = parse_prepared(sql)
        assert list(positions) == placeholder_positions(sql)
        assert all(sql[position] == "?" for position in positions)
        assert parse_prepared(tokenize(sql)) == (statement, positions)


def _pieces(corpus):
    """Every statement of every corpus script, in its home dialect."""
    return [piece for report in corpus for piece in split_statements(report.script)]


def _classify_text(runner, key, text):
    """One cell classified with no pieces parsed ahead: each server
    splits the text and runs every piece as text."""
    faulty, oracle = runner.faulty[key], runner.oracle[key]
    faulty.reset()
    oracle.reset()
    faulty_run = run_script(faulty, text)
    fired = frozenset(faulty.injector.fired_fault_ids)
    catalog = {fault.fault_id: fault for fault in faulty.injector.faults()}
    return classify_run(faulty_run, run_script(oracle, text), fired, catalog)


def _hunt_texts(rounds=150):
    generator = PredicateGenerator(seed=1)
    texts = generator.schema_statements()
    for _ in range(rounds):
        texts.append(generator.select_statement())
        texts.append(generator.pivot_case()[0])
    return texts


class TestOneParsePerStatement:
    """What a layer hands an engine instead of text is exactly what the
    engine would have made of the text: the pipeline's per-dialect
    entries, the study's pre-parsed pieces and the WAL's rendering."""

    def test_pipeline_entries_equal_translating_and_parsing(self, corpus):
        texts = _pieces(corpus) + _tpcc_texts() + _hunt_texts()
        pipeline = StatementPipeline()
        for sql in texts:
            for key in SERVER_KEYS:
                try:
                    expected = translate_script(sql, key)
                except FeatureNotSupported as refusal:
                    with pytest.raises(FeatureNotSupported) as raised:
                        pipeline.translation(sql, dialect(key))
                    assert raised.value.feature == refusal.feature
                    continue
                entry = pipeline.translation(sql, dialect(key))
                assert isinstance(entry, ParsedStatement), (sql, key)
                assert entry.sql == expected, (sql, key)
                assert entry.statement == parse_statement(expected), (sql, key)
                assert entry.traits == extract_traits(entry.statement), (sql, key)

    def test_study_pieces_equal_parsing_each_piece(self, corpus):
        """The pieces the study hands each server, from one scan and one
        parse per piece of the home script, are what splitting the
        translated script and parsing each piece gives."""
        renamed = 0
        for report in corpus:
            shared = ScriptPieces(report.script)
            for key in SERVER_KEYS:
                home = key == report.reported_for
                try:
                    script = report.script if home else translate_script(report.script, key)
                except FeatureNotSupported as refusal:
                    with pytest.raises(FeatureNotSupported) as raised:
                        shared.translated(key)
                    assert raised.value.feature == refusal.feature
                    continue
                pieces = split_statements(script)
                parsed = [parse_once(piece) for piece in pieces]
                handed = shared if home else shared.translated(key)
                renamed += handed is not shared
                assert handed.pieces == parsed, (report.bug_id, key)
                assert [entry.sql for entry in parsed] == pieces
                for piece, entry in zip(pieces, parsed):
                    assert [entry.statement] == parse_script(piece), piece
                    assert entry.traits == extract_traits(entry.statement), piece
        assert renamed > 0

    @pytest.mark.parametrize(
        "script",
        [
            "CREATE TABLE t (a INTEGER, b VARCHAR(10)); INSERT INTO t VALUES (1, 'x');"
            " SELECT a FROM t SELECT b FROM t; SELECT a, b FROM t",
            "CREATE TABLE t (a INTEGER, b VARCHAR(10)); INSERT INTO t VALUES (1, 'x';"
            " SELECT a FROM t",
        ],
        ids=["two-statements-one-piece", "piece-does-not-parse"],
    )
    def test_study_script_with_an_unparsed_piece_runs_as_text(self, corpus, script):
        """A script with a piece that is not exactly one statement is
        translated as text: each server gets the translated text's
        pieces, or the translation's error, and classifies as it would
        the text."""
        report = next(report for report in corpus if not report.translation_pending)
        runner = StudyRunner(corpus)
        shared = ScriptPieces(script)
        assert shared.pieces == [parse_once(piece) for piece in split_statements(script)]
        assert any(isinstance(piece, str) for piece in shared.pieces)
        for key in SERVER_KEYS:
            home = key == report.reported_for
            try:
                text = script if home else translate_script(script, key)
            except SqlError as error:
                with pytest.raises(type(error), match=re.escape(str(error))):
                    runner.run_cell(report, key, script=shared)
                continue
            if not home:
                assert shared.translated(key).pieces == [
                    parse_once(piece) for piece in split_statements(text)
                ]
            assert runner.run_cell(report, key, script=shared) == _classify_text(
                runner, key, text
            ), key

    def test_a_piece_that_does_not_parse_fails_as_the_engine_fails_it(self, corpus):
        """A piece that is not one statement is handed on as its text, so
        the study records the error ``Engine.execute(piece)`` raises."""
        broken = [piece[: len(piece) // 2] for piece in _pieces(corpus)[::5]]
        broken += ["SELECT FROM WHERE", "INSERT INTO t VALUES (1", "SELECT 'open"]
        failed = 0
        for piece in broken:
            parsed = parse_once(piece)
            try:
                parse_statement(piece)
            except SqlError:
                assert parsed == piece
            else:
                continue
            try:
                Engine("oracle").execute(piece)
            except SqlError as error:
                outcome = run_script(ServerProduct(dialect("PG")), [parsed])
                assert outcome.statements[0].error == str(error), piece
                failed += 1
        assert failed > 100

    def test_wal_records_equal_translating_the_bound_text(self):
        from repro.workload import schema
        from repro.workload.generator import TpccGenerator

        medium = MemoryMedium()
        server = DiverseServer(
            [make_server(key) for key in SERVER_KEYS],
            config=ServerConfig(durability=DurabilityManager(medium)),
        )
        for sql in [*schema.SCHEMA_STATEMENTS, *schema.populate_statements()[:60]]:
            server.execute(sql)
        server.execute("CREATE TABLE spelled (a NUMBER(8,2), b VARCHAR2(10))")
        server.execute("INSERT INTO spelled VALUES (-1.5, NVL(NULL, 'x'))")
        for index, transaction in enumerate(TpccGenerator(seed=1).transactions(30)):
            if index % 2:
                for statement in transaction.statements:
                    server.execute(statement)
            else:
                for template, params in transaction.calls:
                    server.prepare(template).execute(params)
        for key in SERVER_KEYS:
            records = server.durability.store(key).wal.scan().records
            assert [record.sql for record in records] == [
                translate_script(sql, key) for sql in server.write_log
            ], key


class TestLikeProperties:
    @given(text=st.text(alphabet="abc%_", max_size=8))
    def test_percent_matches_everything(self, text):
        assert like_match(text, "%") is True

    @given(text=st.text(alphabet="abcxyz", min_size=1, max_size=8))
    def test_exact_pattern_matches_itself(self, text):
        assert like_match(text, text) is True

    @given(text=st.text(alphabet="abcxyz", min_size=1, max_size=8))
    def test_underscores_match_by_length(self, text):
        assert like_match(text, "_" * len(text)) is True
        assert like_match(text, "_" * (len(text) + 1)) is False


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(min_value=-100, max_value=100),
                           min_size=1, max_size=12))
    def test_order_by_sorts(self, values):
        engine = Engine("prop")
        engine.execute("CREATE TABLE t (a INTEGER)")
        for value in values:
            engine.execute(f"INSERT INTO t VALUES ({value})")
        result = engine.execute("SELECT a FROM t ORDER BY a")
        assert [r[0] for r in result.rows] == sorted(values)

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(min_value=-20, max_value=20),
                           min_size=1, max_size=12))
    def test_distinct_matches_set_semantics(self, values):
        engine = Engine("prop")
        engine.execute("CREATE TABLE t (a INTEGER)")
        for value in values:
            engine.execute(f"INSERT INTO t VALUES ({value})")
        result = engine.execute("SELECT DISTINCT a FROM t")
        assert sorted(r[0] for r in result.rows) == sorted(set(values))

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(min_value=-1000, max_value=1000),
                           min_size=1, max_size=12))
    def test_aggregates_match_python(self, values):
        engine = Engine("prop")
        engine.execute("CREATE TABLE t (a INTEGER)")
        for value in values:
            engine.execute(f"INSERT INTO t VALUES ({value})")
        result = engine.execute("SELECT COUNT(*), SUM(a), MIN(a), MAX(a) FROM t")
        count, total, low, high = result.rows[0]
        assert (count, total, low, high) == (
            len(values), sum(values), min(values), max(values),
        )

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=50),
                           min_size=1, max_size=10))
    def test_rollback_is_identity(self, values):
        engine = Engine("prop")
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("INSERT INTO t VALUES (999)")
        before = engine.execute("SELECT a FROM t ORDER BY a").rows
        engine.execute("BEGIN")
        for value in values:
            engine.execute(f"INSERT INTO t VALUES ({value})")
        engine.execute("UPDATE t SET a = a + 1")
        engine.execute("DELETE FROM t WHERE a > 500")
        engine.execute("ROLLBACK")
        after = engine.execute("SELECT a FROM t ORDER BY a").rows
        assert before == after

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_union_is_idempotent(self, seed):
        engine = Engine("prop")
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute(f"INSERT INTO t VALUES ({seed % 7}), ({seed % 11}), ({seed % 13})")
        single = engine.execute("SELECT a FROM t UNION SELECT a FROM t ORDER BY a").rows
        distinct = engine.execute("SELECT DISTINCT a FROM t ORDER BY a").rows
        assert single == distinct
