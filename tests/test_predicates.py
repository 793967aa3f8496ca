"""The ternary-logic predicate abstraction: lattice units, soundness
properties against the concrete evaluator, TLP partitioning, rewrite
certificates, and the lint checks built on top."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import (
    _check_dead_predicates,
    _check_rewrite_certificates,
    _RewriteCoverage,
    lint_corpus,
)
from repro.analysis.predicates import (
    PredicateEnv,
    abstract_truth,
    abstract_value,
    certify_rewrites,
    summarize_statement,
    tlp_partition,
)
from repro.analysis.schema import ScriptSchema
from repro.dialects.translator import ScriptPieces
from repro.errors import NumericOverflow, SqlError
from repro import hunt
from repro.hunt import run_hunt
from repro.servers import make_server
from repro.sqlengine import Engine
from repro.sqlengine.engine import ParsedStatement
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import ColumnBinding
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plan.compiler import Scope, compile_expression
from repro.sqlengine.plan.lattice import Interval
from repro.sqlengine.sqlgen import DECOY_TABLE, HUNT_TABLE, PredicateGenerator
from repro.study.runner import split_statements

PRODUCTS = ("IB", "PG", "OR", "MS")

HUNT_COLUMNS = ("id", "a", "b", "c", "d")
HUNT_BINDINGS = tuple(ColumnBinding("hunt", name) for name in HUNT_COLUMNS)


def _schema() -> ScriptSchema:
    schema = ScriptSchema()
    for ddl in (HUNT_TABLE, DECOY_TABLE):
        schema.observe(parse_statement(ddl))
    return schema


SCHEMA = _schema()


def _where(sql_predicate: str) -> ast.Expression:
    stmt = parse_statement(f"SELECT id FROM hunt WHERE {sql_predicate}")
    return stmt.body.where


def _hunt_env() -> PredicateEnv:
    stmt = parse_statement("SELECT id FROM hunt")
    return PredicateEnv.for_select(stmt.body, SCHEMA)


HUNT_ENV = _hunt_env()


def truth_of(sql_predicate: str):
    return abstract_truth(_where(sql_predicate), HUNT_ENV)


def value_of(sql_expression: str):
    # Piggyback on the WHERE grammar slot to parse a bare expression.
    return abstract_value(_where(f"({sql_expression}) IS NULL").operand, HUNT_ENV)


class TestTruthLattice:
    def test_literal_true_is_always_true(self):
        t = truth_of("TRUE")
        assert t.always_true and not t.may_raise

    def test_contradiction_is_never_true(self):
        assert truth_of("1 = 0").never_true

    def test_not_null_column_is_null_is_never_true(self):
        t = truth_of("d IS NULL")
        assert t.never_true and None not in t.truth

    def test_nullable_comparison_spans_the_lattice(self):
        t = truth_of("a > b")
        assert t.truth == frozenset({True, False, None})

    def test_is_null_is_total(self):
        t = truth_of("a IS NULL")
        assert t.truth == frozenset({True, False}) and t.total

    def test_not_flips_without_forgetting_unknown(self):
        t = truth_of("NOT (a > 0)")
        assert t.truth == frozenset({True, False, None})

    def test_and_with_false_is_false(self):
        assert truth_of("(a > 0) AND (1 = 2)").never_true

    def test_or_with_true_is_true(self):
        assert truth_of("(a > 0) OR (1 = 1)").always_true

    def test_division_by_column_may_raise(self):
        assert truth_of("a / b > 1").may_raise

    def test_division_by_nonzero_literal_is_safe(self):
        assert not truth_of("a / 2 > 1").may_raise


class TestValueLattice:
    def test_not_null_column_is_not_nullable(self):
        v = value_of("d")
        assert not v.nullable and not v.definitely_null

    def test_nullable_column_is_nullable(self):
        assert value_of("a").nullable

    def test_literal_interval_is_a_point(self):
        v = value_of("5")
        assert v.interval == Interval.point(5) and not v.nullable

    def test_arithmetic_folds_intervals(self):
        assert value_of("2 + 3").interval == Interval.point(5)

    def test_null_literal_is_definitely_null(self):
        assert value_of("NULL").definitely_null

    def test_count_is_non_negative(self):
        stmt = parse_statement("SELECT COUNT(id) FROM hunt")
        value = abstract_value(stmt.body.items[0].expression, HUNT_ENV)
        assert value.interval.low == 0 and not value.nullable


class TestDeadPredicates:
    def test_always_false_where_is_flagged(self):
        stmt = parse_statement("SELECT id FROM hunt WHERE 1 = 0")
        summary = summarize_statement(stmt, SCHEMA)
        assert any("WHERE" in finding.site for finding in summary.dead)

    def test_unreachable_case_arm_is_flagged(self):
        stmt = parse_statement(
            "SELECT CASE WHEN 1 = 1 THEN 1 WHEN a > 0 THEN 2 ELSE 3 END "
            "FROM hunt"
        )
        summary = summarize_statement(stmt, SCHEMA)
        assert any("CASE arm" in finding.site for finding in summary.dead)

    def test_live_statement_is_clean(self):
        stmt = parse_statement("SELECT id FROM hunt WHERE a > 0")
        assert summarize_statement(stmt, SCHEMA).dead == ()


def _concrete(expr: ast.Expression, row: dict):
    closure = compile_expression(expr, Scope(HUNT_BINDINGS))
    return closure(tuple(row[c] for c in HUNT_COLUMNS), None, None)


class TestSoundnessProperties:
    """The abstraction must over-approximate the concrete evaluator on
    generated NULL-rich predicates and rows."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), row_index=st.integers(0, 23))
    def test_truth_soundness(self, seed, row_index):
        generator = PredicateGenerator(seed=seed)
        predicate = generator.predicate()
        row = generator.rows[row_index]
        abstract = abstract_truth(predicate, HUNT_ENV)
        try:
            concrete = _concrete(predicate, row)
        except SqlError:
            assert abstract.may_raise
            return
        assert concrete in abstract.truth

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), row_index=st.integers(0, 23))
    def test_value_soundness(self, seed, row_index):
        generator = PredicateGenerator(seed=seed)
        predicate = generator.predicate()
        row = generator.rows[row_index]
        for node in ast.walk_expressions(predicate):
            abstract = abstract_value(node, HUNT_ENV)
            try:
                concrete = _concrete(node, row)
            except SqlError:
                assert abstract.may_raise
                continue
            if concrete is None:
                assert abstract.nullable or abstract.definitely_null
            else:
                assert not abstract.definitely_null
                if isinstance(concrete, (int, Decimal)) and not isinstance(
                    concrete, bool
                ):
                    assert abstract.interval.contains(concrete)


FLOAT_TABLE = "CREATE TABLE ft (id INTEGER PRIMARY KEY, f FLOAT, g FLOAT NOT NULL, n INTEGER)"
FLOAT_COLUMNS = ("id", "f", "g", "n")
FLOAT_BINDINGS = tuple(ColumnBinding("ft", name) for name in FLOAT_COLUMNS)
FLOAT_SCHEMA = ScriptSchema()
FLOAT_SCHEMA.observe(parse_statement(FLOAT_TABLE))
FLOAT_ENV = PredicateEnv.for_select(parse_statement("SELECT id FROM ft").body, FLOAT_SCHEMA)
#: Floats near the top of the range, and a tiny one that blows a
#: quotient up.
NEAR_MAX = (1e308, -1e308, 1.7e308, 1e300, 1e-300, 2.0, 0.5)


def _float_where(sql_predicate: str) -> ast.Expression:
    return parse_statement(f"SELECT id FROM ft WHERE {sql_predicate}").body.where


class TestFloatOverflow:
    """Float arithmetic refuses an infinite result (``NumericOverflow``),
    so only arithmetic over exact operands (int, decimal, bool) is
    proven unable to raise."""

    @pytest.mark.parametrize(
        "predicate", ["1e300 * 1e300 > 0", "f * f > 0", "f / 1e-300 > 0"]
    )
    def test_overflowing_float_arithmetic_may_raise(self, predicate):
        engine = Engine("float")
        engine.execute(FLOAT_TABLE)
        engine.execute("INSERT INTO ft (id, f, g, n) VALUES (1, 1e300, 1e300, 1)")
        with pytest.raises(NumericOverflow):
            engine.execute(f"SELECT id FROM ft WHERE {predicate}")
        truth = abstract_truth(_float_where(predicate), FLOAT_ENV)
        assert truth.may_raise and not truth.always_true
        stmt = parse_statement(f"SELECT id FROM ft WHERE {predicate}")
        assert not tlp_partition(stmt, FLOAT_SCHEMA).certificate.total
        assert summarize_statement(stmt, FLOAT_SCHEMA).dead == ()

    def test_exact_arithmetic_stays_total(self):
        assert abstract_truth(_float_where("n * n + 1 > 0"), FLOAT_ENV).total
        assert abstract_truth(_float_where("2.5 * 4 = 10"), FLOAT_ENV).always_true

    def test_float_meets_decimal_bounds(self):
        # The engine widens a Decimal to float; the lattice's bounds
        # cannot mix the two, so it widens them to the top instead.
        value = abstract_value(_float_where("(2.5 * 1e300) IS NULL").operand, FLOAT_ENV)
        assert value.category == "float" and value.may_raise
        assert value.interval.contains(2.5e300)


_FLOAT_LEAVES = st.one_of(
    st.sampled_from([ast.ColumnRef(name) for name in ("f", "g", "n")]),
    st.sampled_from(NEAR_MAX).map(ast.Literal),
    st.integers(-3, 3).map(ast.Literal),
)
_FLOAT_TERMS = st.recursive(
    _FLOAT_LEAVES,
    lambda terms: st.tuples(st.sampled_from("+-*/"), terms, terms).map(
        lambda parts: ast.BinaryOp(*parts)
    ),
    max_leaves=5,
)
_FLOAT_PREDICATES = st.tuples(
    st.sampled_from(("=", "<>", "<", "<=", ">", ">=")), _FLOAT_TERMS, _FLOAT_TERMS
).map(lambda parts: ast.BinaryOp(*parts))
_FLOAT_ROWS = st.fixed_dictionaries(
    {
        "id": st.just(1),
        "f": st.sampled_from((None, 0.0) + NEAR_MAX),
        "g": st.sampled_from((0.0,) + NEAR_MAX),
        "n": st.sampled_from((None, 0, 3, -2)),
    }
)


class TestFloatSoundness:
    """The soundness contract over a FLOAT column and literals near
    1e308, where float arithmetic overflows."""

    @settings(max_examples=80, deadline=None)
    @given(predicate=_FLOAT_PREDICATES, row=_FLOAT_ROWS)
    def test_truth_and_value_soundness(self, predicate, row):
        scope = Scope(FLOAT_BINDINGS)
        values = tuple(row[column] for column in FLOAT_COLUMNS)
        for node in ast.walk_expressions(predicate):
            abstract = abstract_value(node, FLOAT_ENV)
            try:
                concrete = compile_expression(node, scope)(values, None, None)
            except SqlError:
                assert abstract.may_raise, node
                continue
            if concrete is None:
                assert abstract.nullable, node
            elif not isinstance(concrete, bool):
                assert abstract.interval.contains(concrete), node
        truth = abstract_truth(predicate, FLOAT_ENV)
        try:
            concrete = compile_expression(predicate, scope)(values, None, None)
        except SqlError:
            assert truth.may_raise
            return
        assert concrete in truth.truth


def _campaign_servers():
    from repro.analysis.verdicts import statement_portability
    from repro.sqlengine.analysis import extract_traits

    generator = PredicateGenerator(seed=99)
    servers = {key: make_server(key) for key in PRODUCTS}
    for statement in generator.schema_statements():
        for product in servers.values():
            product.engine.execute(statement)
    return servers, statement_portability, extract_traits


class TestTlpUnionProperty:
    """Union-equals-base on every product, for generated statements and
    for the corpus's own SELECTs."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_generated_statements_partition_cleanly(self, seed):
        servers, statement_portability, extract_traits = _campaign_state()
        generator = PredicateGenerator(seed=seed)
        sql = generator.select_statement()
        stmt = parse_statement(sql)
        triple = tlp_partition(stmt, SCHEMA)
        if triple is None:
            return
        traits = extract_traits(stmt)
        for key, product in servers.items():
            if not statement_portability(traits, key).can_run:
                continue
            base = _rows(product, triple.base)
            union = []
            for partition in triple.partitions:
                union.extend(_rows(product, partition))
            assert sorted(map(repr, union)) == sorted(map(repr, base)), key

    def test_corpus_selects_partition_cleanly(self, corpus):
        checked = 0
        for report in corpus:
            if checked >= 25:
                break
            statements = split_statements(report.script)
            schema = ScriptSchema()
            server = make_server(report.reported_for)
            for sql in statements:
                stmt = parse_statement(sql)
                triple = tlp_partition(stmt, schema)
                schema.observe(stmt)
                try:
                    server.engine.execute(sql)
                except SqlError:
                    break
                if triple is None:
                    continue
                base = _rows(server, triple.base)
                union = []
                for partition in triple.partitions:
                    union.extend(_rows(server, partition))
                assert sorted(map(repr, union)) == sorted(map(repr, base)), (
                    report.bug_id,
                    sql,
                )
                checked += 1
        assert checked > 0


_CAMPAIGN_STATE = None


def _campaign_state():
    global _CAMPAIGN_STATE
    if _CAMPAIGN_STATE is None:
        _CAMPAIGN_STATE = _campaign_servers()
    return _CAMPAIGN_STATE


def _rows(product, sql):
    return [tuple(row) for row in product.engine.execute(sql).rows]


class TestTlpStatementsEqualTheirParse:
    """The base and partitions :func:`tlp_partition` builds from the tree
    it holds are what parsing their text gives, so the hunt may run them
    (and share their plans) without a parse."""

    @staticmethod
    def _assert_built_equal_parsed(triple) -> int:
        built = (triple.base, *triple.partitions)
        for statement in built:
            assert statement == ParsedStatement.parse(statement.sql), statement.sql
        return len(built)

    def test_hunt_campaigns(self, monkeypatch):
        checked = 0

        def partition(stmt, schema, _partition=tlp_partition):
            nonlocal checked
            triple = _partition(stmt, schema)
            if triple is not None:
                checked += self._assert_built_equal_parsed(triple)
            return triple

        monkeypatch.setattr(hunt, "tlp_partition", partition)
        for seed in range(1, 6):
            run_hunt(60, seed=seed, products=["IB"])
        assert checked > 1000

    def test_corpus_selects(self, corpus):
        checked = 0
        for report in corpus:
            schema = ScriptSchema()
            for sql in split_statements(report.script):
                try:
                    stmt = parse_statement(sql)
                except SqlError:
                    break
                triple = tlp_partition(stmt, schema)
                schema.observe(stmt)
                if triple is not None:
                    checked += self._assert_built_equal_parsed(triple)
        assert checked > 0


class TestTlpGating:
    def test_plain_select_partitions(self):
        stmt = parse_statement("SELECT id FROM hunt WHERE a > 0")
        triple = tlp_partition(stmt, SCHEMA)
        assert triple is not None
        assert len(triple.partitions) == 3
        assert "IS NULL" in triple.partitions[2].sql

    def test_no_where_does_not_partition(self):
        assert tlp_partition(parse_statement("SELECT id FROM hunt"), SCHEMA) is None

    def test_parameter_blocks_partitioning(self):
        stmt = parse_statement("SELECT id FROM hunt WHERE a > ?")
        assert tlp_partition(stmt, SCHEMA) is None

    def test_aggregate_blocks_partitioning(self):
        stmt = parse_statement("SELECT COUNT(id) FROM hunt WHERE a > 0")
        assert tlp_partition(stmt, SCHEMA) is None

    def test_distinct_blocks_partitioning(self):
        stmt = parse_statement("SELECT DISTINCT a FROM hunt WHERE a > 0")
        assert tlp_partition(stmt, SCHEMA) is None

    def test_order_by_is_stripped_from_partitions(self):
        stmt = parse_statement("SELECT id FROM hunt WHERE a > 0 ORDER BY id")
        triple = tlp_partition(stmt, SCHEMA)
        assert triple is not None
        assert "ORDER BY" not in triple.base.sql
        assert all("ORDER BY" not in partition.sql for partition in triple.partitions)


class TestRewriteCertificates:
    def test_every_registered_rule_is_certified(self):
        from repro.sqlengine.plan import REWRITE_RULES

        certificates = certify_rewrites()
        assert set(certificates) == set(REWRITE_RULES)
        for rule, certificate in certificates.items():
            assert certificate.certified, (rule, certificate.detail)
            assert certificate.obligations, rule

    def test_lint_is_clean_on_registered_rules(self):
        assert _check_rewrite_certificates() == []

    def test_unknown_rule_fails_certification(self, monkeypatch):
        from repro.analysis import predicates

        rules = dict(predicates.REWRITE_RULES)
        rules["bogus-rewrite"] = None
        monkeypatch.setattr(predicates, "REWRITE_RULES", rules)
        certificates = certify_rewrites()
        assert not certificates["bogus-rewrite"].certified
        findings = _check_rewrite_certificates()
        assert [f.subject for f in findings] == ["bogus-rewrite"]
        assert all(f.severity == "error" for f in findings)


def _probes_without(monkeypatch, *markers):
    """Drop each planner witness whose text holds one of ``markers``
    from the scripts the lint's dead-rewrite check replays first."""
    from repro.analysis import lint
    from repro.sqlengine.plan import PROBE_SCRIPTS

    kept = tuple(sql for sql in PROBE_SCRIPTS if not any(marker in sql for marker in markers))
    assert len(kept) == len(PROBE_SCRIPTS) - len(markers)
    monkeypatch.setattr(lint, "PROBE_SCRIPTS", kept)


class TestDeadRewrites:
    """The corpus and TPC-C passes of the dead-rewrite check, which run
    only when the planner witnesses miss a rule."""

    def test_each_pass_marks_what_it_fires(self, monkeypatch, corpus):
        # Every witness also pushes a predicate down, so take all three.
        _probes_without(monkeypatch, "1 + 1", "probe_b.ref", "id = 1")
        coverage = _RewriteCoverage()
        assert coverage.exercised == set()
        for report in corpus:
            coverage.add(ScriptPieces(report.script))
        assert coverage.exercised == {"predicate_pushdown"}
        findings = coverage.findings()
        # TPC-C selects by key; no corpus or TPC-C statement folds a constant.
        assert coverage.exercised == {"predicate_pushdown", "index_selection"}
        assert [(f.check, f.subject, f.severity) for f in findings] == [
            ("dead-rewrite", "constant_folding", "warning")
        ]

    def test_a_rule_nothing_fires_is_one_dead_rewrite_warning(self, monkeypatch, corpus):
        _probes_without(monkeypatch, "1 + 1")
        findings = [f for f in lint_corpus(corpus) if f.check == "dead-rewrite"]
        assert [(f.subject, f.severity) for f in findings] == [("constant_folding", "warning")]


class _StubReport:
    def __init__(self, bug_id, script):
        self.bug_id = bug_id
        self.script = script


class TestLintPredicates:
    def test_dead_predicate_warning_fires(self):
        report = _StubReport(
            "STUB-1",
            "CREATE TABLE t (id INTEGER PRIMARY KEY);\n"
            "SELECT id FROM t WHERE 1 = 0",
        )
        findings = _check_dead_predicates(report, ScriptPieces(report.script))
        assert findings and findings[0].check == "dead-predicate"
        assert findings[0].severity == "warning"
        assert findings[0].statement_index == 1

    def test_clean_script_has_no_findings(self):
        report = _StubReport(
            "STUB-2",
            "CREATE TABLE t (id INTEGER PRIMARY KEY);\n"
            "SELECT id FROM t WHERE id > 0",
        )
        assert _check_dead_predicates(report, ScriptPieces(report.script)) == []


class TestLintDeterminism:
    def test_findings_are_deduplicated(self, pristine_lint):
        keys = [
            (f.check, f.subject, f.statement_index) for f in pristine_lint.findings
        ]
        assert len(keys) == len(set(keys))

    def test_lint_is_deterministic(self, corpus, pristine_lint):
        assert [str(f) for f in pristine_lint.findings] == [
            str(f) for f in lint_corpus(corpus)
        ]

    def test_json_output_is_stably_sorted(self, pristine_lint):
        import json

        records = [json.loads(line) for line in pristine_lint.json_output.splitlines()]
        keys = [
            (
                r["code"],
                r["script_id"],
                r["statement_index"] if r["statement_index"] is not None else -1,
                r["detail"],
            )
            for r in records
        ]
        assert keys == sorted(keys)


class TestPipelineAbstraction:
    def test_abstraction_is_memoized_and_invalidated(self):
        from repro.dialects.features import dialect
        from repro.middleware.server import DiverseServer
        from repro.servers.product import ServerProduct

        server = DiverseServer(
            [ServerProduct(dialect(key)) for key in ("PG", "MS")]
        )

        def abstraction(sql):
            statement, _, _ = server.pipeline.parsed(sql)
            return server.pipeline.abstraction(sql, statement, server._schema)

        server.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        first = abstraction("SELECT id FROM t WHERE v > 0")
        again = abstraction("SELECT id FROM t WHERE v > 0")
        assert again is first
        assert server.pipeline.stats.abstraction_hits == 1
        assert server.pipeline.stats.abstraction_misses == 1
        server.execute("CREATE INDEX ix_v ON t (v)")
        abstraction("SELECT id FROM t WHERE v > 0")
        assert server.pipeline.stats.abstraction_misses == 2
        assert first.tlp is not None
        assert server.pipeline.stats.hits >= 1
