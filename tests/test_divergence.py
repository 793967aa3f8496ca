"""Dialect-divergence analysis: profiles, atoms, verdicts, comparator
triage, and agreement with the dynamic result normalizer."""

import datetime
from decimal import Decimal

import pytest

from repro.analysis import PROFILES, analyze_divergence
from repro.analysis.divergence import (
    _NORMALIZER_FOLDED,
    _RULE_NOTES,
    RULE_FIELDS,
    DivergenceAtom,
    DivergenceKind,
)
from repro.analysis.schema import ScriptSchema
from repro.faults import (
    DialectRenderEffect,
    FaultSpec,
    RelationTrigger,
    RowDropEffect,
)
from repro.middleware import DiverseServer
from repro.sqlengine.values import normalize_value
from repro.servers import make_server
from repro.sqlengine.parser import parse_statement


@pytest.fixture(scope="module")
def schema():
    built = ScriptSchema()
    built.observe(
        parse_statement(
            "CREATE TABLE t (id INTEGER NOT NULL, n INTEGER, "
            "amount NUMERIC(8,2), tag CHAR(8), name VARCHAR(20), booked DATE)"
        )
    )
    return built


def analyze(sql, schema):
    return analyze_divergence(parse_statement(sql), schema)


class TestProfileRegressions:
    """Pin the per-product semantics the translator/normalizer embody.

    A profile drift would silently change which disagreements the
    comparator forgives, so every field is pinned explicitly.
    """

    def test_division(self):
        assert PROFILES["OR"].integer_division == "exact"
        for key in ("IB", "PG", "MS"):
            assert PROFILES[key].integer_division == "truncate", key

    def test_null_order(self):
        assert PROFILES["MS"].null_sort == "first"
        for key in ("IB", "PG", "OR"):
            assert PROFILES[key].null_sort == "last", key

    def test_null_concat(self):
        assert PROFILES["OR"].null_concat == "empty"
        for key in ("IB", "PG", "MS"):
            assert PROFILES[key].null_concat == "propagate", key

    def test_trailing_blanks(self):
        assert PROFILES["MS"].char_pad is False
        assert PROFILES["MS"].trailing_blank_compare is False
        for key in ("IB", "PG", "OR"):
            assert PROFILES[key].char_pad is True, key
            assert PROFILES[key].trailing_blank_compare is True, key

    def test_date_midnight_fold(self):
        assert PROFILES["PG"].date_has_time is False
        for key in ("IB", "OR", "MS"):
            assert PROFILES[key].date_has_time is True, key

    def test_decimal_scale(self):
        assert PROFILES["OR"].decimal_scale == "normalize"
        for key in ("IB", "PG", "MS"):
            assert PROFILES[key].decimal_scale == "preserve", key


class TestAtomCollection:
    def test_integer_division(self, schema):
        result = analyze("SELECT id / 2 FROM t", schema)
        assert any(a.rule == "integer-division" for a in result.atoms)
        assert result.verdict("IB", "OR").kind is DivergenceKind.BENIGN_DIALECT
        assert result.verdict("IB", "PG").kind is DivergenceKind.AGREE_PROVEN

    def test_decimal_division_is_not_dialect_sensitive(self, schema):
        result = analyze("SELECT amount / 2 FROM t WHERE id = 1", schema)
        assert not any(a.rule == "integer-division" for a in result.atoms)

    def test_nullable_concat(self, schema):
        result = analyze("SELECT name || 'x' FROM t WHERE id = 1", schema)
        assert any(a.rule == "null-concat" for a in result.atoms)
        assert result.verdict("IB", "OR").kind is DivergenceKind.BENIGN_DIALECT
        assert result.verdict("PG", "MS").kind is DivergenceKind.AGREE_PROVEN

    def test_not_null_concat_is_safe(self, schema):
        # id is NOT NULL and the literal cannot be NULL: concat cannot
        # hit the NULL rule, so OR vs PG agreement is proven.
        result = analyze(
            "SELECT CAST(id AS VARCHAR(4)) || 'x' FROM t WHERE id = 1", schema
        )
        assert result.verdict("PG", "OR").kind in (
            DivergenceKind.AGREE_PROVEN,
            DivergenceKind.UNKNOWN,
        )
        assert not any(a.rule == "null-concat" for a in result.atoms)

    def test_outer_join_makes_not_null_operands_nullable(self):
        # b.name is NOT NULL in the schema, but the LEFT JOIN pads
        # unmatched rows with NULL: OR renders 'x' where IB renders NULL.
        outer = ScriptSchema()
        outer.observe(parse_statement("CREATE TABLE a (id INTEGER PRIMARY KEY)"))
        outer.observe(
            parse_statement(
                "CREATE TABLE b (id INTEGER PRIMARY KEY, name VARCHAR(8) NOT NULL)"
            )
        )
        result = analyze(
            "SELECT b.name || 'x' FROM a LEFT JOIN b ON a.id = b.id", outer
        )
        assert [a.rule for a in result.atoms] == ["null-concat"]
        assert result.verdict("IB", "OR").kind is DivergenceKind.BENIGN_DIALECT
        inner = analyze("SELECT b.name || 'x' FROM a JOIN b ON a.id = b.id", outer)
        assert inner.atoms == []

    def test_order_by_nullable_key(self, schema):
        result = analyze("SELECT id FROM t ORDER BY n", schema)
        assert any(a.rule == "null-sort-position" for a in result.atoms)
        assert result.verdict("IB", "MS").kind is DivergenceKind.BENIGN_DIALECT
        assert result.verdict("IB", "PG").kind is DivergenceKind.AGREE_PROVEN

    def test_sort_position_never_excuses_different_rows(self, schema):
        # A NULL sorted first vs last explains a permutation of the same
        # rows, not answers that differ as row multisets.
        result = analyze("SELECT id FROM t ORDER BY n", schema)
        verdict = result.verdict("IB", "MS", rows_differ=True)
        assert verdict.kind is DivergenceKind.AGREE_PROVEN

    def test_order_by_not_null_key_is_safe(self, schema):
        result = analyze("SELECT id FROM t ORDER BY id", schema)
        assert not any(a.rule == "null-sort-position" for a in result.atoms)
        assert result.verdict("IB", "MS").kind is DivergenceKind.AGREE_PROVEN

    def test_char_comparison(self, schema):
        result = analyze("SELECT id FROM t WHERE tag = 'a'", schema)
        assert any(a.rule == "trailing-blank-comparison" for a in result.atoms)
        assert result.verdict("IB", "MS").kind is DivergenceKind.BENIGN_DIALECT

    def test_char_rendering(self, schema):
        result = analyze("SELECT tag FROM t WHERE id = 1", schema)
        atoms = [a for a in result.atoms if a.rule == "char-padding"]
        assert atoms and atoms[0].normalizer_folds
        # Raw comparator: IB pads, MS does not — benign.
        raw = result.verdict("IB", "MS", normalized=False)
        assert raw.kind is DivergenceKind.BENIGN_DIALECT
        # Normalizing comparator already folded padding away: any
        # disagreement that survives is fault-indicating.
        folded = result.verdict("IB", "MS", normalized=True)
        assert folded.kind is DivergenceKind.AGREE_PROVEN

    def test_date_rendering(self, schema):
        result = analyze("SELECT booked FROM t WHERE id = 1", schema)
        assert any(a.rule == "date-midnight-fold" for a in result.atoms)
        assert result.verdict("IB", "PG").kind is DivergenceKind.BENIGN_DIALECT
        assert (
            result.verdict("IB", "PG", normalized=True).kind
            is DivergenceKind.AGREE_PROVEN
        )

    def test_numeric_scale_rendering(self, schema):
        result = analyze("SELECT amount FROM t WHERE id = 1", schema)
        assert any(a.rule == "numeric-scale" for a in result.atoms)
        assert result.verdict("PG", "OR").kind is DivergenceKind.BENIGN_DIALECT
        assert (
            result.verdict("PG", "OR", normalized=True).kind
            is DivergenceKind.AGREE_PROVEN
        )

    def test_volatile_function_defeats_analysis(self, schema):
        result = analyze("SELECT GETDATE() FROM t", schema)
        assert result.unknowns
        assert result.verdict("IB", "PG").kind is DivergenceKind.UNKNOWN

    def test_ddl_has_no_atoms(self, schema):
        result = analyze("CREATE TABLE u (id INTEGER)", schema)
        assert not result.atoms and not result.unknowns
        assert result.verdict("IB", "MS").kind is DivergenceKind.AGREE_PROVEN

    def test_verdict_describe_names_operator_and_rule(self, schema):
        verdict = analyze("SELECT id / 2 FROM t", schema).verdict("IB", "OR")
        text = verdict.describe()
        assert "integer-division" in text and "/" in text


class TestNormalizerAgreement:
    """The static fold claims must match what the normalizer does.

    Each rule either declares ``normalizer_folds`` and the dynamic
    :func:`normalize_value` really reconciles its two renderings, or it
    carries a note explaining why folding is impossible.
    """

    def test_every_rule_is_classified(self):
        assert set(RULE_FIELDS) == set(_RULE_NOTES)
        assert _NORMALIZER_FOLDED <= set(RULE_FIELDS)
        for rule in RULE_FIELDS:
            atom = DivergenceAtom.make("op", rule)
            assert atom.note
            assert atom.normalizer_folds == (rule in _NORMALIZER_FOLDED)

    def test_char_padding_folds(self):
        assert "char-padding" in _NORMALIZER_FOLDED
        assert normalize_value("ab      ") == normalize_value("ab")

    def test_date_midnight_folds(self):
        assert "date-midnight-fold" in _NORMALIZER_FOLDED
        assert normalize_value(datetime.date(2004, 6, 1)) == normalize_value(
            datetime.datetime(2004, 6, 1, 0, 0, 0)
        )
        # A real time-of-day still disagrees.
        assert normalize_value(datetime.date(2004, 6, 1)) != normalize_value(
            datetime.datetime(2004, 6, 1, 9, 30, 0)
        )

    def test_numeric_scale_folds(self):
        assert "numeric-scale" in _NORMALIZER_FOLDED
        assert normalize_value(Decimal("10.00")) == normalize_value(Decimal("10"))

    def test_integer_division_cannot_fold(self):
        assert "integer-division" not in _NORMALIZER_FOLDED
        assert normalize_value(1) != normalize_value(Decimal("1.5"))

    def test_null_concat_cannot_fold(self):
        assert "null-concat" not in _NORMALIZER_FOLDED
        assert normalize_value(None) != normalize_value("x")


def seeded_diverse(static_analysis, faults_by_server, *, normalize):
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


def render_fault(fault_id, how):
    return FaultSpec(
        fault_id, f"renders ledger answers with {how} (its product's semantics)",
        RelationTrigger(["ledger"], kind="select"), DialectRenderEffect(how),
    )


#: Exactly the renderings each product's semantic profile departs from
#: the shared evaluator's output with: MS does not pad CHAR, IB/OR/MS
#: have only a combined date-time type, OR keeps no exact-numeric scale.
PROFILE_RENDERINGS = {
    "MS": [render_fault("T-NOPAD", "rstrip"), render_fault("T-DATETIME-MS", "datetime")],
    "IB": [render_fault("T-DATETIME-IB", "datetime")],
    "OR": [render_fault("T-DATETIME-OR", "datetime"), render_fault("T-SCALE", "strip-scale")],
}


class TestComparatorTriage:
    def test_benign_rendering_is_forgiven(self):
        server = seeded_diverse(True, PROFILE_RENDERINGS, normalize=False)
        for _ in range(3):
            server.execute("SELECT tag FROM ledger WHERE id < 3 ORDER BY id")
            server.execute("SELECT booked FROM ledger WHERE id = 1")
            server.execute("SELECT amount FROM ledger WHERE id = 1")
        stats = server.stats
        assert stats.disagreements_detected > 0
        assert stats.benign_dialect_divergences > 0
        assert stats.fault_indicating_divergences == 0
        assert stats.quarantines == 0

    def test_ablation_suspects_correct_replica(self):
        server = seeded_diverse(False, PROFILE_RENDERINGS, normalize=False)
        for _ in range(3):
            server.execute("SELECT tag FROM ledger WHERE id < 3 ORDER BY id")
            server.execute("SELECT booked FROM ledger WHERE id = 1")
            server.execute("SELECT amount FROM ledger WHERE id = 1")
        stats = server.stats
        assert stats.fault_indicating_divergences > 0
        assert stats.benign_dialect_divergences == 0

    @pytest.mark.parametrize("batched", [False, True])
    def test_executemany_reports_what_execute_reports(self, batched):
        # OR renders 10.50 as 10.5.  Python's == equates the two
        # Decimals, but the raw comparator must see them differ, and a
        # batch must be voted exactly like the same rows run one by one.
        server = seeded_diverse(
            True, {"OR": [render_fault("T-SCALE", "strip-scale")]}, normalize=False
        )
        sql = "SELECT amount FROM ledger WHERE id = ?"
        if batched:
            server.prepare(sql).executemany([(1,), (2,), (3,)])
        else:
            for key in (1, 2, 3):
                server.execute(sql, (key,))
        assert server.stats.disagreements_detected == 3
        assert server.stats.benign_dialect_divergences == 3

    def test_genuine_fault_still_indicts(self):
        drop = FaultSpec(
            "T-ROWDROP",
            "silently drops rows from ledger scans",
            RelationTrigger(["ledger"], kind="select"),
            RowDropEffect(),
        )
        server = seeded_diverse(True, {"IB": [drop]}, normalize=True)
        for _ in range(3):
            server.execute("SELECT id, tag FROM ledger ORDER BY id")
        stats = server.stats
        assert stats.fault_indicating_divergences > 0
        assert stats.benign_dialect_divergences == 0


def _typed(spelling: str) -> list:
    """Rules and IB/OR verdict of two probes over columns of one type."""
    schema = ScriptSchema()
    schema.observe(parse_statement(f"CREATE TABLE s (a {spelling}, b {spelling})"))
    outcome = []
    for sql in ("SELECT a / b FROM s", "SELECT a FROM s"):
        result = analyze(sql, schema)
        outcome.append((sorted(a.rule for a in result.atoms), result.verdict("IB", "OR").kind))
    return outcome


class TestTypeSpellings:
    """A column's abstract type comes from the engine's own type
    resolution: a spelling the engine accepts types like its canonical
    twin, and one the engine rejects types as unknown."""

    @pytest.mark.parametrize(
        ("spelling", "twin"),
        [
            ("INT4", "INTEGER"),
            ("INT2", "SMALLINT"),
            ("INT8", "BIGINT"),
            ("DEC(8,2)", "NUMERIC(8,2)"),
            ("BOOL", "BOOLEAN"),
            ("CHARACTER VARYING(8)", "VARCHAR(8)"),
        ],
    )
    def test_engine_spelling_types_as_its_twin(self, spelling, twin):
        assert _typed(spelling) == _typed(twin)

    def test_int4_division_is_benign_dialect(self):
        (rules, kind), _ = _typed("INT4")
        assert "integer-division" in rules
        assert kind is DivergenceKind.BENIGN_DIALECT

    @pytest.mark.parametrize("spelling", ["DOUBLE", "CLOB"])
    def test_spelling_the_engine_rejects_is_unknown(self, spelling):
        (rules, kind), _ = _typed(spelling)
        assert kind is DivergenceKind.UNKNOWN
