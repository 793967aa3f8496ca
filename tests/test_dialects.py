"""Dialect gate and translator tests."""

import pytest

from repro.dialects import DIALECTS, dialect, translate_script
from repro.dialects.translator import render_tokens
from repro.errors import FeatureNotSupported, ParseError
from repro.sqlengine.analysis import script_traits
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.parser import parse_script


def missing_for(sql, server):
    return dialect(server).missing_tags(script_traits(parse_script(sql)))


class TestDescriptors:
    def test_four_products(self):
        assert set(DIALECTS) == {"IB", "PG", "OR", "MS"}

    def test_lookup_case_insensitive(self):
        assert dialect("pg").product == "PostgreSQL"

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            dialect("XX")

    def test_products_and_versions(self):
        assert dialect("IB").version == "6.0"
        assert dialect("OR").product == "Oracle"
        assert dialect("MS").version == "7"


class TestFeatureGates:
    def test_pg_lacks_outer_joins(self):
        sql = "SELECT 1 FROM a LEFT OUTER JOIN b ON 1=1"
        assert "join.left" in missing_for(sql, "PG")
        for server in ("IB", "OR", "MS"):
            assert missing_for(sql, server) == []

    def test_pg_lacks_union_in_views(self):
        # The paper's own dialect-specific example (Interbase bug 217138).
        sql = "CREATE VIEW v AS SELECT a FROM t UNION SELECT b FROM u"
        assert "view.union" in missing_for(sql, "PG")
        assert missing_for(sql, "MS") == []

    def test_ib_lacks_case(self):
        sql = "SELECT CASE WHEN 1=1 THEN 2 END"
        assert "clause.case" in missing_for(sql, "IB")
        assert missing_for(sql, "PG") == []

    def test_mod_only_pg_and_or(self):
        sql = "SELECT MOD(a, 2) FROM t"
        assert missing_for(sql, "PG") == []
        assert missing_for(sql, "OR") == []
        assert "fn.MOD" in missing_for(sql, "IB")
        assert "fn.MOD" in missing_for(sql, "MS")

    def test_clustered_index_only_pg_and_ms(self):
        sql = "CREATE CLUSTERED INDEX ix ON t (a)"
        assert missing_for(sql, "PG") == []
        assert missing_for(sql, "MS") == []
        assert "index.clustered" in missing_for(sql, "OR")

    @pytest.mark.parametrize(
        "sql,owner",
        [
            ("SELECT GEN_ID(a, 1) FROM t", "IB"),
            ("SELECT a FROM t LIMIT 1", "PG"),
            ("SELECT DECODE(a, 1, 'x') FROM t", "OR"),
            ("SELECT GETDATE() FROM t", "MS"),
        ],
    )
    def test_single_server_extensions(self, sql, owner):
        assert missing_for(sql, owner) == []
        for server in set(DIALECTS) - {owner}:
            assert missing_for(sql, server) != []

    def test_validator_raises(self):
        from repro.sqlengine.parser import parse_statement
        from repro.sqlengine.analysis import extract_traits

        stmt = parse_statement("SELECT a FROM t LIMIT 1")
        with pytest.raises(FeatureNotSupported):
            dialect("IB").validate(stmt, extract_traits(stmt))

    def test_unknown_function_missing_everywhere(self):
        sql = "SELECT FROBNICATE(a) FROM t"
        for server in DIALECTS:
            assert missing_for(sql, server) != []


class TestTranslation:
    def test_type_renames_to_ms(self):
        out = translate_script("CREATE TABLE t (a VARCHAR2(10), b NUMBER(8,2))", "MS")
        assert "VARCHAR" in out and "VARCHAR2" not in out
        assert "NUMERIC" in out and "NUMBER" not in out

    def test_timestamp_to_datetime_for_ms(self):
        out = translate_script("CREATE TABLE t (a TIMESTAMP)", "MS")
        assert "DATETIME" in out

    def test_function_renames(self):
        assert "SUBSTRING" in translate_script("SELECT SUBSTR(a, 1, 2) FROM t", "MS")
        assert "SUBSTR" in translate_script("SELECT SUBSTRING(a, 1, 2) FROM t", "OR")
        assert "NVL" in translate_script("SELECT COALESCE(a, 0) FROM t", "OR")

    def test_untranslatable_raises(self):
        with pytest.raises(FeatureNotSupported):
            translate_script("SELECT a FROM t LIMIT 1", "MS")

    def test_translated_script_reparses(self):
        out = translate_script(
            "CREATE TABLE t (a VARCHAR2(10)); INSERT INTO t VALUES ('x''y');"
            "SELECT SUBSTR(a, 1, 2) FROM t WHERE a LIKE 'x%'",
            "MS",
        )
        assert len(parse_script(out)) == 3

    def test_string_escapes_survive(self):
        out = translate_script("SELECT 'it''s' FROM t", "PG")
        assert "'it''s'" in out

    def test_identity_translation_for_home_dialect(self):
        source = "SELECT id, name FROM t WHERE id > 1 ORDER BY id"
        out = translate_script(source, "IB")
        assert parse_script(out)  # still valid; spelling may normalise

    def test_invalid_sql_raises_parse_error(self):
        with pytest.raises(ParseError):
            translate_script("SELECT FROM WHERE", "PG")


class TestRenderTokens:
    def test_roundtrip_spacing(self):
        tokens = tokenize("SELECT a,b FROM t WHERE a>=1;")
        text = render_tokens(tokens)
        assert text == "SELECT a, b FROM t WHERE a >= 1;"

    def test_quoted_identifier_preserved(self):
        tokens = tokenize('SELECT "Mixed Name" FROM t')
        assert '"Mixed Name"' in render_tokens(tokens)

    def test_comments_are_dropped(self):
        tokens = tokenize("SELECT 1 -- hidden\n")
        assert "hidden" not in render_tokens(tokens)
