"""Dialect descriptors and the cross-server feature-support matrix.

The four modelled products are the study's four servers:

=====  ===========================  ==========================
key    product                      platform in the study
=====  ===========================  ==========================
IB     Interbase 6.0                Windows 2000 Professional
PG     PostgreSQL 7.0.0             RedHat Linux 6.0
OR     Oracle 8.0.5                 Windows 2000 Professional
MS     Microsoft SQL Server 7       Windows 2000 Professional
=====  ===========================  ==========================

``FEATURE_SUPPORT`` maps *gated* feature tags (see
:mod:`repro.sqlengine.analysis` for the tag vocabulary) to the set of
servers that offer them.  Gated features are the ones the study's
authors could not translate between dialects; scripts using them are
dialect-specific for the servers outside the support set.  Tags not in
the matrix are universal.

The support sets are calibrated so the generated corpus reproduces the
paper's Table 1/2 "cannot be run" marginals while staying historically
flavoured (e.g. PostgreSQL 7.0 genuinely lacked outer joins and UNION
in views; Interbase 6 lacked CASE; only PG/MS had clustered-index
machinery the five MSSQL index bugs exercise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FeatureNotSupported
from repro.sqlengine.analysis import StatementTraits

SERVER_KEYS = ("IB", "PG", "OR", "MS")

#: Gated feature tag -> servers supporting it.  Anything absent here is
#: supported everywhere.
FEATURE_SUPPORT: dict[str, frozenset[str]] = {
    # -- three-server features ------------------------------------------------
    # PostgreSQL 7.0 had no outer joins (they arrived in 7.1).
    "join.left": frozenset({"IB", "OR", "MS"}),
    "join.right": frozenset({"IB", "OR", "MS"}),
    "join.full": frozenset({"IB", "OR", "MS"}),
    # The paper's own example: PostgreSQL 7.0.0 views cannot use UNION
    # (Interbase bug 217138 is dialect-specific for this reason).
    "view.union": frozenset({"IB", "OR", "MS"}),
    # Interbase 6 had no CASE expression (added in Firebird 1.5).
    "clause.case": frozenset({"PG", "OR", "MS"}),
    # Interbase 6 shipped almost no string functions (UDF library only).
    "fn.LTRIM": frozenset({"PG", "OR", "MS"}),
    "fn.RTRIM": frozenset({"PG", "OR", "MS"}),
    # Oracle 8 lacks CHAR_LENGTH (and its LENGTH pads CHAR differently,
    # so the rewrite is not semantics-preserving).
    "fn.CHAR_LENGTH": frozenset({"IB", "PG", "MS"}),
    # MSSQL concatenates with '+', whose coercion rules differ from the
    # SQL-92 '||' operator; the study treated this as untranslatable.
    "op.concat": frozenset({"IB", "PG", "OR"}),
    # -- two-server features ----------------------------------------------------
    # Unbounded text columns (PG TEXT / IB blob-text).
    "type.TEXT": frozenset({"IB", "PG"}),
    # Sub-second DATETIME semantics shared by IB and MSSQL.
    "type.DATETIME": frozenset({"IB", "MS"}),
    # MOD(x, y): IB6 has no modulo at all; MSSQL's '%' rounds negative
    # and decimal operands differently.
    "fn.MOD": frozenset({"PG", "OR"}),
    # The '%' operator itself.
    "op.modulo": frozenset({"PG", "MS"}),
    # Clustered index machinery (MSSQL CLUSTERED / PostgreSQL CLUSTER).
    "index.clustered": frozenset({"PG", "MS"}),
    # CONVERT() exists in MSSQL and Oracle only.
    "fn.CONVERT": frozenset({"MS", "OR"}),
    # -- single-server features ------------------------------------------------------
    "fn.GEN_ID": frozenset({"IB"}),   # Interbase generators
    "clause.limit": frozenset({"PG"}),  # LIMIT clause
    "fn.DECODE": frozenset({"OR"}),   # Oracle DECODE (NULL-equal match)
    "fn.GETDATE": frozenset({"MS"}),  # MSSQL wall clock
}


@dataclass(frozen=True)
class DialectDescriptor:
    """Everything product-specific about one server's SQL surface."""

    key: str
    product: str
    version: str
    #: Accepted type-name spellings.
    native_types: frozenset[str]
    #: Spelling used when translating each foreign spelling into this
    #: dialect (foreign spelling -> native spelling).
    type_renames: dict[str, str] = field(default_factory=dict)
    #: Accepted scalar-function names (superset functions not listed
    #: here are rejected by the validator and rewritten by the
    #: translator when a synonym exists).
    native_functions: frozenset[str] = frozenset()
    #: Function renames applied when translating *into* this dialect.
    function_renames: dict[str, str] = field(default_factory=dict)

    def supports_tag(self, tag: str) -> bool:
        support = FEATURE_SUPPORT.get(tag)
        return support is None or self.key in support

    def missing_tags(self, traits: StatementTraits) -> list[str]:
        """Gated tags in ``traits`` this dialect does not support."""
        missing = [tag for tag in sorted(traits.tags) if not self.supports_tag(tag)]
        for tag in sorted(traits.tags):
            if tag.startswith("type."):
                spelling = tag.split(".", 1)[1]
                if spelling not in self.native_types and spelling not in self.type_renames:
                    missing.append(tag)
            elif tag.startswith("fn."):
                name = tag.split(".", 1)[1]
                gated = f"fn.{name}" in FEATURE_SUPPORT
                if (
                    not gated
                    and name not in self.native_functions
                    and name not in self.function_renames
                ):
                    missing.append(tag)
        return missing

    def validate(self, statement, traits: StatementTraits) -> None:
        """Statement validator hook for :class:`repro.sqlengine.engine.Engine`."""
        missing = self.missing_tags(traits)
        if missing:
            raise FeatureNotSupported(missing[0], server=self.key)


_COMMON_FUNCTIONS = frozenset(
    {
        "ABS",
        "ROUND",
        "FLOOR",
        "CEIL",
        "CEILING",
        "POWER",
        "SQRT",
        "UPPER",
        "LOWER",
        "LENGTH",
        "TRIM",
        "REPLACE",
        "COALESCE",
        "NULLIF",
    }
)

_CORE_TYPES = frozenset(
    {"INTEGER", "INT", "SMALLINT", "NUMERIC", "DECIMAL", "FLOAT", "CHAR", "VARCHAR", "DATE"}
)


DIALECTS: dict[str, DialectDescriptor] = {
    "IB": DialectDescriptor(
        key="IB",
        product="Interbase",
        version="6.0",
        native_types=_CORE_TYPES | {"DOUBLE PRECISION", "TIMESTAMP", "TEXT", "DATETIME"},
        type_renames={"VARCHAR2": "VARCHAR", "NUMBER": "NUMERIC", "INT4": "INTEGER"},
        native_functions=_COMMON_FUNCTIONS
        | {"GEN_ID", "SUBSTR", "SUBSTRING", "CHAR_LENGTH", "MIN", "MAX"},
        function_renames={"NVL": "COALESCE", "LEN": "LENGTH", "IFNULL": "COALESCE"},
    ),
    "PG": DialectDescriptor(
        key="PG",
        product="PostgreSQL",
        version="7.0.0",
        native_types=_CORE_TYPES | {"DOUBLE PRECISION", "TIMESTAMP", "TEXT", "BOOLEAN", "BIGINT"},
        type_renames={"VARCHAR2": "VARCHAR", "NUMBER": "NUMERIC", "DATETIME2": "TIMESTAMP"},
        native_functions=_COMMON_FUNCTIONS
        | {"MOD", "SUBSTR", "SUBSTRING", "CHAR_LENGTH", "LTRIM", "RTRIM"},
        function_renames={"NVL": "COALESCE", "LEN": "LENGTH", "IFNULL": "COALESCE"},
    ),
    "OR": DialectDescriptor(
        key="OR",
        product="Oracle",
        version="8.0.5",
        native_types=_CORE_TYPES | {"VARCHAR2", "NUMBER", "TIMESTAMP", "DOUBLE PRECISION"},
        type_renames={"INT4": "INTEGER"},
        native_functions=_COMMON_FUNCTIONS
        | {"MOD", "DECODE", "NVL", "SUBSTR", "LTRIM", "RTRIM", "CONVERT"},
        function_renames={
            "SUBSTRING": "SUBSTR",
            "COALESCE": "NVL",
            "LEN": "LENGTH",
            "IFNULL": "NVL",
        },
    ),
    "MS": DialectDescriptor(
        key="MS",
        product="Microsoft SQL Server",
        version="7",
        native_types=_CORE_TYPES | {"DATETIME", "BIGINT", "NVARCHAR", "NCHAR"},
        type_renames={
            "VARCHAR2": "VARCHAR",
            "NUMBER": "NUMERIC",
            "TIMESTAMP": "DATETIME",
            "DOUBLE PRECISION": "FLOAT",
        },
        native_functions=_COMMON_FUNCTIONS
        | {"GETDATE", "CONVERT", "SUBSTRING", "CHAR_LENGTH", "LTRIM", "RTRIM", "LEN"},
        function_renames={"SUBSTR": "SUBSTRING", "NVL": "COALESCE", "LENGTH": "LEN"},
    ),
}


def dialect(key: str) -> DialectDescriptor:
    """Look up a dialect descriptor by server key (IB/PG/OR/MS)."""
    try:
        return DIALECTS[key.upper()]
    except KeyError:
        raise KeyError(f"unknown server key {key!r}; expected one of {SERVER_KEYS}") from None

