"""Property test: compiled-plan execution equals the tree-walker.

The planner's contract is observational equivalence: for every
statement, compiled for whatever parameter kinds, the engine must
produce the same rows, the same column names, the same errors (class
and message) and the same run-time tags (``ctx.dynamic_tags``: which
views were read) as the reference tree-walker,
:class:`tests.reference.ReferenceEngine`.  Row order is compared
exactly when the static analyzer proves the order deterministic
(:class:`~repro.analysis.OrderVerdict`), and as a multiset when the
standard leaves the order to the product.

Two generators drive the check on all four simulated products: the
full 181-bug corpus (every statement shape the study exercises) and
randomly generated (sqlgen-style) scripts biased toward the planner's
rewrite triggers — constant-foldable predicates, pushable join
conjuncts, unique-key point lookups, DML that stresses the
storage-level unique indexes — and toward every shape beyond them:
explicit joins of each kind, views with and without DISTINCT, derived
tables, set operations, correlated subqueries, ``INSERT ... SELECT``
and short or repeated INSERT column lists.  A third check runs the
corpus through the four-version middleware with the corpus faults
seeded, on both engines, and requires identical adjudication.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ScriptSchema, analyze_statement
from repro.bugs import build_corpus
from repro.errors import ReproError
from repro.servers import make_server
from repro.sqlengine.analysis import extract_traits
from repro.sqlengine.params import substitute_params
from repro.sqlengine.parser import parse_statement
from repro.study.runner import split_statements
from tests.reference import reference_server

CORPUS = build_corpus()
KEYS = ("IB", "PG", "OR", "MS")


def _observe(script: list[str], key: str, reference: bool) -> list[tuple]:
    """Statement-by-statement outcomes on a pristine product, with
    SELECT rows normalized per the statement's order verdict, each
    with the run-time tags its execution context collected."""
    server = (reference_server if reference else make_server)(key)
    tags: list[tuple] = []
    dispatch = server.engine._dispatch

    def observed(stmt, ctx):
        try:
            return dispatch(stmt, ctx)
        finally:
            tags.append(tuple(sorted(ctx.dynamic_tags)))

    server.engine._dispatch = observed
    schema = ScriptSchema()
    outcomes: list[tuple] = []
    for sql in script:
        stmt = parse_statement(sql)
        verdict = analyze_statement(stmt, schema, traits=extract_traits(stmt))
        try:
            result = server.execute(sql)
        except ReproError as error:
            outcome: tuple = ("error", type(error).__name__, str(error))
        else:
            if result.kind == "select":
                rows = list(result.rows)
                if verdict.multiset_comparable:
                    rows = sorted(rows, key=repr)
                outcome = ("rows", tuple(result.columns), tuple(rows))
            else:
                outcome = (result.kind, result.rowcount)
        outcomes.append((*outcome, tags[-1] if tags else ()))
        tags.clear()
        schema.observe(stmt)
    return outcomes


# -- corpus scripts --------------------------------------------------------


@given(
    index=st.integers(min_value=0, max_value=len(CORPUS) - 1),
    key=st.sampled_from(KEYS),
)
@settings(max_examples=60, deadline=None)
def test_corpus_scripts_planned_equals_walker(index, key):
    script = split_statements(CORPUS.reports[index].script)
    assert _observe(script, key, False) == _observe(script, key, True)


def test_planner_never_changes_corpus_adjudication(corpus_adjudication):
    # Through the four-version middleware with the corpus faults seeded:
    # detections, masks, adjudication failures and every answer equal
    # the tree-walker's, on every script all four products run.
    assert corpus_adjudication() == corpus_adjudication(reference=True)


# -- generated (sqlgen-style) scripts --------------------------------------

NAMES = ("alpha", "beta", "gamma", "delta")

_PREDICATES = (
    "qty > {n}",
    "qty > {n} + 1",  # constant folding
    "id = {n}",  # index selection point lookup
    "name LIKE 'a%'",
    "qty BETWEEN {n} AND {m}",
    "qty IS NULL",
    "name IN ('alpha', 'gamma')",
    "qty * 2 >= {m} OR name = 'beta'",
    "NOT (qty < {n})",
    "qty > {n} AND id < {m}",  # split into pushed conjuncts
    "name = 'beta' AND price > {n} AND qty IS NOT NULL",
)

_SELECTS = (
    "SELECT name, qty FROM gen WHERE {pred} ORDER BY id",
    "SELECT name FROM gen WHERE {pred}",  # unordered: multiset compare
    "SELECT name, COUNT(*), SUM(qty) FROM gen GROUP BY name ORDER BY name",
    "SELECT DISTINCT name FROM gen",
    "SELECT name FROM gen WHERE {pred} ORDER BY qty DESC LIMIT 3",
    "SELECT gen.name, aux.tag FROM gen, aux "
    "WHERE gen.id = aux.ref AND {pred}",  # predicate pushdown
    "SELECT CASE WHEN qty IS NULL THEN 'none' ELSE 'some' END FROM gen "
    "ORDER BY id",
    "SELECT name, SUM(qty + (2 * 3)) FROM gen GROUP BY name ORDER BY 1",
    # explicit joins, nested and beside a comma FROM item
    "SELECT gen.name, aux.tag FROM gen {join} JOIN aux ON gen.id = aux.ref AND {pred}",
    "SELECT gen.id, aux.tag FROM gen CROSS JOIN aux WHERE {pred}",
    "SELECT g.id, a.tag, b.tag FROM gen g {join} JOIN aux a ON g.id = a.ref "
    "{join} JOIN aux b ON a.ref = b.ref + 1",
    "SELECT g2.name, aux.tag FROM gen g2, gen {join} JOIN aux ON gen.id = aux.ref "
    "WHERE g2.id = gen.id",
    # views (a DISTINCT one and a plain one) and derived tables
    "SELECT * FROM names ORDER BY name",
    "SELECT big.id, aux.tag FROM big, aux WHERE big.id = aux.ref",
    "SELECT name FROM names n WHERE EXISTS (SELECT 1 FROM big WHERE big.name = n.name)",
    "SELECT d.name, d.qty FROM (SELECT name, qty FROM gen WHERE {pred}) d ORDER BY 1, 2",
    "SELECT COUNT(*) FROM (SELECT DISTINCT name FROM gen) d, aux",
    # set operations
    "SELECT name FROM gen WHERE {pred} {setop} SELECT tag FROM aux",
    "SELECT id FROM gen {setop} SELECT ref FROM aux ORDER BY 1",
    "SELECT id FROM gen {setop} SELECT ref, tag FROM aux",
    # correlated and uncorrelated subqueries
    "SELECT name FROM gen WHERE {negation}EXISTS "
    "(SELECT 1 FROM aux WHERE aux.ref = gen.id)",
    "SELECT id, (SELECT tag FROM aux WHERE aux.ref = gen.id) FROM gen ORDER BY id",
    "SELECT id FROM gen WHERE id {negation}IN (SELECT ref FROM aux WHERE aux.tag <> gen.name)",
    "SELECT name FROM gen WHERE qty > (SELECT MIN(ref) FROM aux) ORDER BY id",
    "SELECT (SELECT ref FROM aux) FROM gen",
)

_WRITES = (
    "UPDATE gen SET qty = qty + 1 WHERE {pred}",
    "UPDATE gen SET name = 'omega' WHERE id = {n}",  # indexed point update
    "UPDATE gen SET id = {m} WHERE id = {n}",  # may hit the unique index
    "DELETE FROM gen WHERE {pred}",
    "INSERT INTO gen (id, name, qty, price) VALUES ({m}, 'new', {n}, 1.50)",
    "INSERT INTO aux (ref, tag) SELECT id + {n}, name FROM gen WHERE {pred}",
    "INSERT INTO gen (id, name) VALUES ({m}, 'short')",
    "INSERT INTO gen (id, qty, id) VALUES ({m}, 1, {n})",
    "INSERT INTO gen (id, name) VALUES ({m})",
    "UPDATE gen SET qty = (SELECT COUNT(*) FROM aux WHERE aux.ref = gen.id) WHERE {pred}",
    "DELETE FROM gen WHERE id {negation}IN (SELECT ref FROM aux)",
)


@st.composite
def _scripts(draw) -> list[str]:
    statements = [
        "CREATE TABLE gen (id INTEGER PRIMARY KEY, name VARCHAR(8), "
        "qty INTEGER, price NUMERIC(6,2))",
        "CREATE TABLE aux (ref INTEGER PRIMARY KEY, tag VARCHAR(8))",
        "CREATE VIEW names AS SELECT DISTINCT name FROM gen",
        "CREATE VIEW big (id, name) AS SELECT id, name FROM gen WHERE qty > 5",
    ]
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 12),
                st.sampled_from(NAMES),
                st.one_of(st.none(), st.integers(-5, 50)),
            ),
            min_size=0,
            max_size=6,
            unique_by=lambda r: r[0],
        )
    )
    for row_id, name, qty in rows:
        qty_sql = "NULL" if qty is None else str(qty)
        statements.append(
            f"INSERT INTO gen (id, name, qty, price) "
            f"VALUES ({row_id}, '{name}', {qty_sql}, {(row_id % 7) + 0.25:.2f})"
        )
    for ref in {row_id % 5 for row_id, _, _ in rows}:
        statements.append(f"INSERT INTO aux (ref, tag) VALUES ({ref}, 'tag{ref}')")

    def fill(template: str) -> str:
        return template.format(
            pred=draw(st.sampled_from(_PREDICATES)).format(
                n=draw(st.integers(-2, 14)), m=draw(st.integers(-2, 14))
            ),
            n=draw(st.integers(-2, 14)),
            m=draw(st.integers(-2, 14)),
            join=draw(st.sampled_from(("INNER", "LEFT", "RIGHT", "FULL"))),
            setop=draw(st.sampled_from(("UNION", "UNION ALL", "INTERSECT", "EXCEPT"))),
            negation=draw(st.sampled_from(("", "NOT "))),
        )

    for _ in range(draw(st.integers(2, 6))):
        template = draw(
            st.sampled_from(_SELECTS + _WRITES + _SELECTS)  # bias toward reads
        )
        statements.append(fill(template))
    statements.append("SELECT id, name, qty, price FROM gen ORDER BY id")
    return statements


@given(script=_scripts(), key=st.sampled_from(KEYS))
@settings(max_examples=60, deadline=None)
def test_generated_scripts_planned_equals_walker(script, key):
    assert _observe(script, key, False) == _observe(script, key, True)


# -- generated DML over constraints -------------------------------------
#
# What a write checks is decided when its plan compiles (the write-check
# rule in ``repro.sqlengine.plan.dml``); the walker checks every NOT
# NULL, every CHECK and every unique set of every row it writes.  Each
# statement runs literal or bound (so plans for several parameter kinds
# meet), and an ALTER TABLE between them changes the shape the cached
# INSERT and UPDATE plans were compiled for.

CONSTRAINED = (
    "CREATE TABLE con (id INTEGER PRIMARY KEY, code INTEGER NOT NULL UNIQUE, "
    "lo INTEGER CHECK (lo >= 0), hi INTEGER, "
    "tag VARCHAR(6) NOT NULL DEFAULT 'none', "
    "amt NUMERIC(8,2) DEFAULT 1.5 CHECK (amt < 100), "
    "CHECK (hi IS NULL OR hi >= lo), UNIQUE (lo, hi))"
)

#: Valid rows whose ids and codes the drawn keys collide with.
_SEED_ROWS = ("0, 6, 0, 1", "1, 5, 1, 3", "2, 4, 2, NULL", "3, 3, 3, 3", "4, 2, 1, NULL")

_KEY = st.one_of(st.integers(0, 6), st.none())
_SMALL = st.integers(-1, 6)
_ANY = st.one_of(
    st.none(),
    st.integers(-2, 8),
    st.sampled_from((True, "alpha", "3", " 4 ", Decimal("2.50"), 2.5, 150)),
)
_TAG = st.sampled_from((None, "t", "tag", "toolongtag", 7))

_DML = (
    ("INSERT INTO con (id, code, lo, hi) VALUES (?, ?, ?, ?)", (_KEY, _KEY, _SMALL, _ANY)),
    (
        "INSERT INTO con (id, code, lo, hi, tag, amt) VALUES (?, ?, ?, ?, ?, ?)",
        (_KEY, _KEY, _ANY, _ANY, _TAG, _ANY),
    ),
    ("INSERT INTO con VALUES (?, ?, ?, ?, ?, ?)", (_KEY, _KEY, _SMALL, _SMALL, _TAG, _ANY)),
    ("INSERT INTO con (id, code) SELECT id + ?, code + ? FROM con WHERE lo > ?", (_SMALL,) * 3),
    ("UPDATE con SET id = ? WHERE id = ?", (_KEY, _KEY)),  # a key, colliding or not
    ("UPDATE con SET id = id, code = code WHERE lo >= ?", (_SMALL,)),  # keys to themselves
    ("UPDATE con SET code = ? WHERE id = ?", (_ANY, _KEY)),
    ("UPDATE con SET lo = ?, hi = ? WHERE id = ?", (_ANY, _ANY, _KEY)),
    ("UPDATE con SET hi = ? WHERE lo < ?", (_ANY, _SMALL)),
    ("UPDATE con SET amt = ? WHERE id = ?", (_ANY, _KEY)),  # beside untouched CHECKs
    ("UPDATE con SET tag = ? WHERE code > ?", (_TAG, _SMALL)),  # NULL into NOT NULL
    ("UPDATE con SET lo = lo + ? WHERE hi IS NOT NULL", (_SMALL,)),
    ("UPDATE con SET extra = ? WHERE id = ?", (_ANY, _KEY)),
    ("INSERT INTO con (id, code, extra) VALUES (?, ?, ?)", (_KEY, _KEY, _ANY)),
    ("DELETE FROM con WHERE id = ?", (_KEY,)),
    ("ALTER TABLE con ADD COLUMN extra INTEGER DEFAULT 2 CHECK (extra < 5)", ()),
    ("ALTER TABLE con ADD COLUMN extra INTEGER DEFAULT 7 CHECK (extra < 5)", ()),
    ("ALTER TABLE con ADD COLUMN note VARCHAR(4) NOT NULL DEFAULT 'n'", ()),
    ("CREATE UNIQUE INDEX con_hi ON con (hi)", ()),
    ("BEGIN", ()),
    ("ROLLBACK", ()),
    ("COMMIT", ()),
)


@st.composite
def _dml_scripts(draw) -> list[tuple]:
    calls: list[tuple] = [(CONSTRAINED, None)]
    calls += [
        (f"INSERT INTO con (id, code, lo, hi) VALUES ({row})", None)
        for row in _SEED_ROWS[: draw(st.integers(0, len(_SEED_ROWS)))]
    ]
    for _ in range(draw(st.integers(3, 12))):
        template, values = draw(st.sampled_from(_DML))
        params = tuple(draw(value) for value in values)
        if not params:
            calls.append((template, None))
        elif draw(st.booleans()):
            calls.append((template, params))
        else:
            calls.append((substitute_params(template, params), None))
    calls.append(("SELECT * FROM con ORDER BY id", None))
    return calls


def _run_calls(calls: list[tuple], key: str, reference: bool) -> list[tuple]:
    server = (reference_server if reference else make_server)(key)
    outcomes: list[tuple] = []
    for sql, params in calls:
        try:
            result = server.execute(sql, params)
        except ReproError as error:
            outcomes.append(("error", type(error).__name__, str(error)))
        else:
            outcomes.append((result.kind, result.rowcount, tuple(result.rows)))
    return outcomes


@given(calls=_dml_scripts(), key=st.sampled_from(KEYS))
@settings(max_examples=80, deadline=None)
def test_generated_dml_planned_equals_walker(calls, key):
    assert _run_calls(calls, key, False) == _run_calls(calls, key, True)


def _nested_scalar(depth: int) -> str:
    query = "SELECT 1"
    for _ in range(depth):
        query = f"SELECT ({query})"
    return query


@pytest.mark.parametrize(
    ("rows", "expected"),
    [(0, ("rows", ("x",), (), ())), (1, ("error", "BindError", "subquery nesting too deep", ()))],
    ids=["empty", "one-row"],
)
def test_nesting_depth_is_checked_when_evaluated(rows, expected):
    # A 40-deep scalar subquery in the WHERE of a table: the walker
    # counts nesting as it runs, so only a row makes it raise.
    script = ["CREATE TABLE shallow (x INTEGER)"]
    script += ["INSERT INTO shallow (x) VALUES (1)"] * rows
    script.append(f"SELECT x FROM shallow WHERE x = ({_nested_scalar(40)})")
    for key in KEYS:
        outcomes = [_observe(script, key, reference) for reference in (False, True)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][-1] == expected
