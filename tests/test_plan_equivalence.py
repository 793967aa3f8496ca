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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ScriptSchema, analyze_statement
from repro.bugs import build_corpus
from repro.errors import ReproError
from repro.servers import make_server
from repro.sqlengine.analysis import extract_traits
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
