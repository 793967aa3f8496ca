"""Property test: compiled-plan execution equals the tree-walker.

The planner's contract is observational equivalence: for every
statement — planned (for whatever parameter kinds it was compiled) or
unplanned — the compiled path
must produce the same rows, the same column names, and the same errors
(message included) as the reference tree-walker.  Row order is compared
exactly when the static analyzer proves the order deterministic
(:class:`~repro.analysis.OrderVerdict`), and as a multiset when the
standard leaves the order to the product.

Two generators drive the check on all four simulated products: the
full 181-bug corpus (every statement shape the study exercises) and
randomly generated (sqlgen-style) scripts biased toward the planner's
rewrite triggers — constant-foldable predicates, pushable join
conjuncts, unique-key point lookups, and DML that stresses the
storage-level unique indexes.  A third check runs the corpus through
the four-version middleware with the corpus faults seeded, planner on
and off, and requires identical adjudication.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ScriptSchema, analyze_statement
from repro.bugs import build_corpus
from repro.errors import ReproError
from repro.servers import make_server
from repro.sqlengine.analysis import extract_traits
from repro.sqlengine.parser import parse_statement
from repro.study.runner import split_statements

CORPUS = build_corpus()
KEYS = ("IB", "PG", "OR", "MS")


def _observe(script: list[str], key: str, use_planner: bool) -> list[tuple]:
    """Statement-by-statement outcomes on a pristine product, with
    SELECT rows normalized per the statement's order verdict."""
    server = make_server(key)
    server.engine.use_planner = use_planner
    schema = ScriptSchema()
    outcomes: list[tuple] = []
    for sql in script:
        stmt = parse_statement(sql)
        verdict = analyze_statement(stmt, schema, traits=extract_traits(stmt))
        try:
            result = server.execute(sql)
        except ReproError as error:
            outcomes.append(("error", type(error).__name__, str(error)))
        else:
            if result.kind == "select":
                rows = list(result.rows)
                if verdict.multiset_comparable:
                    rows = sorted(rows, key=repr)
                outcomes.append(("rows", tuple(result.columns), tuple(rows)))
            else:
                outcomes.append((result.kind, result.rowcount))
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
    assert _observe(script, key, True) == _observe(script, key, False)


def test_planner_never_changes_corpus_adjudication(corpus_adjudication):
    # Through the four-version middleware with the corpus faults seeded:
    # detections, masks, adjudication failures and every answer equal
    # the tree-walker's, on every script all four products run.
    assert corpus_adjudication() == corpus_adjudication(use_planner=False)


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
)

_WRITES = (
    "UPDATE gen SET qty = qty + 1 WHERE {pred}",
    "UPDATE gen SET name = 'omega' WHERE id = {n}",  # indexed point update
    "UPDATE gen SET id = {m} WHERE id = {n}",  # may hit the unique index
    "DELETE FROM gen WHERE {pred}",
    "INSERT INTO gen (id, name, qty, price) VALUES ({m}, 'new', {n}, 1.50)",
)


@st.composite
def _scripts(draw) -> list[str]:
    statements = [
        "CREATE TABLE gen (id INTEGER PRIMARY KEY, name VARCHAR(8), "
        "qty INTEGER, price NUMERIC(6,2))",
        "CREATE TABLE aux (ref INTEGER PRIMARY KEY, tag VARCHAR(8))",
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
        )

    for _ in range(draw(st.integers(2, 6))):
        template = draw(
            st.sampled_from(_SELECTS + _WRITES + _SELECTS)  # bias toward reads
        )
        statements.append(fill(template))
    statements.append("SELECT id, name, qty, price FROM gen ORDER BY id")
    return statements


@given(script=_scripts(), key=st.sampled_from(KEYS))
@settings(max_examples=40, deadline=None)
def test_generated_scripts_planned_equals_walker(script, key):
    assert _observe(script, key, True) == _observe(script, key, False)
