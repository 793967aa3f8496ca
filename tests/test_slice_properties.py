"""Property tests: backward slices preserve the sliced query's answer.

The slicer's contract is semantic, not syntactic: executing the
backward slice of a script's final SELECT on a clean engine must yield
exactly the result the full script yields for that SELECT.  Two
generators drive it — the shipped bug corpus (every statement shape the
study exercises) and a composite strategy building random
CREATE/INSERT/UPDATE/DELETE/SELECT scripts from the scalar pools the
other property suites use."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import build_graph
from repro.bugs import build_corpus
from repro.dialects import dialect
from repro.dialects.translator import ScriptPieces
from repro.servers.product import ServerProduct
from repro.sqlengine.parser import parse_statement
from repro.study.runner import run_script, split_statements

CORPUS = build_corpus()


def final_select_index(statements):
    for index in range(len(statements) - 1, -1, -1):
        kind = type(parse_statement(statements[index])).__name__
        if kind == "SelectStatement":
            return index
    return None


def outcome_of(server_key, sql, position):
    server = ServerProduct(dialect(server_key))
    outcome = run_script(server, sql)
    if position >= len(outcome.statements):
        return None  # crash cut the run short of the target
    return outcome.statements[position].signature()


@given(index=st.integers(min_value=0, max_value=len(CORPUS) - 1))
@settings(max_examples=60, deadline=None)
def test_corpus_final_select_slice_preserves_result(index):
    report = CORPUS.reports[index]
    statements = split_statements(report.script)
    target = final_select_index(statements)
    assume(target is not None)

    graph = build_graph(ScriptPieces(report.script))
    kept = graph.backward_slice([target])
    sliced_sql = ";\n".join(statements[i] for i in kept) + ";"

    full = outcome_of(report.reported_for, report.script, target)
    reduced = outcome_of(report.reported_for, sliced_sql, kept.index(target))
    assert reduced == full, report.bug_id


# -- generated scripts -----------------------------------------------------

_VALUES = st.integers(min_value=-9, max_value=9)


@st.composite
def scripts(draw):
    """A random multi-table script ending in a deterministic SELECT."""
    statements = []
    tables = []
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        name = f"t{t}"
        width = draw(st.integers(min_value=1, max_value=3))
        columns = [f"c{i}" for i in range(width)]
        spec = ", ".join(f"{c} INTEGER" for c in columns)
        statements.append(
            f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, {spec})"
        )
        tables.append((name, columns))
        for row in range(draw(st.integers(min_value=0, max_value=3))):
            values = ", ".join(str(draw(_VALUES)) for _ in columns)
            statements.append(
                f"INSERT INTO {name} (id, {', '.join(columns)}) "
                f"VALUES ({row}, {values})"
            )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        name, columns = draw(st.sampled_from(tables))
        column = draw(st.sampled_from(columns))
        if draw(st.booleans()):
            statements.append(
                f"UPDATE {name} SET {column} = {column} + {draw(_VALUES)} "
                f"WHERE id >= {draw(_VALUES)}"
            )
        else:
            statements.append(f"DELETE FROM {name} WHERE {column} > {draw(_VALUES)}")
    name, columns = draw(st.sampled_from(tables))
    statements.append(
        f"SELECT id, {', '.join(columns)} FROM {name} "
        f"WHERE {columns[0]} >= {draw(_VALUES)} ORDER BY id"
    )
    return ";\n".join(statements) + ";"


@given(script=scripts())
@settings(max_examples=60, deadline=None)
def test_generated_final_select_slice_preserves_result(script):
    statements = split_statements(script)
    target = len(statements) - 1

    kept = build_graph(ScriptPieces(script)).backward_slice([target])
    sliced_sql = ";\n".join(statements[i] for i in kept) + ";"

    full = outcome_of("PG", script, target)
    reduced = outcome_of("PG", sliced_sql, kept.index(target))
    assert reduced == full, script
