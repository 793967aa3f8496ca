"""The one value lattice under the planner.

The planner's totality gate (``rewrites.is_total``) is syntactic: it
accepts comparisons, BETWEEN, IN-lists and IS NULL over columns,
literals and parameters whose kinds the lattice's comparison table
calls total.  The lattice's interpreter reads the same tables and more,
so whatever conjunct the gate calls total it must prove total too,
given the same facts: the same DDL seen by the planner's catalog and by
the analyses' ``ScriptSchema``, and the same parameter classes.
"""

import datetime
from decimal import Decimal

from repro.analysis.predicates import PredicateEnv
from repro.analysis.schema import ScriptSchema
from repro.errors import ReproError
from repro.sqlengine import Engine
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plan.lattice import (
    CATEGORY_KIND,
    CLASS_CATEGORY,
    COMPARE,
    Interpreter,
    kind_of_class,
)
from repro.sqlengine.plan.logical import lower_select
from repro.sqlengine.plan.rewrites import is_total, split_conjuncts
from repro.sqlengine.sqlgen import PredicateGenerator
from repro.sqlengine.values import sql_compare
from repro.study.runner import split_statements
from repro.workload import SCHEMA_STATEMENTS, TpccGenerator

_DDL = (
    ast.CreateTable,
    ast.CreateView,
    ast.CreateIndex,
    ast.AlterTableAddColumn,
    ast.DropTable,
    ast.DropView,
    ast.DropIndex,
)


class GateCheck:
    """One DDL history as the planner's catalog and the analyses'
    schema both see it, and the conjuncts checked against it."""

    def __init__(self) -> None:
        self.engine = Engine("lattice")
        self.schema = ScriptSchema()
        self.total = 0
        self.violations: list[str] = []

    def observe(self, sql: str, stmt: ast.Statement) -> None:
        self.schema.observe(stmt)
        if isinstance(stmt, _DDL):
            try:
                self.engine.execute(sql)
            except ReproError:
                pass

    def check(self, stmt: ast.Statement, classes: tuple = ()) -> None:
        """Hold the gate to the interpreter on every WHERE conjunct of
        a single-block SELECT, UPDATE or DELETE, and on its negation."""
        if isinstance(stmt, ast.SelectStatement) and isinstance(stmt.body, ast.SelectCore):
            select, where = stmt, stmt.body.where
            env = PredicateEnv.for_select(stmt.body, self.schema, classes)
        elif isinstance(stmt, (ast.Update, ast.Delete)):
            select, where = parse_statement(f"SELECT * FROM {stmt.table}"), stmt.where
            env = PredicateEnv.for_table(stmt.table, self.schema, classes)
        else:
            return
        if where is None:
            return
        plan = lower_select(select, self.engine.catalog, tuple(map(kind_of_class, classes)))
        interpreter = Interpreter(env)
        for predicate in (where, ast.UnaryOp("NOT", where)):
            for conjunct in split_conjuncts(predicate):
                if is_total(plan, conjunct):
                    self.total += 1
                    if interpreter.truth(conjunct).may_raise:
                        self.violations.append(repr(conjunct))


def test_gate_never_outruns_the_lattice_on_the_corpus(corpus):
    checked = GateCheck()
    for report in corpus:
        checked.engine = Engine("lattice")
        checked.schema = ScriptSchema()
        for sql in split_statements(report.script):
            try:
                stmt = parse_statement(sql)
            except ReproError:
                continue
            checked.check(stmt)
            checked.observe(sql, stmt)
    assert checked.violations == []
    assert checked.total > 500


def test_gate_never_outruns_the_lattice_on_the_hunt():
    checked = GateCheck()
    for seed in range(1, 6):
        generator = PredicateGenerator(seed=seed)
        checked.engine = Engine("lattice")
        checked.schema = ScriptSchema()
        for sql in generator.schema_statements():
            checked.observe(sql, parse_statement(sql))
        for _ in range(150):
            checked.check(parse_statement(generator.select_statement()))
    assert checked.violations == []
    assert checked.total > 500


def test_gate_never_outruns_the_lattice_on_tpcc_templates():
    checked = GateCheck()
    for sql in SCHEMA_STATEMENTS:
        checked.observe(sql, parse_statement(sql))
    parsed: dict[str, ast.Statement] = {}
    for transaction in TpccGenerator(seed=1).transactions(200):
        for template, params in transaction.calls:
            if template not in parsed:
                parsed[template] = parse_statement(template)
            checked.check(parsed[template], tuple(map(type, params)))
    assert checked.violations == []
    assert checked.total > 1000


def test_total_kind_pairs_never_raise():
    """Every pair the comparison table calls total compares without
    raising on values of those kinds, NULL included."""
    samples = [
        None, True, False, 0, -3, 2.5, Decimal("1.5"), "", "abc", " 7 ",
        datetime.date(2004, 6, 1), datetime.datetime(2004, 6, 1, 9, 30),
    ]
    for left in samples:
        for right in samples:
            pair = (
                CATEGORY_KIND[CLASS_CATEGORY[type(left)]],
                CATEGORY_KIND[CLASS_CATEGORY[type(right)]],
            )
            if COMPARE.get(pair) == "total":
                sql_compare(left, right)
