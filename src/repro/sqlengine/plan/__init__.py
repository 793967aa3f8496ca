"""Planned query execution: logical plans, rewrites, compiled operators.

Every SELECT, INSERT, UPDATE and DELETE runs on a compiled plan.  The
planner lowers a parsed SELECT into logical query blocks
(:mod:`.logical` — joins of every kind, views and derived tables, set
operations), improves each block with rule-based rewrites
(:mod:`.rewrites` — constant folding, predicate pushdown, index
selection over the catalog's unique-key sets), and compiles the result
into Python closures over row batches (:mod:`.physical`); expressions,
subqueries included, compile through :mod:`.compiler`, and DML through
:mod:`.dml`.  :mod:`.lattice` owns what an expression can be — value
categories and comparison kinds, nullability, intervals, may-raise —
for the planner's totality gate and for the static analyses above.

A plan is compiled against a catalog for one tuple of parameter kinds
and one choice of rule set, so every decision that depends on the
parameters (which conjuncts are total and may be split or hoisted,
whether a unique-key lookup applies) is made at compile time.  It reads
rows from the engine that runs it, so the engine caches one plan per
statement, parameter-type tuple, rule set and catalog content, shared by
every engine that runs the statement.  The plan compiled with no
rewrite rules is the dual-plan oracle's second opinion.
"""

from repro.sqlengine.plan.logical import LogicalPlan, lower_select
from repro.sqlengine.plan.rewrites import PROBE_SCRIPTS, REWRITE_RULES, apply_rewrites
from repro.sqlengine.plan.physical import PhysicalSelect, compile_select
from repro.sqlengine.plan.explain import explain_plan, explain_statement

__all__ = [
    "LogicalPlan",
    "lower_select",
    "PROBE_SCRIPTS",
    "REWRITE_RULES",
    "apply_rewrites",
    "PhysicalSelect",
    "compile_select",
    "explain_plan",
    "explain_statement",
]
