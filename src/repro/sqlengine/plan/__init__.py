"""Planned query execution: logical plans, rewrites, compiled operators.

The planner lowers a parsed SELECT into a logical operator tree
(:mod:`.logical`), improves it with rule-based rewrites
(:mod:`.rewrites` — constant folding, predicate pushdown, index
selection over the catalog's unique-key sets), and compiles the result
into Python closures over row batches (:mod:`.physical`), replacing the
per-row AST walk of :mod:`repro.sqlengine.executor` on the hot path.

A plan is compiled for one tuple of parameter kinds, and the engine
caches one plan per statement and parameter-type tuple, so every
decision that depends on the parameters (which conjuncts are total and
may be split or hoisted, whether a unique-key lookup applies) is made
at compile time.  Statement shapes outside the supported subset raise
:class:`PlanUnsupported` at compile time and run on the tree-walker,
whose semantics are the reference the compiled path must reproduce
bit-for-bit; a compiled plan never hands a statement back at run time.
"""

from repro.sqlengine.plan.logical import LogicalPlan, PlanUnsupported, lower_select
from repro.sqlengine.plan.rewrites import PROBE_SCRIPTS, REWRITE_RULES, apply_rewrites
from repro.sqlengine.plan.physical import PhysicalSelect, compile_select
from repro.sqlengine.plan.explain import explain_plan, explain_statement

__all__ = [
    "LogicalPlan",
    "PlanUnsupported",
    "lower_select",
    "PROBE_SCRIPTS",
    "REWRITE_RULES",
    "apply_rewrites",
    "PhysicalSelect",
    "compile_select",
    "explain_plan",
    "explain_statement",
]
