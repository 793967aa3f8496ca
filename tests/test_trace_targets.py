"""Every name the benchmark's tracer patches still resolves.

``benchmarks/e2e/trace.py`` wraps layer entry points by module and
attribute name (``SPAN_TARGETS``, ``COUNT_TARGETS``); a renamed or
moved one fails only when a traced benchmark run installs the tracer.
This test reads the file's two tables (its source is executed, never
imported or cached) and resolves each entry the way
``Tracer._patch`` does: a ``Class.method`` in the class's own
``__dict__``, anything else as a module attribute.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "trace.py"


def _trace_tables() -> list[tuple[str, str]]:
    module = types.ModuleType("trace_tables")
    exec(compile(TRACE.read_text(), str(TRACE), "exec"), module.__dict__)
    return [(entry[1], entry[2]) for entry in module.SPAN_TARGETS] + [
        (entry[0], entry[1]) for entry in module.COUNT_TARGETS
    ]


TARGETS = _trace_tables()


def test_the_tracer_names_its_targets():
    names = {attribute for _, attribute in TARGETS}
    assert {
        "EnginePrepared.execute",
        "PreparedStatement.execute",
        "compile_statement",
        "Engine._cached_plan",
    } <= names


@pytest.mark.parametrize(("module_name", "attribute"), TARGETS, ids="{0[0]}:{0[1]}".format)
def test_every_trace_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    if "." in attribute:
        owner, method = attribute.split(".")
        assert callable(vars(getattr(module, owner))[method])
    else:
        assert callable(getattr(module, attribute))
