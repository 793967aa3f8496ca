"""A from-scratch, in-memory SQL engine.

This package is the substrate the reproduction runs on: the four diverse
"server products" in :mod:`repro.servers` are instances of this engine
configured with different dialect descriptors and fault catalogs.

The public surface is:

* :class:`repro.sqlengine.engine.Engine` — one database instance; accepts
  SQL text and returns :class:`repro.sqlengine.engine.Result`.
* :func:`repro.sqlengine.parser.parse_script` /
  :func:`repro.sqlengine.parser.parse_statement` — standalone parsing, used
  by the dialect translator and feature extractor.
"""

from repro.sqlengine.engine import Engine, EnginePrepared, Result
from repro.sqlengine.params import render_param, substitute_params

__all__ = [
    "Engine",
    "EnginePrepared",
    "Result",
    "render_param",
    "substitute_params",
]
