"""Span tracing for the benchmark's separate per-layer run.

Nothing under ``src/`` knows about tracing.  :func:`install` wraps the
public entry points of each layer from outside: methods are patched on
their classes; module-level functions are rebound in every ``repro``
module that imported them, found by object identity, because
``from x import f`` copies the reference.

A span is ``{id, parent, op_id, layer, name, start_ns, end_ns}``; spans
of one transaction share ``op_id``.  A layer's *self time* is the
duration of its spans minus the part their child spans cover, so time
spent in code that is not wrapped is charged to the nearest wrapped
caller.  Spans and boundary counts stay in memory until the timed
region has ended.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

#: The layer of the benchmark's own loop (root span and one span per
#: transaction); everything else is a layer of the system.
DRIVER = "workload"

After = Callable[[dict, tuple, Any], None]


def _rows_returned(counts: dict, args: tuple, result: Any) -> None:
    counts["sqlengine.exec.rows_returned"] += len(result.rows)


def _wire_bytes(counts: dict, args: tuple, result: Any) -> None:
    counts["net.frames"] += 1
    counts["net.wire_bytes"] += len(result)


def _medium_bytes(counts: dict, args: tuple, result: Any) -> None:
    _, name, data = args
    if name.endswith("/wal"):
        counts["durability.wal_bytes"] += len(data)
    elif "/ckpt-" in name:
        counts["durability.checkpoint_bytes"] += len(data)


def _plan_lookup(counts: dict, args: tuple, result: Any) -> None:
    counts["sqlengine.plan.lookups"] += 1


#: (layer, module, attribute, boundary count taken after the call).
#: ``Class.method`` attributes are patched on the class.
SPAN_TARGETS: list[tuple[str, str, str, Optional[After]]] = [
    ("sqlengine.frontend", "repro.sqlengine.lexer", "tokenize", None),
    ("sqlengine.frontend", "repro.sqlengine.parser", "parse_statement", None),
    ("sqlengine.frontend", "repro.sqlengine.parser", "parse_prepared", None),
    ("sqlengine.frontend", "repro.sqlengine.parser", "parse_script", None),
    ("sqlengine.frontend", "repro.sqlengine.params", "substitute_params", None),
    ("sqlengine.plan", "repro.sqlengine.plan.dml", "compile_statement", None),
    ("sqlengine.exec", "repro.sqlengine.engine", "Engine.execute", _rows_returned),
    ("sqlengine.exec", "repro.sqlengine.engine", "EnginePrepared.execute", _rows_returned),
    ("dialects", "repro.dialects.translator", "translate_script", None),
    ("dialects", "repro.middleware.pipeline", "StatementPipeline.translation", None),
    ("analysis", "repro.analysis.verdicts", "analyze_statement", None),
    ("analysis", "repro.analysis.divergence", "analyze_divergence", None),
    ("analysis", "repro.analysis.predicates", "tlp_partition", None),
    ("analysis", "repro.analysis.conflicts", "commutes_with_footprint", None),
    ("analysis", "repro.middleware.pipeline", "StatementPipeline.verdict", None),
    ("analysis", "repro.middleware.pipeline", "StatementPipeline.divergence", None),
    ("analysis", "repro.middleware.pipeline", "StatementPipeline.def_use", None),
    ("analysis", "repro.middleware.pipeline", "StatementPipeline.abstraction", None),
    ("middleware", "repro.middleware.server", "DiverseServer.execute", None),
    ("middleware", "repro.middleware.server", "PreparedStatement.execute", None),
    ("middleware", "repro.middleware.comparator", "ResultComparator.compare", None),
    ("middleware", "repro.middleware.normalizer", "normalize_result", None),
    ("middleware", "repro.middleware.supervisor", "ReplicaSupervisor.maybe_checkpoint", None),
    ("durability", "repro.durability.wal", "WriteAheadLog.append", None),
    ("durability", "repro.durability.checkpoint", "CheckpointStore.save", None),
    ("durability", "repro.durability.checkpoint", "build_checkpoint", None),
    ("durability", "repro.durability.manager", "DurabilityManager.recover_server", None),
    ("net", "repro.net.protocol", "encode_frame", _wire_bytes),
    ("net", "repro.net.protocol", "decode_frame", None),
    ("net", "repro.net.server", "NetServer.handle_frame", None),
    ("net", "repro.net.client", "SessionSupervisor.execute", None),
    ("net", "repro.net.client", "SupervisedHandle.execute", None),
    ("net", "repro.net.transport", "SimulatedNetwork.pump", None),
    ("study", "repro.study.runner", "StudyRunner.run_cell", None),
    ("study", "repro.study.classify", "classify_run", None),
    ("study", "repro.servers.product", "ServerProduct.reset", None),
    ("hunt", "repro.sqlengine.sqlgen", "PredicateGenerator.select_statement", None),
    ("hunt", "repro.hunt", "_vote_oracle", None),
    ("hunt", "repro.hunt", "_tlp_oracle", None),
    ("hunt", "repro.hunt", "_pivot_oracle", None),
]

#: Calls that are only counted, not timed.
COUNT_TARGETS: list[tuple[str, str, After]] = [
    ("repro.sqlengine.engine", "Engine._cached_plan", _plan_lookup),
    ("repro.durability.medium", "MemoryMedium.append", _medium_bytes),
    ("repro.durability.medium", "MemoryMedium.write", _medium_bytes),
]


class Tracer:
    """In-memory span and count store.  Spans are recorded only while
    ``recording`` is true, so set-up costs nothing but a flag test."""

    def __init__(self) -> None:
        #: ``(parent, op_id, layer, name, start_ns, end_ns)``, indexed by span id.
        self.spans: list[Optional[tuple]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.recording = False
        self.op_id = -1
        self._stack: list[int] = [-1]
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans opened by the benchmark's own loop -------------------------

    def open(self, name: str, layer: str = DRIVER) -> int:
        span_id = len(self.spans)
        self.spans.append((self._stack[-1], self.op_id, layer, name, time.perf_counter_ns(), 0))
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        parent, op_id, layer, name, start, _ = self.spans[span_id]
        self.spans[span_id] = (parent, op_id, layer, name, start, time.perf_counter_ns())
        self._stack.pop()

    def start(self) -> None:
        """Open the root span of the timed region and start recording."""
        self.open("timed-region")
        self.recording = True

    def mark(self, index: int, profile: str) -> None:
        """Transaction boundary: close the previous transaction's span
        and open the next one under the root."""
        if len(self._stack) > 2:
            self.close(self._stack[-1])
        self.op_id = index
        self.open(profile)

    def stop(self) -> None:
        self.recording = False
        while len(self._stack) > 1:
            self.close(self._stack[-1])

    # -- wrapping ----------------------------------------------------------

    def _timed(self, function: Callable, layer: str, name: str, after: Optional[After]):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (parent, self.op_id, layer, name, start, end)
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _counted(self, function: Callable, after: After):
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            if self.recording:
                after(counts, args, result)
            return result

        return counted

    def _patch(self, module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        if "." in attribute:
            owner_name, method = attribute.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._patched.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(module, attribute)
        replacement = make(original)
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


def install() -> Tracer:
    """Wrap every target; call after the ``repro`` modules that use them
    are imported.  The tracer starts with ``recording`` off."""
    tracer = Tracer()
    for layer, module, attribute, after in SPAN_TARGETS:
        tracer._patch(
            module, attribute,
            functools.partial(tracer._timed, layer=layer, name=attribute, after=after),
        )
    for module, attribute, after in COUNT_TARGETS:
        tracer._patch(module, attribute, functools.partial(tracer._counted, after=after))
    return tracer


# -- analysis ---------------------------------------------------------------


def span_records(spans: Iterable[Optional[tuple]]) -> list[dict]:
    return [
        {
            "id": span_id, "parent": span[0], "op_id": span[1], "layer": span[2],
            "name": span[3], "start_ns": span[4], "end_ns": span[5],
        }
        for span_id, span in enumerate(spans)
        if span is not None
    ]


def write_jsonl(records: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with path.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(records: list[dict]) -> dict[tuple[str, str], tuple[int, int]]:
    """``(layer, name) -> (calls, self ns)``: each span's duration minus
    its direct children's."""
    child_ns: dict[int, int] = defaultdict(int)
    for record in records:
        child_ns[record["parent"]] += record["end_ns"] - record["start_ns"]
    totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
    for record in records:
        own = record["end_ns"] - record["start_ns"] - child_ns[record["id"]]
        entry = totals[(record["layer"], record["name"])]
        entry[0] += 1
        entry[1] += own
    return {key: (calls, own) for key, (calls, own) in totals.items()}


def traced_wall_ns(records: list[dict]) -> int:
    """Duration of the root span: the traced timed region."""
    root = next(record for record in records if record["parent"] == -1)
    return root["end_ns"] - root["start_ns"]


def layer_shares(records: list[dict]) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall (the root
    span).  The shares, driver included, sum to 1 by construction."""
    wall = traced_wall_ns(records)
    shares: dict[str, float] = defaultdict(float)
    for (layer, _), (_, own) in self_times(records).items():
        shares[layer] += own / wall
    return dict(shares)


# -- per-layer metrics ------------------------------------------------------

#: The layers of the system, by module name.
LAYERS = (
    "sqlengine.frontend", "sqlengine.plan", "sqlengine.exec", "dialects", "analysis",
    "middleware", "durability", "net", "study", "hunt",
)


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, by the suffix its name carries."""
    if name.endswith("_s"):
        return "s"
    if is_share(name) or name.endswith(("_ratio", "_overhead")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_sql_byte"):
        return "B/B"
    return "count"


def is_share(name: str) -> bool:
    """Shares of traced wall vary between repetitions like times do;
    counts, bytes and hit ratios must repeat exactly."""
    return name.startswith("share.") or name.endswith("_share")


def layer_metrics(
    records: list[dict], counts: dict, exact: dict, recovery_s: float
) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced
    repetition: ``records`` and boundary ``counts`` from the tracer,
    ``exact`` the workload's own counts.  Times are self times in
    seconds over the timed region."""
    by_name = self_times(records)
    shares = layer_shares(records)

    def picked(layer: str, names: tuple[str, ...]) -> list[tuple[int, int]]:
        return [
            entry for (owner, name), entry in by_name.items()
            if owner == layer and (not names or name in names)
        ]

    def calls(layer: str, *names: str) -> int:
        return sum(count for count, _ in picked(layer, names))

    def self_s(layer: str, *names: str) -> float:
        return sum(own for _, own in picked(layer, names)) / 1e9

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    lookups = counts.get("sqlengine.plan.lookups", 0)
    compiled = calls("sqlengine.plan")
    wal_bytes = counts.get("durability.wal_bytes", 0)
    pipeline_hits = exact.get("pipeline_hits", 0)
    metrics = {
        "sqlengine.frontend.calls": calls("sqlengine.frontend"),
        "sqlengine.frontend.self_s": self_s("sqlengine.frontend"),
        "sqlengine.plan.plans_compiled": compiled,
        "sqlengine.plan.plan_cache_hit_ratio": ratio(lookups - compiled, lookups),
        "sqlengine.plan.compile_self_s": self_s("sqlengine.plan"),
        "sqlengine.exec.calls": calls("sqlengine.exec"),
        "sqlengine.exec.self_s": self_s("sqlengine.exec"),
        "sqlengine.exec.rows_returned": counts.get("sqlengine.exec.rows_returned", 0),
        "dialects.calls": calls("dialects"),
        "dialects.self_s": self_s("dialects"),
        "analysis.calls": calls("analysis"),
        "analysis.self_s": self_s("analysis"),
        "middleware.adjudications": calls("middleware", "ResultComparator.compare"),
        "middleware.compare_self_s": self_s(
            "middleware", "ResultComparator.compare", "normalize_result"
        ),
        "middleware.dispatch_self_s": self_s(
            "middleware", "DiverseServer.execute", "PreparedStatement.execute"
        ),
        "middleware.checkpoints": exact.get("checkpoints", 0),
        "middleware.checkpoint_self_s": self_s(
            "middleware", "ReplicaSupervisor.maybe_checkpoint"
        ),
        "middleware.pipeline_hit_ratio": ratio(
            pipeline_hits, pipeline_hits + exact.get("pipeline_misses", 0)
        ),
        "durability.wal_records": calls("durability", "WriteAheadLog.append"),
        "durability.wal_bytes": wal_bytes,
        "durability.wal_bytes_per_sql_byte": ratio(
            wal_bytes, exact.get("timed_write_sql_bytes", 0)
        ),
        "durability.append_self_s": self_s("durability", "WriteAheadLog.append"),
        "durability.checkpoint_count": calls("durability", "CheckpointStore.save"),
        "durability.checkpoint_bytes": counts.get("durability.checkpoint_bytes", 0),
        "durability.checkpoint_self_s": self_s(
            "durability", "CheckpointStore.save", "build_checkpoint"
        ),
        "durability.recovery_s": recovery_s,
        "net.frames": counts.get("net.frames", 0),
        "net.wire_bytes": counts.get("net.wire_bytes", 0),
        "net.codec_self_s": self_s("net", "encode_frame", "decode_frame"),
        "net.server_self_s": self_s("net", "NetServer.handle_frame"),
        "net.client_self_s": self_s(
            "net", "SessionSupervisor.execute", "SupervisedHandle.execute",
            "SimulatedNetwork.pump",
        ),
        "net.parked": exact.get("parked", 0),
        "net.shed": exact.get("shed", 0),
        "net.resends": exact.get("resends", 0),
        "study.cells": calls("study", "StudyRunner.run_cell"),
        "study.cell_self_s": self_s("study", "StudyRunner.run_cell"),
        "study.reset_self_s": self_s("study", "ServerProduct.reset"),
        "study.classify_self_s": self_s("study", "classify_run"),
        "hunt.rounds": calls("hunt", "PredicateGenerator.select_statement"),
        "hunt.tlp_checks": exact.get("tlp_checks", 0),
        "hunt.pivot_checks": exact.get("pivot_checks", 0),
        "hunt.vote_checks": exact.get("vote_checks", 0),
        "hunt.generator_self_s": self_s("hunt", "PredicateGenerator.select_statement"),
        "hunt.oracle_self_s": self_s("hunt", "_vote_oracle", "_tlp_oracle", "_pivot_oracle"),
        "trace.spans": len(records),
        "trace.traced_wall_s": traced_wall_ns(records) / 1e9,
        "trace.layers_explained_share": 1.0 - shares.get(DRIVER, 0.0),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = shares.get(layer, 0.0)
    return metrics
