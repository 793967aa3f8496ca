"""The comparator budget: how often one adjudicated round normalises.

Answers are grouped by identity first (:func:`identical`), so a round
whose replicas answer alike normalises nothing, and a disagreement
normalises each distinct answer once — for the vote, the winner's key,
the benign-dialect triage and the out-voted replica's retry together.
``normalize_result`` is wrapped in the comparator, the module that
reads it (as ``benchmarks/e2e/trace.py`` also wraps it), and the tests
assert exact counts.
"""

from __future__ import annotations

import pytest

import repro.middleware.comparator
from repro.faults import FaultSpec, RelationTrigger, RowDropEffect
from repro.middleware import DiverseServer
from repro.servers import make_server

KEYS = ("IB", "PG", "OR", "MS")


@pytest.fixture
def normalised(monkeypatch) -> list:
    """The column tuples handed to ``normalize_result``, one per call."""
    calls: list = []
    original = repro.middleware.comparator.normalize_result

    def counted(columns, rows):
        calls.append(tuple(columns))
        return original(columns, rows)

    monkeypatch.setattr(repro.middleware.comparator, "normalize_result", counted)
    return calls


def four_version(faults=None, **config) -> DiverseServer:
    server = DiverseServer(
        [make_server(key, (faults or {}).get(key, [])) for key in KEYS], **config
    )
    server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b NUMERIC(6,2), c VARCHAR(10))")
    for a in range(1, 5):
        server.execute(f"INSERT INTO t VALUES ({a}, {a}.50, 'v{a}')")
    return server


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a, b, c FROM t ORDER BY a DESC",
        "SELECT c FROM t WHERE b > 2",
        "UPDATE t SET b = b + 1 WHERE a = 2",
    ],
)
@pytest.mark.parametrize("dual_plan", [False, True])
def test_unanimous_round_normalises_nothing(normalised, sql, dual_plan):
    server = four_version(dual_plan=dual_plan)
    normalised.clear()
    server.execute(sql)
    assert server.stats.unanimous == 1 + 4 + 1
    assert normalised == []


def test_disagreement_normalises_each_distinct_answer_once(normalised):
    drop = FaultSpec(
        "T-DROP", "drops every other row of t", RelationTrigger(["t"], kind="select"),
        RowDropEffect(),
    )
    server = four_version({"MS": [drop]})
    normalised.clear()
    result = server.execute("SELECT a, b FROM t ORDER BY a")
    assert len(result.rows) == 4
    assert server.stats.failures_masked == 1
    assert server.stats.fault_indicating_divergences == 1
    # MS retried, answered the same dropped rows again, and was out-voted.
    assert server.stats.statement_retries == 1
    assert server.replica("MS").stats.outvoted == 1
    # Two distinct answers (three replicas alike, MS alone): two calls.
    assert normalised == [("a", "b"), ("a", "b")]
