"""Shared fixtures.

The corpus, the full study run and the lint of the shipped corpus are
session-scoped: they are deterministic and read-only for the tests
that consume them, and the full study (181 bugs x 4 servers, faulty +
oracle runs) and the whole-corpus lint each take seconds we only want
to pay once.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass

import pytest

from repro.bugs import build_corpus
from repro.bugs.groundtruth import SERVER_KEYS
from repro.errors import AdjudicationFailure, SqlError
from repro.middleware import DiverseServer, ServerConfig
from repro.servers import make_all_servers, make_server
from repro.sqlengine import Engine
from repro.sqlengine.lexer import split_statements
from repro.study import run_study


@pytest.fixture
def engine() -> Engine:
    return Engine("test")


@pytest.fixture
def seeded_engine() -> Engine:
    eng = Engine("test")
    eng.execute(
        "CREATE TABLE product (id INTEGER PRIMARY KEY, name VARCHAR(30), "
        "price NUMERIC(8,2), qty INTEGER)"
    )
    eng.execute(
        "INSERT INTO product (id, name, price, qty) VALUES "
        "(1, 'widget', 9.50, 5), (2, 'gadget', 20.00, 2), "
        "(3, 'nut', 0.25, 100), (4, 'bolt', 0.35, 80)"
    )
    return eng


@pytest.fixture
def servers():
    return make_all_servers()


@pytest.fixture
def interbase():
    return make_server("IB")


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def study(corpus):
    return run_study(corpus)


@pytest.fixture(scope="session")
def corpus_adjudication(study):
    """``(prepare=False, use_planner=True) -> signature``: every script
    the study ran on all four products, each through a fresh
    four-version majority server carrying the corpus faults, as (bug id,
    (disagreements, masks, adjudication failures), per-statement
    outcomes).  Memoised: the literal, planned run is shared by the
    tests that compare against it."""
    corpus = study.corpus
    comparable = [r for r in corpus if study.ran_on(r) == frozenset(SERVER_KEYS)]

    @functools.cache
    def adjudicate(*, prepare=False, use_planner=True):
        signature = []
        for report in comparable:
            server = DiverseServer(
                [make_server(key, corpus.faults_for(key)) for key in SERVER_KEYS],
                config=ServerConfig(adjudication="majority", auto_recover=False),
            )
            for replica in server.replicas:
                replica.product.engine.use_planner = use_planner
            outcomes = []
            for statement in split_statements(report.script):
                try:
                    if prepare:
                        result = server.prepare(statement).execute(())
                    else:
                        result = server.execute(statement)
                    outcomes.append(("ok", result.rows))
                except AdjudicationFailure:
                    outcomes.append(("adjudication-failure",))
                except SqlError:
                    outcomes.append(("sql-error",))
            stats = server.stats
            signature.append((
                report.bug_id,
                (stats.disagreements_detected, stats.failures_masked,
                 stats.adjudication_failures),
                outcomes,
            ))
        return signature

    return adjudicate


@dataclass(frozen=True)
class PristineLint:
    """One lint of the shipped corpus: its findings, and what
    ``python -m repro lint`` and ``lint --json`` print and return for
    them."""

    findings: list
    text_output: str
    text_status: int
    json_output: str
    json_status: int


@pytest.fixture(scope="session")
def pristine_lint(corpus) -> PristineLint:
    from repro.__main__ import main
    from repro.analysis import lint

    findings = lint.lint_corpus(corpus)

    def run_cli(argv: list[str]) -> tuple[str, int]:
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            status = main(argv)
        return output.getvalue(), status

    # Both CLI renderings report the one lint above instead of running
    # their own.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lint, "lint_corpus", lambda _corpus: findings)
        text_output, text_status = run_cli(["lint"])
        json_output, json_status = run_cli(["lint", "--json"])
    return PristineLint(findings, text_output, text_status, json_output, json_status)
