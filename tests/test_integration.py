"""End-to-end integration scenarios spanning multiple subsystems."""

import pytest

from repro.bugs import build_corpus
from repro.bugs import groundtruth as gt
from repro.errors import AdjudicationFailure, SqlError
from repro.middleware import DiverseServer, ReplicaState
from repro.servers import make_server
from repro.sqlengine.lexer import split_statements
from repro.study.runner import StudyRunner, run_script


class TestNotableBugsEndToEnd:
    """Each Section-5 bug behaves as the paper describes, end to end."""

    def test_223512_drop_table_on_view(self, corpus):
        report = corpus.get("IB-223512")
        faulty = make_server("IB", corpus.faults_for("IB"))
        outcome = run_script(faulty, report.script)
        # The final DROP TABLE succeeded on the faulty server...
        assert outcome.statements[-1].status == "ok"
        # ...while a pristine server rejects it.
        pristine = make_server("IB")
        oracle = run_script(pristine, report.script)
        assert oracle.statements[-1].status == "error"

    def test_217042_default_detected_with_high_latency(self, corpus):
        report = corpus.get("IB-217042")
        faulty = make_server("MS", corpus.faults_for("MS"))
        from repro.dialects import translate_script

        outcome = run_script(faulty, translate_script(report.script, "MS"))
        # CREATE succeeds (the bug); the later INSERT errs (the latency).
        assert outcome.statements[0].status == "ok"
        assert outcome.statements[1].status == "error"

    def test_222476_empty_field_names(self, corpus):
        report = corpus.get("IB-222476")
        faulty = make_server("IB", corpus.faults_for("IB"))
        outcome = run_script(faulty, report.script)
        final = outcome.statements[-1]
        assert final.status == "ok"
        assert final.columns == ("", "")
        # Values are still correct — only the names are lost.
        pristine = run_script(make_server("IB"), report.script)
        assert final.rows == pristine.statements[-1].rows

    def test_pg43_different_failure_patterns(self, corpus):
        report = corpus.get("PG-43")
        pg = make_server("PG", corpus.faults_for("PG"))
        ms = make_server("MS", corpus.faults_for("MS"))
        from repro.dialects import translate_script

        pg_out = run_script(pg, report.script)
        ms_out = run_script(ms, translate_script(report.script, "MS"))
        pg_err = [s.error for s in pg_out.statements if s.status == "error"]
        ms_err = [s.error for s in ms_out.statements if s.status == "error"]
        assert pg_err and ms_err
        assert pg_err != ms_err  # "the two servers fail with different patterns"

    def test_58544_identical_wrong_rows(self, corpus):
        report = corpus.get("MS-58544")
        from repro.dialects import translate_script

        ms = make_server("MS", corpus.faults_for("MS"))
        ib = make_server("IB", corpus.faults_for("IB"))
        ms_out = run_script(ms, report.script)
        ib_out = run_script(ib, translate_script(report.script, "IB"))
        assert ms_out.statements[-1].rows == ib_out.statements[-1].rows
        pristine = run_script(make_server("MS"), report.script)
        assert ms_out.statements[-1].rows != pristine.statements[-1].rows

    def test_clustered_scripts_fail_pg_at_index_creation(self, corpus):
        from repro.dialects import translate_script

        pg = make_server("PG", corpus.faults_for("PG"))
        report = corpus.get("MS-54428")
        outcome = run_script(pg, translate_script(report.script, "PG"))
        statuses = [s.status for s in outcome.statements]
        # The CREATE CLUSTERED INDEX statement (index 5) errors...
        assert statuses[5] == "error"
        # ..."at the beginning of the bug script", before the probe query.
        pg.reset()


class TestDiverseServerToleratesCorpusBugs:
    """The middleware the paper motivates, facing the actual corpus bug:
    a diverse pair detects what a non-diverse pair cannot."""

    def test_diverse_pair_detects_58544(self, corpus):
        report = corpus.get("MS-58544")
        server = DiverseServer(
            [
                make_server("MS", corpus.faults_for("MS")),
                make_server("OR", corpus.faults_for("OR")),
            ],
            adjudication="compare",
            auto_recover=False,
        )
        detected = False
        for statement in report.script.rstrip(";").split(";\n"):
            try:
                server.execute(statement)
            except AdjudicationFailure:
                detected = True
        assert detected  # OR answers correctly; MS's wrong rows disagree

    def test_nondetectable_pair_slips_through(self, corpus):
        # IB+MS share bug 58544's behaviour: identical wrong answers agree.
        report = corpus.get("MS-58544")
        server = DiverseServer(
            [
                make_server("IB", corpus.faults_for("IB")),
                make_server("MS", corpus.faults_for("MS")),
            ],
            adjudication="compare",
            auto_recover=False,
        )
        for statement in report.script.rstrip(";").split(";\n"):
            server.execute(statement)  # no AdjudicationFailure raised
        assert server.stats.disagreements_detected == 0

    def test_triple_masks_58544(self, corpus):
        report = corpus.get("MS-58544")
        server = DiverseServer(
            [
                make_server("MS", corpus.faults_for("MS")),
                make_server("OR", corpus.faults_for("OR")),
                make_server("IB", []),  # pristine third opinion
            ],
            adjudication="majority",
            auto_recover=False,
        )
        for statement in report.script.rstrip(";").split(";\n"):
            server.execute(statement)
        assert server.stats.failures_masked >= 1


def run_through(server, report):
    """Every statement of a bug script through the middleware; a
    detection is counted in the stats, a unanimous error is correct."""
    for statement in split_statements(report.script):
        try:
            server.execute(statement)
        except (AdjudicationFailure, SqlError):
            continue
    return server


class TestDetectionMatchesTable3:
    """Every runnable bug script through every 2-version pair: the
    middleware surfaces each failure the pair exhibits except the
    non-detectable ones — identical wrong answers win the comparison —
    which validates the middleware against the study's counting."""

    #: PG-43 fails both PG and MS with different spurious errors: the
    #: middleware sees a unanimous error and propagates it (a fail-safe
    #: failure the client observes), so no disagreement fires.
    UNANIMOUS_ERROR_BUGS = {("PG", "MS"): 1}

    @pytest.mark.parametrize("pair", list(gt.PAPER_TABLE3), ids="+".join)
    def test_pair_detects_all_but_the_nondetectable(self, study, pair):
        corpus = study.corpus
        reports = [report for report in corpus if set(pair) <= study.ran_on(report)]
        detected = sum(
            run_through(
                DiverseServer(
                    [make_server(key, corpus.faults_for(key)) for key in pair],
                    adjudication="compare",
                    auto_recover=False,
                ),
                report,
            ).stats.detection_events > 0
            for report in reports
        )
        run, fail_any, _, _, nondetectable, _, _ = gt.PAPER_TABLE3[pair]
        assert len(reports) == run
        assert detected == (
            fail_any - nondetectable - self.UNANIMOUS_ERROR_BUGS.get(pair, 0)
        )


class TestVotingHazard:
    """A non-detectable bug does not merely slip past a 2-version
    comparison: in a 3-version majority holding both affected products
    the two identical wrong answers out-vote the correct replica."""

    #: Non-detectable bug -> (the two products it fails identically, a
    #: healthy third product).
    CASES = {
        "IB-223512": (("IB", "PG"), "OR"),
        "IB-217042": (("IB", "MS"), "OR"),
        "PG-77": (("PG", "MS"), "OR"),
        "MS-58544": (("MS", "IB"), "OR"),
    }

    def test_identical_wrong_answers_outvote_the_healthy_replica(self, corpus):
        outvoted = []
        for bug_id, (affected, healthy) in self.CASES.items():
            server = DiverseServer(
                [make_server(key, corpus.faults_for(key)) for key in (*affected, healthy)],
                adjudication="majority",
                auto_recover=False,
            )
            for statement in split_statements(corpus.get(bug_id).script):
                try:
                    server.execute(statement)
                except SqlError:
                    continue
                if server.replica(healthy).state is ReplicaState.SUSPECTED:
                    outvoted.append(bug_id)
                    break
        assert outvoted == list(self.CASES)

    def test_hazard_avoided_by_replica_selection(self, corpus):
        # An IB without the shared 58544 fault (a later release, or not
        # pairing the products with the known identical failure): MS's
        # wrong rows are out-voted and MS, not OR, is suspected.
        server = run_through(
            DiverseServer(
                [
                    make_server("MS", corpus.faults_for("MS")),
                    make_server("OR", corpus.faults_for("OR")),
                    make_server("IB", []),
                ],
                adjudication="majority",
                auto_recover=False,
            ),
            corpus.get("MS-58544"),
        )
        assert server.stats.failures_masked >= 1
        assert server.replica("MS").state is ReplicaState.SUSPECTED
        assert server.replica("OR").state is ReplicaState.ACTIVE


class TestStudyRunnerPieces:
    def test_run_cell_dialect_gating(self, corpus):
        runner = StudyRunner(corpus)
        report = corpus.get("OR-1059835")  # fn.MOD: PG+OR only
        from repro.study import OutcomeKind

        assert runner.run_cell(report, "IB").kind is OutcomeKind.CANNOT_RUN
        assert runner.run_cell(report, "MS").kind is OutcomeKind.CANNOT_RUN
        assert runner.run_cell(report, "PG").failed
        assert runner.run_cell(report, "OR").failed

    def test_run_cell_further_work(self, corpus):
        runner = StudyRunner(corpus)
        from repro.study import OutcomeKind

        pending = next(r for r in corpus if r.translation_pending)
        target = next(iter(pending.translation_pending))
        assert runner.run_cell(pending, target).kind is OutcomeKind.FURTHER_WORK

    def test_corpus_rebuild_and_rerun_is_stable(self):
        corpus_a = build_corpus()
        corpus_b = build_corpus()
        runner_a = StudyRunner(corpus_a)
        runner_b = StudyRunner(corpus_b)
        report_a = corpus_a.get("PG-77")
        report_b = corpus_b.get("PG-77")
        cell_a = runner_a.run_cell(report_a, "MS")
        cell_b = runner_b.run_cell(report_b, "MS")
        assert cell_a.failure_kind == cell_b.failure_kind
        assert cell_a.faulty.signature() == cell_b.faulty.signature()
