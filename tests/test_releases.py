"""Later-release modelling tests."""

import pytest

from repro.study.releases import (
    RELEASE_TRAINS,
    faults_for_release,
    make_release_server,
    release,
    release_fault_catalogs,
)


class TestReleaseModel:
    def test_studied_releases_fix_nothing(self, corpus):
        for server, train in RELEASE_TRAINS.items():
            baseline = corpus.faults_for(server)
            current = faults_for_release(corpus, server, train[0].version)
            assert len(current) == len(baseline)

    def test_pg_703_fixes_exactly_the_clustered_bug(self, corpus):
        baseline = {f.fault_id for f in corpus.faults_for("PG")}
        after = {f.fault_id for f in faults_for_release(corpus, "PG", "7.0.3")}
        assert baseline - after == {"PG-CLUSTERED-INDEX"}

    def test_fix_fraction_is_deterministic(self, corpus):
        first = [f.fault_id for f in faults_for_release(corpus, "IB", "6.5")]
        second = [f.fault_id for f in faults_for_release(corpus, "IB", "6.5")]
        assert first == second
        baseline = corpus.faults_for("IB")
        assert len(first) < len(baseline)

    def test_named_fixes_combine_with_fraction(self, corpus):
        after = {f.fault_id for f in faults_for_release(corpus, "PG", "7.1")}
        assert "PG-CLUSTERED-INDEX" not in after
        assert "PG-43" not in after

    def test_unknown_release_rejected(self):
        with pytest.raises(KeyError):
            release("PG", "99.9")

    def test_release_server_runs(self, corpus):
        server = make_release_server(corpus, "PG", "7.0.3")
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("INSERT INTO t VALUES (1)")
        assert server.execute("SELECT a FROM t").rows == [(1,)]

    def test_mixed_catalogs_default_to_studied_release(self, corpus):
        catalogs = release_fault_catalogs(corpus, {"PG": "7.0.3"})
        assert len(catalogs["IB"]) == len(corpus.faults_for("IB"))
        assert len(catalogs["PG"]) == len(corpus.faults_for("PG")) - 1


class TestReleaseStudy:
    def test_pg703_removes_clustered_coincidences(self, corpus):
        from repro.study import build_table4, run_study

        catalogs = release_fault_catalogs(corpus, {"PG": "7.0.3"})
        upgraded = run_study(corpus, faults_by_server=catalogs)
        table4 = build_table4(upgraded)
        assert table4["MS"]["PG"] == 0
        # Everything not touched by the fix is unchanged.
        assert table4["IB"]["PG"] == 1
        assert table4["IB"]["MS"] == 2

    def test_upgraded_server_still_fails_its_unfixed_bugs(self, corpus):
        from repro.study import run_study

        catalogs = release_fault_catalogs(corpus, {"PG": "7.0.3"})
        upgraded = run_study(corpus, faults_by_server=catalogs)
        still_failing = sum(
            1
            for report in corpus.reported_for("PG")
            if upgraded.outcome(report.bug_id, "PG").failed
        )
        assert still_failing == 52  # the fix wasn't for a PG-reported bug
