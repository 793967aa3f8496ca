"""Later-release modelling tests."""

import pytest

from repro.servers import make_server
from repro.study import build_table2, build_table3, build_table4, run_study
from repro.study.releases import (
    RELEASE_TRAINS,
    faults_for_release,
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
        server = make_server("PG", faults_for_release(corpus, "PG", "7.0.3"))
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("INSERT INTO t VALUES (1)")
        assert server.execute("SELECT a FROM t").rows == [(1,)]

    def test_mixed_catalogs_default_to_studied_release(self, corpus):
        catalogs = release_fault_catalogs(corpus, {"PG": "7.0.3"})
        assert len(catalogs["IB"]) == len(corpus.faults_for("IB"))
        assert len(catalogs["PG"]) == len(corpus.faults_for("PG")) - 1


def release_study(corpus, versions):
    return run_study(corpus, faults_by_server=release_fault_catalogs(corpus, versions))


def coincident_total(table4):
    return sum(sum(columns.values()) for columns in table4.values())


@pytest.fixture(scope="module")
def pg703_study(corpus):
    return release_study(corpus, {"PG": "7.0.3"})


class TestReleaseStudy:
    def test_pg703_removes_clustered_coincidences(self, pg703_study):
        table4 = build_table4(pg703_study)
        assert table4["MS"]["PG"] == 0
        # Everything not touched by the fix is unchanged: only the five
        # MS->PG coincidences of Table 4's twelve are gone.
        assert table4["IB"]["PG"] == 1
        assert table4["IB"]["MS"] == 2
        assert coincident_total(table4) == 12 - 5

    def test_upgraded_server_still_fails_its_unfixed_bugs(self, corpus, pg703_study):
        still_failing = sum(
            1
            for report in corpus.reported_for("PG")
            if pg703_study.outcome(report.bug_id, "PG").failed
        )
        assert still_failing == 52  # the fix wasn't for a PG-reported bug

    def test_mixed_later_releases_keep_the_conclusions(self, corpus, study):
        upgraded = release_study(
            corpus, {"IB": "6.5", "PG": "7.1", "OR": "8.1.7", "MS": "7 SP4"}
        )
        table2 = build_table2(upgraded)
        table3 = build_table3(upgraded)
        baseline3 = build_table3(study)
        failures = sum(
            upgraded.outcome(report.bug_id, report.reported_for).failed
            for report in corpus
        )
        assert failures < 152  # the releases fixed real bugs
        # The conclusions persist: coincident and identical failures
        # only shrink, no bug fails more than two servers, and every
        # pair stays highly detectable (fixing bugs shrinks the
        # denominator, so a surviving identical failure weighs more:
        # the paper's Section 6 warning about extrapolating percentages).
        assert coincident_total(build_table4(upgraded)) <= coincident_total(
            build_table4(study)
        )
        assert sum(row.both_nondetectable for row in table3.values()) <= sum(
            row.both_nondetectable for row in baseline3.values()
        )
        assert all(row.more_than_two == 0 for row in table2.values())
        assert min(
            row.detectable_fraction for row in table3.values() if row.fail_any
        ) >= 0.85
