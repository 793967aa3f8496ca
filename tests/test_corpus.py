"""Corpus invariants: the 181-report sample matches the paper's ground
truth before any execution happens."""

from collections import Counter


from repro.bugs import build_corpus
from repro.bugs import groundtruth as gt
from repro.bugs.notable import notable_bugs
from repro.dialects import dialect
from repro.sqlengine.analysis import script_traits
from repro.sqlengine.parser import parse_script


class TestCorpusShape:
    def test_181_reports(self, corpus):
        assert len(corpus) == 181

    def test_per_server_totals(self, corpus):
        counts = Counter(r.reported_for for r in corpus)
        assert counts == {"IB": 55, "PG": 57, "OR": 18, "MS": 51}

    def test_unique_ids(self, corpus):
        assert len({r.bug_id for r in corpus}) == 181

    def test_deterministic_build(self, corpus):
        other = build_corpus()
        assert [r.bug_id for r in other] == [r.bug_id for r in corpus]
        assert [r.script for r in other] == [r.script for r in corpus]

    def test_heisenbug_count(self, corpus):
        # 8 + 5 + 4 + 12 home-no-failure reports.
        assert sum(1 for r in corpus if r.heisenbug) == 29

    def test_coincident_bugs_are_the_twelve(self, corpus):
        coincident = {r.bug_id for r in corpus if len(r.failing_servers) > 1}
        assert coincident == {
            "IB-223512", "IB-217042", "IB-222476", "PG-43", "PG-77",
            "OR-1059835", "MS-58544", "MS-54428", "MS-56516", "MS-58158",
            "MS-58253", "MS-351180",
        }

    def test_notable_bugs_all_present(self, corpus):
        for notable in notable_bugs():
            assert corpus.get(notable.bug_id).title == notable.title


class TestScripts:
    def test_every_script_parses(self, corpus):
        for report in corpus:
            assert parse_script(report.script)

    def test_home_dialect_accepts_every_script(self, corpus):
        for report in corpus:
            traits = script_traits(parse_script(report.script))
            missing = dialect(report.reported_for).missing_tags(traits)
            assert missing == [], f"{report.bug_id}: {missing}"

    def test_gate_features_match_runnable_set(self, corpus):
        """A script's gate features must be supported exactly by the
        servers in runnable_on plus translation_pending."""
        for report in corpus:
            traits = script_traits(parse_script(report.script))
            natural = {
                server
                for server in gt.SERVER_KEYS
                if not dialect(server).missing_tags(traits)
            }
            expected = set(report.runnable_on) | set(report.translation_pending)
            assert natural == expected, report.bug_id

    def test_scripts_use_disjoint_tables(self, corpus):
        seen: dict[str, str] = {}
        for report in corpus:
            traits = script_traits(parse_script(report.script))
            for relation in traits.relations:
                owner = seen.setdefault(relation, report.bug_id)
                assert owner == report.bug_id, (
                    f"table {relation} shared by {owner} and {report.bug_id}"
                )

    def test_oracle_scripts_use_oracle_spellings(self, corpus):
        generic_or = [
            r for r in corpus.reported_for("OR") if r.bug_id.startswith("OR-106")
        ]
        assert generic_or
        for report in generic_or:
            assert "VARCHAR2" in report.script or "NUMBER" in report.script


class TestGroundTruthMarginals:
    def test_group_sizes(self, corpus):
        groups = Counter(gt.canonical_group(r.runnable_on) for r in corpus)
        for group, (total, *_rest) in gt.PAPER_TABLE2.items():
            assert groups.get(group, 0) == total, group

    def test_run_counts_per_reported_target(self, corpus):
        for reported, targets in gt.PAPER_TABLE1.items():
            reports = corpus.reported_for(reported)
            for target, expected in targets.items():
                runnable = sum(1 for r in reports if target in r.runnable_on)
                pending = sum(1 for r in reports if target in r.translation_pending)
                assert runnable == expected["run"], (reported, target)
                assert pending == expected["further_work"], (reported, target)

    def test_home_failure_totals(self, corpus):
        for reported, targets in gt.PAPER_TABLE1.items():
            expected = targets[reported]
            failing = sum(
                1 for r in corpus.reported_for(reported) if r.home_failure is not None
            )
            assert failing == expected["failure"]

    def test_faults_scoped_to_affected_servers(self, corpus):
        for report in corpus:
            for server in report.faults:
                assert server in gt.SERVER_KEYS

    def test_shared_pg_clustered_fault_present_once(self, corpus):
        pg_faults = corpus.faults_for("PG")
        shared = [f for f in pg_faults if f.fault_id == "PG-CLUSTERED-INDEX"]
        assert len(shared) == 1
