"""Study harness tests: classifier units plus the headline result —
the executed study reproduces the paper's Tables 1-4."""


from repro.bugs import groundtruth as gt
from repro.faults.spec import FailureKind
from repro.study import (
    OutcomeKind,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    failure_type_shares,
)
from repro.study.classify import ScriptOutcome, StatementOutcome, classify_run
from repro.study.runner import audit_faults, dead_faults, split_statements
from repro.study.tables import heisenbug_extras


def ok(rows=((1,),), cost=1.0, columns=("a",)):
    return StatementOutcome(
        status="ok", columns=columns, rows=tuple(rows), rowcount=len(rows),
        virtual_cost=cost,
    )


def err():
    return StatementOutcome(status="error", error="boom")


class TestClassifier:
    def test_identical_runs_are_no_failure(self):
        outcome = classify_run(
            ScriptOutcome([ok(), ok()]), ScriptOutcome([ok(), ok()])
        )
        assert outcome.kind is OutcomeKind.NO_FAILURE

    def test_crash_classified(self):
        faulty = ScriptOutcome([ok(), StatementOutcome(status="crash")], crashed=True)
        outcome = classify_run(faulty, ScriptOutcome([ok(), ok()]))
        assert outcome.failure_kind is FailureKind.ENGINE_CRASH
        assert outcome.self_evident

    def test_spurious_error_is_self_evident_incorrect(self):
        outcome = classify_run(ScriptOutcome([err()]), ScriptOutcome([ok()]))
        assert outcome.failure_kind is FailureKind.INCORRECT_RESULT
        assert outcome.self_evident

    def test_wrong_rows_are_non_self_evident(self):
        outcome = classify_run(
            ScriptOutcome([ok(rows=((1,), (2,)))]), ScriptOutcome([ok(rows=((1,),))])
        )
        assert outcome.failure_kind is FailureKind.INCORRECT_RESULT
        assert not outcome.self_evident

    def test_silent_acceptance_is_non_self_evident(self):
        # Faulty succeeds where the oracle errors (DROP TABLE on a view).
        outcome = classify_run(ScriptOutcome([ok()]), ScriptOutcome([err()]))
        assert outcome.kind is OutcomeKind.FAILURE
        assert not outcome.self_evident
        assert outcome.failure_kind is FailureKind.INCORRECT_RESULT

    def test_matching_errors_are_no_failure(self):
        outcome = classify_run(ScriptOutcome([err()]), ScriptOutcome([err()]))
        assert outcome.kind is OutcomeKind.NO_FAILURE

    def test_performance_failure(self):
        outcome = classify_run(
            ScriptOutcome([ok(cost=500.0)]), ScriptOutcome([ok(cost=1.0)])
        )
        assert outcome.failure_kind is FailureKind.PERFORMANCE
        assert outcome.self_evident

    def test_performance_needs_correct_output(self):
        # Wrong rows dominate slowness: classified as incorrect result.
        outcome = classify_run(
            ScriptOutcome([ok(rows=((9,),), cost=500.0)]),
            ScriptOutcome([ok(rows=((1,),), cost=1.0)]),
        )
        assert outcome.failure_kind is FailureKind.INCORRECT_RESULT

    def test_rowcount_only_diff_is_other(self):
        faulty = StatementOutcome(status="ok", columns=("a",), rows=((1,),), rowcount=5)
        outcome = classify_run(ScriptOutcome([faulty]), ScriptOutcome([ok()]))
        assert outcome.failure_kind is FailureKind.OTHER
        assert not outcome.self_evident

    def test_column_name_diff_is_failure(self):
        faulty = ok(columns=("",))
        outcome = classify_run(ScriptOutcome([faulty]), ScriptOutcome([ok()]))
        assert outcome.kind is OutcomeKind.FAILURE
        assert not outcome.self_evident


class TestSplitStatements:
    def test_splits_on_semicolons(self):
        assert len(split_statements("SELECT 1; SELECT 2; SELECT 3")) == 3

    def test_string_semicolons_preserved(self):
        parts = split_statements("SELECT 'a;b'; SELECT 2")
        assert len(parts) == 2
        assert "a;b" in parts[0]

    def test_empty_statements_skipped(self):
        assert len(split_statements(";;SELECT 1;;")) == 1


class TestStudyReproducesPaper:
    """The headline: our executed study reproduces the published tables."""

    def test_table1_exact(self, study):
        table = build_table1(study)
        for reported, targets in gt.PAPER_TABLE1.items():
            for target, expected in targets.items():
                for key, value in expected.items():
                    assert table[reported][target][key] == value, (
                        reported, target, key,
                    )

    def test_table2_within_documented_deviations(self, study):
        table = build_table2(study)
        for group, paper in gt.PAPER_TABLE2.items():
            expected = gt.TABLE2_KNOWN_DEVIATIONS.get(group, paper)
            row = table[group]
            assert (row.total, row.none_fail, row.one_fails, row.two_fail) == expected, group

    def test_no_bug_fails_more_than_two_servers(self, study):
        table = build_table2(study)
        assert all(row.more_than_two == 0 for row in table.values())

    def test_table3_exact(self, study):
        table = build_table3(study)
        for pair, expected in gt.PAPER_TABLE3.items():
            row = table[pair]
            assert (
                row.run,
                row.fail_any,
                row.one_se,
                row.one_nse,
                row.both_nondetectable,
                row.both_detectable_se,
                row.both_detectable_nse,
            ) == expected, pair

    def test_table4_exact(self, study):
        table = build_table4(study)
        for reported, columns in gt.PAPER_TABLE4.items():
            for target, value in columns.items():
                assert table[reported][target] == value, (reported, target)

    def test_only_four_nondetectable_bugs(self, study):
        table = build_table3(study)
        assert sum(row.both_nondetectable for row in table.values()) == 4

    def test_identical_pairs_triage(self, study):
        """The four non-detectable cells are genuinely identical wrong
        answers: the shared evaluator renders identically, so none is a
        dialect artifact and none is left unexplained."""
        from repro.study import separate_identical_pairs

        breakdown = separate_identical_pairs(study)
        assert len(breakdown.identical_incorrect) == 4
        assert breakdown.dialect_artifacts == []
        assert breakdown.unexplained == []

    def test_detectability_at_least_94_percent(self, study):
        # Section 4.3: "diversity allows detection of failures for at
        # least 94% of these bugs" in every 2-version pair.
        table = build_table3(study)
        for pair, row in table.items():
            assert row.detectable_fraction >= 0.94, pair

    def test_heisenbug_extra_is_56775(self, study):
        extras = heisenbug_extras(study)
        assert len(extras) == 1
        bug_id, failed = extras[0]
        assert bug_id == "MS-56775" and failed == frozenset({"PG"})

    def test_failure_shares_match_section7(self, study):
        shares = failure_type_shares(study)
        assert shares.total_failures == 152
        assert round(100 * shares.incorrect_fraction, 1) == 64.5
        assert round(100 * shares.crash_fraction, 1) == 17.1

    def test_oracle_never_fails_foreign_bugs(self, study):
        # Section 7: "Oracle was the only server that never failed when
        # running on it the reported bugs of the other servers."
        for report in study.corpus:
            if report.reported_for == "OR":
                continue
            assert not study.outcome(report.bug_id, "OR").failed, report.bug_id

    def test_ground_truth_classifications_match_observations(self, study):
        """Every bug's observed (kind, detectability) matches the corpus
        ground truth on every server — the corpus is executable truth,
        not just metadata."""
        for report in study.corpus:
            for server in gt.SERVER_KEYS:
                cell = study.outcome(report.bug_id, server)
                expected = (
                    report.home_failure
                    if server == report.reported_for
                    else report.foreign_failures.get(server)
                )
                if expected is None:
                    assert not cell.failed, (report.bug_id, server)
                else:
                    assert cell.failed, (report.bug_id, server)
                    assert (cell.failure_kind, cell.detectability) == expected, (
                        report.bug_id, server,
                    )


class TestStressMode:
    def test_heisenbugs_surface_under_stress(self, corpus):
        """Section 3.2: re-running Heisenbugs in a stressful environment
        should make some of them produce failures."""
        from repro.study import run_study

        stressed = run_study(corpus, stress_mode=True, seed=11)
        heisen = [r for r in corpus if r.heisenbug]
        failing_now = [
            r.bug_id
            for r in heisen
            if stressed.outcome(r.bug_id, r.reported_for).failed
        ]
        assert failing_now  # some Heisenbugs now fail...
        assert len(failing_now) < len(heisen)  # ...but not all


class TestFaultAudit:
    def test_no_dead_faults_in_corpus(self, study):
        """Every deterministic seeded fault fires somewhere: the corpus
        scripts and triggers are in sync."""
        assert dead_faults(study) == []

    def test_heisenbugs_never_fire_in_normal_study(self, study):
        audit = audit_faults(study)
        for entries in audit.values():
            for entry in entries:
                if entry.heisenbug:
                    assert entry.fired_on_bugs == [], entry.fault_id

    def test_shared_pg_fault_covers_six_scripts(self, study):
        pg = {entry.fault_id: entry for entry in audit_faults(study)["PG"]}
        assert len(set(pg["PG-CLUSTERED-INDEX"].fired_on_bugs)) == 6

    def test_audit_totals(self, study):
        audit = audit_faults(study)
        assert set(audit) == {"IB", "PG", "OR", "MS"}
        assert len(audit["PG"]) == len(study.corpus.faults_for("PG"))
