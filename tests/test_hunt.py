"""The generative hunt campaign: pristine silence, seeded predicate
bugs caught by the static TLP oracle on a single replica, dedup, and
repro minimization."""

import pytest

from repro.faults import (
    AlwaysTrigger,
    FaultSpec,
    PartitionDropBugEffect,
    PredicateFoldBugEffect,
    RowDropEffect,
)
from repro import hunt
from repro.hunt import run_hunt
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import engine as engine_module
from repro.sqlengine.engine import Engine, ParsedStatement
from tests.reference import reference_server

#: The statements that run on a compiled plan.
_PLANNED = (ast.SelectStatement, ast.Insert, ast.Update, ast.Delete)


def _spec(fault_id, effect):
    return FaultSpec(
        fault_id=fault_id,
        description=fault_id,
        trigger=AlwaysTrigger(),
        effect=effect,
    )


@pytest.fixture(scope="module")
def pristine_report():
    return run_hunt(30, seed=7)


@pytest.fixture(scope="module")
def fold_report():
    return run_hunt(
        30,
        seed=7,
        products=["IB"],
        faults={"IB": [_spec("fold-bug", PredicateFoldBugEffect())]},
    )


@pytest.fixture(scope="module")
def drop_report():
    return run_hunt(
        30,
        seed=7,
        products=["IB"],
        faults={"IB": [_spec("drop-bug", PartitionDropBugEffect())]},
    )


class TestPristineCampaign:
    def test_zero_findings(self, pristine_report):
        assert pristine_report.findings == []

    def test_oracles_actually_ran(self, pristine_report):
        assert pristine_report.statements == 30
        assert pristine_report.tlp_checks > 0
        assert pristine_report.pivot_checks > 0
        assert pristine_report.vote_checks > 0

    def test_no_execution_errors(self, pristine_report):
        assert pristine_report.errors == 0

    def test_compiles_one_plan_per_distinct_statement_and_matches_the_walker(
        self, pristine_report, monkeypatch
    ):
        # The four products run each statement object over equal
        # catalogs, so each distinct statement the campaign ran compiles
        # once; and the campaign on the tree-walker (the tests'
        # reference) reports the same.
        compiled = []
        ran = set()

        def counting(stmt, *args, _compile=engine_module.compile_statement):
            compiled.append(stmt)
            return _compile(stmt, *args)

        def recording(self, sql, _execute=Engine.execute):
            if isinstance(sql, ParsedStatement) and isinstance(sql.statement, _PLANNED):
                ran.add(sql.sql)
            return _execute(self, sql)

        monkeypatch.setattr(engine_module, "compile_statement", counting)
        monkeypatch.setattr(Engine, "execute", recording)
        run_hunt(30, seed=7)
        assert len(compiled) == len(ran) > 30
        monkeypatch.undo()
        monkeypatch.setattr(hunt, "make_server", reference_server)
        assert run_hunt(30, seed=7).to_payload() == pristine_report.to_payload()

    def test_payload_shape(self, pristine_report):
        payload = pristine_report.to_payload()
        assert payload["products"] == ["IB", "PG", "OR", "MS"]
        assert payload["findings"] == []
        assert payload["seed"] == 7


class TestSeededFoldBug:
    """NOT UNKNOWN -> TRUE: the NOT-partition over-returns, so the TLP
    union over-counts — on one replica, where voting sees nothing."""

    def test_tlp_catches_it(self, fold_report):
        assert any(
            finding.oracle == "tlp"
            and finding.product == "IB"
            and finding.direction == "partition-union-over-counts"
            for finding in fold_report.findings
        )

    def test_voting_is_structurally_blind(self, fold_report):
        # A single product means no cross-replica comparison ever runs:
        # only the intra-product TLP oracle can convict.
        assert fold_report.vote_checks == 0

    def test_repeated_hits_are_deduplicated(self, fold_report):
        tlp = [f for f in fold_report.findings if f.oracle == "tlp"]
        assert len(tlp) == 1
        assert tlp[0].duplicates > 0
        assert fold_report.duplicates_folded == tlp[0].duplicates

    def test_repro_is_minimized(self, fold_report):
        script = fold_report.findings[0].script
        assert "CREATE TABLE hunt" in script
        assert "decoy" not in script
        assert script.rstrip().endswith(";")


class TestSeededPartitionDropBug:
    """Composite IS NULL -> FALSE: the IS-NULL partition drops its
    rows, so the TLP union under-counts."""

    def test_tlp_catches_it(self, drop_report):
        assert any(
            finding.oracle == "tlp"
            and finding.product == "IB"
            and finding.direction == "partition-union-under-counts"
            for finding in drop_report.findings
        )

    def test_direction_distinguishes_the_two_bugs(self, fold_report, drop_report):
        fold_keys = {f.rekey() for f in fold_report.findings}
        drop_keys = {f.rekey() for f in drop_report.findings}
        assert fold_keys.isdisjoint(drop_keys)

    def test_voting_is_structurally_blind(self, drop_report):
        assert drop_report.vote_checks == 0

    def test_every_repro_drops_the_decoy(self, fold_report, drop_report):
        for report in (fold_report, drop_report):
            for finding in report.findings:
                assert "decoy" not in finding.script, finding.rekey()


class TestTriage:
    def test_triage_flag_is_accepted(self):
        # With pristine products there is nothing to filter either way;
        # the campaign must stay silent with triage off too (no false
        # alarms are BENIGN_DIALECT rescues in disguise).
        report = run_hunt(10, seed=11, triage=False)
        assert report.findings == []

    def test_determinism(self):
        first = run_hunt(8, seed=13).to_payload()
        second = run_hunt(8, seed=13).to_payload()
        assert first == second

    def test_null_sort_position_does_not_excuse_dropped_rows(self, monkeypatch):
        # MS sorts NULLs first, IB last, so ORDER BY over the nullable
        # ``a`` carries a null-sort-position atom for the pair.  Row
        # order cannot explain a different multiset: MS dropping rows
        # must be banked by the vote oracle, not filtered as benign.
        class OrderedGenerator(hunt.PredicateGenerator):
            def select_statement(self, **kwargs):
                return super().select_statement(**kwargs) + " ORDER BY a"

        monkeypatch.setattr(hunt, "PredicateGenerator", OrderedGenerator)
        report = run_hunt(
            6,
            seed=7,
            products=["IB", "MS"],
            faults={"MS": [_spec("row-drop", RowDropEffect())]},
        )
        assert report.benign_filtered == 0
        assert any(
            finding.oracle == "vote"
            and finding.product == "IB/MS"
            and "ORDER BY a" in finding.statement
            for finding in report.findings
        )
