"""CLI smoke tests (python -m repro ...)."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_tables_command_reports_exact(self, capsys):
        assert main(["tables"]) == 0
        output = capsys.readouterr().out
        assert "Table 1: EXACT" in output
        assert "Table 3: EXACT" in output
        assert "Table 4: EXACT" in output

    def test_tpcc_command(self, capsys):
        assert main(["tpcc", "10"]) == 0
        output = capsys.readouterr().out
        assert "1v IB" in output and "2v IB+OR" in output

    def test_crashstorm_command(self, capsys):
        assert main(["crashstorm", "30"]) == 0
        output = capsys.readouterr().out
        assert "crash storm" in output
        assert "quarantines=" in output
        assert "client-visible crashes=0 outages=0" in output

    def test_hangstorm_command(self, capsys):
        assert main(["hangstorm", "30"]) == 0
        output = capsys.readouterr().out
        assert "hang storm" in output
        assert "statement timeouts=" in output
        assert "client-visible timeouts=0" in output
        assert "IB final state: active" in output

    @pytest.mark.parametrize("storm", ["crashstorm", "hangstorm", "netstorm", "racestorm"])
    def test_an_inconsistent_ending_exits_1(self, storm, capsys, monkeypatch):
        from repro.middleware import DiverseServer

        monkeypatch.setattr(
            DiverseServer, "verify_consistency", lambda self: {"stock": ["IB"]}
        )
        assert main([storm, "30"]) == 1
        output = capsys.readouterr().out
        if storm in ("crashstorm", "hangstorm"):
            assert "IB final state:" in output
        else:
            assert "replica consistency after storm: {'stock': ['IB']}" in output

    def test_netstorm_command(self, capsys):
        assert main(["netstorm", "20"]) == 0
        output = capsys.readouterr().out
        assert "network storm" in output
        assert "network errors=0" in output
        assert "exactly-once: duplicates suppressed=" in output
        assert "seq gaps=0" in output
        assert "replica consistency after storm: all replicas agree" in output

    def test_unknown_command_prints_usage(self, capsys):
        assert main(["bogus"]) == 2
        assert "Commands" in capsys.readouterr().out

    def test_tpcc_rejects_non_integer_count(self, capsys):
        assert main(["tpcc", "abc"]) == 2
        err = capsys.readouterr().err
        assert "usage: python -m repro tpcc [N]" in err
        assert "'abc'" in err

    def test_storm_rejects_non_positive_count(self, capsys):
        assert main(["crashstorm", "-5"]) == 2
        err = capsys.readouterr().err
        assert "usage: python -m repro crashstorm [N]" in err
        assert "positive" in err

    def test_storm_rejects_non_integer_count(self, capsys):
        assert main(["netstorm", "soon"]) == 2
        assert "usage: python -m repro netstorm [N]" in capsys.readouterr().err

    def test_slice_command(self, capsys):
        assert main(["slice", "IB-223512"]) == 0
        output = capsys.readouterr().out
        assert "IB-223512: kept 3/5 statement(s), dropped [1, 2]" in output
        assert "anchor:" in output

    def test_slice_unknown_bug(self, capsys):
        assert main(["slice", "XX-0"]) == 2
        err = capsys.readouterr().err
        assert "usage: python -m repro slice BUG_ID" in err
        assert "unknown bug id" in err

    def test_slice_requires_bug_id(self, capsys):
        assert main(["slice"]) == 2
        assert "usage: python -m repro slice BUG_ID" in capsys.readouterr().err

    def test_lint_rejects_unknown_flag(self, capsys):
        assert main(["lint", "--jsn"]) == 2
        err = capsys.readouterr().err
        assert "usage: python -m repro lint [--json]" in err
        assert "--jsn" in err

    def test_study_rejects_stray_arguments(self, capsys):
        assert main(["study", "extra"]) == 2
        assert "usage: python -m repro study" in capsys.readouterr().err

    def test_conflicts_rejects_non_integer_count(self, capsys):
        assert main(["conflicts", "two"]) == 2
        assert "usage: python -m repro conflicts [N]" in capsys.readouterr().err

    def test_report_unwritable_path_exits_2(self, capsys):
        assert main(["export", "/nonexistent-dir/out.json"]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_explain_renders_plan(self, capsys):
        assert main(
            ["explain", "SELECT w_name FROM warehouse WHERE w_id = 7"]
        ) == 0
        output = capsys.readouterr().out
        assert "plan:" in output
        assert "IndexLookup warehouse" in output
        assert "rewrites:" in output

    def test_explain_requires_sql(self, capsys):
        assert main(["explain"]) == 2
        assert "usage: python -m repro explain" in capsys.readouterr().err

    def test_explain_rejects_unparseable_sql(self, capsys):
        assert main(["explain", "SELEKT 1"]) == 2
        err = capsys.readouterr().err
        assert "usage: python -m repro explain" in err
        assert "cannot explain" in err

    @pytest.mark.parametrize("sql", ["", "SELECT 1; SELECT 2"])
    def test_explain_rejects_all_but_one_statement(self, capsys, sql):
        assert main(["explain", sql]) == 2
        err = capsys.readouterr().err
        assert "usage: python -m repro explain" in err
        assert "exactly one statement" in err

    def test_lint_json_is_machine_readable(self, pristine_lint):
        # The shipped corpus has no errors (warnings only), so --json
        # exits 0; every emitted line is one JSON finding record and the
        # human-readable summary is suppressed.
        assert pristine_lint.json_status == 0
        output = pristine_lint.json_output
        for line in output.splitlines():
            record = json.loads(line)
            assert {"code", "severity", "statement_index", "script_id"} <= set(record)
        assert "lint:" not in output


class TestLintJsonFindings:
    def test_findings_serialize(self):
        from repro.analysis.lint import LintFinding

        finding = LintFinding(
            check="dead-fault",
            subject="XX-1",
            detail="unreachable trigger",
            statement_index=3,
        )
        record = json.loads(finding.to_json())
        assert record == {
            "code": "dead-fault",
            "severity": "error",
            "statement_index": 3,
            "script_id": "XX-1",
            "detail": "unreachable trigger",
        }
        # And the plain renderer carries the statement index too.
        assert "(statement 3)" in str(finding)


class TestTlpCommand:
    def test_partitions_a_plain_select(self, capsys):
        assert main(["tlp", "SELECT id FROM hunt WHERE a > b"]) == 0
        output = capsys.readouterr().out
        assert "certificate:" in output
        assert "IS NULL" in output
        assert "NOT (a > b)" in output

    def test_reports_blockers(self, capsys):
        assert main(["tlp", "SELECT COUNT(id) FROM hunt WHERE a > 0"]) == 0
        assert "no TLP partition" in capsys.readouterr().out

    def test_requires_sql(self, capsys):
        assert main(["tlp"]) == 2
        assert "usage: python -m repro tlp" in capsys.readouterr().err

    def test_rejects_unparseable_sql(self, capsys):
        assert main(["tlp", "SELEKT 1"]) == 2
        err = capsys.readouterr().err
        assert "usage: python -m repro tlp" in err
        assert "cannot abstract" in err


class TestHuntCommand:
    def test_small_pristine_campaign_is_silent(self, capsys):
        assert main(["hunt", "8"]) == 0
        output = capsys.readouterr().out
        assert "hunt: 8 statement(s)" in output
        assert "no findings banked" in output

    def test_rejects_non_integer_count(self, capsys):
        assert main(["hunt", "lots"]) == 2
        assert "usage: python -m repro hunt [N]" in capsys.readouterr().err

    def test_rejects_non_positive_count(self, capsys):
        assert main(["hunt", "0"]) == 2
        assert "usage: python -m repro hunt [N]" in capsys.readouterr().err
