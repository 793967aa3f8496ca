"""Corpus-wide translation properties: every translation the study
performs is executable and stable."""

import pytest

from repro.dialects import dialect, translate_script
from repro.dialects.features import SERVER_KEYS
from repro.dialects.translator import _rewrite
from repro.errors import FeatureNotSupported
from repro.sqlengine.lexer import render_tokens, tokenize
from repro.servers import make_server
from repro.study.runner import run_script


class TestCorpusTranslations:
    def test_translation_is_idempotent(self, corpus):
        """Translating a translated script again changes nothing."""
        for report in corpus:
            for target in report.runnable_on:
                once = translate_script(report.script, target)
                twice = translate_script(once, target)
                assert once == twice, (report.bug_id, target)

    def test_translation_is_the_rendered_rewrite_of_one_scan(self, corpus):
        """All 181 scripts x 4 dialects: what the gate lets through is
        byte for byte ``render_tokens(_rewrite(tokenize(sql)))``."""
        translated = 0
        for report in corpus:
            for target in SERVER_KEYS:
                try:
                    text = translate_script(report.script, target)
                except FeatureNotSupported:
                    continue
                translated += 1
                assert text == render_tokens(
                    _rewrite(tokenize(report.script), dialect(target))
                ), (report.bug_id, target)
        assert translated > 2 * len(corpus.reports)

    def test_translations_execute_cleanly_on_pristine_targets(self, corpus):
        """On a fault-free target, a translated bug script must never
        hit parser/binder trouble — only semantic errors the script
        itself provokes deliberately (e.g. the bad-DEFAULT create)."""
        servers = {key: make_server(key) for key in ("IB", "PG", "OR", "MS")}
        # Scripts that *should* error on a correct server: the bug is
        # precisely that the faulty products accept them.
        deliberate_error_bugs = {"IB-217042", "IB-223512"}
        for report in corpus:
            for target in report.runnable_on:
                server = servers[target]
                server.reset()
                script = (
                    report.script
                    if target == report.reported_for
                    else translate_script(report.script, target)
                )
                outcome = run_script(server, script)
                assert not outcome.crashed, (report.bug_id, target)
                errors = [s for s in outcome.statements if s.status == "error"]
                if report.bug_id not in deliberate_error_bugs:
                    assert not errors, (report.bug_id, target, errors[0].error)

    def test_untranslatable_targets_raise_for_every_gated_script(self, corpus):
        for report in corpus:
            blocked = (
                set("IB PG OR MS".split())
                - set(report.runnable_on)
                - set(report.translation_pending)
            )
            for target in blocked:
                with pytest.raises(FeatureNotSupported):
                    translate_script(report.script, target)

    def test_translated_scripts_respect_target_native_types(self, corpus):
        """No Oracle spellings survive translation into PG/MS/IB."""
        for report in corpus.reported_for("OR"):
            for target in report.runnable_on - {"OR"}:
                translated = translate_script(report.script, target)
                assert "VARCHAR2" not in translated, (report.bug_id, target)
                assert "NUMBER(" not in translated.replace("NUMBER (", "NUMBER("), (
                    report.bug_id, target,
                )
