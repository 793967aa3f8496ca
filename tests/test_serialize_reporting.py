"""Serialisation, reporting and availability-model tests."""

import json
from collections import Counter

import pytest

from repro.bugs.serialize import corpus_to_dict, corpus_to_json
from repro.reliability.availability import (
    ReplicaAvailability,
    improvement_summary,
    k_of_n_availability,
    nines,
    service_availability,
)
from repro.study.reporting import study_report_markdown


class TestCorpusSerialisation:
    def test_roundtrip_counts(self, corpus):
        reports = json.loads(corpus_to_json(corpus))["reports"]
        failing = [
            set(r["foreign_failures"]) | ({r["reported_for"]} if r["home_failure"] else set())
            for r in reports
        ]
        assert len(reports) == 181
        assert Counter(r["reported_for"] for r in reports) == {
            "IB": 55, "PG": 57, "OR": 18, "MS": 51,
        }
        assert sum(len(servers) > 1 for servers in failing) == 12
        assert sum(r["heisenbug"] for r in reports) == 29
        # 152 home-failing + 56775 failing only abroad.
        assert sum(bool(servers) for servers in failing) == 153

    def test_report_fields_complete(self, corpus):
        data = corpus_to_dict(corpus)
        entry = next(r for r in data["reports"] if r["bug_id"] == "MS-58544")
        assert entry["home_failure"]["kind"] == "incorrect_result"
        assert entry["foreign_failures"]["IB"]["detectability"] == "non_self_evident"
        assert entry["identical_with"] == ["IB"]
        assert "LEFT OUTER JOIN" in entry["script"]

    def test_heisenbug_serialised_without_home_failure(self, corpus):
        data = corpus_to_dict(corpus)
        entry = next(r for r in data["reports"] if r["bug_id"] == "MS-56775")
        assert entry["home_failure"] is None
        assert entry["heisenbug"] is True


class TestStudyReport:
    def test_report_contains_all_tables(self, study):
        report = study_report_markdown(study)
        assert "## Table 1" in report
        assert "## Table 2" in report
        assert "## Table 3" in report
        assert "## Table 4" in report
        assert "64.5%" in report
        assert "17.1%" in report
        assert "MS-56775" in report

    def test_report_flags_documented_deviations(self, study):
        report = study_report_markdown(study)
        assert report.count("documented deviation") == 3


class TestAvailabilityModel:
    def test_single_replica_formula(self):
        replica = ReplicaAvailability(failure_rate=1.0, repair_rate=999.0)
        assert replica.availability == pytest.approx(0.999)

    def test_any_policy_multiplies_unavailability(self):
        replica = ReplicaAvailability(1.0, 999.0)
        pair = service_availability([replica, replica], policy="any")
        assert 1 - pair == pytest.approx((1 - replica.availability) ** 2)

    def test_lockstep_worse_than_single(self):
        replica = ReplicaAvailability(1.0, 999.0)
        lockstep = service_availability([replica, replica], policy="all")
        assert lockstep < replica.availability

    def test_majority_of_three(self):
        replica = ReplicaAvailability(1.0, 99.0)  # 0.99
        a = replica.availability
        expected = a**3 + 3 * a**2 * (1 - a)
        assert service_availability([replica] * 3, policy="majority") == pytest.approx(
            expected
        )

    def test_k_of_n_bounds(self):
        replicas = [ReplicaAvailability(1.0, 9.0)] * 4
        values = [k_of_n_availability(replicas, k) for k in range(1, 5)]
        assert values == sorted(values, reverse=True)
        with pytest.raises(ValueError):
            k_of_n_availability(replicas, 0)

    def test_nines(self):
        assert nines(0.999) == pytest.approx(3.0)
        assert nines(0.0) == 0.0

    def test_improvement_summary_shape(self):
        single = ReplicaAvailability(1.0, 999.0)
        summary = improvement_summary(single, [single, single])
        assert summary["diverse_any"] > summary["single"] > summary["diverse_lockstep"]

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            ReplicaAvailability(-1.0, 1.0)
        with pytest.raises(ValueError):
            ReplicaAvailability(1.0, 0.0)
