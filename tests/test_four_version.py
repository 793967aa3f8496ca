"""Four-version configuration and determinism tests."""

import pytest

from repro.faults import FaultSpec, RelationTrigger, RowDropEffect
from repro.middleware import DiverseServer, ReplicaState
from repro.servers import make_all_servers, make_server


def wrong_rows(fault_id="F4"):
    return FaultSpec(
        fault_id, "wrong rows",
        RelationTrigger(["t"], kind="select"), RowDropEffect(keep_one_in=2),
    )


def setup_four(faults_by_server=None):
    faults_by_server = faults_by_server or {}
    server = DiverseServer(
        [make_server(key, faults_by_server.get(key, [])) for key in ("IB", "PG", "OR", "MS")],
        adjudication="majority",
        auto_recover=False,
    )
    server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10))")
    server.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return server


class TestFourVersions:
    def test_healthy_quad(self):
        server = setup_four()
        result = server.execute("SELECT a FROM t ORDER BY a")
        assert len(result.rows) == 3
        assert server.verify_consistency() == {}

    def test_one_faulty_masked_three_to_one(self):
        server = setup_four({"PG": [wrong_rows()]})
        result = server.execute("SELECT a, b FROM t ORDER BY a")
        assert len(result.rows) == 3
        assert server.stats.failures_masked == 1
        assert server.replica("PG").state is ReplicaState.SUSPECTED

    def test_two_identical_faulty_is_a_tie(self):
        # 2-2 split: no strict majority -> adjudication failure, the
        # "most pessimistic fault-tolerant configuration" failing safe.
        from repro.errors import AdjudicationFailure

        server = setup_four({"PG": [wrong_rows("F-PG")], "MS": [wrong_rows("F-MS")]})
        with pytest.raises(AdjudicationFailure):
            server.execute("SELECT a, b FROM t ORDER BY a")

    def test_two_differing_faulty_still_masked(self):
        # Two wrong replicas with *different* wrong answers: the two
        # correct replicas still form the largest group but not a
        # strict majority (2 of 4) -> fail safe.
        from repro.errors import AdjudicationFailure

        different = FaultSpec(
            "F-DIFF", "different wrong rows",
            RelationTrigger(["t"], kind="select"), RowDropEffect(keep_one_in=3),
        )
        server = setup_four({"PG": [wrong_rows("F-PG")], "MS": [different]})
        with pytest.raises(AdjudicationFailure):
            server.execute("SELECT a, b FROM t ORDER BY a")

    def test_quad_survives_double_crash(self):
        from repro.faults import CrashEffect

        def crash(fid):
            return FaultSpec(
                fid, "crash", RelationTrigger(["t"], kind="select"), CrashEffect()
            )
        server = setup_four({"PG": [crash("C1")], "OR": [crash("C2")]})
        result = server.execute("SELECT a FROM t ORDER BY a")
        assert len(result.rows) == 3
        assert server.stats.replica_crashes == 2
        assert server.availability() == pytest.approx(0.5)


class TestDeterminism:
    def test_study_is_seed_stable(self, corpus, study):
        from repro.study import run_study
        from repro.study.reporting import study_to_dict

        assert study_to_dict(run_study(corpus)) == study_to_dict(study)

    def test_all_servers_factory_independent_instances(self):
        one = make_all_servers()
        two = make_all_servers()
        one["IB"].execute("CREATE TABLE only_one (a INTEGER)")
        assert not two["IB"].engine.catalog.has_table("only_one")
