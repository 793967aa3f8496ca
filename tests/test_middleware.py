"""Diverse-redundancy middleware tests."""

import random

import pytest

from repro.errors import (
    AdjudicationFailure,
    MiddlewareError,
    SqlError,
)
from repro.faults import CrashEffect, ErrorEffect, FaultSpec, RelationTrigger, RowDropEffect
from repro.middleware import DiverseServer, ReplicaState, ResultComparator, ServerConfig
from repro.middleware.comparator import ReplicaAnswer
from repro.middleware.normalizer import normalize_result
from repro.sqlengine.values import normalize_value
from repro.servers import make_server


def wrong_rows_fault(table="accounts"):
    return FaultSpec(
        "F-WRONG",
        "drops result rows",
        RelationTrigger([table], kind="select"),
        RowDropEffect(keep_one_in=2),
    )


def crash_fault(table="accounts"):
    return FaultSpec(
        "F-CRASH",
        "crashes on select",
        RelationTrigger([table], kind="select"),
        CrashEffect(),
    )


def setup(server):
    server.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance NUMERIC(10,2))")
    server.execute("INSERT INTO accounts (id, balance) VALUES (1, 100.00), (2, 200.00)")
    return server


class TestNormalizer:
    def test_numeric_representations_collide(self):
        from decimal import Decimal

        assert normalize_value(10) == normalize_value(Decimal("10.00"))
        assert normalize_value(2.5) == normalize_value(Decimal("2.5"))

    def test_padding_insignificant(self):
        assert normalize_value("ab   ") == normalize_value("ab")

    def test_real_differences_survive(self):
        assert normalize_value(3.3333333) != normalize_value(3.3333334)
        assert normalize_value("a") != normalize_value("b")

    def test_column_case_insensitive(self):
        left = normalize_result(["ID"], [(1,)])
        right = normalize_result(["id"], [(1,)])
        assert left == right

    def test_row_order_significant(self):
        left = normalize_result(["a"], [(1,), (2,)])
        right = normalize_result(["a"], [(2,), (1,)])
        assert left != right


class TestComparator:
    def answer(self, name, rows, status="ok"):
        return ReplicaAnswer(
            replica=name, status=status, columns=("a",), rows=tuple(rows),
            rowcount=len(rows),
        )

    def test_unanimous(self):
        comparison = ResultComparator().compare(
            [self.answer("IB", [(1,)]), self.answer("PG", [(1,)])]
        )
        assert comparison.unanimous

    def test_disagreement_groups(self):
        comparison = ResultComparator().compare(
            [
                self.answer("IB", [(1,)]),
                self.answer("PG", [(2,)]),
                self.answer("OR", [(1,)]),
            ]
        )
        assert comparison.disagreement
        assert len(comparison.largest) == 2
        assert comparison.minority_replicas() == ["PG"]

    def test_majority_requires_strict_majority(self):
        comparison = ResultComparator().compare(
            [self.answer("IB", [(1,)]), self.answer("PG", [(2,)])]
        )
        assert comparison.majority(2) is None

    def test_errors_vote_together(self):
        comparison = ResultComparator().compare(
            [
                self.answer("IB", (), status="error"),
                self.answer("PG", (), status="error"),
            ]
        )
        assert comparison.unanimous

    def test_normalisation_toggle(self):
        from decimal import Decimal

        left = self.answer("IB", [(Decimal("10.00"),)])
        right = self.answer("PG", [(10,)])
        assert ResultComparator(normalize=True).compare([left, right]).unanimous
        assert not ResultComparator(normalize=False).compare([left, right]).unanimous
        # Normalising keeps the sensitivity real bugs need.
        skewed = [self.answer("IB", [(3.3333333,)]), self.answer("OR", [(3.3334333,)])]
        assert not ResultComparator(normalize=True).compare(skewed).unanimous

    def test_ablation_false_alarms_on_every_correct_answer(self):
        # Section 4.3's "differences in the representation of correct
        # results": 300 correct NUMERIC-vs-INTEGER answer pairs.
        from decimal import Decimal

        rng = random.Random(5)
        pairs = []
        for _ in range(300):
            value = rng.randint(0, 500)
            pairs.append([
                ReplicaAnswer(replica="A", status="ok", columns=("v",),
                              rows=((Decimal(value) * Decimal("1.00"),),), rowcount=1),
                ReplicaAnswer(replica="B", status="ok", columns=("V",),
                              rows=((value,),), rowcount=1),
            ])

        def false_alarms(comparator):
            return sum(not comparator.compare(answers).unanimous for answers in pairs)

        assert false_alarms(ResultComparator(normalize=True)) == 0
        assert false_alarms(ResultComparator(normalize=False)) == 300


class TestDiverseServerHappyPath:
    def test_reads_and_writes_agree(self):
        server = setup(DiverseServer([make_server("IB"), make_server("OR")]))
        result = server.execute("SELECT id, balance FROM accounts ORDER BY id")
        assert len(result.rows) == 2
        assert server.stats.unanimous > 0
        assert server.stats.disagreements_detected == 0

    def test_genuine_errors_propagate(self):
        server = setup(DiverseServer([make_server("IB"), make_server("OR")]))
        with pytest.raises(SqlError):
            server.execute("INSERT INTO accounts (id, balance) VALUES (1, 0)")  # dup PK

    def test_requires_two_replicas(self):
        with pytest.raises(MiddlewareError):
            DiverseServer([make_server("IB")])

    def test_rejects_duplicate_products(self):
        with pytest.raises(MiddlewareError):
            DiverseServer([make_server("IB"), make_server("IB")])

    def test_dialect_translation_inside_middleware(self):
        # Client SQL uses TIMESTAMP; the MS replica needs DATETIME.
        server = DiverseServer([make_server("PG"), make_server("MS")])
        server.execute("CREATE TABLE t (a INTEGER, ts TIMESTAMP)")
        server.execute("INSERT INTO t (a) VALUES (1)")
        assert server.execute("SELECT a FROM t").rows == [(1,)]


class TestDetectionAndMasking:
    def test_compare_mode_detects_wrong_answer(self):
        faulty = make_server("IB", [wrong_rows_fault()])
        server = setup(
            DiverseServer([faulty, make_server("OR")], adjudication="compare",
                          auto_recover=False)
        )
        with pytest.raises(AdjudicationFailure):
            server.execute("SELECT id, balance FROM accounts ORDER BY id")
        assert server.stats.disagreements_detected == 1

    def test_majority_masks_wrong_answer(self):
        faulty = make_server("IB", [wrong_rows_fault()])
        server = setup(
            DiverseServer(
                [faulty, make_server("OR"), make_server("MS")],
                adjudication="majority",
                auto_recover=False,
            )
        )
        result = server.execute("SELECT id, balance FROM accounts ORDER BY id")
        assert len(result.rows) == 2  # correct answer delivered
        assert server.stats.failures_masked == 1
        assert server.replica("IB").state is ReplicaState.SUSPECTED

    def test_two_version_majority_fails_over_to_detection(self):
        faulty = make_server("IB", [wrong_rows_fault()])
        server = setup(
            DiverseServer([faulty, make_server("OR")], adjudication="majority",
                          auto_recover=False)
        )
        with pytest.raises(AdjudicationFailure):
            server.execute("SELECT id, balance FROM accounts ORDER BY id")

    def test_spurious_error_outvoted(self):
        faulty = make_server("IB", [
            FaultSpec("F-ERR", "spurious error",
                      RelationTrigger(["accounts"], kind="select"),
                      ErrorEffect("spurious"))
        ])
        server = setup(
            DiverseServer(
                [faulty, make_server("OR"), make_server("MS")],
                adjudication="majority", auto_recover=False,
            )
        )
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        assert len(result.rows) == 2
        assert server.replica("IB").state is ReplicaState.SUSPECTED

    def test_identical_wrong_answers_win_the_vote(self):
        # The non-detectable case: both replicas share the fault.
        server = setup(
            DiverseServer(
                [
                    make_server("IB", [wrong_rows_fault()]),
                    make_server("MS", [wrong_rows_fault()]),
                ],
                adjudication="compare",
            )
        )
        result = server.execute("SELECT id, balance FROM accounts ORDER BY id")
        assert len(result.rows) == 1  # silently wrong: why ND bugs matter


class TestCrashHandlingAndRecovery:
    def test_crash_failover(self):
        faulty = make_server("IB", [crash_fault()])
        server = setup(
            DiverseServer(
                [faulty, make_server("OR"), make_server("MS")],
                adjudication="majority", auto_recover=False,
            )
        )
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        assert len(result.rows) == 2
        assert server.replica("IB").state is ReplicaState.FAILED
        assert server.stats.replica_crashes == 1

    def test_log_replay_recovery(self):
        faulty = make_server("IB", [crash_fault()])
        server = setup(
            DiverseServer([faulty, make_server("OR"), make_server("MS")],
                          adjudication="majority", auto_recover=False)
        )
        server.execute("SELECT id FROM accounts")  # IB crashes
        faulty.injector.remove("F-CRASH")
        server.recover("IB")
        assert server.replica("IB").state is ReplicaState.ACTIVE
        # The recovered replica has the full state back.
        assert faulty.execute("SELECT COUNT(*) FROM accounts").rows[0][0] == 2

    def test_auto_recovery(self):
        faulty = make_server("IB", [wrong_rows_fault()])
        server = setup(
            DiverseServer([faulty, make_server("OR"), make_server("MS")],
                          adjudication="majority", auto_recover=True)
        )
        server.execute("SELECT id, balance FROM accounts ORDER BY id")
        assert server.replica("IB").state is ReplicaState.ACTIVE
        assert server.stats.recoveries == 1

    def test_availability_metric(self):
        faulty = make_server("IB", [crash_fault()])
        server = setup(
            DiverseServer([faulty, make_server("OR"), make_server("MS")],
                          adjudication="majority", auto_recover=False)
        )
        assert len(server.active_replicas()) / len(server.replicas) == 1.0
        server.execute("SELECT id FROM accounts")
        assert len(server.active_replicas()) / len(server.replicas) == pytest.approx(2 / 3)


class TestModesAndBaselines:
    def test_primary_mode_no_comparison(self):
        faulty = make_server("IB", [wrong_rows_fault()])
        server = setup(DiverseServer([faulty, make_server("OR")], adjudication="primary"))
        result = server.execute("SELECT id, balance FROM accounts ORDER BY id")
        # Primary answers without comparison: the wrong answer ships.
        assert len(result.rows) == 1
        assert server.stats.disagreements_detected == 0

    def test_read_split_skips_comparison_on_reads(self):
        server = setup(
            DiverseServer([make_server("IB"), make_server("OR")],
                          adjudication="majority", read_split=True)
        )
        server.execute("SELECT id FROM accounts")
        assert server.stats.unanimous == 0 or server.stats.reads > 0

    def test_read_split_asks_until_the_first_answer(self):
        server = setup(
            DiverseServer(
                [make_server("IB", [crash_fault()]), make_server("OR"), make_server("MS")],
                adjudication="majority", read_split=True, auto_recover=False,
            )
        )
        before = {r.key: r.stats.statements for r in server.replicas}
        for _ in range(3):
            assert len(server.execute("SELECT id FROM accounts").rows) == 2
        asked = {r.key: r.stats.statements - before[r.key] for r in server.replicas}
        # Reads rotate OR, MS, IB; each asks one replica, and IB's crash
        # evicts it (unsupervised: no retry) and hands the read to OR.
        assert asked == {"IB": 1, "OR": 2, "MS": 1}
        assert server.replica("IB").state is ReplicaState.FAILED
        assert server.stats.replica_crashes == 1

    def test_replicated_non_diverse_baseline_shares_faults(self):
        # Two identical faulty copies agree on the wrong answer.
        server = setup(
            DiverseServer(
                [make_server("IB", [wrong_rows_fault()]) for _ in range(2)],
                config=ServerConfig(adjudication="compare", allow_duplicates=True),
            )
        )
        result = server.execute("SELECT id, balance FROM accounts ORDER BY id")
        assert len(result.rows) == 1  # coincident wrong answer undetected

    def test_write_log_collected(self):
        server = setup(DiverseServer([make_server("IB"), make_server("OR")]))
        assert len(server.write_log) == 2  # create + insert
