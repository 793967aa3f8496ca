"""TPC-C-like workload tests."""

import pytest

from repro.dialects import translate_script
from repro.middleware import DiverseServer
from repro.servers import make_server
from repro.workload import (
    SCHEMA_STATEMENTS,
    TpccGenerator,
    TransactionMix,
    WorkloadRunner,
    populate_statements,
)


class TestSchema:
    def test_schema_translates_to_every_dialect(self):
        for server in ("IB", "PG", "OR", "MS"):
            for statement in SCHEMA_STATEMENTS + populate_statements():
                translate_script(statement, server)

    def test_population_is_deterministic(self):
        assert populate_statements() == populate_statements()


class TestGenerator:
    def test_deterministic_given_seed(self):
        first = [t.name for t in TpccGenerator(seed=5).transactions(50)]
        second = [t.name for t in TpccGenerator(seed=5).transactions(50)]
        assert first == second

    def test_mix_respected(self):
        mix = TransactionMix(new_order=0, payment=0, order_status=1,
                             delivery=0, stock_level=0)
        names = {t.name for t in TpccGenerator(seed=1, mix=mix).transactions(20)}
        assert names == {"order_status"}

    def test_read_only_flags(self):
        generator = TpccGenerator(seed=2)
        assert generator.order_status().read_only
        assert generator.stock_level().read_only
        assert not generator.new_order().read_only
        assert not generator.payment().read_only

    def test_new_order_ids_monotonic_per_district(self):
        generator = TpccGenerator(seed=3)
        mix = [generator.new_order() for _ in range(10)]
        # No duplicate (district, order id) pairs in the INSERT statements.
        inserts = [
            s for t in mix for s in t.statements if s.startswith("INSERT INTO orders")
        ]
        assert len(inserts) == len(set(inserts))

    def test_transactions_wrapped_in_begin_commit(self):
        txn = TpccGenerator(seed=4).payment()
        assert txn.statements[0] == "BEGIN"
        assert txn.statements[-1] == "COMMIT"


class TestRunnerOnSingleServer:
    @pytest.mark.parametrize("key", ["IB", "PG", "OR", "MS"])
    def test_fault_free_run_on_each_product(self, key):
        runner = WorkloadRunner(make_server(key), seed=7)
        runner.setup()
        metrics = runner.run(60)
        assert metrics.failure_free, (key, metrics)
        assert metrics.transactions == 60
        assert metrics.statements > 60

    def test_metrics_profile_breakdown(self):
        runner = WorkloadRunner(make_server("PG"), seed=8)
        runner.setup()
        metrics = runner.run(80)
        assert sum(metrics.per_profile.values()) == 80
        assert metrics.statements_per_second > 0


class TestRunnerOnMiddleware:
    def test_diverse_pair_runs_clean(self):
        server = DiverseServer(
            [make_server("IB"), make_server("OR")], adjudication="compare"
        )
        runner = WorkloadRunner(server, seed=9)
        runner.setup()
        metrics = runner.run(50)
        assert metrics.failure_free
        assert server.stats.writes > 0 and server.stats.reads > 0
        assert server.stats.unanimous > 0

    def test_three_version_majority_runs_clean(self):
        # Section 7: "with the TPC-C load ... We have not observed any
        # failures so far".
        server = DiverseServer(
            [make_server("IB"), make_server("OR"), make_server("MS")],
            adjudication="majority",
        )
        runner = WorkloadRunner(server, seed=3)
        runner.setup()
        assert runner.run(30).failure_free

    def test_faulty_replica_detected_under_load(self):
        from repro.faults import FaultSpec, RelationTrigger, RowDropEffect

        fault = FaultSpec(
            "F-STOCK",
            "wrong rows from the stock table",
            RelationTrigger(["stock"], kind="select"),
            RowDropEffect(keep_one_in=2),
        )
        server = DiverseServer(
            [make_server("IB", [fault]), make_server("OR")],
            adjudication="compare",
            auto_recover=False,
        )
        runner = WorkloadRunner(server, seed=10)
        runner.setup()
        mix = TransactionMix(new_order=0, payment=0, order_status=0,
                             delivery=0, stock_level=1)
        metrics = runner.run(20, generator=TpccGenerator(seed=10, mix=mix))
        assert metrics.detected_disagreements > 0
        assert not metrics.failure_free

    def test_read_split_mode_runs(self):
        server = DiverseServer(
            [make_server("PG"), make_server("MS")],
            adjudication="majority",
            read_split=True,
        )
        runner = WorkloadRunner(server, seed=11)
        runner.setup()
        metrics = runner.run(40)
        assert metrics.failure_free
