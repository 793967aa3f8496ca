"""Rollback-and-retry recovery plus engine edge-case hardening."""

import pytest

from repro.errors import BindError
from repro.faults import FaultSpec, RelationTrigger, RowDropEffect, ErrorEffect
from repro.servers import make_server
from repro.workload import TpccGenerator, WorkloadRunner


class TestRollbackAndRetry:
    """Section 2.1: retry tolerates transient (Heisenbug) failures but
    not deterministic ones — the gap diversity fills."""

    def _heisen_server(self):
        fault = FaultSpec(
            "F-TRANSIENT",
            "intermittent spurious error on customer reads",
            RelationTrigger(["customer"], kind="select"),
            ErrorEffect("transient deadlock, please retry"),
            heisenbug=True,
            stress_activation=0.5,
        )
        return make_server("PG", [fault], stress_mode=True, seed=9)

    def test_retries_recover_transient_failures(self):
        baseline_runner = WorkloadRunner(self._heisen_server(), seed=9, retries=0)
        baseline_runner.setup()
        baseline = baseline_runner.run(60, generator=TpccGenerator(seed=9))

        retry_runner = WorkloadRunner(self._heisen_server(), seed=9, retries=4)
        retry_runner.setup()
        retried = retry_runner.run(60, generator=TpccGenerator(seed=9))

        assert baseline.exhausted_retries > 0
        assert retried.retried_successes > 0
        assert retried.exhausted_retries < baseline.exhausted_retries

    def test_retries_cannot_fix_bohrbugs(self):
        fault = FaultSpec(
            "F-DETERMINISTIC",
            "always wrong rows from stock",
            RelationTrigger(["stock"], kind="select"),
            RowDropEffect(keep_one_in=2),
        )
        from repro.middleware import DiverseServer

        server = DiverseServer(
            [make_server("IB", [fault]), make_server("OR")],
            adjudication="compare",
            auto_recover=False,
        )
        runner = WorkloadRunner(server, seed=10, retries=3)
        runner.setup()
        from repro.workload import TransactionMix

        mix = TransactionMix(new_order=0, payment=0, order_status=0,
                             delivery=0, stock_level=1)
        metrics = runner.run(10, generator=TpccGenerator(seed=10, mix=mix))
        # Every attempt fails the same way: retries are exhausted.
        assert metrics.exhausted_retries == 10
        assert metrics.retried_successes == 0


class TestEngineEdgeCases:
    def test_subquery_depth_guard(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        query = "SELECT a FROM t"
        for _ in range(40):
            query = f"SELECT a FROM ({query}) d"
        with pytest.raises(BindError, match="nesting too deep"):
            engine.execute(query)

    def test_limit_zero(self, seeded_engine):
        assert seeded_engine.execute("SELECT id FROM product LIMIT 0").rows == []

    def test_select_constant_group(self, seeded_engine):
        result = seeded_engine.execute("SELECT COUNT(*) FROM product WHERE 1 = 0")
        assert result.rows == [(0,)]

    def test_union_of_empty_results(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT id FROM product WHERE 1 = 0 UNION SELECT id FROM product WHERE 2 = 3"
        )
        assert result.rows == []

    def test_deeply_nested_expressions(self, engine):
        expression = "1" + " + 1" * 200
        assert engine.execute(f"SELECT {expression}").rows[0][0] == 201

    def test_wide_in_list(self, seeded_engine):
        values = ", ".join(str(i) for i in range(500))
        result = seeded_engine.execute(
            f"SELECT COUNT(*) FROM product WHERE id IN ({values})"
        )
        assert result.rows[0][0] == 4
