"""Workload end-state integrity: the TPC-C-style transactions preserve
their business invariants, and identical runs yield identical states —
the property the middleware's cross-replica comparison relies on."""

from decimal import Decimal


from repro.servers import make_server
from repro.workload import TpccGenerator, WorkloadRunner


def run_on(key, seed=31, transactions=80):
    server = make_server(key)
    runner = WorkloadRunner(server, seed=seed)
    runner.setup()
    metrics = runner.run(transactions, generator=TpccGenerator(seed=seed))
    assert metrics.failure_free
    return server


class TestBusinessInvariants:
    def test_warehouse_ytd_equals_district_ytd_sum(self):
        server = run_on("PG")
        w_ytd = server.execute("SELECT w_ytd FROM warehouse WHERE w_id = 1").rows[0][0]
        d_sum = server.execute("SELECT SUM(d_ytd) FROM district WHERE d_w_id = 1").rows[0][0]
        # Both started offset (300000 vs 2x30000) and grow by the same
        # payment amounts.
        assert w_ytd - Decimal("300000.00") == d_sum - Decimal("60000.00")

    def test_order_lines_match_order_counts(self):
        server = run_on("IB")
        orders = server.execute(
            "SELECT o_id, o_d_id, o_ol_cnt FROM orders"
        ).rows
        for o_id, d_id, ol_cnt in orders:
            lines = server.execute(
                f"SELECT COUNT(*) FROM order_line "
                f"WHERE ol_o_id = {o_id} AND ol_d_id = {d_id} AND ol_w_id = 1"
            ).rows[0][0]
            assert lines == ol_cnt

    def test_stock_ytd_accounts_for_orders(self):
        server = run_on("MS")
        total_ordered = server.execute(
            "SELECT SUM(ol_quantity) FROM order_line"
        ).rows[0][0]
        stock_ytd = server.execute("SELECT SUM(s_ytd) FROM stock").rows[0][0]
        assert total_ordered == stock_ytd

    def test_customer_payment_counts_match_history(self):
        server = run_on("OR")
        payments = server.execute("SELECT COUNT(*) FROM history").rows[0][0]
        counted = server.execute(
            "SELECT SUM(c_payment_cnt) FROM customer"
        ).rows[0][0]
        base = server.execute("SELECT COUNT(*) FROM customer").rows[0][0]
        assert counted - base == payments  # everyone starts at 1


class TestCrossServerDeterminism:
    def test_identical_state_across_products(self):
        """The same transaction stream leaves byte-identical state on
        all four products — the invariant that makes the middleware's
        comparison sound on fault-free replicas."""
        from repro.sqlengine.values import normalize_row

        def state_of(server):
            tables = sorted(t.name for t in server.engine.catalog.tables())
            return {
                name: sorted(
                    normalize_row(row)
                    for row in server.engine.storage.get(name).snapshot()
                )
                for name in tables
            }

        states = [state_of(run_on(key, seed=7, transactions=50))
                  for key in ("IB", "PG", "OR", "MS")]
        assert states[0] == states[1] == states[2] == states[3]

    def test_different_seed_different_state(self):
        first = run_on("PG", seed=1, transactions=30)
        second = run_on("PG", seed=2, transactions=30)
        a = first.execute("SELECT COUNT(*) FROM order_line").rows[0][0]
        b = second.execute("SELECT COUNT(*) FROM order_line").rows[0][0]
        assert (a, first.execute("SELECT w_ytd FROM warehouse").rows[0][0]) != (
            b, second.execute("SELECT w_ytd FROM warehouse").rows[0][0],
        )
