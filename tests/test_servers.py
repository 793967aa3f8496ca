"""Server-product tests: dialect wiring, lifecycle, fault seeding."""

import pytest

from repro.errors import EngineCrash, FeatureNotSupported
from repro.faults import CrashEffect, FaultSpec, RelationTrigger
from repro.servers import make_server


class TestConstruction:
    def test_all_four(self, servers):
        assert set(servers) == {"IB", "PG", "OR", "MS"}
        for key, server in servers.items():
            assert server.key == key

    def test_metadata(self):
        ib = make_server("IB")
        assert ib.product == "Interbase"
        assert ib.version == "6.0"

    def test_engines_are_independent(self, servers):
        servers["IB"].execute("CREATE TABLE only_ib (a INTEGER)")
        with pytest.raises(Exception):
            servers["PG"].execute("SELECT 1 FROM only_ib")


class TestDialectEnforcement:
    def test_server_rejects_foreign_features(self, servers):
        servers["PG"].execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(FeatureNotSupported):
            servers["PG"].execute("SELECT 1 FROM t x LEFT OUTER JOIN t y ON 1=1")

    def test_server_accepts_own_extensions(self, servers):
        servers["MS"].execute("CREATE TABLE t (a INTEGER)")
        servers["MS"].execute("INSERT INTO t VALUES (1)")
        assert servers["MS"].execute("SELECT GETDATE() FROM t").rows

    def test_oracle_native_types(self, servers):
        servers["OR"].execute("CREATE TABLE t (a VARCHAR2(10), b NUMBER(8,2))")
        servers["OR"].execute("INSERT INTO t VALUES ('x', 1.50)")


class TestLifecycle:
    def _crashy(self):
        spec = FaultSpec(
            "F-CRASH",
            "crash on select",
            RelationTrigger(["t"], kind="select"),
            CrashEffect(),
        )
        server = make_server("IB", [spec])
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("INSERT INTO t VALUES (1)")
        return server

    def test_crash_and_restart_keeps_data(self):
        server = self._crashy()
        with pytest.raises(EngineCrash):
            server.execute("SELECT a FROM t")
        assert server.crashed
        server.restart()
        server.injector.remove("F-CRASH")
        assert server.execute("SELECT a FROM t").rows == [(1,)]

    def test_reset_wipes_everything(self):
        server = self._crashy()
        server.reset()
        assert not server.crashed
        with pytest.raises(Exception):
            server.execute("SELECT a FROM t")

    def test_seed_fault_after_construction(self):
        server = make_server("OR")
        server.execute("CREATE TABLE t (a INTEGER)")
        server.injector.add(
            FaultSpec("LATE", "late fault", RelationTrigger(["t"], kind="select"), CrashEffect())
        )
        with pytest.raises(EngineCrash):
            server.execute("SELECT a FROM t")
        assert "LATE" in server.fired_faults()
