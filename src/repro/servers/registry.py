"""Factories for the four server products."""

from __future__ import annotations

from typing import Iterable

from repro.dialects.features import dialect
from repro.faults.spec import FaultSpec
from repro.servers.product import ServerProduct


def make_server(
    key: str,
    faults: Iterable[FaultSpec] = (),
    *,
    seed: int = 0,
    stress_mode: bool = False,
) -> ServerProduct:
    """Build one server product by key (IB/PG/OR/MS)."""
    return ServerProduct(dialect(key), faults, seed=seed, stress_mode=stress_mode)


def make_interbase(faults: Iterable[FaultSpec] = (), **kwargs) -> ServerProduct:
    """Interbase 6.0 analogue."""
    return make_server("IB", faults, **kwargs)


def make_oracle(faults: Iterable[FaultSpec] = (), **kwargs) -> ServerProduct:
    """Oracle 8.0.5 analogue."""
    return make_server("OR", faults, **kwargs)


def make_mssql(faults: Iterable[FaultSpec] = (), **kwargs) -> ServerProduct:
    """Microsoft SQL Server 7 analogue."""
    return make_server("MS", faults, **kwargs)
