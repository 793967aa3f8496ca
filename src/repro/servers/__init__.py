"""The four simulated diverse server products.

Each :class:`~repro.servers.product.ServerProduct` wraps one
:class:`~repro.sqlengine.engine.Engine` with a dialect descriptor
(feature gate) and a :class:`~repro.faults.injector.FaultInjector`
holding that product's seeded fault catalog.
"""

from repro.servers.product import ServerProduct
from repro.sqlengine.engine import Result
from repro.servers.registry import (
    make_interbase,
    make_mssql,
    make_oracle,
    make_server,
)

__all__ = [
    "Result",
    "ServerProduct",
    "make_interbase",
    "make_mssql",
    "make_oracle",
    "make_server",
]
