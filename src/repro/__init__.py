"""repro — reproduction of "Fault Diversity among Off-The-Shelf SQL
Database Servers" (Gashi, Popov & Strigini, DSN 2004).

The subpackages are the API, and their imports point down one layer
table (DESIGN.md section 3, checked by ``tests/test_import_direction.py``).
A module imports only from its own row or a lower one:

0. :mod:`repro.errors`, :mod:`repro.records` — error classes, record codec
1. :mod:`repro.sqlengine` — the from-scratch SQL engine substrate
2. :mod:`repro.dialects` — feature gates and script translation
3. :mod:`repro.analysis` — static analysis over SQL text and schema
4. :mod:`repro.faults` — fault-injection framework and fault audits
5. :mod:`repro.servers` — the four simulated diverse products
6. :mod:`repro.middleware` — the diverse-redundancy SQL middleware
7. :mod:`repro.durability`, :mod:`repro.net` — WAL/checkpoints, the wire
8. :mod:`repro.bugs` — the 181-bug-report corpus
9. :mod:`repro.study`, :mod:`repro.workload`, :mod:`repro.hunt` — the
   study harness and Tables 1-4, TPC-C load, generative testing
10. :mod:`repro.analysis.lint` — the corpus lint, run through the study
11. :mod:`repro.reliability` — Section-6 modelling and simulation
12. this package: :mod:`repro.storms` and the command line

This module imports nothing, so ``import repro.records`` loads two
modules.  Command line: ``python -m repro`` re-runs the study and
prints the reproduced tables.
"""

__version__ = "1.0.0"
