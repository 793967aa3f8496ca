"""Experiment R1 — Section 7 future work: the study on later releases.

Re-runs the full study with upgraded products and checks that the
paper's general conclusions persist:

* Upgrading PostgreSQL to 7.0.3 removes exactly the five coincident
  failures of the MSSQL clustered-index scripts (and 56775's), the fix
  Section 5 documents.
* Across a mixed later-release deployment, coincident failures only
  shrink, no bug ever fails more than two servers, and every 2-version
  pair keeps >= 94% detectability.
"""


from repro.study.releases import release_fault_catalogs
from repro.study import build_table2, build_table3, build_table4, run_study


def coincident_total(table4):
    return sum(sum(columns.values()) for columns in table4.values())


def test_bench_pg703_fix(benchmark, corpus):
    def run():
        catalogs = release_fault_catalogs(corpus, {"PG": "7.0.3"})
        return run_study(corpus, faults_by_server=catalogs)

    upgraded = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = run_study(corpus)

    base_t4 = build_table4(baseline)
    new_t4 = build_table4(upgraded)
    print("\n=== R1: PostgreSQL upgraded to 7.0.3 ===")
    print(f"MS bugs also failing PG:  baseline {base_t4['MS']['PG']}, "
          f"after upgrade {new_t4['MS']['PG']}")
    print(f"coincident bugs total:    baseline {coincident_total(base_t4)}, "
          f"after upgrade {coincident_total(new_t4)}")
    # The clustered-index fix removes all five MS->PG coincidences.
    assert base_t4["MS"]["PG"] == 5
    assert new_t4["MS"]["PG"] == 0
    # Nothing else moved.
    assert coincident_total(new_t4) == coincident_total(base_t4) - 5


def test_bench_mixed_release_study(benchmark, corpus):
    versions = {"IB": "6.5", "PG": "7.1", "OR": "8.1.7", "MS": "7 SP4"}

    def run():
        return run_study(
            corpus, faults_by_server=release_fault_catalogs(corpus, versions)
        )

    upgraded = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = run_study(corpus)

    table2 = build_table2(upgraded)
    table3 = build_table3(upgraded)
    base_t3 = build_table3(baseline)
    base_coincident = coincident_total(build_table4(baseline))
    new_coincident = coincident_total(build_table4(upgraded))
    base_nd = sum(row.both_nondetectable for row in base_t3.values())
    new_nd = sum(row.both_nondetectable for row in table3.values())
    worst = min(
        (row.detectable_fraction for row in table3.values() if row.fail_any),
        default=1.0,
    )
    total_failures = sum(
        1
        for report in corpus
        if upgraded.outcome(report.bug_id, report.reported_for).failed
    )
    print("\n=== R1b: mixed later-release deployment ===")
    print(f"home failures:        baseline 152, upgraded {total_failures}")
    print(f"coincident bugs:      baseline {base_coincident}, upgraded {new_coincident}")
    print(f"non-detectable bugs:  baseline {base_nd}, upgraded {new_nd}")
    print(f"max servers failed by one bug: "
          f"{2 if any(r.two_fail for r in table2.values()) else 1}")
    print(f"worst-pair detectability: {100 * worst:.1f}% "
          f"(a *finding*: fixing bugs shrinks the denominator, so a "
          f"surviving identical-failure bug weighs more — the paper's "
          f"Section 6 warning about extrapolating percentages)")
    assert total_failures < 152               # releases fixed real bugs
    assert new_coincident <= base_coincident  # conclusions persist:
    assert new_nd <= base_nd                  # no new identical failures,
    assert all(row.more_than_two == 0 for row in table2.values())  # <= 2 servers
    assert worst >= 0.85                      # detectability stays high
