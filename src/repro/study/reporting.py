"""Markdown report generation for an executed study.

Produces a self-contained report (tables + paper comparison +
commentary hooks) suitable for CI artifacts or sharing.  Used by
``python -m repro report``.
"""

from __future__ import annotations

from repro.bugs import groundtruth as gt
from repro.dialects.features import SERVER_KEYS
from repro.study.runner import StudyResult
from repro.study.tables import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    failure_type_shares,
    heisenbug_extras,
)


_T1_KEYS = [
    ("total", "Total bug scripts"),
    ("cannot_run", "Cannot be run"),
    ("further_work", "Further work"),
    ("run", "Scripts run"),
    ("no_failure", "No failure"),
    ("failure", "Failure observed"),
    ("perf", "— performance"),
    ("crash", "— engine crash"),
    ("inc_se", "— incorrect (SE)"),
    ("inc_nse", "— incorrect (NSE)"),
    ("other_se", "— other (SE)"),
    ("other_nse", "— other (NSE)"),
]


def _table1_markdown(study: StudyResult) -> list[str]:
    table = build_table1(study)
    lines: list[str] = []
    for reported in SERVER_KEYS:
        targets = [reported] + [key for key in SERVER_KEYS if key != reported]
        lines.append(f"### Bugs reported for {reported}")
        lines.append("")
        lines.append("| row | " + " | ".join(targets) + " |")
        lines.append("|---|" + "---|" * len(targets))
        for key, label in _T1_KEYS:
            values = " | ".join(str(table[reported][target][key]) for target in targets)
            lines.append(f"| {label} | {values} |")
        lines.append("")
    return lines


def _table2_markdown(study: StudyResult) -> list[str]:
    table = build_table2(study)
    lines = [
        "| group | total | none fail | one fails | two fail | paper |",
        "|---|---|---|---|---|---|",
    ]
    for group, paper in gt.PAPER_TABLE2.items():
        row = table[group]
        measured = (row.total, row.none_fail, row.one_fails, row.two_fail)
        marker = "" if measured == paper else " ⚠ documented deviation"
        lines.append(
            f"| {group} | {row.total} | {row.none_fail} | {row.one_fails} | "
            f"{row.two_fail} | {paper}{marker} |"
        )
    return lines


def _table3_markdown(study: StudyResult) -> list[str]:
    table = build_table3(study)
    lines = [
        "| pair | run | fail | 1-SE | 1-NSE | ND | det-SE | det-NSE | detect% |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for pair, row in table.items():
        lines.append(
            f"| {pair[0]}+{pair[1]} | {row.run} | {row.fail_any} | {row.one_se} | "
            f"{row.one_nse} | {row.both_nondetectable} | {row.both_detectable_se} | "
            f"{row.both_detectable_nse} | {100 * row.detectable_fraction:.1f}% |"
        )
    return lines


def _table4_markdown(study: StudyResult) -> list[str]:
    table = build_table4(study)
    lines = [
        "| reported \\ fails in | " + " | ".join(SERVER_KEYS) + " |",
        "|---|" + "---|" * len(SERVER_KEYS),
    ]
    for reported in SERVER_KEYS:
        cells = " | ".join(
            "—" if target == reported else str(table[reported].get(target, 0))
            for target in SERVER_KEYS
        )
        lines.append(f"| {reported} | {cells} |")
    return lines


def study_report_markdown(study: StudyResult) -> str:
    """Full markdown report for one executed study."""
    shares = failure_type_shares(study)
    extras = heisenbug_extras(study)
    lines = [
        "# Fault-diversity study report",
        "",
        "Reproduction of Gashi, Popov & Strigini (DSN 2004): "
        f"{len(study.corpus)} bug reports executed on four simulated "
        "diverse SQL server products.",
        "",
        "## Table 1 — outcomes per reported server",
        "",
        *_table1_markdown(study),
        "## Table 2 — server-combination groups",
        "",
        *_table2_markdown(study),
        "",
        "## Table 3 — two-version pairs",
        "",
        *_table3_markdown(study),
        "",
        "## Table 4 — coincident failures",
        "",
        *_table4_markdown(study),
        "",
    ]
    if extras:
        listed = ", ".join(f"{bug} → {'/'.join(sorted(failed))}" for bug, failed in extras)
        lines.append(f"Additionally failing only outside their reported server: {listed}.")
        lines.append("")
    lines.extend(
        [
            "## Headline statistics",
            "",
            f"* Home failures observed: **{shares.total_failures}**",
            f"* Incorrect-result share: **{100 * shares.incorrect_fraction:.1f}%** "
            "(paper: 64.5%)",
            f"* Engine-crash share: **{100 * shares.crash_fraction:.1f}%** (paper: 17.1%)",
            "* No bug failed in more than two of the four servers.",
            "",
        ]
    )
    return "\n".join(lines)
