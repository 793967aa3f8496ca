"""Frozen ground-truth assignment reproducing the paper's tables.

The paper's Tables 1-4 over-determine the corpus: they fix, for each
reported server, how many bug scripts run on every combination of
servers, how many fail at home, how the failures split into
self-evident vs non-self-evident, and where the 13 cross-server bugs
sit.  This module holds the exact integer solution of that constraint
system (solved offline with an ILP over the published cells; see
DESIGN.md section 4 and EXPERIMENTS.md for the derivation).

Published-table caveat: Tables 1 and 2 of the paper are mutually
inconsistent by one bug (Table 1 implies 29 home-no-failure reports and
12+1 cross-failing bugs, i.e. 153 bugs failing somewhere; Table 2's
rows sum to 154).  The solution below reproduces Tables 1, 3 and 4
*exactly*; Table 2 is exact in its totals and two-server rows, with
three one-off deviations in the no-failure/one-server breakdown
(groups PG+OR-only, IB-only, PG-only), which ``TABLE2_KNOWN_DEVIATIONS``
records explicitly.
"""

from __future__ import annotations

from repro.faults.spec import Detectability, FailureKind

SERVER_KEYS = ("IB", "PG", "OR", "MS")

#: Short key used in group names: I=IB, P=PG, O=OR, M=MS.
SHORT = {"IB": "I", "PG": "P", "OR": "O", "MS": "M"}
LONG = {v: k for k, v in SHORT.items()}


def expand_group(group: str) -> frozenset[str]:
    """'IPM' -> frozenset({'IB', 'PG', 'MS'})."""
    return frozenset(LONG[ch] for ch in group)


#: Per reported server: list of cells
#: (group, n_bugs, home_failing, home_self_evident).
#: Groups are named with short keys in canonical order I,P,O,M.
CELLS: dict[str, list[tuple[str, int, int, int]]] = {
    "IB": [
        ("IPOM", 22, 18, 5),
        ("IPO", 1, 1, 0),
        ("IOM", 8, 6, 2),
        ("IP", 4, 4, 0),
        ("IM", 3, 3, 0),
        ("I", 17, 15, 9),
    ],
    "PG": [
        ("IPOM", 15, 12, 12),
        ("IPO", 2, 2, 0),
        ("IPM", 5, 5, 0),
        ("POM", 10, 10, 0),
        ("IP", 1, 1, 0),
        ("PO", 3, 2, 0),
        ("PM", 3, 3, 0),
        ("P", 18, 17, 15),
    ],
    "OR": [
        ("IPOM", 3, 2, 1),
        ("IOM", 1, 1, 0),
        ("PO", 1, 1, 0),
        ("O", 13, 10, 6),
    ],
    "MS": [
        ("IPOM", 7, 3, 3),
        ("IPM", 2, 1, 0),
        ("IOM", 3, 3, 0),
        ("PM", 9, 8, 2),
        ("OM", 2, 1, 1),
        ("M", 28, 23, 16),
    ],
}

K = FailureKind
D = Detectability

#: Per server: ordered pool of self-evident home failure kinds (consumed
#: in cell order by the generator) and the same for non-self-evident.
#: Totals match Table 1's home failure-type columns.
SE_POOLS: dict[str, list[FailureKind]] = {
    # perf 3, crash 7, incorrect-SE 4, other-SE 2  (16)
    "IB": [K.ENGINE_CRASH] * 7
    + [K.PERFORMANCE] * 3
    + [K.INCORRECT_RESULT] * 4
    + [K.OTHER] * 2,
    # crash 11, incorrect-SE 14, other-SE 2  (27)
    "PG": [K.INCORRECT_RESULT] * 14 + [K.ENGINE_CRASH] * 11 + [K.OTHER] * 2,
    # perf 1, crash 3, incorrect-SE 3  (7)
    "OR": [K.ENGINE_CRASH] * 3 + [K.INCORRECT_RESULT] * 3 + [K.PERFORMANCE],
    # perf 6, crash 5, incorrect-SE 10, other-SE 1  (22)
    "MS": [K.INCORRECT_RESULT] * 10
    + [K.PERFORMANCE] * 6
    + [K.ENGINE_CRASH] * 5
    + [K.OTHER],
}

#: Non-self-evident pools; coincident bugs are drawn from the
#: incorrect-result portion first (they are pinned INCORRECT_RESULT).
NSE_POOLS: dict[str, list[FailureKind]] = {
    # incorrect-NSE 23, other-NSE 8  (31)
    "IB": [K.INCORRECT_RESULT] * 23 + [K.OTHER] * 8,
    # incorrect-NSE 20, other-NSE 5  (25)
    "PG": [K.INCORRECT_RESULT] * 20 + [K.OTHER] * 5,
    # incorrect-NSE 7  (7)
    "OR": [K.INCORRECT_RESULT] * 7,
    # incorrect-NSE 17  (17)
    "MS": [K.INCORRECT_RESULT] * 17,
}

#: "Further work" (translation pending) allocations:
#: reported server -> target server -> list of (group, how many bugs of
#: that cell carry the pending flag for the target).
FURTHER_WORK: dict[str, dict[str, list[tuple[str, int]]]] = {
    "IB": {
        "PG": [("IOM", 2), ("IM", 1), ("I", 2)],
        "OR": [("IP", 2), ("I", 2)],
        "MS": [("IPO", 1), ("IP", 2), ("I", 3)],
    },
    "PG": {"IB": [("P", 2)]},
    "OR": {"IB": [("O", 1)], "MS": [("O", 1)], "PG": [("O", 2)]},
    "MS": {"IB": [("M", 3)], "OR": [("M", 7)], "PG": [("M", 2)]},
}

#: Gate-feature choices realising each natural-support set.  Keyed by
#: the short-form support-set string (canonical I,P,O,M order); values
#: are alternative feature bundles cycled by bug index for variety.
FEATURE_CHOICES: dict[str, list[tuple[str, ...]]] = {
    "IPOM": [()],
    "IPO": [("op.concat",)],
    "IPM": [("fn.CHAR_LENGTH",)],
    "IOM": [("join.left",), ("view.union",)],
    "POM": [("clause.case",), ("fn.LTRIM",)],
    "IP": [("type.TEXT",)],
    "IM": [("type.DATETIME",)],
    "IO": [("op.concat", "join.left")],
    "PO": [("fn.MOD",)],
    # Generic PM bugs use the modulo operator only: the clustered-index
    # gate is reserved for the six notable MSSQL scripts, whose CREATE
    # CLUSTERED INDEX trips the shared PostgreSQL fault (Section 5).
    "PM": [("op.modulo",)],
    "OM": [("fn.CONVERT",)],
    "I": [("fn.GEN_ID",)],
    "P": [("clause.limit",)],
    "O": [("fn.DECODE",)],
    "M": [("fn.GETDATE",)],
}


def canonical_group(servers: frozenset[str]) -> str:
    """frozenset({'IB','MS'}) -> 'IM' (canonical I,P,O,M order)."""
    return "".join(ch for ch in "IPOM" if LONG[ch] in servers)


#: Paper Table 2 published cells, for the tests' comparison
#: (group -> (total, none_fail, one_fails, two_fail)).
PAPER_TABLE2: dict[str, tuple[int, int, int, int]] = {
    "IPOM": (47, 12, 31, 4),
    "IPO": (3, 0, 3, 0),
    "IPM": (7, 1, 6, 0),
    "IOM": (12, 2, 9, 1),
    "POM": (10, 0, 9, 1),
    "IP": (5, 0, 5, 0),
    "IM": (3, 0, 3, 0),
    "IO": (0, 0, 0, 0),
    "PO": (4, 0, 3, 1),
    "PM": (12, 0, 7, 5),
    "OM": (2, 1, 1, 0),
    "I": (17, 1, 16, 0),
    "P": (18, 2, 16, 0),
    "M": (28, 5, 23, 0),
    "O": (13, 3, 10, 0),
}

#: Cells where our (Table-1/3/4-exact) reproduction necessarily deviates
#: from the published Table 2 by one bug each.
TABLE2_KNOWN_DEVIATIONS: dict[str, tuple[int, int, int, int]] = {
    "PO": (4, 1, 2, 1),
    "I": (17, 2, 15, 0),
    "P": (18, 1, 17, 0),
}

#: Paper Table 1 cells, used by the tests and ``python -m repro tables``.
#: reported -> target -> dict of row values.
PAPER_TABLE1: dict[str, dict[str, dict[str, int]]] = {
    "IB": {
        "IB": {"total": 55, "cannot_run": 0, "further_work": 0, "run": 55,
               "no_failure": 8, "failure": 47, "perf": 3, "crash": 7,
               "inc_se": 4, "inc_nse": 23, "other_se": 2, "other_nse": 8},
        "PG": {"total": 55, "cannot_run": 23, "further_work": 5, "run": 27,
               "no_failure": 26, "failure": 1, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 1, "other_se": 0, "other_nse": 0},
        "OR": {"total": 55, "cannot_run": 20, "further_work": 4, "run": 31,
               "no_failure": 31, "failure": 0, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 0, "other_se": 0, "other_nse": 0},
        "MS": {"total": 55, "cannot_run": 16, "further_work": 6, "run": 33,
               "no_failure": 31, "failure": 2, "perf": 0, "crash": 0,
               "inc_se": 1, "inc_nse": 1, "other_se": 0, "other_nse": 0},
    },
    "PG": {
        "PG": {"total": 57, "cannot_run": 0, "further_work": 0, "run": 57,
               "no_failure": 5, "failure": 52, "perf": 0, "crash": 11,
               "inc_se": 14, "inc_nse": 20, "other_se": 2, "other_nse": 5},
        "IB": {"total": 57, "cannot_run": 32, "further_work": 2, "run": 23,
               "no_failure": 23, "failure": 0, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 0, "other_se": 0, "other_nse": 0},
        "OR": {"total": 57, "cannot_run": 27, "further_work": 0, "run": 30,
               "no_failure": 30, "failure": 0, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 0, "other_se": 0, "other_nse": 0},
        "MS": {"total": 57, "cannot_run": 24, "further_work": 0, "run": 33,
               "no_failure": 31, "failure": 2, "perf": 0, "crash": 0,
               "inc_se": 1, "inc_nse": 1, "other_se": 0, "other_nse": 0},
    },
    "OR": {
        "OR": {"total": 18, "cannot_run": 0, "further_work": 0, "run": 18,
               "no_failure": 4, "failure": 14, "perf": 1, "crash": 3,
               "inc_se": 3, "inc_nse": 7, "other_se": 0, "other_nse": 0},
        "IB": {"total": 18, "cannot_run": 13, "further_work": 1, "run": 4,
               "no_failure": 4, "failure": 0, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 0, "other_se": 0, "other_nse": 0},
        "MS": {"total": 18, "cannot_run": 13, "further_work": 1, "run": 4,
               "no_failure": 4, "failure": 0, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 0, "other_se": 0, "other_nse": 0},
        "PG": {"total": 18, "cannot_run": 12, "further_work": 2, "run": 4,
               "no_failure": 3, "failure": 1, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 1, "other_se": 0, "other_nse": 0},
    },
    "MS": {
        "MS": {"total": 51, "cannot_run": 0, "further_work": 0, "run": 51,
               "no_failure": 12, "failure": 39, "perf": 6, "crash": 5,
               "inc_se": 10, "inc_nse": 17, "other_se": 1, "other_nse": 0},
        "IB": {"total": 51, "cannot_run": 36, "further_work": 3, "run": 12,
               "no_failure": 11, "failure": 1, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 1, "other_se": 0, "other_nse": 0},
        "OR": {"total": 51, "cannot_run": 32, "further_work": 7, "run": 12,
               "no_failure": 12, "failure": 0, "perf": 0, "crash": 0,
               "inc_se": 0, "inc_nse": 0, "other_se": 0, "other_nse": 0},
        "PG": {"total": 51, "cannot_run": 31, "further_work": 2, "run": 18,
               "no_failure": 12, "failure": 6, "perf": 0, "crash": 0,
               "inc_se": 6, "inc_nse": 0, "other_se": 0, "other_nse": 0},
    },
}

#: Paper Table 3 cells: pair -> (run, fail_any, one_se, one_nse,
#: both_nondetectable, both_detectable_se, both_detectable_nse).
PAPER_TABLE3: dict[tuple[str, str], tuple[int, int, int, int, int, int, int]] = {
    ("IB", "PG"): (62, 43, 17, 25, 1, 0, 0),
    ("IB", "OR"): (62, 29, 8, 21, 0, 0, 0),
    ("IB", "MS"): (69, 35, 11, 21, 2, 1, 0),
    ("PG", "OR"): (64, 30, 13, 16, 0, 0, 1),
    ("PG", "MS"): (76, 46, 18, 21, 1, 6, 0),
    ("OR", "MS"): (71, 14, 7, 7, 0, 0, 0),
}

#: Paper Table 4: reported -> {failed-in server -> count}.
PAPER_TABLE4: dict[str, dict[str, int]] = {
    "IB": {"PG": 1, "OR": 0, "MS": 2},
    "PG": {"IB": 0, "OR": 0, "MS": 2},
    "OR": {"IB": 0, "PG": 1, "MS": 0},
    "MS": {"IB": 1, "PG": 5, "OR": 0},
}
