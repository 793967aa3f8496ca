"""MiddlewareStats reset/merge audit.

The stats dataclass grows a few counters every time the middleware
grows a subsystem (supervision, deadlines, durability, rebuild...).
``reset`` and ``merge`` are written field-generically via
``dataclasses.fields`` so a new counter can never be silently dropped
— this test is the enforcement: it enumerates the fields itself and
checks every one takes part in every operation, so the only way to
break the invariant is to stop using a dataclass field at all.
"""

import dataclasses

from repro.middleware import MiddlewareStats


def stat_fields():
    return dataclasses.fields(MiddlewareStats)


def populated(start=1):
    """A stats object with a distinct nonzero value in every field."""
    stats = MiddlewareStats()
    for offset, field in enumerate(stat_fields()):
        setattr(stats, field.name, start + offset)
    return stats


def test_every_field_is_an_int_counter_defaulting_to_zero():
    fresh = MiddlewareStats()
    for field in stat_fields():
        assert field.type in ("int", int), field.name
        assert field.default == 0, field.name
        assert getattr(fresh, field.name) == 0, field.name


def test_reset_zeroes_every_field():
    stats = populated()
    stats.reset()
    for field in stat_fields():
        assert getattr(stats, field.name) == 0, field.name


def test_merge_sums_every_field_without_mutating_inputs():
    a = populated(start=1)
    b = populated(start=1000)
    merged = a.merge(b)
    for offset, field in enumerate(stat_fields()):
        assert getattr(merged, field.name) == 1001 + 2 * offset, field.name
        assert getattr(a, field.name) == 1 + offset, field.name
        assert getattr(b, field.name) == 1000 + offset, field.name


def test_merge_identity_is_a_fresh_stats():
    a = populated()
    merged = a.merge(MiddlewareStats())
    for field in stat_fields():
        assert getattr(merged, field.name) == getattr(a, field.name), field.name


def test_durability_counters_present():
    """The PR-6 counters exist (guards against a rename breaking the
    telemetry consumers in the CLI drills and benchmarks)."""
    names = {field.name for field in stat_fields()}
    assert {
        "rebuilds_started", "rebuilds_completed", "rebuilds_failed",
        "rebuild_replayed_statements", "wal_records", "wal_torn_writes",
        "wal_lost_flushes", "wal_corruptions", "durable_checkpoints",
        "durable_recoveries",
    } <= names
