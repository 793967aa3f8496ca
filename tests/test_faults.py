"""Fault-injection framework tests."""

import pytest

from repro.errors import EngineCrash, SqlError
from repro.faults import (
    AlwaysTrigger,
    BehaviourFlagEffect,
    CrashEffect,
    ErrorEffect,
    FaultInjector,
    FaultSpec,
    PerformanceEffect,
    RelationTrigger,
    RowcountSkewEffect,
    RowDropEffect,
    RowDuplicateEffect,
    SqlPatternTrigger,
    TagTrigger,
    ValueSkewEffect,
)
from repro.sqlengine import Engine


def make_engine(*faults, stress=False, seed=0):
    injector = FaultInjector(faults, stress_mode=stress, seed=seed)
    engine = Engine("test", injector=injector)
    engine.execute("CREATE TABLE victim (id INTEGER, val INTEGER)")
    engine.execute("INSERT INTO victim VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
    engine.execute("CREATE TABLE bystander (id INTEGER)")
    engine.execute("INSERT INTO bystander VALUES (7)")
    return engine


def fault(effect, trigger=None, **kwargs):
    return FaultSpec(
        fault_id=kwargs.pop("fault_id", "F-1"),
        description="test fault",
        trigger=trigger or RelationTrigger(["victim"], kind="select"),
        effect=effect,
        **kwargs,
    )


class TestTriggers:
    def test_relation_trigger_scoped(self):
        engine = make_engine(fault(CrashEffect()))
        assert engine.execute("SELECT id FROM bystander").rows == [(7,)]
        with pytest.raises(EngineCrash):
            engine.execute("SELECT id FROM victim")

    def test_relation_trigger_kind_scoped(self):
        engine = make_engine(fault(CrashEffect()))
        # kind="select": inserts into victim don't trip it.
        engine.execute("INSERT INTO victim VALUES (5, 50)")

    def test_tag_trigger(self):
        engine = make_engine(
            fault(CrashEffect(), TagTrigger(required=["clause.group_by"]))
        )
        engine.execute("SELECT id FROM victim")
        with pytest.raises(EngineCrash):
            engine.execute("SELECT id, COUNT(*) FROM victim GROUP BY id")

    def test_tag_trigger_any_of_and_forbidden(self):
        trigger = TagTrigger(any_of=["clause.distinct", "clause.limit"],
                             forbidden=["clause.order_by"])
        engine = make_engine(fault(CrashEffect(), trigger))
        engine.execute("SELECT id FROM victim")  # no any_of tag
        engine.execute("SELECT DISTINCT id FROM victim ORDER BY id")  # forbidden
        with pytest.raises(EngineCrash):
            engine.execute("SELECT DISTINCT id FROM victim")

    def test_sql_pattern_trigger(self):
        engine = make_engine(fault(CrashEffect(), SqlPatternTrigger(r"val\s*>\s*25")))
        engine.execute("SELECT id FROM victim WHERE val > 5")
        with pytest.raises(EngineCrash):
            engine.execute("SELECT id FROM victim WHERE val > 25")

    def test_prefix_trigger(self):
        engine = make_engine(
            fault(CrashEffect(), RelationTrigger(["victim"], kind="select"))
        )
        engine.execute("SELECT id FROM bystander")
        with pytest.raises(EngineCrash):
            engine.execute("SELECT id FROM victim")

    def test_combinators(self):
        both = RelationTrigger(["victim"]) & TagTrigger(required=["clause.order_by"])
        engine = make_engine(fault(CrashEffect(), both))
        engine.execute("SELECT id FROM victim")
        with pytest.raises(EngineCrash):
            engine.execute("SELECT id FROM victim ORDER BY id")

    def test_never_and_always(self):
        engine = make_engine(fault(CrashEffect(), RelationTrigger(["nowhere"])))
        engine.execute("SELECT id FROM victim")
        injector = FaultInjector([fault(CrashEffect(), AlwaysTrigger())])
        engine2 = Engine("t", injector=injector)
        with pytest.raises(EngineCrash):
            engine2.execute("SELECT 1")


class TestEffects:
    def test_crash_marks_engine_down(self):
        engine = make_engine(fault(CrashEffect()))
        with pytest.raises(EngineCrash):
            engine.execute("SELECT id FROM victim")
        assert engine.crashed
        with pytest.raises(EngineCrash):
            engine.execute("SELECT 1")  # still down
        engine.restart()
        assert engine.execute("SELECT id FROM bystander").rows == [(7,)]

    def test_error_effect(self):
        engine = make_engine(fault(ErrorEffect("spurious failure")))
        with pytest.raises(SqlError, match="spurious"):
            engine.execute("SELECT id FROM victim")

    def test_row_drop(self):
        engine = make_engine(fault(RowDropEffect(keep_one_in=2)))
        rows = engine.execute("SELECT id FROM victim ORDER BY id").rows
        assert len(rows) == 2  # every other row dropped

    def test_row_drop_never_empties_result(self):
        engine = make_engine(fault(RowDropEffect(keep_one_in=1)))
        rows = engine.execute("SELECT id FROM victim").rows
        assert rows  # guard against degenerate "all rows dropped"

    def test_row_duplicate(self):
        engine = make_engine(fault(RowDuplicateEffect(every=2)))
        rows = engine.execute("SELECT id FROM victim ORDER BY id").rows
        assert len(rows) == 6

    def test_value_skew_targets_column(self):
        engine = make_engine(fault(ValueSkewEffect(delta=1000.0, column=1)))
        rows = engine.execute("SELECT id, val FROM victim ORDER BY id").rows
        assert rows[0][0] == 1          # untouched column
        assert rows[0][1] == 1010.0     # skewed column

    def test_performance_effect(self):
        engine = make_engine(fault(PerformanceEffect(factor=500)))
        result = engine.execute("SELECT id FROM victim")
        assert result.virtual_cost >= 500

    def test_rowcount_skew(self):
        engine = make_engine(
            fault(RowcountSkewEffect(delta=2), RelationTrigger(["victim"], kind="update"))
        )
        result = engine.execute("UPDATE victim SET val = val + 1")
        assert result.rowcount == 6  # actually 4

    def test_behaviour_flag_consulted(self):
        engine = make_engine(
            fault(
                BehaviourFlagEffect("empty_agg_field_names"),
                RelationTrigger(["victim"]),
            )
        )
        result = engine.execute("SELECT AVG(val), SUM(val) FROM victim")
        assert result.columns == ["", ""]
        # Scoped: other tables keep proper names.
        other = engine.execute("SELECT AVG(id) FROM bystander")
        assert other.columns == ["AVG"]

    def test_performance_factor_must_inflate(self):
        with pytest.raises(ValueError):
            PerformanceEffect(factor=0.5)


class TestInjector:
    def test_enable_disable(self):
        """A fault taken out of the catalog stops firing; put back, it
        fires again."""
        spec = fault(CrashEffect())
        engine = make_engine(spec)
        engine.injector.remove("F-1")
        engine.execute("SELECT id FROM victim")
        engine.injector.add(spec)
        with pytest.raises(EngineCrash):
            engine.execute("SELECT id FROM victim")

    def test_duplicate_fault_id_rejected(self):
        injector = FaultInjector([fault(CrashEffect())])
        with pytest.raises(ValueError):
            injector.add(fault(CrashEffect()))

    def test_activation_history(self):
        engine = make_engine(fault(RowDropEffect()))
        engine.execute("SELECT id FROM victim")
        assert "F-1" in engine.injector.fired_fault_ids
        assert engine.injector.activation_counts["F-1"] == 1

    def test_multiple_faults_compose(self):
        engine = make_engine(
            fault(RowDropEffect(keep_one_in=2), fault_id="F-1"),
            fault(PerformanceEffect(200), fault_id="F-2"),
        )
        result = engine.execute("SELECT id FROM victim")
        assert len(result.rows) == 2 and result.virtual_cost >= 200

    def test_hooks_fire_in_installation_order(self):
        # The injector indexes its faults by hook; each hook still walks
        # its faults in the order they were installed, re-adds last.
        engine = make_engine(
            fault(RowDropEffect(keep_one_in=2), fault_id="F-A"),
            fault(BehaviourFlagEffect("mod_precision"), fault_id="F-FLAG"),
            fault(PerformanceEffect(5), fault_id="F-B"),
            fault(BehaviourFlagEffect("mod_precision"), fault_id="F-FLAG2"),
            fault(PerformanceEffect(7), fault_id="F-C"),
        )
        injector = engine.injector
        injector.remove("F-A")
        injector.add(fault(RowDropEffect(keep_one_in=2), fault_id="F-A"))
        injector.reset_history()
        engine.execute("SELECT id FROM victim")
        assert injector.flag("mod_precision")
        assert [(a.fault_id, a.phase) for a in injector.activations] == [
            ("F-B", "after"), ("F-C", "after"), ("F-A", "after"), ("F-FLAG", "flag"),
        ]
        injector.remove("F-FLAG")
        assert injector.flag("mod_precision")
        assert injector.activations[-1].fault_id == "F-FLAG2"


class TestHeisenbugs:
    def test_never_fires_in_normal_mode(self):
        engine = make_engine(fault(RowDropEffect(), heisenbug=True))
        for _ in range(20):
            assert len(engine.execute("SELECT id FROM victim").rows) == 4

    def test_fires_probabilistically_under_stress(self):
        spec = fault(RowDropEffect(), heisenbug=True, stress_activation=0.5)
        engine = make_engine(spec, stress=True, seed=42)
        outcomes = {len(engine.execute("SELECT id FROM victim").rows) for _ in range(50)}
        assert outcomes == {2, 4}  # sometimes fails, sometimes not

    def test_stress_activation_validated(self):
        with pytest.raises(ValueError):
            fault(RowDropEffect(), heisenbug=True, stress_activation=1.5)

    def test_deterministic_given_seed(self):
        def run(seed):
            engine = make_engine(
                fault(RowDropEffect(), heisenbug=True, stress_activation=0.5),
                stress=True,
                seed=seed,
            )
            return [len(engine.execute("SELECT id FROM victim").rows) for _ in range(10)]

        assert run(7) == run(7)
        assert run(7) != run(8) or run(7) != run(9)  # seeds matter
