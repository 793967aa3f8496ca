"""Fault effects: what a fault does when it fires.

Effects run at one of four hook points:

* ``before`` — may raise (crashes, spurious errors) before the engine
  touches the statement;
* ``after`` — may distort the already-computed result (wrong rows,
  inflated cost, skewed metadata);
* ``flag`` — never fires on its own; instead the engine consults the
  flag by name at a semantic decision point (e.g. "do I validate
  DEFAULT types?"), which is how deep semantic bugs are modelled
  without forking the engine;
* ``storage`` — mutates the encoded write-ahead-log record of a
  committed write on its way to the durability medium (torn writes,
  lost flushes, bit rot), so the restart-recovery path is itself
  under fault injection.
* ``network`` — mutates the delivery of a wire-protocol frame between
  a client and the served middleware (drop, delay, duplicate, reorder,
  corrupt, connection reset, partition), so the serving path is under
  fault injection too.  This failure class sits *outside* the paper's
  study data: the servers may all be healthy and the client still sees
  timeouts and resets, which is exactly why retried statements must be
  provably safe to re-execute (or deduplicated by sequence number).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional

from repro.errors import EngineCrash, SqlError
from repro.records import flip_payload_byte


@dataclass(frozen=True)
class NetDelivery:
    """One (possibly mutated) delivery of an encoded network frame.

    ``delay`` is extra virtual-clock units before the frame arrives;
    ``reset`` marks a connection-level failure: the frame is not
    delivered and both endpoints observe the connection as broken.
    """

    payload: bytes
    delay: float = 0.0
    reset: bool = False


class Effect:
    """Base effect."""

    phase = "after"  # 'before' | 'after' | 'flag' | 'storage' | 'network'

    def apply_before(self, ctx) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply_after(self, ctx, result):  # pragma: no cover - abstract
        raise NotImplementedError

    def apply_storage(self, ctx, payload: bytes) -> Optional[bytes]:
        """Mutate an encoded WAL record before it hits the medium;
        ``None`` means the record is dropped entirely (lost flush)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        """Rewrite one frame delivery into zero or more deliveries."""
        raise NotImplementedError  # pragma: no cover - abstract


class CrashEffect(Effect):
    """Halt the engine: the paper's *engine crash* failure class."""

    phase = "before"

    def __init__(self, detail: str = "assertion failure in query processor") -> None:
        self.detail = detail

    def apply_before(self, ctx) -> None:
        raise EngineCrash(ctx.engine.name, self.detail)


class ErrorEffect(Effect):
    """Raise a spurious SQL error: a *self-evident* failure.

    Models bugs where the server rejects valid SQL (e.g. PostgreSQL
    report 43's parse error on a nested UNION subquery).
    """

    phase = "before"

    def __init__(self, message: str, code: str = "spurious") -> None:
        self.message = message
        self.code = code

    def apply_before(self, ctx) -> None:
        raise SqlError(self.message, code=self.code)


class RowDropEffect(Effect):
    """Silently drop result rows: a non-self-evident incorrect result."""

    def __init__(self, keep_one_in: int = 2, offset: int = 0) -> None:
        if keep_one_in < 1:
            raise ValueError("keep_one_in must be >= 1")
        self.keep_one_in = keep_one_in
        self.offset = offset

    def apply_after(self, ctx, result):
        if result.kind != "select" or not result.rows:
            return result
        kept = [
            row
            for index, row in enumerate(result.rows)
            if (index + self.offset) % self.keep_one_in != 0
        ]
        if not kept and result.rows:
            kept = result.rows[1:] or result.rows[:-1]
        result.rows = kept
        result.rowcount = len(kept)
        return result


class RowDuplicateEffect(Effect):
    """Duplicate result rows (e.g. botched DISTINCT elimination)."""

    def __init__(self, every: int = 1) -> None:
        self.every = max(every, 1)

    def apply_after(self, ctx, result):
        if result.kind != "select" or not result.rows:
            return result
        rows: list[tuple] = []
        for index, row in enumerate(result.rows):
            rows.append(row)
            if index % self.every == 0:
                rows.append(row)
        result.rows = rows
        result.rowcount = len(rows)
        return result


class ValueSkewEffect(Effect):
    """Distort numeric output values: arithmetic-precision bug family.

    ``delta`` is added to every numeric value in the selected column
    (or all numeric values when ``column`` is None).  A tiny delta
    models precision loss; a large one models outright miscomputation.
    """

    def __init__(self, delta: float = 1e-7, column: Optional[int] = None) -> None:
        self.delta = delta
        self.column = column

    def apply_after(self, ctx, result):
        if result.kind != "select":
            return result

        def skew(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                if value is not None and type(value).__name__ == "Decimal":
                    return float(value) + self.delta
                return value
            return value + self.delta if isinstance(value, float) else float(value) + self.delta

        rows: list[tuple] = []
        for row in result.rows:
            if self.column is None:
                rows.append(tuple(skew(value) for value in row))
            else:
                items = list(row)
                if 0 <= self.column < len(items):
                    items[self.column] = skew(items[self.column])
                rows.append(tuple(items))
        result.rows = rows
        return result


class ConcurrencyAnomalyEffect(Effect):
    """Base class for the classic isolation-anomaly result mutations.

    The simulated engines execute a single statement stream, so a real
    data race cannot occur inside one replica; these effects model a
    *product* whose broken isolation lets one session observe another's
    in-flight state — a lost increment, an uncommitted value, a phantom
    row.  They distort read results on the faulty replica only, which
    is exactly the shape the adjudicator must out-vote and the shape
    the conflict analyzer's COMMUTES certificates must never let
    escape: a certified-commuting read touches no cell of the open
    transaction's write footprint, so no anomaly of this family can
    change its answer.
    """

    #: Which anomaly family the subclass models (AnomalyKind value).
    anomaly = ""

    @staticmethod
    def _skew_rows(result, delta: float, column: Optional[int]):
        def skew(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                if value is not None and type(value).__name__ == "Decimal":
                    return float(value) + delta
                return value
            return value + delta if isinstance(value, float) else float(value) + delta

        rows: list[tuple] = []
        for row in result.rows:
            if column is None:
                rows.append(tuple(skew(value) for value in row))
            else:
                items = list(row)
                if 0 <= column < len(items):
                    items[column] = skew(items[column])
                rows.append(tuple(items))
        result.rows = rows
        return result


class LostUpdateEffect(ConcurrencyAnomalyEffect):
    """A committed increment vanished: reads return pre-update values."""

    anomaly = "lost_update"

    def __init__(self, delta: float = 1.0, column: Optional[int] = None) -> None:
        self.delta = delta
        self.column = column

    def apply_after(self, ctx, result):
        if result.kind != "select" or not result.rows:
            return result
        return self._skew_rows(result, -self.delta, self.column)


class DirtyReadEffect(ConcurrencyAnomalyEffect):
    """Reads observe another transaction's uncommitted write."""

    anomaly = "dirty_read"

    def __init__(self, delta: float = 1.0, column: Optional[int] = None) -> None:
        self.delta = delta
        self.column = column

    def apply_after(self, ctx, result):
        if result.kind != "select" or not result.rows:
            return result
        return self._skew_rows(result, self.delta, self.column)


class PhantomRowEffect(ConcurrencyAnomalyEffect):
    """A predicate scan returns a row no committed state contains."""

    anomaly = "phantom"

    def __init__(self, key_offset: int = 100000) -> None:
        self.key_offset = key_offset

    def apply_after(self, ctx, result):
        if result.kind != "select" or not result.rows:
            return result
        phantom = list(result.rows[-1])
        for index, value in enumerate(phantom):
            if isinstance(value, int) and not isinstance(value, bool):
                phantom[index] = value + self.key_offset
                break
        result.rows = list(result.rows) + [tuple(phantom)]
        result.rowcount = len(result.rows)
        return result


class PerformanceEffect(Effect):
    """Inflate the virtual execution cost: a *performance* failure.

    The study classifier compares ``virtual_cost`` against a threshold,
    so no wall-clock sleeping is needed.
    """

    def __init__(self, factor: float = 1000.0) -> None:
        if factor <= 1.0:
            raise ValueError("a performance fault must inflate cost")
        self.factor = factor

    def apply_after(self, ctx, result):
        result.virtual_cost *= self.factor
        return result


class HangEffect(Effect):
    """The replica never returns: the *hang* flavour of a performance
    failure (the paper's self-evident "server too slow to respond"
    class taken to its limit).

    In the virtual-cost world a hang is an answer of infinite cost: no
    finite statement deadline is ever met, so the middleware's watchdog
    is the only component that can represent it.  Without a deadline the
    answer still exists (the simulation stays synchronous) but any
    cost-based check sees an unbounded straggler.
    """

    def __init__(self, detail: str = "query never returns") -> None:
        self.detail = detail

    def apply_after(self, ctx, result):
        result.virtual_cost = float("inf")
        return result


class StallEffect(Effect):
    """Return only after a long virtual-cost delay: a *stall*.

    Unlike :class:`PerformanceEffect` (multiplicative slow-down), a
    stall adds a fixed ``delay`` of virtual cost — the replica blocks on
    something (lock queue, I/O storm) and then answers correctly.  With
    ``once=True`` the stall is transient: it fires on the first
    triggered statement only, so a deadline-driven statement retry can
    save the replica (the Heisenbug analogue for performance faults).
    """

    def __init__(self, delay: float = 1000.0, *, once: bool = False) -> None:
        if delay <= 0:
            raise ValueError("a stall must add positive virtual cost")
        self.delay = delay
        self.once = once
        self._fired = False

    def apply_after(self, ctx, result):
        if self.once and self._fired:
            return result
        self._fired = True
        result.virtual_cost += self.delay
        return result


class ScanOrderEffect(Effect):
    """Return the correct rows in a different physical order.

    Not a bug at all when the query has no ORDER BY — SQL leaves the
    order unspecified, and two correct products routinely disagree on it
    (different access paths, different optimisers).  This effect models
    that benign divergence so the middleware can be tested against it:
    ordered comparison would flag a false disagreement, multiset voting
    (driven by the static analyzer's UNORDERED verdict) must not.  On a
    query that *does* carry a total ORDER BY the same effect becomes a
    genuine ordering bug, which ordered comparison must still catch.
    """

    def __init__(self, mode: str = "reverse") -> None:
        if mode not in ("reverse", "rotate"):
            raise ValueError("mode must be 'reverse' or 'rotate'")
        self.mode = mode

    def apply_after(self, ctx, result):
        if result.kind != "select" or len(result.rows) < 2:
            return result
        if self.mode == "reverse":
            result.rows = list(reversed(result.rows))
        else:
            result.rows = list(result.rows[1:]) + [result.rows[0]]
        return result


class RowcountSkewEffect(Effect):
    """Report a wrong rowcount while returning correct rows.

    Models the paper's "Other" failure class: anomalies that are not
    wrong data, crashes, or slowness (e.g. bogus status information).
    """

    def __init__(self, delta: int = 1) -> None:
        self.delta = delta

    def apply_after(self, ctx, result):
        result.rowcount = max(result.rowcount + self.delta, 0)
        return result


class DialectRenderEffect(Effect):
    """Render SELECT values the way a dialect legitimately would.

    Not a bug: models the product-specific *representations* the paper's
    middleware had to normalize away — CHAR blank-padding, DATE values
    carrying a midnight time component, exact numerics rendered at
    canonical scale.  Seeding it on the replicas whose
    :data:`~repro.analysis.divergence.PROFILES` entry carries the
    behaviour lets tests measure comparator false alarms: with the
    divergence analyzer on, a raw-mode comparator must label the
    resulting disagreements ``benign_dialect``, never
    ``fault_indicating``.
    """

    def __init__(self, mode: str, width: int = 8) -> None:
        if mode not in ("pad", "rstrip", "strip-scale", "datetime"):
            raise ValueError(
                "mode must be 'pad', 'rstrip', 'strip-scale', or 'datetime'"
            )
        self.mode = mode
        self.width = width

    def _render(self, value):
        import datetime
        from decimal import Decimal

        if self.mode == "pad" and isinstance(value, str):
            return value.rstrip().ljust(self.width)
        if self.mode == "rstrip" and isinstance(value, str):
            return value.rstrip()
        if self.mode == "strip-scale" and isinstance(value, Decimal):
            normalized = value.normalize()
            # Decimal('1E+1') style output would be a different value
            # *rendering* bug; keep plain notation.
            return normalized.quantize(1) if normalized == normalized.to_integral_value() else normalized
        if (
            self.mode == "datetime"
            and isinstance(value, datetime.date)
            and not isinstance(value, datetime.datetime)
        ):
            return datetime.datetime(value.year, value.month, value.day)
        return value

    def apply_after(self, ctx, result):
        if result.kind == "select":
            result.rows = [
                tuple(self._render(value) for value in row) for row in result.rows
            ]
        return result


class StorageEffect(Effect):
    """Base for effects that corrupt the durability write path.

    Storage effects fire when the middleware appends a committed write
    to a replica's WAL: the trigger is matched against the statement
    being logged, and :meth:`apply_storage` receives the already
    encoded record bytes (length + CRC32 + payload).  They model the
    classic disk failure modes — and because the WAL scan distrusts
    everything past the first invalid record, each one exercises a
    distinct branch of the recovery contract.
    """

    phase = "storage"

    def apply_before(self, ctx) -> None:  # pragma: no cover - never called
        return None

    def apply_after(self, ctx, result):  # pragma: no cover - never called
        return result


class TornWriteEffect(StorageEffect):
    """Persist only a prefix of the record: a write torn by power loss.

    ``keep_fraction`` of the encoded bytes (at least one, never all)
    survive.  Recovery detects the truncated header/payload and
    discards the record and everything after it.
    """

    def __init__(self, keep_fraction: float = 0.5) -> None:
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be within [0, 1]")
        self.keep_fraction = keep_fraction

    def apply_storage(self, ctx, payload: bytes) -> Optional[bytes]:
        keep = int(len(payload) * self.keep_fraction)
        keep = max(1, min(keep, len(payload) - 1))
        return payload[:keep]


class LostFlushEffect(StorageEffect):
    """Drop the record entirely: an acknowledged-but-unflushed write.

    The LSN still advances (the statement committed), so the log is
    left with a sequence gap; recovery stops redo at the gap rather
    than replaying a history with a hole in it.
    """

    def apply_storage(self, ctx, payload: bytes) -> Optional[bytes]:
        return None


class ChecksumCorruptionEffect(StorageEffect):
    """Flip bits inside the payload after the CRC was computed: bit
    rot / a misdirected write.  The record length still parses, but
    the checksum mismatch is detected and the record discarded.
    """

    def __init__(self, offset: int = 0, xor: int = 0x40) -> None:
        if xor & 0xFF == 0:
            raise ValueError("xor mask must change at least one bit")
        self.offset = offset
        self.xor = xor & 0xFF

    def apply_storage(self, ctx, payload: bytes) -> Optional[bytes]:
        return flip_payload_byte(payload, self.offset, self.xor)


class NetworkEffect(Effect):
    """Base for effects that disturb wire-protocol frame delivery.

    Network effects fire when the simulated transport moves an encoded
    frame between a client and the served middleware: the trigger is
    matched against a :class:`repro.net.transport.NetworkContext`
    describing the frame (direction, message type, carried SQL), and
    :meth:`apply_network` rewrites the delivery.  One frame may become
    zero deliveries (drop), one delayed delivery, several (duplicate),
    or a connection reset.
    """

    phase = "network"

    def apply_before(self, ctx) -> None:  # pragma: no cover - never called
        return None

    def apply_after(self, ctx, result):  # pragma: no cover - never called
        return result


class DropFrameEffect(NetworkEffect):
    """The frame vanishes: a lost datagram / silently dropped packet.

    With ``count`` set, only the first ``count`` triggered frames are
    dropped (a transient loss burst); ``None`` drops every one.
    """

    def __init__(self, count: Optional[int] = None) -> None:
        if count is not None and count < 1:
            raise ValueError("count must be >= 1 (or None for always)")
        self.count = count
        self._dropped = 0

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        if self.count is not None and self._dropped >= self.count:
            return [delivery]
        self._dropped += 1
        return []


class DelayFrameEffect(NetworkEffect):
    """Deliver the frame late: queueing delay / a slow path.

    Adds ``delay`` virtual-clock units to the delivery time.  A delay
    beyond the client's request timeout is indistinguishable from loss
    on the send side — which is why the session layer must deduplicate
    the retry that follows."""

    def __init__(self, delay: float = 8.0) -> None:
        if delay <= 0:
            raise ValueError("a delay must add positive latency")
        self.delay = delay

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        return [replace(delivery, delay=delivery.delay + self.delay)]


class DuplicateFrameEffect(NetworkEffect):
    """Deliver the frame twice: retransmission without suppression.

    The copy arrives ``gap`` units after the original.  A duplicated
    *request* must not double-apply a write — the server's per-session
    sequence dedupe is the defence this effect exists to test."""

    def __init__(self, gap: float = 1.0) -> None:
        if gap < 0:
            raise ValueError("the duplicate gap must be non-negative")
        self.gap = gap

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        return [delivery, replace(delivery, delay=delivery.delay + self.gap)]


class ReorderFrameEffect(NetworkEffect):
    """Hold the frame back so frames sent after it overtake it.

    Mechanically a delay of ``hold`` units, but scoped (by its trigger)
    to individual frames, which is what produces reordering relative to
    unmatched traffic on the same connection."""

    def __init__(self, hold: float = 3.0) -> None:
        if hold <= 0:
            raise ValueError("the hold-back must be positive")
        self.hold = hold

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        return [replace(delivery, delay=delivery.delay + self.hold)]


class CorruptFrameEffect(NetworkEffect):
    """Flip bits inside the encoded frame: line noise / a bad NIC.

    The frame header still parses but the CRC check fails on receipt;
    the receiver must treat the connection as broken (it can no longer
    trust the stream's framing) — the wire analogue of
    :class:`ChecksumCorruptionEffect`."""

    def __init__(
        self, offset: int = 0, xor: int = 0x40, count: Optional[int] = None
    ) -> None:
        if xor & 0xFF == 0:
            raise ValueError("xor mask must change at least one bit")
        self.offset = offset
        self.xor = xor & 0xFF
        self.count = count
        self._corrupted = 0

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        if self.count is not None and self._corrupted >= self.count:
            return [delivery]
        self._corrupted += 1
        return [
            replace(
                delivery,
                payload=flip_payload_byte(delivery.payload, self.offset, self.xor),
            )
        ]


class ConnectionResetEffect(NetworkEffect):
    """Tear the connection down instead of delivering the frame.

    Both endpoints observe the reset; in-flight frames on the
    connection are lost.  Sessions survive resets (they live at the
    session layer, not the connection layer) until their idle deadline
    expires, so a reconnecting client can resume and deduplicate.

    With ``count`` set, only the first ``count`` triggered frames reset
    (a flaky path that then heals); ``None`` resets every one.
    """

    def __init__(self, count: Optional[int] = None) -> None:
        if count is not None and count < 1:
            raise ValueError("count must be >= 1 (or None for always)")
        self.count = count
        self._fired = 0

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        if self.count is not None and self._fired >= self.count:
            return [delivery]
        self._fired += 1
        return [replace(delivery, reset=True)]


class PartitionEffect(NetworkEffect):
    """Drop *all* matched traffic for a window of virtual time.

    The partition starts when the first matched frame passes through
    and heals ``duration`` clock units later; frames inside the window
    vanish (in both directions, if the fault's trigger matches both).
    Models a transient network partition between client and middleware.
    """

    def __init__(self, duration: float = 32.0) -> None:
        if duration <= 0:
            raise ValueError("a partition must last a positive duration")
        self.duration = duration
        self._started_at: Optional[float] = None

    def apply_network(self, ctx, delivery: NetDelivery) -> List[NetDelivery]:
        now = getattr(ctx, "now", 0.0)
        if self._started_at is None:
            self._started_at = now
        if now < self._started_at + self.duration:
            return []
        return [delivery]


class BehaviourFlagEffect(Effect):
    """Expose a named behaviour flag the engine consults internally.

    The fault does nothing at the statement hook points; instead
    ``Engine`` components ask ``ctx.flag(name)`` at semantic decision
    points (DEFAULT validation, DROP TABLE on views, aggregate column
    naming, MOD precision, ...).
    """

    phase = "flag"

    def __init__(self, flag: str) -> None:
        self.flag = flag

    def apply_before(self, ctx) -> None:  # pragma: no cover - never called
        return None

    def apply_after(self, ctx, result):  # pragma: no cover - never called
        return result


class PlanStageBugEffect(BehaviourFlagEffect):
    """A wrong-result bug inside the *compiled plan* executor only.

    Sets the ``plan_filter_truncates`` flag, which the physical plan's
    filter stage consults (it silently drops the last row of the scan
    batch).  The tree-walker never reads the flag, so the same
    statement on the same replica answers differently depending on the
    execution strategy — exactly the fault class the dual-plan oracle
    (``ServerConfig.dual_plan``) exists to catch, and one that
    cross-replica voting misses when every replica runs the planner.
    """

    def __init__(self) -> None:
        super().__init__("plan_filter_truncates")


class PredicateFoldBugEffect(BehaviourFlagEffect):
    """A three-valued-logic bug: ``NOT UNKNOWN`` evaluates to TRUE.

    Sets the ``fold_not_unknown_true`` flag, consulted by both the
    tree-walker and the compiled NOT closures — so *every* executor on
    the replica agrees on the wrong answer and neither cross-replica
    voting (single replica) nor the dual-plan oracle sees anything.
    The static TLP oracle does: rows where ``p`` is UNKNOWN land in
    both the ``NOT p`` and the ``p IS NULL`` partition, so the
    partition union over-counts the base result.
    """

    def __init__(self) -> None:
        super().__init__("fold_not_unknown_true")


class PartitionDropBugEffect(BehaviourFlagEffect):
    """A NULL-test bug: ``IS NULL`` over a *composite* expression
    (anything but a bare column, literal, or parameter) answers FALSE
    even when the value is NULL.

    Sets the ``isnull_composite_false`` flag, consulted by both
    executors.  Bare-column NULL tests — the overwhelmingly common form
    in the corpus — stay correct, so the fault hides from ordinary
    workloads and from any oracle that never writes a composite NULL
    test.  The TLP oracle always does: its third partition is
    ``(p) IS NULL``, which under this fault returns no rows, so the
    partition union under-counts the base result wherever ``p`` goes
    UNKNOWN.
    """

    def __init__(self) -> None:
        super().__init__("isnull_composite_false")
