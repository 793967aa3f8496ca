"""Failures of the serving layer's network path.

All derive from :class:`repro.errors.NetworkError`, so consumers that
only care about "the network failed me" (the workload runner's outage
accounting) need a single except clause, while the session supervisor
distinguishes the retryable flavours from the terminal ones.
"""

from __future__ import annotations

from repro.errors import NetworkError


class NetTimeout(NetworkError):
    """No response arrived within the client's request timeout.

    Ambiguous by construction: the request may have been lost before
    the server saw it, or executed with its response lost.  Resolving
    that ambiguity is the whole point of per-session sequence numbers —
    a resend with the same sequence either executes fresh or returns
    the deduplicated cached answer, never both.
    """


class ConnectionLost(NetworkError):
    """The connection reset (peer reset, corrupt frame, closed port)."""


class ProtocolViolation(NetworkError):
    """The peer sent a frame the protocol does not allow here."""


class SessionExpired(NetworkError):
    """The server no longer holds this session (idle deadline passed).

    Resuming is impossible: the per-session dedupe state is gone, so an
    in-flight statement's fate is unknowable.  The session supervisor
    opens a fresh session and re-submits only statements the static
    analyzer proved re-execution-safe.
    """


class ServerOverloaded(NetworkError):
    """Admission control shed this request (or session) — retryable.

    The server answered, but with a load-shedding rejection instead of
    a result: the backlog passed the hard threshold, the session table
    is full, or a parked statement out-waited its queue deadline.
    """


class RetryUnsafe(NetworkError):
    """An ambiguous statement could not be safely retried.

    Raised by the session supervisor when the session was lost with a
    statement in flight that the analyzer could *not* prove
    re-execution-safe: resending might double-apply it, so the failure
    is surfaced to the caller instead (who can inspect state and decide
    — the one case where exactly-once needs a human).
    """
