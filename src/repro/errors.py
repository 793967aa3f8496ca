"""Shared exception hierarchy for the whole library.

Every error raised by the SQL engine, the dialect layer, the fault
injector, or the middleware derives from :class:`ReproError`.  The study
harness classifies outcomes by catching these types, so the hierarchy is
part of the public API:

* :class:`SqlError` — anything the engine signals to a client as an SQL
  error message.  These are *self-evident* failures in the paper's
  terminology when they occur where the standard says no error should
  occur, and correct behaviour when the input is genuinely invalid.
* :class:`EngineCrash` — the engine process "dying": not an error message
  but a halt.  Maps to the paper's *engine crash* failure class.
* :class:`FeatureNotSupported` — the statement uses a feature absent from
  the server's SQL dialect.  Maps to the paper's *bug script cannot be
  run (functionality missing)* row.
* :class:`TranslationPending` — the dialect translator recognises the
  feature but has no rewrite for the target dialect.  Maps to the
  paper's *further work* row.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SqlError(ReproError):
    """An SQL-level error reported to the client with a message.

    Parameters
    ----------
    message:
        Human-readable error text, in the style of the originating
        server product.
    code:
        A short machine-readable code such as ``"syntax"`` or
        ``"constraint"``.
    """

    default_code = "error"

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.code = code or self.default_code


class LexError(SqlError):
    """Tokeniser failure (malformed literal, stray character)."""

    default_code = "syntax"


class ParseError(SqlError):
    """Grammar-level failure."""

    default_code = "syntax"


class BindError(SqlError):
    """Name-resolution failure: unknown table, column, or function."""

    default_code = "bind"


class CatalogError(SqlError):
    """Schema-object management failure (duplicate table, missing view...)."""

    default_code = "catalog"


class TypeMismatch(SqlError):
    """A value or expression has a type incompatible with its context."""

    default_code = "type"


class ConstraintViolation(SqlError):
    """Primary key, NOT NULL, CHECK, or UNIQUE constraint failure."""

    default_code = "constraint"


class TransactionError(SqlError):
    """Illegal transaction-control sequence (e.g. COMMIT with no BEGIN)."""

    default_code = "transaction"


class DivisionByZero(SqlError):
    """SQL arithmetic division by zero."""

    default_code = "arithmetic"


class NumericOverflow(SqlError):
    """A numeric result outside the finite range.  SQL has no NaN or
    infinity, so an operation that would produce one is refused."""

    default_code = "arithmetic"


class FeatureNotSupported(ReproError):
    """The statement needs a dialect feature this server does not offer.

    This is *not* a failure: the paper classifies such bug scripts as
    "cannot be run (functionality missing)" — dialect-specific bugs.
    """

    def __init__(self, feature: str, server: str | None = None) -> None:
        target = f" by server {server!r}" if server else ""
        super().__init__(f"feature {feature!r} is not supported{target}")
        self.feature = feature
        self.server = server


class TranslationPending(ReproError):
    """The translator cannot yet rewrite a script for the target dialect.

    Maps to the paper's "further work" row in Table 1.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class EngineCrash(ReproError):
    """The simulated server's core engine crashed or halted.

    Raised by injected faults whose effect class is ``crash``.  The
    middleware treats this as a replica failure, never as a client
    error.
    """

    def __init__(self, server: str, detail: str) -> None:
        super().__init__(f"engine crash in {server}: {detail}")
        self.server = server
        self.detail = detail


class NetworkError(ReproError):
    """Base for failures of the serving layer's network path.

    Raised by :mod:`repro.net` when the wire between a client and the
    served middleware misbehaves (timeouts, resets, shed load) rather
    than any replica.  Defined here so transport-agnostic consumers
    (the workload runner) can classify these failures without importing
    the serving package.
    """


class MiddlewareError(ReproError):
    """Raised by the diverse-redundancy middleware itself."""


class AdjudicationFailure(MiddlewareError):
    """The adjudicator could not produce a trustworthy answer.

    Raised when replicas disagree and no quorum exists (detection
    without masking), which the middleware surfaces rather than
    returning a possibly-wrong result.
    """

    def __init__(self, message: str, disagreement: object = None) -> None:
        super().__init__(message)
        self.disagreement = disagreement


class NoReplicasAvailable(MiddlewareError):
    """All replicas are failed or suspected; service is unavailable."""


class StatementTimeout(MiddlewareError):
    """No replica answered within the statement deadline budget.

    The watchdog equivalent of :class:`NoReplicasAvailable`: every
    active replica either hung or stalled past the configured deadline,
    so the middleware has no within-budget answer to adjudicate on.  A
    *self-evident* performance failure in the paper's taxonomy.
    """

    def __init__(self, message: str, *, deadline: float = 0.0) -> None:
        super().__init__(message)
        self.deadline = deadline
