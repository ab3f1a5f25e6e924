"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while programming mistakes (``TypeError`` and friends)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A CR-schema (or a front-end schema) is structurally ill-formed.

    Examples: a relationship with fewer than two roles, a role shared by
    two relationships, a cardinality declared for a class that is not a
    subclass of the role's primary class, ``minc`` exceeding ``maxc`` on
    the same declaration.
    """


class UnknownSymbolError(SchemaError):
    """A class, relationship, or role name is not declared in the schema."""


class DuplicateSymbolError(SchemaError):
    """A class, relationship, or role name is declared more than once."""


class InterpretationError(ReproError):
    """An interpretation is not well-formed with respect to its schema.

    This is distinct from the interpretation merely *violating* the
    schema's constraints: constraint violations are reported by the model
    checker as :class:`repro.cr.checker.Violation` values, whereas this
    exception signals data that cannot even be evaluated (for instance, a
    relationship tuple whose roles do not match the relationship's
    signature).
    """


class SolverError(ReproError):
    """The linear-arithmetic substrate was used incorrectly.

    Examples: mixing unknowns from different systems, asking the simplex
    for a certificate before solving, non-homogeneous input to a routine
    that requires a homogeneous system.
    """


class LimitExceededError(ReproError):
    """A configured resource limit was exceeded.

    This is *not* a bug or a usage error: the input is simply larger
    than the caller allowed for.  Distinguishing it from the other
    :class:`ReproError` subclasses lets callers degrade gracefully
    (report an UNKNOWN verdict, retry with larger limits) instead of
    treating the failure as fatal.
    """


class BudgetExceededError(LimitExceededError):
    """A :class:`repro.runtime.Budget` ran out mid-computation.

    ``snapshot`` (a :class:`repro.runtime.ProgressSnapshot` when raised
    by the runtime layer) records how far the computation got: the
    phase, the number of expansion nodes visited, the LPs solved, the
    simplex pivots performed, and the elapsed wall-clock time.
    """

    def __init__(self, message: str, snapshot: object | None = None) -> None:
        super().__init__(message)
        self.snapshot = snapshot


class CancelledError(BudgetExceededError):
    """The computation was cooperatively cancelled via ``Budget.cancel()``."""


class StoreError(ReproError):
    """The persistent artifact store was used incorrectly.

    Examples: a fingerprint or kind containing path separators, a store
    root that is a regular file.  *Damaged data* is never reported this
    way to callers — corrupt entries are quarantined and read as misses
    (see :class:`StoreIntegrityError`, which the store raises and
    catches internally).
    """


class StoreIntegrityError(StoreError):
    """A stored entry failed validation on read.

    ``reason`` is a stable machine-readable tag (``"truncated-header"``,
    ``"magic"``, ``"format-version"``, ``"artifact-version"``,
    ``"truncated-payload"``, ``"trailing-garbage"``, ``"checksum"``,
    ``"undecodable"``, ``"key-mismatch"``) — it becomes part of the
    quarantined file's name so ``repro cache quarantine list`` can
    report why each entry was pulled.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class StoreLockTimeout(StoreError):
    """An advisory store lock stayed contended past the bounded retry.

    Writers treat this as a degraded no-op (the cache write is skipped
    and counted, never fatal); it is a distinct type so tests can
    assert the contention path specifically.
    """


class ParseError(ReproError):
    """The schema DSL text could not be parsed.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
