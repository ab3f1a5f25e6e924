"""Query-level fallback when a solve faults.

Every LP runs on the one exact kernel (:mod:`repro.solver.core`), which
raises :class:`~repro.errors.SolverError` only on caller misuse, on its
defensive zero-pivot check, or when :mod:`repro.runtime.faults` injects
a fault.  A fault is not retried LP by LP; the whole question is
re-decided on another engine by
:func:`repro.cr.satisfiability.acceptable_with_positive`:

    fixpoint  →  naive walk, when the system has at most ``naive_limit``
                 class unknowns and :attr:`FallbackPolicy.use_naive`
    naive / pruned walk  →  fixpoint

Each engine is sound and complete, so a fallback's verdict equals the
unfaulted one.  When no fallback is left, the typed ``SolverError``
surfaces at once.  Budget exhaustion
(:class:`~repro.errors.BudgetExceededError`) is never retried: running
out of resources on one engine is no evidence that another would do
better.  Passing ``fallback=None`` disables both links.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FallbackPolicy:
    """What a faulted query may fall back to.

    ``use_naive`` gates the fixpoint's fall-back to the naive
    Theorem-3.4 walk, which is only attempted when the system has at
    most ``naive_limit`` class unknowns (checked by the caller).
    """

    use_naive: bool = True


DEFAULT_FALLBACK = FallbackPolicy()


__all__ = ["DEFAULT_FALLBACK", "FallbackPolicy"]
