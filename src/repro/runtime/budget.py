"""Resource budgets for the decision pipeline.

The paper proves the expansion step is inherently exponential (compound
classes range over subsets of the class set, and Theorem 3.4's zero-set
enumeration is exponential on top of that), so on large or adversarial
schemas the reasoner must be able to *stop* — bounded in wall-clock
time and in work performed — rather than hang.  This module provides
the primitive that makes that possible:

:class:`Budget`
    A mutable account of the resources a computation may spend: a
    wall-clock timeout, a cap on expansion nodes visited, a cap on LP
    solver calls, a cap on simplex pivots, and a cooperative
    :meth:`~Budget.cancel` token.  The hot loops of the pipeline
    (expansion enumeration, the satisfiability fixpoint, simplex
    pivoting, Fourier–Motzkin elimination) charge the *ambient* budget
    as they work; exhaustion raises
    :class:`~repro.errors.BudgetExceededError` carrying a structured
    :class:`ProgressSnapshot`.

Budgets are installed ambiently (a :mod:`contextvars` variable) so that
the deep hot loops need no signature changes and third-party entry
points (the CLI, the debugging extractor) are governed for free::

    budget = Budget(timeout=10.0, max_expansion_nodes=100_000)
    with activate(budget):
        result = is_class_satisfiable(schema, "Speaker")

Public entry points also accept ``budget=`` directly and then degrade
to an UNKNOWN verdict instead of raising — see
:func:`repro.cr.satisfiability.is_class_satisfiable`.

Time is read through an injectable ``clock`` (default
:func:`time.monotonic`) so the timeout path is deterministic under
test.  Checks are cheap: counters are plain integer increments, the
cancellation flag is a bool read, and the clock is consulted only every
128 charges (plus at every coarse-grained point such as an LP call).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator, TypeVar

from repro.errors import BudgetExceededError, CancelledError, ReproError

_T = TypeVar("_T")

_TICK_MASK = 0x7F
"""Consult the clock once per ``_TICK_MASK + 1`` fine-grained charges."""


@dataclass(frozen=True)
class ProgressSnapshot:
    """How far a governed computation got when its budget ran out.

    ``reason`` names the exhausted resource: ``"timeout"``,
    ``"expansion-nodes"``, ``"solver-calls"``, ``"pivots"``, or
    ``"cancelled"``.  ``phase`` is the pipeline stage that was running
    (``"expansion"``, ``"system"``, ``"decide:fixpoint"``, ...).
    """

    phase: str
    reason: str
    elapsed: float
    expansion_nodes: int
    solver_calls: int
    pivots: int

    def pretty(self) -> str:
        return (
            f"{self.reason} in phase {self.phase!r} after "
            f"{self.elapsed:.3f}s ({self.expansion_nodes} expansion nodes, "
            f"{self.solver_calls} LPs, {self.pivots} pivots)"
        )


class Budget:
    """A resource account charged cooperatively by the decision pipeline.

    Parameters
    ----------
    timeout:
        Wall-clock seconds the computation may run (``None`` =
        unlimited).  ``timeout=0`` exhausts at the first check.
    max_expansion_nodes:
        Cap on expansion work: nodes visited by the consistent-compound
        DFS plus compound classes/relationships materialised.
    max_solver_calls:
        Cap on LP solves (simplex runs plus Fourier–Motzkin runs).
    max_pivots:
        Cap on fine-grained solver work: simplex pivots plus
        Fourier–Motzkin constraint combinations.
    clock:
        Monotonic time source; injectable for deterministic tests.

    A budget is reusable only in the sense that its counters persist
    across the calls it governs — sequential calls under the same
    budget share one account.  ``cancel()`` may be called from another
    thread; the working thread notices at its next charge.
    """

    def __init__(
        self,
        timeout: float | None = None,
        max_expansion_nodes: int | None = None,
        max_solver_calls: int | None = None,
        max_pivots: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        for name, value in (
            ("timeout", timeout),
            ("max_expansion_nodes", max_expansion_nodes),
            ("max_solver_calls", max_solver_calls),
            ("max_pivots", max_pivots),
        ):
            if value is not None and value < 0:
                raise ReproError(f"{name} must be non-negative, got {value!r}")
        self.timeout = timeout
        self.max_expansion_nodes = max_expansion_nodes
        self.max_solver_calls = max_solver_calls
        self.max_pivots = max_pivots
        self.expansion_nodes = 0
        self.solver_calls = 0
        self.pivots = 0
        self.phase = "idle"
        self._clock = clock
        self._started: float | None = None
        self._cancelled = False
        self._ticks = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Anchor the wall clock; idempotent (first activation wins)."""
        if self._started is None:
            self._started = self._clock()

    def cancel(self) -> None:
        """Cooperatively cancel: the governed computation stops at its
        next budget check with a :class:`~repro.errors.CancelledError`."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def enter_phase(self, name: str) -> None:
        """Record the pipeline stage (for snapshots) and run a full check."""
        self.phase = name
        self.check()

    # -- charging ----------------------------------------------------------

    def check(self) -> None:
        """Full check: cancellation and deadline.  Coarse-grained sites
        (phase entries, fixpoint iterations, LP calls) call this every
        time; fine-grained sites go through the cheaper charge methods."""
        if self._cancelled:
            self._exhaust("cancelled")
        if self.timeout is not None and self.elapsed() >= self.timeout:
            self._exhaust("timeout")

    def charge_expansion(self, nodes: int = 1) -> None:
        """Account for expansion work (DFS nodes, materialised compounds)."""
        self.expansion_nodes += nodes
        if (
            self.max_expansion_nodes is not None
            and self.expansion_nodes > self.max_expansion_nodes
        ):
            self._exhaust("expansion-nodes")
        self._tick()

    def charge_solver_call(self) -> None:
        """Account for one LP solve (simplex or Fourier–Motzkin run)."""
        self.solver_calls += 1
        if (
            self.max_solver_calls is not None
            and self.solver_calls > self.max_solver_calls
        ):
            self._exhaust("solver-calls")
        self.check()

    def charge_pivots(self, count: int = 1) -> None:
        """Account for fine-grained solver work (pivots, FM combinations)."""
        self.pivots += count
        if self.max_pivots is not None and self.pivots > self.max_pivots:
            self._exhaust("pivots")
        self._tick()

    def _tick(self) -> None:
        if self._cancelled:
            self._exhaust("cancelled")
        self._ticks += 1
        if (self._ticks & _TICK_MASK) == 0:
            if self.timeout is not None and self.elapsed() >= self.timeout:
                self._exhaust("timeout")

    # -- reporting ---------------------------------------------------------

    def snapshot(self, reason: str = "in-progress") -> ProgressSnapshot:
        return ProgressSnapshot(
            phase=self.phase,
            reason=reason,
            elapsed=self.elapsed(),
            expansion_nodes=self.expansion_nodes,
            solver_calls=self.solver_calls,
            pivots=self.pivots,
        )

    def _exhaust(self, reason: str) -> None:
        snapshot = self.snapshot(reason)
        error_type = (
            CancelledError if reason == "cancelled" else BudgetExceededError
        )
        raise error_type(f"budget exhausted: {snapshot.pretty()}", snapshot)

    def __repr__(self) -> str:
        caps = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("timeout", self.timeout),
                ("max_expansion_nodes", self.max_expansion_nodes),
                ("max_solver_calls", self.max_solver_calls),
                ("max_pivots", self.max_pivots),
            )
            if value is not None
        )
        return f"Budget({caps or 'unlimited'}; {self.snapshot().pretty()})"


BUDGET_CAP_KEYS: dict[str, str] = {
    "timeout": "timeout",
    "max_expansion": "max_expansion_nodes",
    "max_lp": "max_solver_calls",
    "max_pivots": "max_pivots",
}
"""The externally-visible cap names (matching the CLI's ``--timeout`` /
``--max-expansion`` / ``--max-lp`` flags) mapped to :class:`Budget`
constructor keywords.  :func:`budget_from_caps` validates against this
table; the serve daemon uses it to turn a request's ``budget`` object
into the same governance the CLI flags produce."""


def budget_from_caps(caps: Mapping[str, Any] | None) -> Budget | None:
    """A :class:`Budget` from a mapping of CLI-named caps, or ``None``.

    ``caps`` uses the surface names of :data:`BUDGET_CAP_KEYS` — exactly
    the vocabulary of the CLI resource flags — so a JSON request body
    like ``{"timeout": 5, "max_lp": 100}`` maps onto the same
    degrade-to-UNKNOWN governance ``repro batch --timeout 5 --max-lp
    100`` gets.  ``None``-valued and absent caps are unlimited; an
    empty or ``None`` mapping yields no budget at all.  Unknown keys and
    non-numeric values raise :class:`~repro.errors.ReproError` (the
    usage-error class, exit code 2 / HTTP 400), as does a negative cap
    via the :class:`Budget` constructor.
    """
    if caps is None:
        return None
    if not isinstance(caps, Mapping):
        raise ReproError(
            f"budget must be an object of caps, got {caps!r}"
        )
    kwargs: dict[str, float | int] = {}
    for key, value in caps.items():
        target = BUDGET_CAP_KEYS.get(key)
        if target is None:
            raise ReproError(
                f"unknown budget cap {key!r}; expected one of "
                f"{sorted(BUDGET_CAP_KEYS)}"
            )
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ReproError(
                f"budget cap {key!r} must be a number, got {value!r}"
            )
        if target != "timeout" and not isinstance(value, int):
            raise ReproError(
                f"budget cap {key!r} must be an integer, got {value!r}"
            )
        kwargs[target] = value
    if not kwargs:
        return None
    return Budget(**kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Ambient installation
# ---------------------------------------------------------------------------

_ACTIVE: ContextVar[Budget | None] = ContextVar(
    "repro_active_budget", default=None
)


def current_budget() -> Budget | None:
    """The budget governing the current context, or ``None``.

    Hot loops fetch this once per call and charge it if present; the
    ``None`` fast path costs a single attribute check per iteration.
    """
    return _ACTIVE.get()


@contextmanager
def activate(budget: Budget | None) -> Iterator[Budget | None]:
    """Install ``budget`` as the ambient budget for the enclosed block.

    ``activate(None)`` is a no-op (the enclosing budget, if any, stays
    in force).  Nested activations shadow the outer budget for the
    inner block.
    """
    if budget is None:
        yield None
        return
    budget.start()
    token = _ACTIVE.set(budget)
    try:
        yield budget
    finally:
        _ACTIVE.reset(token)


def run_governed(
    budget: Budget | None,
    compute: Callable[[], _T],
    degrade: Callable[[BudgetExceededError], _T],
) -> _T:
    """Run ``compute`` under ``budget``, degrading on exhaustion.

    This is the common shape of every governed public entry point: with
    an explicit ``budget`` the caller asked for graceful degradation,
    so exhaustion becomes ``degrade(error)`` (an UNKNOWN-verdict
    result); without one, any :class:`BudgetExceededError` raised by an
    *ambient* budget propagates unchanged so the outermost governed
    caller handles it exactly once.
    """
    with activate(budget):
        try:
            return compute()
        except BudgetExceededError as error:
            if budget is None:
                raise
            return degrade(error)


__all__ = [
    "BUDGET_CAP_KEYS",
    "Budget",
    "ProgressSnapshot",
    "activate",
    "budget_from_caps",
    "current_budget",
    "run_governed",
]
