"""The staged pipeline IR: Normalize → Decompose → Analyze → Expand → BuildSystem → Solve → Verdict → Combine.

Every decision procedure in the library runs the same conceptual
pipeline:

==============  ==========================================================
``normalize``   parse / validate the input schema (the CLI's DSL front
                door; programmatic callers usually arrive normalized)
``decompose``   split the schema along its constraint-graph islands
                (:mod:`repro.components`); the stages below then run
                once per touched component instead of once per schema
``analyze``     the polynomial-time static battery (:mod:`repro.analysis`);
                an ``error`` diagnostic short-circuits everything below
``expand``      the Section-3.1 expansion ``S̄`` (the exponential step)
``build-system``  generate the interned disequation system ``Ψ_S``
``solve``       the acceptability fixpoint / naive enumeration — all LP
                work lives here
``verdict``     read the answer off the support, build witnesses and
                counter-models
``combine``     fold per-component verdicts into the whole-schema
                answer (and build merged sub-schemas for queries whose
                classes span islands); skipped for single-island schemas
==============  ==========================================================

Historically each layer marked progress by mutating the ambient
:class:`~repro.runtime.budget.Budget`'s ``phase`` string directly.
This module reifies the stage structure into a small IR so that the
structure is *observable*, not just advisory:

:func:`stage`
    A context manager entered around each pipeline step.  It (a)
    records the budget phase label — preserving the historical label
    vocabulary (``"expansion"``, ``"system"``, ``"decide:fixpoint"``,
    ``"session:fixpoint"``, ...) so budget snapshots and their tests
    are unchanged — and (b) charges wall-clock time to the ambient
    :class:`PipelineRun`, if one is active.

:class:`PipelineRun`
    Per-run accounting: for each canonical stage, how many times it ran
    and how much wall-clock it consumed.  Installed ambiently
    (:func:`activate_run`) exactly like budgets, so the deep layers
    need no signature changes; ``repro batch --stats`` activates one
    around the whole batch and prints the per-stage table.

A ``stage`` without an active run and without an ambient budget is a
few attribute reads — the hot paths stay hot.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.runtime.budget import current_budget

STAGE_NORMALIZE = "normalize"
STAGE_DECOMPOSE = "decompose"
STAGE_ANALYZE = "analyze"
STAGE_EXPAND = "expand"
STAGE_BUILD_SYSTEM = "build-system"
STAGE_SOLVE = "solve"
STAGE_VERDICT = "verdict"
STAGE_COMBINE = "combine"

CANONICAL_STAGES: tuple[str, ...] = (
    STAGE_NORMALIZE,
    STAGE_DECOMPOSE,
    STAGE_ANALYZE,
    STAGE_EXPAND,
    STAGE_BUILD_SYSTEM,
    STAGE_SOLVE,
    STAGE_VERDICT,
    STAGE_COMBINE,
)
"""Pipeline order; :meth:`PipelineRun.as_dict` reports in this order."""


@dataclass
class StageTiming:
    """Accumulated cost of one stage across a run.

    ``runs`` counts completed *entries* of the stage (a satisfiability
    query and a later implication query each enter ``solve`` once;
    a fixpoint→naive degradation enters it twice — honestly counted).
    """

    name: str
    runs: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {"runs": self.runs, "seconds": self.seconds}


class PipelineRun:
    """Wall-clock accounting for the stages executed under one run.

    Install with :func:`activate_run`; read with :meth:`as_dict` /
    :meth:`pretty`.  The clock is injectable
    (:func:`time.perf_counter` by default) so tests can make timings
    deterministic.  Like budgets, runs are thread-compatible rather
    than thread-safe.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stages: dict[str, StageTiming] = {}

    def record(self, name: str, seconds: float) -> None:
        timing = self.stages.get(name)
        if timing is None:
            timing = self.stages[name] = StageTiming(name)
        timing.runs += 1
        timing.seconds += seconds

    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.stages.values())

    def _ordered(self) -> list[StageTiming]:
        canonical = [
            self.stages[name]
            for name in CANONICAL_STAGES
            if name in self.stages
        ]
        extra = [
            timing
            for name, timing in self.stages.items()
            if name not in CANONICAL_STAGES
        ]
        return canonical + extra

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        """Stage → ``{"runs": n, "seconds": s}``, in pipeline order."""
        return {timing.name: timing.as_dict() for timing in self._ordered()}

    def pretty(self) -> str:
        """One line per stage: ``solve: 3 run(s), 12.4ms``."""
        if not self.stages:
            return "(no stages ran)"
        return "\n".join(
            f"{timing.name}: {timing.runs} run(s), "
            f"{timing.seconds * 1000.0:.1f}ms"
            for timing in self._ordered()
        )

    def __repr__(self) -> str:
        summary = ", ".join(
            f"{timing.name}×{timing.runs}" for timing in self._ordered()
        )
        return f"PipelineRun({summary or 'empty'})"


_ACTIVE_RUN: ContextVar[PipelineRun | None] = ContextVar(
    "repro_pipeline_run", default=None
)


def current_run() -> PipelineRun | None:
    """The pipeline run collecting stage timings, or ``None``."""
    return _ACTIVE_RUN.get()


@contextmanager
def activate_run(run: PipelineRun | None) -> Iterator[PipelineRun | None]:
    """Install ``run`` as the ambient stage-timing collector.

    ``activate_run(None)`` is a no-op (an enclosing run, if any, keeps
    collecting); nested activations shadow the outer run.
    """
    if run is None:
        yield None
        return
    token = _ACTIVE_RUN.set(run)
    try:
        yield run
    finally:
        _ACTIVE_RUN.reset(token)


@contextmanager
def stage(name: str, phase: str | None = None) -> Iterator[None]:
    """Execute a block as one pipeline stage.

    ``name`` is the canonical stage charged on the ambient
    :class:`PipelineRun`.  ``phase`` is the budget phase label recorded
    for the block on the ambient :class:`~repro.runtime.budget.Budget`
    — entering runs a full budget check, like
    :meth:`~repro.runtime.budget.Budget.enter_phase`, and the previous
    label is restored on exit.  ``phase=None`` means timing only (the stage
    does no budget-visible work of its own, e.g. ``verdict``).

    Timing is charged even when the block raises (a stage that dies of
    budget exhaustion still consumed its wall-clock), but not when the
    budget check at entry refuses the stage.
    """
    budget = current_budget()
    previous_phase: str | None = None
    if budget is not None and phase is not None:
        previous_phase = budget.phase
        budget.enter_phase(phase)
    run = current_run()
    started = run.clock() if run is not None else 0.0
    try:
        yield
    finally:
        if run is not None:
            run.record(name, run.clock() - started)
        if budget is not None and phase is not None:
            budget.phase = previous_phase


__all__ = [
    "CANONICAL_STAGES",
    "PipelineRun",
    "STAGE_ANALYZE",
    "STAGE_BUILD_SYSTEM",
    "STAGE_COMBINE",
    "STAGE_DECOMPOSE",
    "STAGE_EXPAND",
    "STAGE_NORMALIZE",
    "STAGE_SOLVE",
    "STAGE_VERDICT",
    "StageTiming",
    "activate_run",
    "current_run",
    "stage",
]
