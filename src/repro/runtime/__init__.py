"""Resource governance for the decision pipeline.

The reasoning problem is provably exponential, so a production service
needs the discipline this package provides on top of the raw decision
procedures:

* **budgets** (:mod:`repro.runtime.budget`) — wall-clock deadlines,
  work caps, and cooperative cancellation, charged at every hot loop of
  the pipeline and raising a typed, snapshot-carrying
  :class:`~repro.errors.BudgetExceededError` on exhaustion;
* **three-valued verdicts** (:mod:`repro.runtime.outcome`) — SAT /
  UNSAT / UNKNOWN-with-reason, so governed entry points degrade instead
  of hanging or dying;
* **fault injection** (:mod:`repro.runtime.faults`) — one deterministic
  registry that fails the N-th solver call or the N-th firing of a disk
  fault point in the persistent artifact store's write protocol, so the
  degradation paths — among them the engine fallback of
  :mod:`repro.cr.satisfiability` — are themselves under test;
* **counters** (:mod:`repro.runtime.stats`) — the one self-locking
  :class:`~repro.runtime.stats.Counters` type that the session cache,
  the artifact store and the zero-set walks count their work in, and
  the ambient sink the walks report through.

Only the budget and outcome modules are imported eagerly; ``faults``
(it imports the solver layer) loads lazily on first attribute access,
letting the solver modules import :func:`current_budget` without a
cycle.  ``stats`` imports nothing of the project, so any layer may
import it directly.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.budget import (
    Budget,
    ProgressSnapshot,
    activate,
    current_budget,
    run_governed,
)
from repro.runtime.outcome import ImplicationVerdict, Verdict

_LAZY = {
    "FaultPlan": "repro.runtime.faults",
    "InjectedSolverFault": "repro.runtime.faults",
    "SimulatedCrash": "repro.runtime.faults",
    "inject_faults": "repro.runtime.faults",
    "inject_solver_faults": "repro.runtime.faults",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Budget",
    "ProgressSnapshot",
    "Verdict",
    "ImplicationVerdict",
    "activate",
    "current_budget",
    "run_governed",
    "FaultPlan",
    "InjectedSolverFault",
    "SimulatedCrash",
    "inject_faults",
    "inject_solver_faults",
]
