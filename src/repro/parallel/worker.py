"""Worker-process side of the parallel decision fabric.

Everything here must be importable at module top level: the pool uses
the ``spawn`` start method, so workers pickle task functions by
qualified name and re-import this module from scratch.  The shared
inputs arrive exactly once per worker through :func:`bootstrap` (the
pool initializer) as a compact pickled payload — an interned system
for the probe tasks, a schema for the batch task — and each dispatched
chunk then carries only its private arguments.

Every task runs under its own :class:`~repro.runtime.budget.Budget`
(built from the caps the parent had left at dispatch time) and its own
:class:`~repro.pipeline.PipelineRun`, and returns an *envelope*::

    {"result": ..., "charges": {...}, "stages": {...}}     # success
    {"budget": {"message", "snapshot"}, "charges", "stages"}  # exhausted

The budget-marker form exists because exception pickling only preserves
``args`` — a :class:`~repro.errors.BudgetExceededError` raised across
the process boundary would lose its structured snapshot — and because
the parent wants the partial charges and stage timings of a failed
chunk too.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack
from fractions import Fraction
from typing import Any, Callable

from repro.errors import BudgetExceededError
from repro.pipeline import PipelineRun, activate_run
from repro.runtime.budget import Budget, ProgressSnapshot, activate
from repro.runtime.outcome import ImplicationVerdict, Verdict
from repro.solver.core import SparseRow
from repro.solver.linear import Relation
from repro.solver.pruned import Nogood, check_candidate
from repro.solver.registry import (
    AcceptabilityProblem,
    pin_backend,
    positive_witness,
    zero_set_rows,
)
from repro.solver.stats import SearchCounters

_PAYLOAD: dict[str, Any] | None = None
"""The shared inputs, reconstructed once per worker by :func:`bootstrap`."""

_STATE: dict[str, Any] = {}
"""Warm per-worker derivatives of the payload (session, problem)."""


def bootstrap(blob: bytes) -> None:
    """Pool initializer: unpickle the shared payload, once per worker."""
    global _PAYLOAD
    _PAYLOAD = pickle.loads(blob)
    _STATE.clear()


def _payload() -> dict[str, Any]:
    assert _PAYLOAD is not None, "worker used before bootstrap ran"
    return _PAYLOAD


# ---------------------------------------------------------------------------
# The envelope harness
# ---------------------------------------------------------------------------


def _charges(budget: Budget) -> dict[str, int]:
    return {
        "expansion_nodes": budget.expansion_nodes,
        "solver_calls": budget.solver_calls,
        "pivots": budget.pivots,
    }


def _run_task(
    caps: dict[str, float | int] | None,
    body: Callable[[Budget], Any],
) -> dict[str, Any]:
    """Run ``body`` under a fresh budget and pipeline run; envelope it.

    With no caps the budget is unlimited — it still exists so the
    counters (and hence the parent's aggregate account) stay honest.
    """
    budget = Budget(**caps) if caps else Budget()
    run = PipelineRun()
    try:
        with activate(budget), activate_run(run):
            result = body(budget)
        return {
            "result": result,
            "charges": _charges(budget),
            "stages": run.as_dict(),
        }
    except BudgetExceededError as error:
        snapshot = error.snapshot
        if not isinstance(snapshot, ProgressSnapshot):
            snapshot = budget.snapshot("exhausted")
        return {
            "budget": {"message": str(error), "snapshot": snapshot},
            "charges": _charges(budget),
            "stages": run.as_dict(),
        }


# ---------------------------------------------------------------------------
# Fan-out site 2: per-class strict probes of the maximal-support LP
# ---------------------------------------------------------------------------


def run_probe_chunk(args: tuple[Any, ...]) -> dict[str, Any]:
    """One fixpoint iteration's probes for a chunk of candidates.

    Payload: ``{"system": InternedSystem}``.
    Args: ``(caps, forced_zero_names, candidate_names)``.  Returns the
    names (class *and* relationship unknowns) positive in the summed
    probe witnesses — a cone member, so the union over chunks is again
    the support of a single acceptable-at-convergence solution.
    """
    caps, forced_zero, candidates = args

    def body(budget: Budget) -> tuple[str, ...]:
        del budget  # charged ambiently by the solver hot loops
        system = _payload()["system"]
        table = system.table
        constrained = system.with_rows(
            SparseRow.make(
                {table.index(name): 1},
                Relation.EQ,
                label=f"forced-zero:{name}",
            )
            for name in forced_zero
        )
        totals: dict[str, Fraction] = {}
        zero = Fraction(0)
        for name in candidates:
            if totals.get(name, zero) > 0:
                continue  # already positive via an earlier probe's witness
            probe = constrained.with_rows(
                [
                    SparseRow.make(
                        {table.index(name): 1},
                        Relation.GT,
                        label=f"probe:{name}",
                    )
                ]
            )
            witness = positive_witness(probe)
            if witness.feasible:
                assert witness.rational is not None
                for var, value in witness.rational.items():
                    totals[var] = totals.get(var, zero) + value
        return tuple(
            sorted(var for var, value in totals.items() if value > 0)
        )

    return _run_task(caps, body)


# ---------------------------------------------------------------------------
# Fan-out site 3: the naive engine's zero-set enumeration
# ---------------------------------------------------------------------------


def _zero_search_problem() -> AcceptabilityProblem:
    """The (worker-cached) acceptability problem of a zero-set payload."""
    problem = _STATE.get("problem")
    if problem is None:
        payload = _payload()
        problem = _STATE["problem"] = AcceptabilityProblem(
            system=payload["system"],
            class_unknowns=payload["class_unknowns"],
            dependencies=payload["dependencies"],
            targets=payload["targets"],
        )
    return problem


def _hit_record(
    universe: set[str], zero_set: frozenset[str], witness: Any
) -> dict[str, Any]:
    assert witness.integral is not None
    support = frozenset(
        name for name, value in witness.integral.items() if value > 0
    )
    assert universe - zero_set <= support
    return {
        "witness": witness.integral,
        "support": tuple(sorted(support)),
    }


def run_zero_chunk(args: tuple[Any, ...]) -> dict[str, Any]:
    """Test a contiguous chunk of zero-sets; first feasible one wins.

    Payload: ``{"system", "class_unknowns", "dependencies",
    "targets"}``.  Args: ``(caps, zero_sets)`` where ``zero_sets`` is a
    tuple of tuples in the *serial* enumeration order.  Returns
    ``{"hit": None | {"witness", "support"}, "stats": {...}}`` — the
    earliest feasible zero-set in the chunk, if any, plus the search
    counters the chunk accumulated (folded into the parent's ambient
    sink on merge).
    """
    caps, zero_sets = args

    def body(budget: Budget) -> dict[str, Any]:
        problem = _zero_search_problem()
        universe = set(problem.class_unknowns)
        counters = SearchCounters()
        hit: dict[str, Any] | None = None
        for zero_tuple in zero_sets:
            budget.check()
            zero_set = frozenset(zero_tuple)
            counters.bump("zero_sets_enumerated")
            candidate = problem.system.with_rows(
                zero_set_rows(problem, zero_set)
            )
            witness = positive_witness(candidate)
            if witness.feasible:
                hit = _hit_record(universe, zero_set, witness)
                break
        return {"hit": hit, "stats": counters.as_dict()}

    return _run_task(caps, body)


def run_pruned_chunk(args: tuple[Any, ...]) -> dict[str, Any]:
    """Test a chunk of *canonical* zero-sets with nogood pruning.

    Payload: as :func:`run_zero_chunk`.  Args:
    ``(caps, zero_sets, nogoods)`` — the candidates are the orbit
    representatives the parent's canonicity filter let through (still in
    serial order), and ``nogoods`` is the parent's
    :class:`~repro.solver.pruned.Nogood` list as known *at dispatch
    time*.  The chunk matches candidates against those plus whatever it
    learns locally, and returns
    ``{"hit": ..., "nogoods": new ones, "stats": {...}}`` so the parent
    can saturate its store for later dispatches.  Nogoods only ever
    match infeasible candidates, so the first-hit merge is unaffected
    by which nogoods happened to reach which chunk.
    """
    caps, zero_sets, nogoods = args

    def body(budget: Budget) -> dict[str, Any]:
        problem = _zero_search_problem()
        universe = set(problem.class_unknowns)
        counters = SearchCounters()
        learned: list[Nogood] = []
        hit: dict[str, Any] | None = None
        for zero_tuple in zero_sets:
            budget.check()
            zero_set = frozenset(zero_tuple)
            if any(ng.matches(zero_set) for ng in nogoods) or any(
                ng.matches(zero_set) for ng in learned
            ):
                counters.bump("pruned_by_nogood")
                continue
            counters.bump("zero_sets_enumerated")
            witness, nogood = check_candidate(problem, zero_set)
            if witness.feasible:
                hit = _hit_record(universe, zero_set, witness)
                break
            if nogood is not None:
                learned.append(nogood)
        return {
            "hit": hit,
            "nogoods": tuple(learned),
            "stats": counters.as_dict(),
        }

    return _run_task(caps, body)


# ---------------------------------------------------------------------------
# Fan-out site 1: batch queries over warm per-worker sessions
# ---------------------------------------------------------------------------


def answer_query(
    session: Any, kind: str, query: Any
) -> tuple[dict[str, Any], str, bool, bool]:
    """Answer one batch query: ``(record, text, positive, unknown)``.

    This is the *single* formatting path for batch output — the CLI's
    serial loop and the workers both call it, which is what makes
    ``--jobs N`` output byte-identical to serial by construction.
    """
    if kind == "sat":
        result = session.is_class_satisfiable(query)
        verdict = result.verdict
        positive = bool(result.satisfiable)
        unknown = verdict is Verdict.UNKNOWN
        word = (
            "UNKNOWN"
            if unknown
            else ("satisfiable" if positive else "UNSATISFIABLE")
        )
        record = {
            "query": f"sat {query}",
            "verdict": verdict.value,
            "unknown_reason": result.unknown_reason,
        }
        return record, f"sat {query}: {word}", positive, unknown
    result = session.implies(query)
    positive = bool(result.implied)
    unknown = result.verdict is ImplicationVerdict.UNKNOWN
    record = {
        "query": query.pretty(),
        "verdict": result.verdict.value,
        "unknown_reason": result.unknown_reason,
    }
    return record, result.pretty(), positive, unknown


def unknown_record(
    kind: str, query: Any, reason: str
) -> tuple[dict[str, Any], str]:
    """The degraded ``(record, text)`` for a query no worker answered
    (its worker exhausted the budget, or a sibling's exhaustion
    cancelled it) — same shape :func:`answer_query` gives a query that
    degrades locally."""
    if kind == "sat":
        record = {
            "query": f"sat {query}",
            "verdict": Verdict.UNKNOWN.value,
            "unknown_reason": reason,
        }
        return record, f"sat {query}: UNKNOWN"
    record = {
        "query": query.pretty(),
        "verdict": ImplicationVerdict.UNKNOWN.value,
        "unknown_reason": reason,
    }
    return record, f"S |? {query.pretty()}  (unknown: {reason})"


def run_batch_chunk(args: tuple[Any, ...]) -> dict[str, Any]:
    """Answer a chunk of batch queries on this worker's warm session.

    Payload: ``{"schema": CRSchema, "backend": str | None, "cache_dir":
    str | None}``.  Args: ``(caps, items)`` with ``items`` a tuple of
    ``(index, kind, query)``.  The chunk shares one
    :class:`~repro.components.DecomposedSession` — the parent partitions
    queries by the fingerprint of the component (or merged / extended
    sub-schema) that answers them, so queries sharing artifacts land on
    the same worker and hit them warm, and each component is classified
    (reused/rebuilt) by exactly one worker.  A ``cache_dir`` adds the
    cross-process persistent tier: every worker opens its own
    :class:`~repro.store.ArtifactStore` on the shared directory.
    """
    caps, items = args

    def body(budget: Budget) -> dict[str, Any]:
        del budget  # the ambient budget governs the session's queries
        from repro.components import DecomposedSession
        from repro.session import SessionCache

        payload = _payload()
        session = _STATE.get("session")
        if session is None:
            cache = None
            if payload.get("cache_dir"):
                from repro.store import ArtifactStore

                cache = SessionCache(
                    store=ArtifactStore(payload["cache_dir"])
                )
            session = _STATE["session"] = DecomposedSession(
                payload["schema"], cache=cache
            )
        # The session outlives the chunk (a worker may take several), so
        # report this chunk's share of its cumulative stats.
        before = session.stats.as_dict()
        answers = []
        with ExitStack() as stack:
            if payload.get("backend"):
                stack.enter_context(pin_backend(payload["backend"]))
            for index, kind, query in items:
                record, text, positive, unknown = answer_query(
                    session, kind, query
                )
                answers.append((index, record, text, positive, unknown))
        after = session.stats.as_dict()
        return {
            "answers": answers,
            "session_stats": {key: after[key] - before[key] for key in after},
        }

    return _run_task(caps, body)


__all__ = [
    "answer_query",
    "bootstrap",
    "run_batch_chunk",
    "run_probe_chunk",
    "run_pruned_chunk",
    "run_zero_chunk",
    "unknown_record",
]
