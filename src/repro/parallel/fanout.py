"""The three fan-out sites of the parallel decision fabric.

Each site decomposes a serial computation into independent chunks over
one shared immutable input, dispatches them through
:class:`~repro.parallel.pool.WorkerPool`, and merges deterministically:

:func:`run_parallel_batch`
    ``repro batch --jobs N``.  Queries are partitioned by the
    fingerprint their answer is cached under — the owning
    constraint-graph component for satisfiability and same-island
    implications, the merged sub-schema for cross-island ones, the
    Section-4 extended schema for cardinality implications (see
    :func:`repro.components.query_partition_key`) — so two queries
    sharing artifacts land on the same worker and hit them warm, and
    component fan-out composes with query fan-out for free.  Then
    fingerprint groups are packed onto the least-loaded worker.
    Answers merge by input index; a budget exhaustion anywhere degrades
    every unanswered query to UNKNOWN.

:func:`parallel_fixpoint_support`
    ``satisfiable_classes``.  Each acceptability-fixpoint iteration
    fans the per-class strict probes of the maximal-support LP across
    workers (the forced-zero set is broadcast; candidates are chunked).
    The union of probe supports equals the serial shadow-LP support on
    every class unknown — candidate ``c`` is in either exactly when
    ``Ψ_S`` plus the forced zeros admits a solution positive on ``c``
    — so the forced-zero iteration, and hence the verdict map, is
    identical to serial.  Only the *witness solution* would differ,
    which is why this site serves the verdict-only sweep and the
    witness-returning entry points stay serial.

:func:`parallel_zero_set_search`
    The naive engine.  The parent *streams* the zero-sets in the
    serial enumeration order (size-ascending ``itertools.combinations``)
    into contiguous chunks — chunk boundaries are computed from the
    closed-form candidate count, so nothing is materialised up front —
    and chunk *k* holds strictly earlier candidates than chunk *k+1*;
    the first-hit short-circuit keeps every chunk *before* the lowest
    hit alive, guaranteeing the reported witness is the serial one
    regardless of completion order.

:func:`parallel_pruned_zero_set_search`
    The pruned engine (:mod:`repro.solver.pruned`).  The parent runs
    automorphism discovery and the canonicity filter (deterministic, so
    every run dispatches the same representative stream), chunks the
    surviving candidates, and attaches the nogoods known at dispatch
    time to each chunk; chunks return newly-learned nogoods, which the
    parent folds into its store for later dispatches.  Nogoods only
    match infeasible candidates, so verdicts and witnesses stay
    byte-identical to the serial pruned (and naive) walk even though
    *which* candidates get skipped depends on completion timing — the
    pruning counters under ``jobs > 1`` are therefore best-effort, the
    answers are not.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Any, Sequence

from repro.components.decompose import decompose_schema, query_partition_key
from repro.cr.schema import CRSchema
from repro.errors import BudgetExceededError
from repro.parallel.pool import WorkerPool, chunk_evenly, worker_caps
from repro.parallel.worker import (
    run_batch_chunk,
    run_probe_chunk,
    run_pruned_chunk,
    run_zero_chunk,
    unknown_record,
)
from repro.runtime.budget import Budget, activate, current_budget
from repro.session.session import SESSION_STATS_KEYS
from repro.solver.pruned import NogoodStore, is_canonical, orbit_permutations
from repro.solver.registry import AcceptabilityProblem
from repro.solver.stats import bump_search_stat, fold_search_stats

ZERO_CHUNK_FACTOR = 4
"""Zero-set chunks per worker: small enough that a first hit cancels
most of the remaining lattice, large enough to amortise dispatch."""

PRUNED_CHUNK_SIZE = 32
"""Canonical representatives per pruned-search chunk.  Fixed-size (not
an even split) because the representative stream is lazy and nogoods
learned early should reach later dispatches — smaller chunks mean a
fresher store at each dispatch."""

_STATS_KEYS = SESSION_STATS_KEYS
"""The :class:`~repro.session.SessionStats` fields, summed per worker
so the parallel batch report keeps the serial report's shape.  The
canonical key list lives beside :class:`SessionStats` itself and is
shared with the serve daemon's per-request stats aggregation."""


# ---------------------------------------------------------------------------
# Site 1: batch queries
# ---------------------------------------------------------------------------


@dataclass
class BatchOutcome:
    """What ``repro batch`` needs back from a parallel run, in input
    order — the same observables the serial loop accumulates."""

    records: list[dict[str, Any]] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    any_unknown: bool = False
    all_positive: bool = True
    session_stats: dict[str, int] = field(default_factory=dict)


def partition_queries(
    schema: CRSchema, queries: Sequence[tuple[str, Any]], jobs: int
) -> list[list[tuple[int, str, Any]]]:
    """Group queries by the fingerprint their artifacts live under,
    then pack groups onto the least-loaded of ``jobs`` bins.

    The key comes from :func:`repro.components.query_partition_key`:
    queries route to the constraint-graph component (or merged /
    Section-4 extended sub-schema) whose artifacts answer them
    (mirroring :class:`~repro.session.ReasoningSession`), so a
    component's base artifacts are acquired — and classified as
    reused/rebuilt — by exactly one worker, keeping the aggregated
    stats equal to a serial run's.  A query that cannot be routed
    (unknown names, illegal triple) keeps the whole-schema key — the
    worker will surface the real error at answer time.  Packing is
    deterministic (groups in first-occurrence order, ties to the lowest
    bin) and each query keeps its input index for the ordered merge.
    """
    decomposition = decompose_schema(schema)
    groups: dict[str, list[tuple[int, str, Any]]] = {}
    for index, (kind, query) in enumerate(queries):
        key = query_partition_key(decomposition, kind, query)
        groups.setdefault(key, []).append((index, kind, query))
    bins: list[list[tuple[int, str, Any]]] = [[] for _ in range(jobs)]
    for group in groups.values():
        target = min(range(jobs), key=lambda i: (len(bins[i]), i))
        bins[target].extend(group)
    return [partition for partition in bins if partition]


def run_parallel_batch(
    schema: CRSchema,
    queries: Sequence[tuple[str, Any]],
    jobs: int,
    backend: str | None = None,
    budget: Budget | None = None,
    cache_dir: str | None = None,
) -> BatchOutcome:
    """Answer a batch across ``jobs`` workers; observables match serial.

    With an explicit ``budget``, exhaustion anywhere (a worker's own
    caps, the aggregate account crossing a cap as charges merge, or the
    parent's wall-clock deadline) cancels the outstanding workers and
    degrades every still-unanswered query to UNKNOWN — the batch
    completes with exit-code-3 semantics instead of raising, exactly
    like the serial session loop.

    With a ``cache_dir``, each worker fronts its session cache with a
    persistent :class:`~repro.store.ArtifactStore` on that directory.
    Because queries are partitioned by fingerprint, a fingerprint's
    artifacts are built (and persisted) by exactly one worker per cold
    run, and the aggregated ``store_*`` counters equal the serial run's.
    """
    partitions = partition_queries(schema, queries, jobs)
    payload = {"schema": schema, "backend": backend, "cache_dir": cache_dir}
    answered: dict[int, tuple[dict[str, Any], str, bool, bool]] = {}
    stats: dict[str, int] = {key: 0 for key in _STATS_KEYS}
    failure: str | None = None
    with activate(budget):
        try:
            with WorkerPool(payload, jobs) as pool:
                calls = [
                    (worker_caps(budget), tuple(partition))
                    for partition in partitions
                ]
                results = pool.map_ordered(run_batch_chunk, calls)
        except BudgetExceededError as error:
            if budget is None:
                raise
            failure = str(error)
            results = []
    for chunk in results:
        if chunk is None:
            continue
        for index, record, text, positive, unknown in chunk["answers"]:
            answered[index] = (record, text, positive, unknown)
        for key, value in chunk["session_stats"].items():
            stats[key] = stats.get(key, 0) + value
    outcome = BatchOutcome(session_stats=stats)
    for index, (kind, query) in enumerate(queries):
        entry = answered.get(index)
        if entry is None:
            assert failure is not None, "a completed pool lost a query"
            record, text = unknown_record(kind, query, failure)
            entry = (record, text, False, True)
        record, text, positive, unknown = entry
        outcome.records.append(record)
        outcome.texts.append(text)
        outcome.any_unknown = outcome.any_unknown or unknown
        outcome.all_positive = outcome.all_positive and positive
    return outcome


# ---------------------------------------------------------------------------
# Site 2: per-class probes of the acceptability fixpoint
# ---------------------------------------------------------------------------


def parallel_fixpoint_support(
    problem: AcceptabilityProblem, jobs: int
) -> frozenset[str]:
    """The acceptability fixpoint with its probe loop fanned out.

    Verdict-identical to :func:`repro.solver.registry.fixpoint_support`:
    each iteration's support, restricted to class unknowns, is the same
    set (probe feasibility does not depend on which worker asks), so
    the forced-zero sets agree iteration by iteration.  Returns the
    converged support only — no witness solution, see module docstring.
    """
    payload = {"system": problem.system}
    budget = current_budget()
    forced_zero: set[str] = set()
    with WorkerPool(payload, jobs) as pool:
        while True:
            if budget is not None:
                budget.check()
            chunks = chunk_evenly(problem.class_unknowns, jobs)
            frozen = tuple(sorted(forced_zero))
            calls = [
                (worker_caps(budget), frozen, tuple(chunk))
                for chunk in chunks
            ]
            supports = pool.map_ordered(run_probe_chunk, calls)
            support: set[str] = set()
            for chunk_support in supports:
                support.update(chunk_support or ())
            newly_forced = {
                rel_unknown
                for rel_unknown, class_unknowns in problem.dependencies.items()
                if rel_unknown not in forced_zero
                and any(c not in support for c in class_unknowns)
            }
            if not newly_forced:
                return frozenset(support)
            forced_zero |= newly_forced


# ---------------------------------------------------------------------------
# Site 3: the naive engine's zero-set lattice
# ---------------------------------------------------------------------------


def _zero_set_count(problem: AcceptabilityProblem) -> int:
    """How many zero-sets the serial walk tests, in closed form.

    The walk skips exactly the subsets containing all of ``targets``:
    ``2^(n-t)`` of them when the targets all live in the universe, none
    when some target is not a class unknown (no subset can cover it),
    and *all* ``2^n`` when ``targets`` is empty (the empty set is a
    subset of every candidate).  Knowing the total up front is what lets
    the parent stream chunks without materialising the lattice.
    """
    universe = set(problem.class_unknowns)
    total = 2 ** len(universe)
    if not problem.targets:
        return 0
    if problem.targets <= universe:
        return total - 2 ** (len(universe) - len(problem.targets))
    return total


def _serial_zero_sets(
    problem: AcceptabilityProblem,
) -> Iterator[tuple[str, ...]]:
    """The zero-sets the serial walk tests, lazily, in serial order."""
    class_unknowns = list(problem.class_unknowns)
    for size in range(len(class_unknowns) + 1):
        for zero_tuple in combinations(class_unknowns, size):
            if not problem.targets <= frozenset(zero_tuple):
                yield zero_tuple


def _zero_search_payload(problem: AcceptabilityProblem) -> dict[str, Any]:
    return {
        "system": problem.system,
        "class_unknowns": tuple(problem.class_unknowns),
        "dependencies": dict(problem.dependencies),
        "targets": problem.targets,
    }


def _first_hit(
    results: Sequence[dict[str, Any] | None],
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """Fold chunk results (submission order) into the search triple."""
    for result in results:
        if result is not None and result.get("hit") is not None:
            hit = result["hit"]
            return True, hit["witness"], frozenset(hit["support"])
    return False, None, frozenset()


def parallel_zero_set_search(
    problem: AcceptabilityProblem, jobs: int
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """Theorem 3.4's enumeration, chunked in serial order with a
    first-hit short-circuit; bit-identical to the serial naive engine
    including the witness (see module docstring).

    The chunk boundaries reproduce ``chunk_evenly`` arithmetic over the
    closed-form candidate count, but the candidates themselves stream
    out of the enumeration only as chunks are dispatched — the parent
    holds at most the pool's submission window, not ``2^n`` tuples.
    """
    total = _zero_set_count(problem)
    if total == 0:
        return False, None, frozenset()
    budget = current_budget()
    caps = worker_caps(budget)
    count = max(1, min(jobs * ZERO_CHUNK_FACTOR, total))
    base, extra = divmod(total, count)
    stream = _serial_zero_sets(problem)

    def calls() -> Iterator[tuple[Any, ...]]:
        for index in range(count):
            size = base + (1 if index < extra else 0)
            chunk = tuple(islice(stream, size))
            if chunk:
                yield (caps, chunk)

    def fold(index: int, result: dict[str, Any]) -> None:
        del index
        fold_search_stats(result.get("stats"))

    with WorkerPool(_zero_search_payload(problem), jobs) as pool:
        results = pool.map_ordered_streaming(
            run_zero_chunk,
            calls(),
            short_circuit=lambda result: result.get("hit") is not None,
            on_result=fold,
        )
    return _first_hit(results)


def parallel_pruned_zero_set_search(
    problem: AcceptabilityProblem, jobs: int
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """The pruned walk fanned out over orbit representatives.

    The parent owns the deterministic parts — automorphism discovery,
    canonicity filtering (``pruned_by_orbit`` is bumped parent-side, so
    it matches the serial count exactly) — and streams fixed-size
    chunks of representatives, each carrying the nogood store as of its
    dispatch.  Workers return what they learned; the store saturates
    between dispatches.  Verdict and witness are byte-identical to the
    serial walk (nogoods only match infeasible candidates; the
    short-circuit keeps earlier chunks alive), while
    ``pruned_by_nogood`` / ``zero_sets_enumerated`` depend on dispatch
    timing under ``jobs > 1``.
    """
    names = list(problem.class_unknowns)
    perms, orbits_found = orbit_permutations(problem)
    bump_search_stat("orbits_found", orbits_found)
    store = NogoodStore()
    budget = current_budget()
    caps = worker_caps(budget)

    def representatives() -> Iterator[tuple[str, ...]]:
        for size in range(len(names) + 1):
            for combo in combinations(range(len(names)), size):
                zero_tuple = tuple(names[index] for index in combo)
                if problem.targets <= frozenset(zero_tuple):
                    continue
                if perms and not is_canonical(combo, perms):
                    bump_search_stat("pruned_by_orbit")
                    continue
                yield zero_tuple

    def calls() -> Iterator[tuple[Any, ...]]:
        stream = representatives()
        while True:
            chunk = tuple(islice(stream, PRUNED_CHUNK_SIZE))
            if not chunk:
                return
            yield (caps, chunk, tuple(store.nogoods))

    def merge(index: int, result: dict[str, Any]) -> None:
        del index
        store.install_all(result.get("nogoods") or ())
        fold_search_stats(result.get("stats"))

    with WorkerPool(_zero_search_payload(problem), jobs) as pool:
        results = pool.map_ordered_streaming(
            run_pruned_chunk,
            calls(),
            short_circuit=lambda result: result.get("hit") is not None,
            on_result=merge,
        )
    return _first_hit(results)


__all__ = [
    "BatchOutcome",
    "PRUNED_CHUNK_SIZE",
    "ZERO_CHUNK_FACTOR",
    "parallel_fixpoint_support",
    "parallel_pruned_zero_set_search",
    "parallel_zero_set_search",
    "partition_queries",
    "run_parallel_batch",
]
