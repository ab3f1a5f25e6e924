"""Deterministic process-pool plumbing for the parallel decision fabric.

The decision problems this repo answers are exponential twice over (the
expansion ranges over subsets of the class set, and Theorem 3.4
enumerates zero-sets Z ⊆ V_C), yet the probes they decompose into are
independent LPs over one shared immutable interned system —
embarrassingly parallel.  This module provides the process-pool layer
the fan-out sites (:mod:`repro.parallel.fanout`) are built on:

:func:`resolve_jobs`
    The worker-count policy: explicit ``--jobs`` flag, then the
    ``REPRO_JOBS`` environment variable, then 1 (serial).

:func:`chunk_evenly`
    Deterministic contiguous chunking.  Contiguity is what preserves
    the serial enumeration order across chunk boundaries, which the
    zero-set search needs for bit-identical first-hit witnesses.

:class:`WorkerPool`
    A ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
    whose initializer rebuilds the shared inputs from one compact
    pickled payload, once per worker (``fork`` is banned — it copies
    ambient budgets, context variables, and lock state into children).
    :meth:`WorkerPool.map_ordered` is the only wait primitive: results
    merge in submission-index order regardless of completion order, the
    parent's ambient budget is checked on every poll tick (the parent
    owns the wall-clock deadline), worker charges fold into the ambient
    budget as each chunk lands, and a budget marker or cap overdraft
    cancels every sibling.

:func:`parallel_map`
    One-shot convenience over :class:`WorkerPool` for call sites (the
    pipeline's Solve stage) that do not need to keep a warm pool.

Determinism contract: nothing observable depends on wall-clock
completion order.  Results are merged by input index; a short-circuit
hit only cancels chunks *after* the lowest hitting index, so earlier
chunks always get to overrule it.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
from collections.abc import Callable, Iterable, Sequence
from typing import Any, TypeVar

from repro.errors import BudgetExceededError, ReproError
from repro.parallel import worker as _worker
from repro.pipeline import current_run
from repro.runtime.budget import Budget, current_budget

_T = TypeVar("_T")

ENV_JOBS = "REPRO_JOBS"
"""Environment variable consulted when no explicit job count is given."""

POLL_SECONDS = 0.05
"""How often the parent wakes to check its own budget while waiting."""


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: ``jobs`` flag > ``REPRO_JOBS`` > 1.

    ``jobs=1`` (the default everywhere) means *serial*: callers bypass
    the pool entirely, so the serial path remains the oracle the
    parallel path is tested against.
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ReproError(
                f"{ENV_JOBS} must be a positive integer, got {raw!r}"
            ) from None
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs!r}")
    return jobs


def chunk_evenly(items: Iterable[_T], chunks: int) -> list[list[_T]]:
    """Split ``items`` into at most ``chunks`` contiguous, near-even runs.

    Deterministic in the input order; earlier chunks get the extra
    element when the split is uneven.  Contiguity matters: the zero-set
    search relies on chunk k holding strictly earlier enumeration
    positions than chunk k+1.
    """
    pool = list(items)
    if not pool:
        return []
    count = max(1, min(chunks, len(pool)))
    base, extra = divmod(len(pool), count)
    out: list[list[_T]] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        out.append(pool[start : start + size])
        start += size
    return out


def worker_caps(budget: Budget | None) -> dict[str, float | int] | None:
    """The budget caps to hand a dispatched chunk, or ``None``.

    Workers get whatever the parent has *left* at dispatch time (see
    :meth:`~repro.runtime.budget.Budget.remaining_caps`); the parent's
    poll-loop checks plus :meth:`~repro.runtime.budget.Budget.merge_charges`
    enforce the aggregate account.
    """
    if budget is None:
        return None
    return budget.remaining_caps()


class WorkerPool:
    """A spawn-context process pool over one shared pickled payload.

    ``payload`` is pickled once here and shipped to each worker's
    initializer, which reconstructs the shared inputs (interned system
    or schema) exactly once per worker process — dispatched chunks then
    carry only their private arguments.
    """

    def __init__(self, payload: dict[str, Any], jobs: int) -> None:
        if jobs < 2:
            raise ReproError(
                "WorkerPool needs jobs >= 2; jobs=1 must bypass the pool"
            )
        self.jobs = jobs
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        context = multiprocessing.get_context("spawn")
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_worker.bootstrap,
            initargs=(blob,),
        )

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)

    def map_ordered(
        self,
        task: Callable[[Any], dict[str, Any]],
        calls: Sequence[Any],
        short_circuit: Callable[[Any], bool] | None = None,
    ) -> list[Any]:
        """Run ``task`` over ``calls``; results in submission order.

        ``task`` must be a top-level function in
        :mod:`repro.parallel.worker` returning an *envelope*
        (``{"result": ..., "charges": ..., "stages": ...}`` or the
        budget-marker form).  As each envelope lands, its stage timings
        merge into the ambient :class:`~repro.pipeline.PipelineRun` and
        its charges into the ambient budget — a cap crossed by the
        merge, a budget marker from a worker, or the parent's own
        deadline cancels all outstanding siblings and raises.

        ``short_circuit`` (given a chunk's result, "is this a hit?")
        cancels only chunks *after* the lowest hitting index; earlier
        chunks still run to completion so they can overrule the hit.
        Results of cancelled chunks are ``None``.
        """
        budget = current_budget()
        futures: dict[concurrent.futures.Future[dict[str, Any]], int] = {
            self._executor.submit(task, call): index
            for index, call in enumerate(calls)
        }
        results: list[Any] = [None] * len(calls)
        stop_index: int | None = None
        pending = set(futures)
        try:
            while pending:
                if budget is not None:
                    budget.check()
                done, pending = concurrent.futures.wait(
                    pending,
                    timeout=POLL_SECONDS,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in sorted(done, key=futures.__getitem__):
                    if future.cancelled():
                        continue
                    index = futures[future]
                    envelope = future.result(timeout=POLL_SECONDS)
                    self._absorb(envelope, budget)
                    results[index] = envelope.get("result")
                    if (
                        short_circuit is not None
                        and results[index] is not None
                        and short_circuit(results[index])
                        and (stop_index is None or index < stop_index)
                    ):
                        stop_index = index
                if stop_index is not None:
                    for future, index in futures.items():
                        if index > stop_index:
                            future.cancel()
                    pending = {
                        future
                        for future in pending
                        if not future.cancelled()
                        and futures[future] < stop_index
                    }
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def map_ordered_streaming(
        self,
        task: Callable[[Any], dict[str, Any]],
        calls: Iterable[Any],
        window: int | None = None,
        short_circuit: Callable[[Any], bool] | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """:meth:`map_ordered` over a *lazy* call stream.

        At most ``window`` (default ``2 * jobs``) submissions are
        outstanding at once and ``calls`` is only advanced as slots
        free up, so the parent never materialises the whole work list —
        the fix for the zero-set fan-out's parent-side memory.  Pulling
        a call at submission time also lets the stream observe state
        accumulated from earlier results (the pruned search attaches
        the nogoods known *at dispatch*).

        ``on_result`` fires as each non-``None`` result lands (in
        completion order — merge logic must not depend on it).  The
        short-circuit contract matches :meth:`map_ordered`: a hit stops
        the stream and cancels only later indexes, and results are
        returned in submission order for every call actually submitted.
        """
        budget = current_budget()
        limit = max(1, window if window is not None else 2 * self.jobs)
        iterator = iter(calls)
        futures: dict[concurrent.futures.Future[dict[str, Any]], int] = {}
        results: dict[int, Any] = {}
        pending: set[concurrent.futures.Future[dict[str, Any]]] = set()
        stop_index: int | None = None
        exhausted = False
        submitted = 0

        def refill() -> None:
            nonlocal exhausted, submitted
            while (
                not exhausted and stop_index is None and len(pending) < limit
            ):
                try:
                    call = next(iterator)
                except StopIteration:
                    exhausted = True
                    return
                future = self._executor.submit(task, call)
                futures[future] = submitted
                pending.add(future)
                submitted += 1

        try:
            refill()
            while pending:
                if budget is not None:
                    budget.check()
                done, pending = concurrent.futures.wait(
                    pending,
                    timeout=POLL_SECONDS,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in sorted(done, key=futures.__getitem__):
                    if future.cancelled():
                        continue
                    index = futures[future]
                    envelope = future.result(timeout=POLL_SECONDS)
                    self._absorb(envelope, budget)
                    result = envelope.get("result")
                    results[index] = result
                    if on_result is not None and result is not None:
                        on_result(index, result)
                    if (
                        short_circuit is not None
                        and result is not None
                        and short_circuit(result)
                        and (stop_index is None or index < stop_index)
                    ):
                        stop_index = index
                if stop_index is not None:
                    for future, index in futures.items():
                        if index > stop_index:
                            future.cancel()
                    pending = {
                        future
                        for future in pending
                        if not future.cancelled()
                        and futures[future] < stop_index
                    }
                else:
                    refill()
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return [results.get(index) for index in range(submitted)]

    @staticmethod
    def _absorb(
        envelope: dict[str, Any], budget: Budget | None
    ) -> None:
        """Fold one worker envelope's accounting into the parent, then
        re-raise a worker-side budget exhaustion as the real exception.

        Exceptions do not round-trip their :class:`ProgressSnapshot`
        through pickle (only ``args`` survive), so workers report
        exhaustion as a structured marker and the parent re-raises here
        — after merging charges, so the aggregate account stays honest
        even on the failure path.
        """
        run = current_run()
        stages = envelope.get("stages")
        if run is not None and stages:
            run.merge(stages)
        charges = envelope.get("charges")
        if budget is not None and charges:
            budget.merge_charges(**charges)
        marker = envelope.get("budget")
        if marker is not None:
            raise BudgetExceededError(marker["message"], marker["snapshot"])


def parallel_map(
    task: Callable[[Any], dict[str, Any]],
    calls: Sequence[Any],
    payload: dict[str, Any],
    jobs: int,
    short_circuit: Callable[[Any], bool] | None = None,
) -> list[Any]:
    """One-shot fan-out: pool up, :meth:`~WorkerPool.map_ordered`, tear
    down.  The utility the pipeline's Solve stage calls when it has a
    single batch of independent probes and no reason to keep the pool
    warm across iterations."""
    with WorkerPool(payload, jobs) as pool:
        return pool.map_ordered(task, calls, short_circuit=short_circuit)


__all__ = [
    "ENV_JOBS",
    "POLL_SECONDS",
    "WorkerPool",
    "chunk_evenly",
    "parallel_map",
    "resolve_jobs",
    "worker_caps",
]
