"""The reasoning engine behind the daemon's POST endpoints.

One :class:`ServeEngine` owns the process's shared two-tier cache — a
:class:`~repro.session.SessionCache` front (memory LRU) over an
optional :class:`~repro.store.ArtifactStore` (the crash-safe
persistent tier) — and answers ``check`` / ``implies`` / ``batch`` /
``diff`` requests on executor threads, off the event loop.  Requests
reason through :class:`~repro.session.ReasoningSession`, so cache
entries are keyed per constraint-graph component and two schemas
sharing an unchanged island share its artifacts.

**Parity is the design center**: a request is parsed with the same
surface-syntax parsers the CLI uses (:func:`repro.cli.parse_batch_query`),
governed by the same :class:`~repro.runtime.Budget` the CLI flags build
(:func:`~repro.runtime.budget.budget_from_caps`), and answered through
the same :func:`repro.cli.answer_all` loop ``repro batch`` uses — so a
served record is byte-identical to the ``repro batch --json``
record for the same schema and query, which the differential suite
asserts wholesale.

**Concurrency model**: requests for the same *whole-schema*
fingerprint are serialized on a per-fingerprint lock (so a cold entry
is built exactly once and never observed half-built — no torn
adoption), which the engine drops once no request holds or waits on
it; requests for different schemas run concurrently, and the
shared cache and store lock their own entry map and counters, so every
``/metrics`` counter stays monotone.  Two *different* whole schemas
sharing a constraint-graph island may race on that island's component
entry; the race is benign — the staged builds are idempotent and each
``ensure_*`` stage publishes complete state or nothing.

**Parsed-schema memo**: a bounded LRU keyed by the exact schema text
holds each parsed schema with its fingerprint and component
decomposition, so a repeated text is neither re-parsed, re-fingerprinted
nor re-decomposed.  It holds at most ``memory_entries`` texts, is
guarded by its own lock, and a decomposition enters it only with its
whole fingerprint set; its lazily merged sub-schemas are then written
only by requests holding that fingerprint's lock (``/diff`` reads the
old side's decomposition and writes nothing to it).  A text that fails
to parse is never memoized.

**Fault degradation**: the staged cache publishes the in-memory entry
*before* persisting it, so a store crash mid-write (a
:class:`~repro.runtime.faults.SimulatedCrash`, or any unexpected
failure below the session) leaves warm, consistent state behind; the
engine retries the request once against that state and answers
normally — rebuild-and-answer, never a 500 carrying bad bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from typing import Any

from repro.cli import answer_all, parse_batch_query, parse_statement
from repro.components import (
    ComponentDecomposition,
    compute_delta,
    decompose_schema,
)
from repro.dsl import parse_schema
from repro.errors import LimitExceededError, ReproError
from repro.pipeline import STAGE_DECOMPOSE, PipelineRun, activate_run, stage
from repro.runtime.budget import Budget, budget_from_caps
from repro.serve.metrics import ServeMetrics
from repro.session import ReasoningSession, SessionCache
from repro.session.fingerprint import schema_fingerprint
from repro.solver.registry import pin_backend
from repro.store import ArtifactStore


LOCK_ACQUIRE_SECONDS = 300.0
"""Deadline on acquiring a per-fingerprint build lock.  Generous —
the build ahead may legitimately be large — but bounded, so a wedged
build degrades to a clean error instead of stacking executor threads
(lintkit rule R9)."""


class ServeEngine:
    """Parse, govern, and answer one request at a time per fingerprint."""

    ENDPOINTS = ("check", "implies", "batch", "diff")

    def __init__(
        self,
        cache_dir: str | None = None,
        memory_entries: int = 64,
        backend: str | None = None,
        default_caps: dict[str, float | int] | None = None,
        metrics: ServeMetrics | None = None,
    ) -> None:
        self.store = ArtifactStore(cache_dir) if cache_dir else None
        self.cache = SessionCache(memory_entries, store=self.store)
        self.backend = backend
        self.default_caps = dict(default_caps or {})
        self.metrics = metrics
        # Fingerprint -> (its build lock, requests holding or waiting
        # on it); an entry lives only while that count is positive.
        self._fingerprint_locks: dict[str, tuple[threading.Lock, int]] = {}
        self._locks_guard = threading.Lock()
        # Schema text -> its decomposition, which carries the parsed
        # schema and (set before it is published) its fingerprint.
        self._parsed: OrderedDict[str, ComponentDecomposition] = OrderedDict()
        self._parsed_lock = threading.Lock()

    # -- request parsing -----------------------------------------------------

    def _parsed_from(
        self, payload: dict[str, Any], run: PipelineRun, field_name: str = "schema"
    ) -> ComponentDecomposition:
        """The schema text in ``field_name``, parsed, fingerprinted and
        decomposed, through the memo.  A miss records its ``decompose``
        stage in ``run``; a parse error propagates before anything is
        memoized."""
        text = payload.get(field_name)
        if not isinstance(text, str):
            raise ReproError(
                f'request needs a "{field_name}" field holding the '
                "schema DSL text"
            )
        with self._parsed_lock:
            decomposition = self._parsed.get(text)
            if decomposition is not None:
                self._parsed.move_to_end(text)
                return decomposition
        schema = parse_schema(text)
        fingerprint = schema_fingerprint(schema)
        with activate_run(run), stage(STAGE_DECOMPOSE):
            decomposition = decompose_schema(schema, fingerprint)
        with self._parsed_lock:
            # A concurrent miss on the same text may have published
            # first; every request then shares that one decomposition.
            decomposition = self._parsed.setdefault(text, decomposition)
            self._parsed.move_to_end(text)
            while len(self._parsed) > self.cache.max_entries:
                self._parsed.popitem(last=False)
        return decomposition

    def _queries_from(
        self, endpoint: str, payload: dict[str, Any]
    ) -> list[tuple[str, Any]]:
        if endpoint == "check":
            cls = payload.get("class")
            if not isinstance(cls, str):
                raise ReproError(
                    'check needs a "class" field naming the class to test'
                )
            return [("sat", cls)]
        if endpoint == "implies":
            statement = payload.get("statement")
            if not isinstance(statement, str):
                raise ReproError(
                    'implies needs a "statement" field, e.g. "A isa B"'
                )
            return [("implies", parse_statement(statement))]
        lines = payload.get("queries")
        if (
            not isinstance(lines, list)
            or not lines
            or not all(isinstance(line, str) for line in lines)
        ):
            raise ReproError(
                'batch needs a non-empty "queries" list of strings '
                "('sat <Class>' or implication statements)"
            )
        return [parse_batch_query(line) for line in lines]

    def _diff_queries_from(
        self, payload: dict[str, Any]
    ) -> list[tuple[str, Any]]:
        """Diff queries are *optional*: ``None``/absent means a
        report-only delta, mirroring ``repro diff OLD NEW`` without a
        queries file."""
        lines = payload.get("queries")
        if lines is None:
            return []
        if not isinstance(lines, list) or not all(
            isinstance(line, str) for line in lines
        ):
            raise ReproError(
                'diff "queries" must be a list of strings when present'
            )
        return [parse_batch_query(line) for line in lines]

    def _budget_from(self, payload: dict[str, Any]) -> Budget | None:
        caps = payload.get("budget")
        if caps is not None and not isinstance(caps, dict):
            raise ReproError(
                f'"budget" must be an object of caps, got {caps!r}'
            )
        merged = dict(self.default_caps)
        merged.update(caps or {})
        return budget_from_caps(merged)

    # -- concurrency ---------------------------------------------------------

    @contextmanager
    def hold_fingerprint_lock(self, fingerprint: str) -> Iterator[None]:
        """Hold the lock serializing requests against one schema
        fingerprint, acquired *with a deadline*.

        The lock is held across a potentially large artifact build, so
        a bare ``with lock:`` would stack executor threads behind a
        wedged build forever (lintkit rule R9).  A bounded acquire
        degrades that pathology to a clean
        :class:`~repro.errors.LimitExceededError`, which the app maps
        onto the CLI's exit-3 resource-exhaustion shape.

        Each caller counts itself on the fingerprint's entry before it
        waits and off after it releases; the last one off drops the
        entry, so the lock table holds only fingerprints some request
        is holding or waiting on, however many schemas a long-lived
        daemon serves.
        """
        with self._locks_guard:
            entry = self._fingerprint_locks.get(fingerprint)
            lock, users = entry if entry is not None else (threading.Lock(), 0)
            self._fingerprint_locks[fingerprint] = (lock, users + 1)
        try:
            if not lock.acquire(timeout=LOCK_ACQUIRE_SECONDS):
                raise LimitExceededError(
                    "timed out waiting for the schema build lock after "
                    f"{LOCK_ACQUIRE_SECONDS:g}s; another request is still "
                    "building artifacts for this fingerprint"
                )
            try:
                yield
            finally:
                lock.release()
        finally:
            with self._locks_guard:
                users = self._fingerprint_locks[fingerprint][1] - 1
                if users:
                    self._fingerprint_locks[fingerprint] = (lock, users)
                else:
                    del self._fingerprint_locks[fingerprint]

    # -- answering -----------------------------------------------------------

    def handle(self, endpoint: str, payload: Any) -> dict[str, Any]:
        """Answer one request; runs on an executor thread.

        Returns ``{"payload": <response body>, "stages": <PipelineRun
        dict>}``.  :class:`~repro.errors.ReproError` subclasses
        propagate for the app to map onto HTTP statuses (bad input →
        400, like CLI exit 2).
        """
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        run = PipelineRun()
        if endpoint == "diff":
            return self._handle_diff(payload, run)
        decomposition = self._parsed_from(payload, run)
        queries = self._queries_from(endpoint, payload)
        budget = self._budget_from(payload)
        fingerprint = decomposition.whole_fingerprint
        with self.hold_fingerprint_lock(fingerprint):
            try:
                records, exit_code = self._answer(
                    decomposition, queries, budget, run
                )
            except ReproError:
                raise
            except Exception:
                # An unexpected failure below the session — e.g. a store
                # write crashing mid-request.  The staged cache sets the
                # entry's fields before persisting, so the in-memory
                # state is warm and consistent; rebuild-and-answer.
                if self.metrics is not None:
                    self.metrics.count_retry()
                records, exit_code = self._answer(
                    decomposition, queries, budget, run
                )
        return {
            "payload": {
                "schema": decomposition.schema.name,
                "fingerprint": fingerprint,
                "results": records,
                "exit_code": exit_code,
            },
            "stages": run.as_dict(),
        }

    def _answer(
        self,
        decomposition: ComponentDecomposition,
        queries: list[tuple[str, Any]],
        budget: Budget | None,
        run: PipelineRun,
    ) -> tuple[list[dict[str, Any]], int]:
        """The CLI's batch loop, :func:`answer_all`, over one session on
        the memoized decomposition."""
        with ExitStack() as stack:
            stack.enter_context(activate_run(run))
            if self.backend:
                # Executor threads do not inherit the main thread's
                # contextvars, so the server-wide pin is re-applied per
                # request rather than once at startup.
                stack.enter_context(pin_backend(self.backend))
            session = ReasoningSession(
                decomposition.schema,
                cache=self.cache,
                budget=budget,
                decomposition=decomposition,
            )
            return answer_all(session, queries)

    def _handle_diff(
        self, payload: dict[str, Any], run: PipelineRun
    ) -> dict[str, Any]:
        """``POST /diff``: component delta between two schemas, plus
        optional queries answered against the *new* one.

        Mirrors ``repro diff OLD NEW --json``: the new schema's
        components are classified against the shared cache and store
        (``components_reused`` vs ``components_rebuilt``), so after a
        one-island edit only the touched island rebuilds.  Serialized
        on the *new* schema's fingerprint, like any other request that
        builds its artifacts.
        """
        old = self._parsed_from(payload, run, "old_schema")
        new = self._parsed_from(payload, run, "new_schema")
        queries = self._diff_queries_from(payload)
        budget = self._budget_from(payload)
        with self.hold_fingerprint_lock(new.whole_fingerprint):
            try:
                body = self._answer_diff(old, new, queries, budget, run)
            except ReproError:
                raise
            except Exception:
                if self.metrics is not None:
                    self.metrics.count_retry()
                body = self._answer_diff(old, new, queries, budget, run)
        return {"payload": body, "stages": run.as_dict()}

    def _answer_diff(
        self,
        old: ComponentDecomposition,
        new: ComponentDecomposition,
        queries: list[tuple[str, Any]],
        budget: Budget | None,
        run: PipelineRun,
    ) -> dict[str, Any]:
        """The CLI's diff loop over both memoized decompositions: pair
        components by fingerprint, classify the new side, answer
        queries."""
        with ExitStack() as stack:
            stack.enter_context(activate_run(run))
            if self.backend:
                stack.enter_context(pin_backend(self.backend))
            session = ReasoningSession(
                new.schema, cache=self.cache, budget=budget, decomposition=new
            )
            delta = compute_delta(old, new)
            session.classify_all()
            records, exit_code = answer_all(session, queries)
        return {
            "old_schema": old.schema.name,
            "new_schema": new.schema.name,
            "old_fingerprint": old.whole_fingerprint,
            "new_fingerprint": session.fingerprint,
            "components": delta.as_dict(),
            "results": records,
            "stats": {
                "components_total": session.components_total,
                "components_reused": session.components_reused,
                "components_rebuilt": session.components_rebuilt,
            },
            "exit_code": exit_code,
        }

    # -- observability -------------------------------------------------------

    def cache_metrics(self) -> dict[str, Any]:
        stats: dict[str, Any] = self.cache.stats.as_dict()
        stats["memory_entries"] = len(self.cache)
        stats["max_entries"] = self.cache.max_entries
        return stats

    def store_metrics(self) -> dict[str, int] | None:
        if self.store is None:
            return None
        return self.store.stats.as_dict()


__all__ = ["ServeEngine"]
