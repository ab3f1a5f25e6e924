"""Component-decomposed reasoning sessions.

:class:`DecomposedSession` is a drop-in front-end with the
:class:`~repro.session.session.ReasoningSession` surface that reasons
per constraint-graph component instead of over the whole schema:

* the ``decompose`` pipeline stage splits the schema into islands, each
  cached (memory LRU *and* persistent store) under its own fingerprint,
  so a one-island edit invalidates one entry, not the bundle;
* satisfiability routes to the owning component — the Theorem-3.4
  zero-set search pays ``2^|island|``, never ``2^|schema|`` — and
  ``satisfiable_classes`` folds the per-component verdict maps under
  the ``combine`` stage;
* ISA/disjointness questions whose classes span islands are decided on
  the merged sub-schema of just the touched components (equivalent to
  the whole schema; DESIGN §13), and Section-4 cardinality questions on
  the owning component's extended schema;
* every first touch of a component's base artifacts *classifies* it —
  warm entries count as ``components_reused``, cold ones as
  ``components_rebuilt`` — through the shared
  :meth:`~repro.session.cache.CacheStats.bump` funnel, which is what
  ``repro diff``, ``batch --stats`` and ``/metrics`` report.

For a single-component schema the component *is* the original schema
object, so cache keys, artifacts, answers, and error messages are
bit-identical to ``ReasoningSession``.  Query counting and validation
ordering deliberately replicate ``ReasoningSession`` line for line —
the session-level ``queries`` counter is owned here (inner per-component
sessions keep their own counts, which are ignored).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.components.decompose import (
    ComponentDecomposition,
    SchemaComponent,
    decompose_schema,
)
from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.expansion import ExpansionLimits
from repro.cr.implication import (
    ImplicationQuery,
    ImplicationResult,
    exceptional_schema,
)
from repro.cr.satisfiability import SatisfiabilityResult
from repro.cr.schema import Card, CRSchema, UNBOUNDED
from repro.errors import ReproError, SchemaError
from repro.pipeline import STAGE_COMBINE, STAGE_DECOMPOSE, stage
from repro.runtime.budget import Budget
from repro.runtime.fallback import DEFAULT_FALLBACK, FallbackPolicy
from repro.runtime.outcome import Verdict
from repro.session.cache import SessionCache
from repro.session.session import ENGINE, ReasoningSession, SessionStats


class DecomposedSession:
    """Answer queries against one schema, one component at a time.

    Same constructor and query surface as
    :class:`~repro.session.session.ReasoningSession`; ``cache``,
    ``budget``, ``limits`` and ``fallback`` are shared by every inner
    per-component session.
    """

    def __init__(
        self,
        schema: CRSchema,
        cache: SessionCache | None = None,
        budget: Budget | None = None,
        limits: ExpansionLimits | None = None,
        fallback: FallbackPolicy | None = DEFAULT_FALLBACK,
    ) -> None:
        self.schema = schema
        self.cache = cache if cache is not None else SessionCache()
        self.budget = budget
        self.limits = limits
        self.fallback = fallback
        # Timing-only stage: no budget phase, so construction stays
        # check-free exactly like ReasoningSession.__init__.
        with stage(STAGE_DECOMPOSE):
            self.decomposition = decompose_schema(schema)
        self.fingerprint = self.decomposition.whole_fingerprint
        self.queries = 0
        self.components_total = 0
        self.components_reused = 0
        self.components_rebuilt = 0
        self._sessions: dict[int, ReasoningSession] = {}
        self._merged_sessions: dict[frozenset[int], ReasoningSession] = {}
        self._classified: set[str] = set()

    # -- component plumbing ------------------------------------------------

    @property
    def components(self) -> tuple[SchemaComponent, ...]:
        return self.decomposition.components

    def _session_for(self, component: SchemaComponent) -> ReasoningSession:
        session = self._sessions.get(component.index)
        if session is None:
            session = self._sessions[component.index] = ReasoningSession(
                component.schema,
                cache=self.cache,
                budget=self.budget,
                limits=self.limits,
                fallback=self.fallback,
            )
        return session

    def _classify(self, component: SchemaComponent) -> None:
        """First touch of a component's base artifacts: acquire the cache
        entry and record whether it arrived warm (``components_reused``)
        or must be built (``components_rebuilt``)."""
        if component.fingerprint in self._classified:
            return
        self._classified.add(component.fingerprint)
        entry = self.cache.artifacts(
            component.schema, component.fingerprint, self.limits
        )
        stats = self.cache.stats
        stats.bump("components_total")
        self.components_total += 1
        if entry.warm:
            stats.bump("components_reused")
            self.components_reused += 1
        else:
            stats.bump("components_rebuilt")
            self.components_rebuilt += 1

    def classify_all(self) -> None:
        """Classify every component eagerly (the ``repro diff`` path)."""
        for component in self.decomposition.components:
            self._classify(component)

    def _merged_session(self, indices: frozenset[int]) -> ReasoningSession:
        session = self._merged_sessions.get(indices)
        if session is None:
            with stage(STAGE_COMBINE):
                merged = self.decomposition.merged_schema(indices)
            session = self._merged_sessions[indices] = ReasoningSession(
                merged,
                cache=self.cache,
                budget=self.budget,
                limits=self.limits,
                fallback=self.fallback,
            )
        return session

    def _routed_session(self, classes: Iterable[str]) -> ReasoningSession:
        """The session deciding a query over ``classes``: the owning
        component when they share one, else the merged sub-schema."""
        components = self.decomposition.components_of(classes)
        if len(components) == 1:
            self._classify(components[0])
            return self._session_for(components[0])
        return self._merged_session(
            frozenset(component.index for component in components)
        )

    @property
    def warm(self) -> bool:
        """Whether every component's artifacts are fully built."""
        # Peek through the private map (as ReasoningSession.warm does)
        # to keep the observation hit-free.
        entries = self.cache._entries
        for component in self.decomposition.components:
            entry = entries.get(component.fingerprint)
            if entry is None or not entry.warm:
                return False
        return True

    @property
    def stats(self) -> SessionStats:
        cache_stats = self.cache.stats
        return SessionStats(queries=self.queries, **cache_stats.as_dict())

    def for_schema(self, schema: CRSchema) -> DecomposedSession:
        """A sibling session for an edited schema, sharing this cache.

        Components untouched by the edit keep their fingerprints, so the
        sibling re-acquires their artifacts warm and only the edited
        island goes cold — the incremental contract ``repro diff``
        reports on.
        """
        return DecomposedSession(
            schema,
            cache=self.cache,
            budget=self.budget,
            limits=self.limits,
            fallback=self.fallback,
        )

    # -- satisfiability ----------------------------------------------------

    def is_class_satisfiable(
        self, cls: str, budget: Budget | None = None
    ) -> SatisfiabilityResult:
        """Theorem-3.3 satisfiability of ``cls``, decided on its island."""
        self.schema.require_class(cls)
        self.queries += 1
        component = self.decomposition.component_of(cls)
        self._classify(component)
        return self._session_for(component).is_class_satisfiable(
            cls, budget=budget
        )

    def satisfiable_classes(
        self, budget: Budget | None = None
    ) -> dict[str, bool | Verdict]:
        """Satisfiability of every class: one fixpoint per island,
        verdict maps folded in declaration order under ``combine``."""
        self.queries += 1
        components = self.decomposition.components
        if len(components) == 1:
            self._classify(components[0])
            return self._session_for(components[0]).satisfiable_classes(
                budget=budget
            )
        verdicts: dict[str, bool | Verdict] = {}
        for component in components:
            self._classify(component)
            verdicts.update(
                self._session_for(component).satisfiable_classes(budget=budget)
            )
        with stage(STAGE_COMBINE):
            return {cls: verdicts[cls] for cls in self.schema.classes}

    def is_schema_fully_satisfiable(self, budget: Budget | None = None) -> bool:
        """Whether no class is forced empty (UNKNOWN reads ``False``)."""
        return all(self.satisfiable_classes(budget).values())

    # -- implication -------------------------------------------------------

    def implies(
        self, query: ImplicationQuery, budget: Budget | None = None
    ) -> ImplicationResult:
        """Decide ``S ⊨ K`` on the touched component(s) (Section 4)."""
        if isinstance(query, IsaStatement):
            return self._implies_isa(query, budget)
        if isinstance(query, DisjointnessStatement):
            return self._implies_disjointness(query, budget)
        if isinstance(query, MinCardinalityStatement):
            return self._implies_min(query, budget)
        if isinstance(query, MaxCardinalityStatement):
            return self._implies_max(query, budget)
        raise ReproError(f"unsupported implication query {query!r}")

    def implies_all(
        self,
        queries: Iterable[ImplicationQuery],
        budget: Budget | None = None,
    ) -> list[ImplicationResult]:
        """Batch form of :meth:`implies`; one shared ``budget`` degrades
        the remaining answers to UNKNOWN on exhaustion."""
        effective = budget if budget is not None else self.budget
        return [self.implies(query, budget=effective) for query in queries]

    # -- implication internals --------------------------------------------

    def _implies_isa(
        self, query: IsaStatement, budget: Budget | None
    ) -> ImplicationResult:
        self.schema.require_class(query.sub)
        self.schema.require_class(query.sup)
        self.queries += 1
        session = self._routed_session((query.sub, query.sup))
        return session.implies(query, budget=budget)

    def _implies_disjointness(
        self, query: DisjointnessStatement, budget: Budget | None
    ) -> ImplicationResult:
        class_list = sorted(query.classes)
        if len(class_list) < 2:
            raise SchemaError("disjointness query needs at least two classes")
        for cls in class_list:
            self.schema.require_class(cls)
        self.queries += 1
        session = self._routed_session(class_list)
        return session.implies(query, budget=budget)

    def _implies_cardinality(
        self,
        query: MinCardinalityStatement | MaxCardinalityStatement,
        exceptional_card: Card,
        budget: Budget | None,
    ) -> ImplicationResult:
        # Validate (and fail) against the whole schema before counting,
        # exactly as the monolithic session does; a *legal* query's
        # class, relationship and primary class all share one island,
        # so routing to the owner afterwards cannot fail.
        exceptional_schema(
            self.schema, query.cls, query.rel, query.role, exceptional_card
        )
        self.queries += 1
        component = self.decomposition.component_of(query.cls)
        session = self._session_for(component)
        return session.implies(query, budget=budget)

    def _implies_min(
        self, query: MinCardinalityStatement, budget: Budget | None
    ) -> ImplicationResult:
        if query.value == 0:
            self.queries += 1
            return ImplicationResult(query, True, ENGINE, None)
        return self._implies_cardinality(
            query, Card(0, query.value - 1), budget
        )

    def _implies_max(
        self, query: MaxCardinalityStatement, budget: Budget | None
    ) -> ImplicationResult:
        return self._implies_cardinality(
            query, Card(query.value + 1, UNBOUNDED), budget
        )

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        state = "warm" if self.warm else "cold"
        return (
            f"DecomposedSession({self.schema.name!r}, "
            f"{len(self.decomposition.components)} component(s), {state}, "
            f"fingerprint={self.fingerprint[:12]}…, "
            f"{self.queries} queries, {self.cache!r})"
        )


__all__ = ["DecomposedSession"]
