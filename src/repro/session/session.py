"""Cached reasoning sessions: amortise one expansion per island over many
queries.

The Section-3.1 expansion is exponential in the class set, and the
stateless entry points (:func:`repro.cr.satisfiability.is_class_satisfiable`,
:func:`repro.cr.implication.implies`) rebuild it — and re-run the
acceptability fixpoint — on every call.  A :class:`ReasoningSession`
front-ends the same decision procedures with a content-addressed cache
(:mod:`repro.session.fingerprint`, :mod:`repro.session.cache`), and it
pays the expansion per constraint-graph island
(:mod:`repro.components.decompose`, DESIGN §13) rather than for the whole
schema:

* the ``decompose`` pipeline stage splits the schema into islands, each
  cached (memory LRU *and* persistent store) under its own fingerprint,
  so a one-island edit invalidates one entry, not the bundle;
* satisfiability is decided on the owning island's entry, and
  ``satisfiable_classes`` folds the per-island verdict maps under the
  ``combine`` stage;
* ISA and disjointness questions whose classes span islands are decided
  on the merged sub-schema of just the touched islands (equivalent to
  the whole schema), and Section-4 cardinality questions on the owning
  island's extended schema, cached under its own fingerprint;
* every first touch of an island's base entry *classifies* it — warm
  entries count as ``components_reused``, cold ones as
  ``components_rebuilt`` — in the cache's
  :class:`~repro.runtime.stats.Counters`, which is what ``repro diff``,
  ``batch --stats`` and ``/metrics`` report.

Each island and merged sub-schema is keyed by the fingerprint the
decomposition already holds, so a session computes none of its own.  A
single-island schema is its own only component: its cache key and
artifacts are the whole schema's.

Soundness of the warm path is the same mathematics the one-shot API
relies on: the maximal acceptable support is the union of the supports
of *all* acceptable solutions, so "some acceptable solution makes one
of these unknowns positive" (Theorem 3.3 for satisfiability, Section 4
for ISA and disjointness implication) is exactly "the target set meets
the support", and the cached full-support integer witness is itself an
acceptable solution positive on every support unknown — one witness
serves every satisfiable class and every counter-model at once.

Budgets (:mod:`repro.runtime.budget`) thread through unchanged: each
entry point takes ``budget=`` with the same degrade-to-UNKNOWN contract
as the stateless API, cache stages charge the ambient budget as they
build, and a budget that dies mid-build never publishes partial state —
the next query resumes from the last completed stage.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.components.decompose import (
    ComponentDecomposition,
    SchemaComponent,
    decompose_schema,
)
from repro.cr.constraints import (
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.construction import construct_model
from repro.cr.implication import (
    ImplicationQuery,
    ImplicationResult,
    _unknown_implication,
    reduce_query,
    strip_class,
)
from repro.cr.interpretation import Interpretation
from repro.cr.satisfiability import (
    SatisfiabilityResult,
    _fixpoint_with_positive,
    _unknown_result,
    class_targets,
    diagnostic_result,
)
from repro.cr.schema import CRSchema
from repro.errors import BudgetExceededError, SolverError
from repro.pipeline import (
    STAGE_COMBINE,
    STAGE_DECOMPOSE,
    STAGE_SOLVE,
    STAGE_VERDICT,
    stage,
)
from repro.runtime.budget import Budget, run_governed
from repro.runtime.outcome import Verdict
from repro.runtime.stats import Counters, search_stats_sink
from repro.session.cache import SchemaArtifacts, SessionCache, WalkAnswer
# ``schema_fingerprint`` is re-exported: perfbench's traced run wraps it
# under this module's name (``perfbench/tracing.py``, ``CALL_SITES``).
from repro.session.fingerprint import schema_fingerprint

_R = TypeVar("_R")

ENGINE = "session"
"""Engine tag carried by results answered from cached session state."""


def _pinned_walk_engine() -> str | None:
    """The selected engine when it is a Theorem-3.4 zero-set walk
    (``pruned``/``naive``), else ``None`` — mirroring
    ``repro.cr.satisfiability._resolve_engine`` for the stateless API.
    """
    from repro.solver.registry import active_backend_name

    name = active_backend_name()
    return None if name == "fixpoint" else name


class ReasoningSession:
    """Answer many queries against one schema from shared cached state,
    one constraint-graph island at a time.

    Parameters
    ----------
    schema:
        The CR-schema this session fronts.  Schemas are immutable;
        "editing" one means building a new schema — create a sibling
        session with :meth:`for_schema` to keep sharing the cache, so
        that only the islands the edit touched go cold.
    cache:
        A :class:`~repro.session.cache.SessionCache` to draw artifacts
        from.  Pass one cache to many sessions to amortise across
        schemas and requests; by default each session gets its own.
    budget:
        Default :class:`~repro.runtime.Budget` governing every query
        that does not pass its own.  As with the stateless API, a
        session-or-call budget degrades answers to UNKNOWN verdicts on
        exhaustion; with no budget, an *ambient* budget still applies
        and exhaustion raises.
    decomposition:
        A prebuilt :func:`~repro.components.decompose.decompose_schema`
        of ``schema`` (the serve engine memoizes one per schema text);
        without it the session decomposes ``schema`` under the
        ``decompose`` stage.  Passing
        :func:`~repro.components.decompose.monolithic_decomposition`
        reasons over the whole schema as one island.
    """

    def __init__(
        self,
        schema: CRSchema,
        cache: SessionCache | None = None,
        budget: Budget | None = None,
        decomposition: ComponentDecomposition | None = None,
    ) -> None:
        self.schema = schema
        self.cache = cache if cache is not None else SessionCache()
        self.budget = budget
        if decomposition is None:
            # Timing-only stage: no budget phase, so construction stays
            # check-free.
            with stage(STAGE_DECOMPOSE):
                decomposition = decompose_schema(schema)
        self.decomposition = decomposition
        self.fingerprint = decomposition.whole_fingerprint
        self.queries = 0
        self.components_total = 0
        self.components_reused = 0
        self.components_rebuilt = 0
        self._classified: set[str] = set()
        self._merged: dict[frozenset[int], CRSchema] = {}

    # -- island plumbing ---------------------------------------------------

    def _classify(self, component: SchemaComponent) -> None:
        """First touch of a component's base artifacts: acquire the cache
        entry and record whether it arrived warm (``components_reused``)
        or must be built (``components_rebuilt``).  An entry holding a
        pinned walk's memoized answer counts as warm: a pinned walk
        never builds the fixpoint support that ``warm`` tracks."""
        if component.fingerprint in self._classified:
            return
        self._classified.add(component.fingerprint)
        entry = self.cache.artifacts(component.schema, component.fingerprint)
        stats = self.cache.stats
        stats.bump("components_total")
        self.components_total += 1
        if entry.warm or entry.walks:
            stats.bump("components_reused")
            self.components_reused += 1
        else:
            stats.bump("components_rebuilt")
            self.components_rebuilt += 1

    def classify_all(self) -> None:
        """Classify every component eagerly (the ``repro diff`` path)."""
        for component in self.decomposition.components:
            self._classify(component)

    def _routed(self, classes: Iterable[str]) -> tuple[CRSchema, str]:
        """The schema and fingerprint deciding a query over ``classes``:
        the owning component when they share one, else the merged
        sub-schema of the components they touch."""
        components = self.decomposition.components_of(classes)
        if len(components) == 1:
            (component,) = components
            self._classify(component)
            return component.schema, component.fingerprint
        indices = frozenset(component.index for component in components)
        merged = self._merged.get(indices)
        if merged is None:
            with stage(STAGE_COMBINE):
                merged = self.decomposition.merged_schema(indices)
            self._merged[indices] = merged
        return merged, self.decomposition.merged_fingerprint(indices)

    @property
    def warm(self) -> bool:
        """Whether every component's artifacts are fully built."""
        # artifacts() would count a hit; peek through the private map to
        # keep `warm` observation-free.
        entries = self.cache._entries
        for component in self.decomposition.components:
            entry = entries.get(component.fingerprint)
            if entry is None or not entry.warm:
                return False
        return True

    @property
    def stats(self) -> Counters:
        """A snapshot: this session's ``queries``, then the cache's
        counters (:data:`~repro.session.cache.CACHE_COUNTERS`)."""
        counts = {"queries": self.queries, **self.cache.stats.as_dict()}
        snapshot = Counters(counts)
        for name, value in counts.items():
            snapshot.bump(name, value)
        return snapshot

    def _governed(
        self,
        budget: Budget | None,
        compute: Callable[[], _R],
        on_exhaustion: Callable[[BudgetExceededError], _R],
    ) -> _R:
        """:func:`run_governed` with the cache's counters installed as
        the ambient search-counter sink, so any Theorem-3.4 decision
        procedure reached under a query (a pinned ``pruned``/``naive``
        engine) counts its pruning beside the cache counters."""

        def governed_compute() -> _R:
            with search_stats_sink(self.cache.stats):
                return compute()

        return run_governed(budget, governed_compute, on_exhaustion)

    def for_schema(self, schema: CRSchema) -> ReasoningSession:
        """A sibling session for an edited schema, sharing this cache.

        Components untouched by the edit keep their fingerprints, so the
        sibling re-acquires their artifacts warm and only the edited
        island goes cold — the incremental contract ``repro diff``
        reports on.  Renaming the schema label, reordering unordered
        statements, or re-adding duplicates keeps every island warm.
        """
        return ReasoningSession(schema, cache=self.cache, budget=self.budget)

    # -- satisfiability ----------------------------------------------------

    def is_class_satisfiable(
        self, cls: str, budget: Budget | None = None
    ) -> SatisfiabilityResult:
        """Theorem-3.3 satisfiability of ``cls``, decided on its island.

        Cold cost is one expansion + system build + fixpoint of the
        island; warm cost is a lookup in the island's compound-class
        table against its support.  The result's witness is the
        island's cached full-support solution (positive on every
        satisfiable class of the island at once), so
        :func:`repro.cr.construction.construct_model_for_result` works
        on it unchanged; the result's ``cr_system`` is built on first
        read, so an island restored from the store rebuilds ``Ψ_S``
        only for a caller that reads it.

        With a zero-set walk pinned (``--backend pruned``/``naive``)
        the class is decided by that walk instead, and the result
        carries the walk's own witness and support.  The island's entry
        memoizes each walk's answer by engine and target set, so a
        repeated class costs no LP, and every pruned walk on the island
        starts from the island's shared nogood ledger
        (:meth:`~repro.session.cache.SchemaArtifacts.walk`).  A walk
        that faults is answered by the fixpoint and one that exhausts
        its budget answers UNKNOWN; neither answer is memoized, so the
        next ask walks again.
        """
        self.schema.require_class(cls)
        self.queries += 1
        component = self.decomposition.component_of(cls)
        self._classify(component)
        effective = budget if budget is not None else self.budget

        def compute() -> SatisfiabilityResult:
            artifacts = self.cache.artifacts(component.schema, component.fingerprint)
            diagnostic = artifacts.ensure_analysis().unsat_witness(cls)
            if diagnostic is not None:
                # The witness proves `cls` empty in every model, so the
                # Theorem-3.3 verdict is settled without the expansion.
                self.cache.stats.bump("analysis_short_circuits")
                with stage(STAGE_VERDICT, phase="session:lookup"):
                    return diagnostic_result(cls, diagnostic)
            engine = _pinned_walk_engine()
            if engine is not None:
                # The user pinned a Theorem-3.4 decision engine
                # (``--backend pruned``/``naive``): decide this class
                # through it — reusing the cached expansion/system —
                # so pruning counters land in the session funnel.
                cr_system = artifacts.ensure_system()
                with stage(STAGE_SOLVE, phase=f"decide:{engine}"):
                    targets = class_targets(cr_system, cls)
                    satisfiable, solution, support = self._walk(
                        artifacts, engine, targets
                    )
                return SatisfiabilityResult(
                    cls=cls,
                    satisfiable=satisfiable,
                    engine=engine,
                    system_builder=artifacts.ensure_system,
                    solution=solution,
                    support=support if satisfiable else frozenset(),
                )
            support = artifacts.ensure_support()
            witness = artifacts.witness
            assert witness is not None  # set alongside the support
            with stage(STAGE_VERDICT, phase="session:lookup"):
                targets = artifacts.compound_unknowns(
                    lambda members: cls in members
                )
                satisfiable = bool(targets & support)
            return SatisfiabilityResult(
                cls=cls,
                satisfiable=satisfiable,
                engine=ENGINE,
                system_builder=artifacts.ensure_system,
                solution=dict(witness) if satisfiable else None,
                support=support if satisfiable else frozenset(),
            )

        return self._governed(
            effective, compute, lambda error: _unknown_result(cls, ENGINE, error)
        )

    def _walk(
        self, artifacts: SchemaArtifacts, engine: str, targets: frozenset[str]
    ) -> WalkAnswer:
        """The island's memoized walk answer; a walk that faults is
        answered by the fixpoint (as
        :func:`~repro.cr.satisfiability.acceptable_with_positive`
        does), and that answer is not memoized."""
        try:
            return artifacts.walk(engine, targets)
        except SolverError:
            return _fixpoint_with_positive(artifacts.ensure_system(), targets)

    def satisfiable_classes(
        self, budget: Budget | None = None
    ) -> dict[str, bool | Verdict]:
        """Satisfiability of every class: one fixpoint per island cold,
        lookups warm, verdict maps folded in declaration order under
        ``combine``.

        The sweep always runs the fixpoint, even with a zero-set walk
        pinned: one fixpoint decides every class of an island, where a
        walk would pay one exponential search per class.
        """
        self.queries += 1
        effective = budget if budget is not None else self.budget
        components = self.decomposition.components
        verdicts: dict[str, bool | Verdict] = {}
        for component in components:
            self._classify(component)
            verdicts.update(self._island_verdicts(component, effective))
        if len(components) == 1:
            return verdicts
        with stage(STAGE_COMBINE):
            return {cls: verdicts[cls] for cls in self.schema.classes}

    def _island_verdicts(
        self, component: SchemaComponent, budget: Budget | None
    ) -> dict[str, bool | Verdict]:
        classes = component.schema.classes

        def compute() -> dict[str, bool | Verdict]:
            artifacts = self.cache.artifacts(component.schema, component.fingerprint)
            report = artifacts.ensure_analysis()
            if set(classes) <= report.unsat_classes:
                # Every class is statically settled; skip the expansion.
                self.cache.stats.bump("analysis_short_circuits")
                with stage(STAGE_VERDICT, phase="session:lookup"):
                    return {cls: False for cls in classes}
            artifacts.ensure_support()
            verdicts = artifacts.class_verdicts
            assert verdicts is not None  # set alongside the support
            # Declaration order, whatever order a restored map has.
            return {cls: verdicts[cls] for cls in classes}

        return self._governed(
            budget,
            compute,
            lambda error: {cls: Verdict.UNKNOWN for cls in classes},
        )

    def is_schema_fully_satisfiable(self, budget: Budget | None = None) -> bool:
        """Whether no class is forced empty (UNKNOWN reads ``False``)."""
        return all(self.satisfiable_classes(budget).values())

    # -- implication -------------------------------------------------------

    def implies(
        self, query: ImplicationQuery, budget: Budget | None = None
    ) -> ImplicationResult:
        """Decide ``S ⊨ K`` from cached state (Section 4).

        The query's :func:`~repro.cr.implication.reduce_query` reduction
        is decided on one cache entry: ISA and disjointness on the entry
        of the island (or merged islands) their classes live in, and
        cardinality on the owning island's Section-4 extended schema,
        cached under its own fingerprint.  That extension and its
        fingerprint are made once per query and kept by the
        decomposition
        (:meth:`~repro.components.decompose.ComponentDecomposition.extension`).
        Either way the answer is a lookup: implied iff the reduction's
        compound unknowns miss the entry's support.
        """
        # Validate (and fail) against the whole schema before counting;
        # this builds no extended schema.
        reduction = reduce_query(self.schema, query)
        self.queries += 1
        if reduction is None:
            return ImplicationResult(query, True, ENGINE, None)
        if isinstance(query, (MinCardinalityStatement, MaxCardinalityStatement)):
            # Decided on the owning island, which is not classified.
            reduction, fingerprint = self.decomposition.extension(query)
            schema = reduction.schema
        else:
            schema, fingerprint = self._routed(reduction.classes)
        where, strip = reduction.where, reduction.strip
        effective = budget if budget is not None else self.budget

        def compute() -> ImplicationResult:
            artifacts = self.cache.artifacts(schema, fingerprint)
            support = artifacts.ensure_support()
            with stage(STAGE_VERDICT, phase="session:lookup"):
                implied = not (artifacts.compound_unknowns(where) & support)
            if implied:
                return ImplicationResult(query, True, ENGINE, None)
            return self._countermodel_result(query, artifacts, strip)

        return self._governed(
            effective,
            compute,
            lambda error: _unknown_implication(query, ENGINE, error),
        )

    def implies_all(
        self,
        queries: Iterable[ImplicationQuery],
        budget: Budget | None = None,
    ) -> list[ImplicationResult]:
        """Batch form of :meth:`implies` over shared cache entries.

        All queries share the session's artifacts (and ``budget``, when
        given: the counters accumulate across the batch, so exhaustion
        degrades the remaining answers to UNKNOWN rather than raising
        mid-batch).
        """
        effective = budget if budget is not None else self.budget
        return [self.implies(query, budget=effective) for query in queries]

    def _countermodel_result(
        self,
        query: ImplicationQuery,
        artifacts: SchemaArtifacts,
        strip: str | None = None,
    ) -> ImplicationResult:
        """A not-implied answer whose countermodel is built on first read
        from the cached witness (checked when the fixpoint produced it),
        with the Section-4 class ``strip`` dropped when given.  An entry
        restored from the store rebuilds ``Ψ_S`` only then."""
        witness = artifacts.witness
        assert witness is not None  # callers run ensure_support() first

        def build() -> Interpretation:
            model = construct_model(artifacts.ensure_system(), witness)
            return model if strip is None else strip_class(model, strip)

        return ImplicationResult(query, False, ENGINE, build)

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        state = "warm" if self.warm else "cold"
        return (
            f"ReasoningSession({self.schema.name!r}, "
            f"{len(self.decomposition.components)} component(s), {state}, "
            f"fingerprint={self.fingerprint[:12]}…, "
            f"{self.queries} queries, {self.cache!r})"
        )


__all__ = [
    "ENGINE",
    "ReasoningSession",
    "schema_fingerprint",
]
