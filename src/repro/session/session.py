"""Cached reasoning sessions: amortise one expansion over many queries.

The Section-3.1 expansion is exponential in the class set, and the
stateless entry points (:func:`repro.cr.satisfiability.is_class_satisfiable`,
:func:`repro.cr.implication.implies`) rebuild it — and re-run the
acceptability fixpoint — on every call.  A :class:`ReasoningSession`
front-ends the same decision procedures with a content-addressed cache
(:mod:`repro.session.fingerprint`, :mod:`repro.session.cache`): the
first query against a schema builds the expansion, the pruned system
``Ψ_S``, and the maximal acceptable support once; every further
satisfiability or implication query against that schema — in any order,
batched or not — is answered from the cached support without touching
the solver.

Soundness of the warm path is the same mathematics the one-shot API
relies on: the maximal acceptable support is the union of the supports
of *all* acceptable solutions, so "some acceptable solution makes one
of these unknowns positive" (Theorem 3.3 for satisfiability, Section 4
for ISA and disjointness implication) is exactly "the target set meets
the support", and the cached full-support integer witness is itself an
acceptable solution positive on every support unknown — one witness
serves every satisfiable class and every counter-model at once.
Cardinality implications extend the schema with the Section-4
exceptional class; the extended schema is cached under its own
fingerprint, so repeated cardinality queries are warm as well.

Budgets (:mod:`repro.runtime.budget`) thread through unchanged: each
entry point takes ``budget=`` with the same degrade-to-UNKNOWN contract
as the stateless API, cache stages charge the ambient budget as they
build, and a budget that dies mid-build never publishes partial state —
the next query resumes from the last completed stage.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TypeVar

from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.construction import construct_model
from repro.cr.expansion import ExpansionLimits
from repro.cr.implication import (
    ImplicationQuery,
    ImplicationResult,
    _unknown_implication,
    exceptional_schema,
    strip_class,
)
from repro.cr.satisfiability import (
    SatisfiabilityResult,
    _unknown_result,
    acceptable_with_positive,
    class_targets,
    diagnostic_result,
)
from repro.cr.schema import Card, CRSchema, UNBOUNDED
from repro.errors import BudgetExceededError, ReproError, SchemaError
from repro.pipeline import STAGE_SOLVE, STAGE_VERDICT, stage
from repro.runtime.budget import Budget, run_governed
from repro.runtime.fallback import DEFAULT_FALLBACK, FallbackPolicy
from repro.runtime.outcome import Verdict
from repro.session.cache import SchemaArtifacts, SessionCache
from repro.session.fingerprint import schema_fingerprint
from repro.solver.stats import search_stats_sink

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

SESSION_STATS_KEYS: tuple[str, ...] = (
    "queries",
    "hits",
    "misses",
    "evictions",
    "analysis_runs",
    "analysis_short_circuits",
    "expansion_builds",
    "system_builds",
    "fixpoint_runs",
    "store_hits",
    "store_misses",
    "store_writes",
    "store_write_failures",
    "components_total",
    "components_reused",
    "components_rebuilt",
    "zero_sets_enumerated",
    "pruned_by_orbit",
    "pruned_by_nogood",
    "orbits_found",
)
"""The :class:`SessionStats` field names, in ``as_dict`` order.  The
parallel fan-out and the serve daemon sum per-worker / per-request stats
dicts over exactly these keys."""


@dataclass(frozen=True)
class SessionStats:
    """A point-in-time view of a session's cache economics."""

    queries: int
    hits: int
    misses: int
    evictions: int
    analysis_runs: int
    analysis_short_circuits: int
    expansion_builds: int
    system_builds: int
    fixpoint_runs: int
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_write_failures: int = 0
    components_total: int = 0
    components_reused: int = 0
    components_rebuilt: int = 0
    zero_sets_enumerated: int = 0
    pruned_by_orbit: int = 0
    pruned_by_nogood: int = 0
    orbits_found: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "analysis_runs": self.analysis_runs,
            "analysis_short_circuits": self.analysis_short_circuits,
            "expansion_builds": self.expansion_builds,
            "system_builds": self.system_builds,
            "fixpoint_runs": self.fixpoint_runs,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_writes": self.store_writes,
            "store_write_failures": self.store_write_failures,
            "components_total": self.components_total,
            "components_reused": self.components_reused,
            "components_rebuilt": self.components_rebuilt,
            "zero_sets_enumerated": self.zero_sets_enumerated,
            "pruned_by_orbit": self.pruned_by_orbit,
            "pruned_by_nogood": self.pruned_by_nogood,
            "orbits_found": self.orbits_found,
        }


class ReasoningSession:
    """Answer many queries against one (or a few) schemas from shared
    cached state.

    Parameters
    ----------
    schema:
        The CR-schema this session fronts.  Schemas are immutable;
        "editing" one means building a new schema, whose different
        fingerprint naturally misses the cache — create a sibling
        session with :meth:`for_schema` to keep sharing the cache.
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
    limits / fallback:
        Forwarded to the expansion build and to the solver-fault
        fallback of a pinned zero-set walk (see
        :class:`repro.cr.expansion.ExpansionLimits` and
        :mod:`repro.runtime.fallback`); a fault in the cached fixpoint
        itself surfaces.
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
        self.fingerprint = schema_fingerprint(schema)
        self.queries = 0

    # -- cache plumbing ----------------------------------------------------

    def _artifacts(self) -> SchemaArtifacts:
        return self.cache.artifacts(self.schema, self.fingerprint, self.limits)

    def _artifacts_for(self, schema: CRSchema) -> SchemaArtifacts:
        """Artifacts for a derived (Section-4 extended) schema."""
        return self.cache.artifacts(schema, limits=self.limits)

    @property
    def warm(self) -> bool:
        """Whether this schema's artifacts are fully built."""
        entry = self._peek()
        return entry is not None and entry.warm

    def _peek(self) -> SchemaArtifacts | None:
        if self.fingerprint not in self.cache:
            return None
        # artifacts() would count a hit; peek through the private map to
        # keep `warm` observation-free.
        return self.cache._entries.get(self.fingerprint)

    @property
    def stats(self) -> SessionStats:
        cache_stats = self.cache.stats
        return SessionStats(queries=self.queries, **cache_stats.as_dict())

    def _governed(
        self,
        budget: Budget | None,
        compute: Callable[[], _R],
        on_exhaustion: Callable[[BudgetExceededError], _R],
    ) -> _R:
        """:func:`run_governed` with this session's cache stats installed
        as the ambient search-counter sink, so any Theorem-3.4 decision
        procedure reached under a query (a pinned ``pruned``/``naive``
        engine) lands its pruning counters in the
        same :class:`~repro.session.cache.CacheStats` funnel as the
        cache counters."""

        def governed_compute() -> _R:
            with search_stats_sink(self.cache.stats):
                return compute()

        return run_governed(budget, governed_compute, on_exhaustion)

    def for_schema(self, schema: CRSchema) -> ReasoningSession:
        """A sibling session for an edited schema, sharing this cache.

        The new schema's fingerprint keys its own cache entry, so the
        sibling is cold exactly when the edit changed something
        semantically relevant — renaming the schema label, reordering
        unordered statements, or re-adding duplicates keeps the entry
        warm.
        """
        return ReasoningSession(
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
        """Theorem-3.3 satisfiability of ``cls``, from cached state.

        Cold cost is one expansion + system build + fixpoint; warm cost
        is a support lookup.  The result's witness is the cached
        full-support solution (positive on every satisfiable class at
        once), so :func:`repro.cr.construction.construct_model_for_result`
        works on it unchanged.
        """
        self.schema.require_class(cls)
        self.queries += 1
        effective = budget if budget is not None else self.budget

        def compute() -> SatisfiabilityResult:
            artifacts = self._artifacts()
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
                    satisfiable, solution, support = (
                        acceptable_with_positive(
                            cr_system,
                            targets,
                            engine,
                            fallback=self.fallback,
                        )
                    )
                return SatisfiabilityResult(
                    cls=cls,
                    satisfiable=satisfiable,
                    engine=engine,
                    cr_system=cr_system,
                    solution=solution,
                    support=support if satisfiable else frozenset(),
                )
            support = artifacts.ensure_support()
            cr_system = artifacts.ensure_system()
            witness = artifacts.witness
            assert witness is not None  # set alongside the support
            with stage(STAGE_VERDICT, phase="session:lookup"):
                targets = class_targets(cr_system, cls)
                satisfiable = bool(targets & support)
            return SatisfiabilityResult(
                cls=cls,
                satisfiable=satisfiable,
                engine=ENGINE,
                cr_system=cr_system,
                solution=dict(witness) if satisfiable else None,
                support=support if satisfiable else frozenset(),
            )

        return self._governed(
            effective, compute, lambda error: _unknown_result(cls, ENGINE, error)
        )

    def satisfiable_classes(
        self, budget: Budget | None = None
    ) -> dict[str, bool | Verdict]:
        """Satisfiability of every class; one fixpoint cold, lookups warm."""
        self.queries += 1
        effective = budget if budget is not None else self.budget

        def compute() -> dict[str, bool | Verdict]:
            artifacts = self._artifacts()
            report = artifacts.ensure_analysis()
            if set(self.schema.classes) <= report.unsat_classes:
                # Every class is statically settled; skip the expansion.
                self.cache.stats.bump("analysis_short_circuits")
                with stage(STAGE_VERDICT, phase="session:lookup"):
                    return {cls: False for cls in self.schema.classes}
            artifacts.ensure_support()
            assert artifacts.class_verdicts is not None
            return dict(artifacts.class_verdicts)

        return self._governed(
            effective,
            compute,
            lambda error: {cls: Verdict.UNKNOWN for cls in self.schema.classes},
        )

    def is_schema_fully_satisfiable(self, budget: Budget | None = None) -> bool:
        """Whether no class is forced empty (UNKNOWN reads ``False``)."""
        return all(self.satisfiable_classes(budget).values())

    # -- implication -------------------------------------------------------

    def implies(
        self, query: ImplicationQuery, budget: Budget | None = None
    ) -> ImplicationResult:
        """Decide ``S ⊨ K`` from cached state (Section 4).

        ISA and disjointness statements are support lookups against
        this schema's entry; cardinality statements reason over the
        Section-4 extended schema, cached under its own fingerprint.
        """
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
        """Batch form of :meth:`implies` over one warm cache entry.

        All queries share the session's artifacts (and ``budget``, when
        given: the counters accumulate across the batch, so exhaustion
        degrades the remaining answers to UNKNOWN rather than raising
        mid-batch).
        """
        effective = budget if budget is not None else self.budget
        return [self.implies(query, budget=effective) for query in queries]

    # -- implication internals --------------------------------------------

    def _countermodel_result(
        self,
        query: ImplicationQuery,
        artifacts: SchemaArtifacts,
        strip: str | None = None,
    ) -> ImplicationResult:
        witness = artifacts.witness
        assert witness is not None  # callers run ensure_support() first
        with stage(STAGE_VERDICT, phase="session:countermodel"):
            model = construct_model(artifacts.ensure_system(), witness)
            if strip is not None:
                model = strip_class(model, strip)
        return ImplicationResult(query, False, ENGINE, model)

    def _implies_isa(
        self, query: IsaStatement, budget: Budget | None
    ) -> ImplicationResult:
        self.schema.require_class(query.sub)
        self.schema.require_class(query.sup)
        self.queries += 1
        effective = budget if budget is not None else self.budget

        def compute() -> ImplicationResult:
            artifacts = self._artifacts()
            support = artifacts.ensure_support()
            cr_system = artifacts.ensure_system()
            expansion = artifacts.expansion
            assert expansion is not None  # built by ensure_system()
            with stage(STAGE_VERDICT, phase="session:lookup"):
                counterexamples = frozenset(
                    cr_system.class_var[compound]
                    for compound in expansion.consistent_classes_containing(
                        query.sub
                    )
                    if query.sup not in compound.members
                )
                implied = not (counterexamples & support)
            if implied:
                return ImplicationResult(query, True, ENGINE, None)
            return self._countermodel_result(query, artifacts)

        return self._governed(
            effective,
            compute,
            lambda error: _unknown_implication(query, ENGINE, error),
        )

    def _implies_disjointness(
        self, query: DisjointnessStatement, budget: Budget | None
    ) -> ImplicationResult:
        class_list = sorted(query.classes)
        if len(class_list) < 2:
            raise SchemaError("disjointness query needs at least two classes")
        for cls in class_list:
            self.schema.require_class(cls)
        self.queries += 1
        effective = budget if budget is not None else self.budget

        def compute() -> ImplicationResult:
            artifacts = self._artifacts()
            support = artifacts.ensure_support()
            cr_system = artifacts.ensure_system()
            expansion = artifacts.expansion
            assert expansion is not None  # built by ensure_system()
            with stage(STAGE_VERDICT, phase="session:lookup"):
                shared = frozenset(
                    cr_system.class_var[compound]
                    for compound in expansion.consistent_compound_classes()
                    if sum(cls in compound.members for cls in class_list) >= 2
                )
                implied = not (shared & support)
            if implied:
                return ImplicationResult(query, True, ENGINE, None)
            return self._countermodel_result(query, artifacts)

        return self._governed(
            effective,
            compute,
            lambda error: _unknown_implication(query, ENGINE, error),
        )

    def _implies_cardinality(
        self,
        query: MinCardinalityStatement | MaxCardinalityStatement,
        exceptional_card: Card,
        budget: Budget | None,
    ) -> ImplicationResult:
        extended, exc = exceptional_schema(
            self.schema, query.cls, query.rel, query.role, exceptional_card
        )
        self.queries += 1
        effective = budget if budget is not None else self.budget

        def compute() -> ImplicationResult:
            artifacts = self._artifacts_for(extended)
            support = artifacts.ensure_support()
            with stage(STAGE_VERDICT, phase="session:lookup"):
                targets = class_targets(artifacts.cr_system, exc)
                implied = not (targets & support)
            if implied:
                return ImplicationResult(query, True, ENGINE, None)
            return self._countermodel_result(query, artifacts, strip=exc)

        return self._governed(
            effective,
            compute,
            lambda error: _unknown_implication(query, ENGINE, error),
        )

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
            f"ReasoningSession({self.schema.name!r}, {state}, "
            f"fingerprint={self.fingerprint[:12]}…, "
            f"{self.queries} queries, {self.cache!r})"
        )


__all__ = [
    "ENGINE",
    "SESSION_STATS_KEYS",
    "ReasoningSession",
    "SessionStats",
]
