"""The fingerprint-keyed store behind :class:`ReasoningSession`.

One :class:`SchemaArtifacts` entry per schema fingerprint holds the
reasoning state that is expensive to build and endlessly reusable:

* the static **analysis** report (polynomial — built eagerly; its
  ``error`` diagnostics let queries skip every stage below),
* the consistent **expansion** ``S̄`` (the exponential step),
* the derived disequation system **Ψ_S** in pruned mode,
* the maximal acceptable **support** of ``Ψ_S`` with an integer
  full-support **witness** (one fixpoint run, polynomially many LPs);
* with a zero-set walk pinned (``--backend pruned``/``naive``), a
  **walk memo** of each walk's own answer, keyed by engine and target
  set, and one **ledger** for the pruned walk: the island's nogood
  store plus the integer witness of each feasible ``Ψ_Z`` already
  solved, shared by every target because ``Ψ_Z`` does not depend on
  the target (:meth:`SchemaArtifacts.walk`).

The support settles *every* satisfiability question about the schema
(Theorem 3.3: a class is satisfiable iff its target unknowns meet the
support) and every ISA / disjointness implication (Section 4: implied
iff the counterexample targets miss the support), so once an entry is
warm those queries are dictionary lookups.  Cardinality implications
reason over a Section-4 extended schema ``S' = S + C_exc``; those are
cached as ordinary entries under *their own* fingerprint, so repeated
cardinality queries warm up too.

Entries build **staged**: the expansion/system stage and the fixpoint
stage each complete atomically or leave the entry unchanged, so a
budget that runs out mid-build never publishes half-built state — the
next query (under a fresh budget) resumes from the last completed
stage.  Eviction is LRU with a configurable entry cap, sized for a
service juggling many schemas.

The cache optionally fronts a **persistent second tier** — a
:class:`~repro.store.ArtifactStore` shared across processes.  A
memory miss consults the store before
building: a valid persisted bundle restores the entry fully warm
(``store_hits``), and an entry that completes its fixpoint stage
writes through (``store_writes``) so the *next* process starts warm.
The store's absent-or-valid contract means this tier can only ever
return artifacts byte-equivalent to a fresh build or nothing at all;
persistence failures (contention, full disk, corruption) degrade to
counted no-ops and the reasoning path proceeds from source.

The walk memo and the ledger are never persisted: they are not in
:data:`_BUNDLE_FIELDS`, so neither the bundle nor
:data:`repro.store.ARTIFACT_VERSION` changes, and an entry restored
from the store (or rebuilt after eviction) starts both empty.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.analyzer import analyze
from repro.analysis.diagnostics import AnalysisReport
from repro.cr.construction import witness_violation
from repro.cr.expansion import Expansion, ExpansionLimits
from repro.cr.satisfiability import (
    acceptable_support,
    decision_problem,
    support_verdicts,
)
from repro.cr.schema import CRSchema
from repro.cr.system import CRSystem, build_system
from repro.errors import ReproError, SolverError
from repro.pipeline import (
    STAGE_BUILD_SYSTEM,
    STAGE_EXPAND,
    STAGE_SOLVE,
    stage,
)
from repro.runtime.stats import SEARCH_COUNTERS, Counters
from repro.session.fingerprint import schema_fingerprint
from repro.solver.homogeneous import integerize
from repro.solver.pruned import NogoodStore
from repro.solver.registry import decide_acceptable
from repro.store.store import ArtifactStore

WalkAnswer = tuple[bool, dict[str, int] | None, frozenset[str]]
"""A zero-set walk's ``(found, integer_witness, support)``."""

_BUNDLE_FIELDS = (
    "analysis",
    "expansion",
    "cr_system",
    "support",
    "witness",
    "class_verdicts",
)
"""The persisted slice of :class:`SchemaArtifacts` — exactly the fields
needed to answer every warm query.  Changing this tuple (or the shape
of any field) is an artifact-codec change: bump
:data:`repro.store.ARTIFACT_VERSION` alongside."""


CACHE_COUNTERS = (
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
    *SEARCH_COUNTERS,
)
"""The counters a :class:`SessionCache` keeps, in report order: entry
lookups, the static analysis, each build stage, the persistent tier,
component reuse, and the zero-set walks of every session drawing on
the cache (it is their ambient sink)."""


@dataclass
class SchemaArtifacts:
    """Cached reasoning state for one schema fingerprint.

    ``support`` is the maximal acceptable support of ``Ψ_S`` and
    ``witness`` an integer acceptable solution positive on exactly that
    support; both are ``None`` until the fixpoint stage has run.

    ``walks`` memoizes each pinned zero-set walk's own answer, keyed by
    engine and target set, and ``ledger`` is the nogood store every
    pruned walk on this entry starts from (:meth:`walk`).  Both live in
    memory only.
    """

    fingerprint: str
    schema: CRSchema
    stats: Counters
    limits: ExpansionLimits | None = None
    store: ArtifactStore | None = field(default=None, repr=False)
    analysis: AnalysisReport | None = None
    expansion: Expansion | None = None
    cr_system: CRSystem | None = None
    support: frozenset[str] | None = None
    witness: dict[str, int] | None = None
    class_verdicts: dict[str, bool] | None = field(default=None, repr=False)
    walks: dict[tuple[str, frozenset[str]], WalkAnswer] = field(
        default_factory=dict, repr=False
    )
    ledger: NogoodStore = field(default_factory=NogoodStore, repr=False)

    # -- staged construction ------------------------------------------------

    def ensure_analysis(self) -> AnalysisReport:
        """Run (once) the polynomial static battery over the schema.

        Orders of magnitude cheaper than :meth:`ensure_system`, so it
        runs eagerly on the cold path: when one of its ``error``
        diagnostics settles a query, the expensive stages never build.
        """
        if self.analysis is None:
            self.analysis = analyze(self.schema)
            self.stats.bump("analysis_runs")
        return self.analysis

    def ensure_system(self) -> CRSystem:
        """Build (once) the expansion and pruned system ``Ψ_S``."""
        if self.cr_system is None:
            if self.expansion is None:
                with stage(STAGE_EXPAND, phase="session:expansion"):
                    self.expansion = Expansion(self.schema, self.limits)
                self.stats.bump("expansion_builds")
            with stage(STAGE_BUILD_SYSTEM, phase="session:system"):
                self.cr_system = build_system(self.expansion, mode="pruned")
            self.stats.bump("system_builds")
        return self.cr_system

    def ensure_support(self) -> frozenset[str]:
        """Run (once) the acceptability fixpoint; derive the witness and
        the per-class verdict table.

        The integer witness is checked against ``Ψ_S`` here, where it is
        born, before any field is set or persisted: every witness the
        cache publishes has passed :func:`witness_violation`, so warm
        answers and lazily built countermodels can rely on it.  A
        rejected witness raises :class:`SolverError` and leaves the entry
        cold.
        """
        if self.support is None:
            cr_system = self.ensure_system()
            with stage(STAGE_SOLVE, phase="session:fixpoint"):
                support, solution = acceptable_support(cr_system)
            self.stats.bump("fixpoint_runs")
            witness = integerize(solution)
            violation = witness_violation(cr_system, witness)
            if violation is not None:
                raise SolverError(f"fixpoint witness rejected: {violation}")
            self.witness = witness
            self.class_verdicts = support_verdicts(cr_system, support)
            self.support = support
            self._persist()
        return self.support

    def walk(self, engine: str, targets: frozenset[str]) -> WalkAnswer:
        """The pinned Theorem-3.4 walk's own answer for ``targets``,
        memoized per ``(engine, targets)``.

        A ``pruned`` walk starts from a copy of :attr:`ledger` and, when
        it returns, publishes that copy back with one assignment.  The
        ledger holds only facts about ``Ψ_Z``, which no target changes,
        so it is shared by every target; two concurrent walks never
        write the same object, and the one that publishes last drops
        the other's new facts, which costs a later walk an LP, never a
        wrong answer.  A walk that raises (a solver fault, an exhausted
        budget) memoizes and publishes nothing.  Each call returns a
        fresh witness dict.
        """
        key = (engine, targets)
        answer = self.walks.get(key)
        if answer is None:
            problem = decision_problem(self.ensure_system(), targets)
            ledger = self.ledger.copy() if engine == "pruned" else None
            answer = decide_acceptable(problem, engine, store=ledger)
            if ledger is not None:
                self.ledger = ledger
            self.walks[key] = answer
        found, witness, support = answer
        return found, None if witness is None else dict(witness), support

    @property
    def warm(self) -> bool:
        """Whether every stage has been built."""
        return self.support is not None

    # -- the persistent tier -------------------------------------------------

    def _persist(self) -> None:
        """Write the now-warm entry through to the store (best-effort:
        a skipped write is counted, never surfaced to the query)."""
        if self.store is None:
            return
        bundle = {name: getattr(self, name) for name in _BUNDLE_FIELDS}
        if self.store.put(self.fingerprint, bundle):
            self.stats.bump("store_writes")
        else:
            self.stats.bump("store_write_failures")

    def adopt_bundle(self, bundle: Any) -> bool:
        """Restore a persisted bundle into this (cold) entry; ``False``
        leaves the entry untouched for a normal cold build.

        The store already verified the envelope checksum and artifact
        version; this is the last line of shape validation before the
        fields go live.  Only fully-warm bundles are adopted — partial
        state would reintroduce exactly the half-built hazards the
        staged build exists to prevent.
        """
        if not isinstance(bundle, dict):
            return False
        if any(name not in bundle for name in _BUNDLE_FIELDS):
            return False
        if bundle["support"] is None or bundle["witness"] is None:
            return False
        for name in _BUNDLE_FIELDS:
            setattr(self, name, bundle[name])
        return True


class SessionCache:
    """LRU cache of :class:`SchemaArtifacts`, shareable across sessions
    and threads.

    A single cache passed to many
    :class:`~repro.session.ReasoningSession` instances lets a service
    amortise expansions across requests that mention the same schema.

    The cache locks itself: one re-entrant lock serializes every
    operation on the entry map (lookup, store adoption, insert, evict,
    invalidate, clear), and its :class:`~repro.runtime.stats.Counters`
    lock each increment.  The expensive ``ensure_*`` stages of an entry
    run outside that lock, so schemas build concurrently; two threads
    that may build the *same* entry must serialize between themselves,
    as the serve engine does with its per-fingerprint locks.

    With a ``store``, the cache gains a persistent second tier: memory
    misses consult the store (restoring fully-warm entries), and entries
    that finish their fixpoint stage write through.  The store object is
    per-process; the *directory* is what processes share.
    """

    def __init__(
        self, max_entries: int = 64, store: ArtifactStore | None = None
    ) -> None:
        if max_entries < 1:
            raise ReproError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.max_entries = max_entries
        self.store = store
        self.stats = Counters(CACHE_COUNTERS)
        self._entries: OrderedDict[str, SchemaArtifacts] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def artifacts(
        self,
        schema: CRSchema,
        fingerprint: str | None = None,
        limits: ExpansionLimits | None = None,
    ) -> SchemaArtifacts:
        """The (possibly still cold) entry for ``schema``, creating and
        LRU-promoting as needed.  Nothing expensive happens here; the
        entry's ``ensure_*`` stages build on demand."""
        key = fingerprint or schema_fingerprint(schema)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.bump("hits")
                self._entries.move_to_end(key)
                return entry
            self.stats.bump("misses")
            entry = SchemaArtifacts(
                fingerprint=key,
                schema=schema,
                stats=self.stats,
                limits=limits,
                store=self.store,
            )
            if self.store is not None:
                bundle = self.store.get(key)
                if bundle is not None and entry.adopt_bundle(bundle):
                    self.stats.bump("store_hits")
                else:
                    self.stats.bump("store_misses")
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.bump("evictions")
            return entry

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry (e.g. after an external edit of a stored
        schema file); returns whether it was present."""
        with self._lock:
            return self._entries.pop(fingerprint, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"SessionCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.stats.hits} hits, {self.stats.misses} misses)"
        )


__all__ = ["CACHE_COUNTERS", "SchemaArtifacts", "SessionCache", "WalkAnswer"]
