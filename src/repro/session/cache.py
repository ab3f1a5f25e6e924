"""The fingerprint-keyed store behind :class:`ReasoningSession`.

One :class:`SchemaArtifacts` entry per schema fingerprint holds the
reasoning state that is expensive to build and endlessly reusable:

* the static **analysis** report (polynomial — built eagerly; its
  ``error`` diagnostics let queries skip every stage below),
* the consistent **expansion** ``S̄`` (the exponential step),
* the derived disequation system **Ψ_S** in pruned mode,
* the maximal acceptable **support** of ``Ψ_S`` with an integer
  full-support **witness** (one fixpoint run, polynomially many LPs).

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
:class:`~repro.store.ArtifactStore` shared across processes and
``--jobs`` pool workers.  A memory miss consults the store before
building: a valid persisted bundle restores the entry fully warm
(``store_hits``), and an entry that completes its fixpoint stage
writes through (``store_writes``) so the *next* process starts warm.
The store's absent-or-valid contract means this tier can only ever
return artifacts byte-equivalent to a fresh build or nothing at all;
persistence failures (contention, full disk, corruption) degrade to
counted no-ops and the reasoning path proceeds from source.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.analyzer import analyze
from repro.analysis.diagnostics import AnalysisReport
from repro.cr.expansion import Expansion, ExpansionLimits
from repro.cr.satisfiability import acceptable_support, support_verdicts
from repro.cr.schema import CRSchema
from repro.cr.system import CRSystem, build_system
from repro.errors import ReproError
from repro.pipeline import (
    STAGE_BUILD_SYSTEM,
    STAGE_EXPAND,
    STAGE_SOLVE,
    stage,
)
from repro.session.fingerprint import schema_fingerprint
from repro.solver.homogeneous import integerize
from repro.store.store import ArtifactStore

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


@dataclass
class CacheStats:
    """Observable counters for tests, benchmarks, and ops dashboards."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    analysis_runs: int = 0
    analysis_short_circuits: int = 0
    expansion_builds: int = 0
    system_builds: int = 0
    fixpoint_runs: int = 0
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

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment one counter by name.

        Every increment in the cache funnels through here so a subclass
        can make the read-modify-write atomic — the serve daemon installs
        a lock-guarded subclass to keep its ``/metrics`` counters
        monotone under concurrent requests.
        """
        setattr(self, counter, getattr(self, counter) + amount)

    def as_dict(self) -> dict[str, int]:
        return {
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


@dataclass
class SchemaArtifacts:
    """Cached reasoning state for one schema fingerprint.

    ``support`` is the maximal acceptable support of ``Ψ_S`` and
    ``witness`` an integer acceptable solution positive on exactly that
    support; both are ``None`` until the fixpoint stage has run.
    """

    fingerprint: str
    schema: CRSchema
    stats: CacheStats
    limits: ExpansionLimits | None = None
    store: ArtifactStore | None = field(default=None, repr=False)
    analysis: AnalysisReport | None = None
    expansion: Expansion | None = None
    cr_system: CRSystem | None = None
    support: frozenset[str] | None = None
    witness: dict[str, int] | None = None
    class_verdicts: dict[str, bool] | None = field(default=None, repr=False)

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
        the per-class verdict table."""
        if self.support is None:
            cr_system = self.ensure_system()
            with stage(STAGE_SOLVE, phase="session:fixpoint"):
                support, solution = acceptable_support(cr_system)
            self.stats.bump("fixpoint_runs")
            self.witness = integerize(solution)
            self.class_verdicts = support_verdicts(cr_system, support)
            self.support = support
            self._persist()
        return self.support

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
    """LRU cache of :class:`SchemaArtifacts`, shareable across sessions.

    Thread-compatible rather than thread-safe: like the rest of the
    library, concurrent use requires one cache per worker or external
    locking.  A single cache passed to many
    :class:`~repro.session.ReasoningSession` instances lets a service
    amortise expansions across requests that mention the same schema.

    With a ``store``, the cache gains a persistent second tier: memory
    misses consult the store (restoring fully-warm entries), and entries
    that finish their fixpoint stage write through.  The store object is
    per-process; the *directory* is what processes share.
    """

    def __init__(
        self,
        max_entries: int = 64,
        store: ArtifactStore | None = None,
        stats: CacheStats | None = None,
    ) -> None:
        if max_entries < 1:
            raise ReproError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.max_entries = max_entries
        self.store = store
        self.stats = stats if stats is not None else CacheStats()
        self._entries: OrderedDict[str, SchemaArtifacts] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
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
        return self._entries.pop(fingerprint, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"SessionCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.stats.hits} hits, {self.stats.misses} misses)"
        )


__all__ = ["CacheStats", "SchemaArtifacts", "SessionCache"]
