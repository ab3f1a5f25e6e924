"""Canonical per-component sub-schemas and query routing.

:func:`decompose_schema` splits a schema along the constraint-graph
islands of :mod:`repro.components.graph`.  Each island becomes a
:class:`SchemaComponent`: a canonical sub-schema (statements filtered in
declaration order, so a component is itself a well-formed ``CRSchema``)
plus its content-addressed fingerprint.  A single-island schema keeps
the *original* schema object as its component schema
(:func:`monolithic_decomposition`), so fingerprints, cache keys, and
artifacts are bit-identical to the monolithic path.

:class:`ComponentDecomposition` also owns the *merged* sub-schemas used
for cross-component queries (an ISA or disjointness question whose
classes span islands is decided on the union of just those islands —
equivalent to the whole schema by the model-composition argument of
DESIGN §13), and the Section-4 extensions ``S + C_exc`` of its islands
that decide cardinality queries, each with its fingerprint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

from repro.components.graph import connected_class_sets
from repro.cr.implication import CardinalityQuery, Reduction, reduce_query
from repro.cr.schema import CRSchema
from repro.session.fingerprint import schema_fingerprint

EXTENSION_ENTRIES = 64
"""How many cardinality queries' island extensions one decomposition
keeps (least recently asked evicted first), so a client asking many
distinct queries of one schema cannot grow it without bound."""


@dataclass(frozen=True)
class SchemaComponent:
    """One constraint-graph island of a schema.

    ``schema`` is the canonical sub-schema induced by ``classes``; for a
    single-component decomposition it is the original schema object
    itself.  ``fingerprint`` is its content-addressed identity — the
    cache/store key at component granularity.
    """

    index: int
    classes: frozenset[str]
    schema: CRSchema
    fingerprint: str


def sub_schema(schema: CRSchema, members: frozenset[str], name: str) -> CRSchema:
    """The sub-schema induced by ``members``, in declaration order.

    Statements are kept exactly when all their classes lie in
    ``members``; when ``members`` is a union of constraint-graph islands
    every declared statement is either kept whole or dropped whole, so
    the result is a well-formed schema whose models are the restrictions
    of the whole schema's models.
    """
    return CRSchema(
        classes=tuple(cls for cls in schema.classes if cls in members),
        relationships=tuple(
            rel
            for rel in schema.relationships
            if all(cls in members for _role, cls in rel.signature)
        ),
        isa=tuple(
            (sub, sup)
            for sub, sup in schema.isa_statements
            if sub in members and sup in members
        ),
        cards={
            key: card
            for key, card in schema.declared_cards.items()
            if key[0] in members
        },
        disjointness=tuple(
            group for group in schema.disjointness_groups if group <= members
        ),
        coverings=tuple(
            (covered, coverers)
            for covered, coverers in schema.coverings
            if covered in members
        ),
        name=name,
    )


class ComponentDecomposition:
    """A schema split into constraint-graph components.

    Construct via :func:`decompose_schema`.  Owns the class → component
    map, the lazily computed whole-schema fingerprint, a cache of
    merged sub-schemas (keyed by the frozen set of component indices)
    for cross-component queries, and a bounded one of island
    extensions for cardinality queries (:meth:`extension`).
    """

    def __init__(
        self,
        schema: CRSchema,
        components: tuple[SchemaComponent, ...],
        whole_fingerprint: str | None = None,
    ) -> None:
        self.schema = schema
        self.components = components
        self._owner: dict[str, SchemaComponent] = {}
        for component in components:
            for cls in component.classes:
                self._owner[cls] = component
        if whole_fingerprint is None and len(components) == 1:
            whole_fingerprint = components[0].fingerprint
        self._whole_fingerprint = whole_fingerprint
        self._all_indices = frozenset(range(len(components)))
        self._merged: dict[frozenset[int], CRSchema] = {}
        self._merged_fingerprints: dict[frozenset[int], str] = {}
        # Shared by every request thread that holds this decomposition.
        self._extensions: OrderedDict[
            CardinalityQuery, tuple[Reduction, str]
        ] = OrderedDict()
        self._extensions_lock = threading.Lock()

    @property
    def whole_fingerprint(self) -> str:
        """The undecomposed schema's fingerprint (computed at most once)."""
        if self._whole_fingerprint is None:
            self._whole_fingerprint = schema_fingerprint(self.schema)
        return self._whole_fingerprint

    def component_of(self, cls: str) -> SchemaComponent:
        """The unique component owning ``cls`` (validates the name)."""
        self.schema.require_class(cls)
        return self._owner[cls]

    def components_of(
        self, classes: Iterable[str]
    ) -> tuple[SchemaComponent, ...]:
        """The distinct components owning ``classes``, in index order."""
        indices = sorted({self.component_of(cls).index for cls in classes})
        return tuple(self.components[index] for index in indices)

    def merged_schema(self, indices: frozenset[int]) -> CRSchema:
        """The sub-schema induced by a union of components.

        A single index returns that component's schema; the full index
        set returns the original schema object — both without building
        anything.
        """
        if len(indices) == 1:
            (index,) = indices
            return self.components[index].schema
        if indices == self._all_indices:
            return self.schema
        merged = self._merged.get(indices)
        if merged is None:
            members = frozenset().union(
                *(self.components[index].classes for index in indices)
            )
            name = f"{self.schema.name}.m" + "-".join(
                str(index) for index in sorted(indices)
            )
            merged = self._merged[indices] = sub_schema(
                self.schema, members, name
            )
        return merged

    def merged_fingerprint(self, indices: frozenset[int]) -> str:
        if len(indices) == 1:
            (index,) = indices
            return self.components[index].fingerprint
        if indices == self._all_indices:
            return self.whole_fingerprint
        fingerprint = self._merged_fingerprints.get(indices)
        if fingerprint is None:
            fingerprint = self._merged_fingerprints[indices] = (
                schema_fingerprint(self.merged_schema(indices))
            )
        return fingerprint

    def extension(self, query: CardinalityQuery) -> tuple[Reduction, str]:
        """The :func:`~repro.cr.implication.reduce_query` reduction of a
        cardinality ``query`` on the island owning its class, with the
        fingerprint of that island's ``S + C_exc``.

        A legal cardinality query's class, relationship and primary
        class share one island, so the island decides it.  Both are
        made on the first ask and kept for the last
        :data:`EXTENSION_ENTRIES` queries, so a repeated ask on this
        decomposition, from any session, builds and fingerprints
        nothing.  ``query`` must already be valid on the whole schema.
        """
        with self._extensions_lock:
            known = self._extensions.get(query)
            if known is not None:
                self._extensions.move_to_end(query)
                return known
        island = reduce_query(self.component_of(query.cls).schema, query)
        assert island is not None  # minc = 0 reduces to nothing
        made = (island, schema_fingerprint(island.schema))
        with self._extensions_lock:
            # A concurrent miss on the same query may have published
            # first; every caller then shares that one extension.
            known = self._extensions.setdefault(query, made)
            self._extensions.move_to_end(query)
            while len(self._extensions) > EXTENSION_ENTRIES:
                self._extensions.popitem(last=False)
        return known

    def __repr__(self) -> str:
        return (
            f"ComponentDecomposition({self.schema.name!r}, "
            f"{len(self.components)} component(s))"
        )


def monolithic_decomposition(
    schema: CRSchema, fingerprint: str | None = None
) -> ComponentDecomposition:
    """``schema`` as its own only component, whatever its islands.

    The component is the original schema object under the whole
    schema's fingerprint, so a :class:`~repro.session.ReasoningSession`
    given this decomposition keys, builds and answers exactly as over
    the undecomposed schema — the reference that per-island answers are
    compared against.  ``fingerprint``, when the caller holds it, is
    used instead of computing it again.
    """
    if fingerprint is None:
        fingerprint = schema_fingerprint(schema)
    component = SchemaComponent(
        0, frozenset(schema.classes), schema, fingerprint
    )
    return ComponentDecomposition(schema, (component,))


def decompose_schema(
    schema: CRSchema, fingerprint: str | None = None
) -> ComponentDecomposition:
    """Split ``schema`` into its constraint-graph components.

    The single-island case (including the empty schema) is
    :func:`monolithic_decomposition`, so downstream fingerprints and
    cache keys match the monolithic path exactly.  A caller that already
    holds the whole schema's ``fingerprint`` passes it, and the
    decomposition starts with it set instead of computing it again.
    """
    groups = connected_class_sets(schema)
    if len(groups) <= 1:
        return monolithic_decomposition(schema, fingerprint)
    components = []
    for index, members in enumerate(groups):
        island = frozenset(members)
        sub = sub_schema(schema, island, f"{schema.name}.c{index}")
        components.append(
            SchemaComponent(index, island, sub, schema_fingerprint(sub))
        )
    return ComponentDecomposition(schema, tuple(components), fingerprint)


__all__ = [
    "EXTENSION_ENTRIES",
    "ComponentDecomposition",
    "SchemaComponent",
    "decompose_schema",
    "monolithic_decomposition",
    "sub_schema",
]
