"""Component-decomposed reasoning: islands, routing, sessions, deltas.

=====================================  ==================================
:mod:`repro.components.graph`          constraint graph over classes and
                                       its union-find components
:mod:`repro.components.decompose`      canonical per-component
                                       sub-schemas, fingerprints, merged
                                       sub-schemas, query routing keys
:mod:`repro.components.session`        :class:`DecomposedSession` — the
                                       ``ReasoningSession`` surface,
                                       reasoning one island at a time
:mod:`repro.components.diff`           component-level schema deltas
                                       (the engine behind ``repro diff``)
=====================================  ==================================

Quickstart::

    from repro.components import DecomposedSession, decompose_schema

    session = DecomposedSession(schema)      # `decompose` pipeline stage
    session.satisfiable_classes()            # one fixpoint per island
    session.stats.components_rebuilt         # -> number of islands built

The invariant this package exists to protect: nothing in here expands
the whole schema.  Expansion and system builds happen inside the inner
per-component ``ReasoningSession``s only (rule R7 of
``repro lint --repo``).
"""

from repro.components.decompose import (
    ComponentDecomposition,
    SchemaComponent,
    decompose_schema,
    query_partition_key,
    sub_schema,
)
from repro.components.diff import SchemaDelta, compute_delta
from repro.components.graph import connected_class_sets, constraint_edges
from repro.components.session import DecomposedSession

__all__ = [
    "ComponentDecomposition",
    "DecomposedSession",
    "SchemaComponent",
    "SchemaDelta",
    "compute_delta",
    "connected_class_sets",
    "constraint_edges",
    "decompose_schema",
    "query_partition_key",
    "sub_schema",
]
