"""Component decomposition: islands, routing, deltas.

=====================================  ==================================
:mod:`repro.components.graph`          constraint graph over classes and
                                       its union-find components
:mod:`repro.components.decompose`      canonical per-component
                                       sub-schemas, fingerprints, merged
                                       sub-schemas, query routing keys
:mod:`repro.components.diff`           component-level schema deltas
                                       (the engine behind ``repro diff``)
=====================================  ==================================

:class:`~repro.session.ReasoningSession` reasons over a decomposition
one island at a time::

    from repro.session import ReasoningSession

    session = ReasoningSession(schema)       # `decompose` pipeline stage
    session.satisfiable_classes()            # one fixpoint per island
    session.stats.components_rebuilt         # -> number of islands built

The invariant this package and the session's routing code protect:
neither builds an expansion or a system itself.  Both happen only
inside the session cache's per-fingerprint entries, one island (or
merged or extended sub-schema) at a time (rule R7 of
``repro lint --repo``).
"""

from repro.components.decompose import (
    ComponentDecomposition,
    SchemaComponent,
    decompose_schema,
    monolithic_decomposition,
    sub_schema,
)
from repro.components.diff import SchemaDelta, compute_delta
from repro.components.graph import connected_class_sets, constraint_edges

__all__ = [
    "ComponentDecomposition",
    "SchemaComponent",
    "SchemaDelta",
    "compute_delta",
    "connected_class_sets",
    "constraint_edges",
    "decompose_schema",
    "monolithic_decomposition",
    "sub_schema",
]
