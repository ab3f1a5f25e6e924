"""Cached reasoning sessions with content-addressed schema fingerprints.

=====================================  ==================================
:mod:`repro.session.fingerprint`       canonical SHA-256 schema identity
:mod:`repro.session.cache`             LRU store of expansions, ``Ψ_S``
                                       systems and acceptable supports
:mod:`repro.session.session`           :class:`ReasoningSession` — batch
                                       and repeated queries from one
                                       expansion build per
                                       constraint-graph island
=====================================  ==================================

Quickstart::

    from repro.session import ReasoningSession

    session = ReasoningSession(schema)
    session.satisfiable_classes()          # cold: builds each island once
    session.is_class_satisfiable("A")      # warm: support lookup
    session.implies_all(queries)           # warm: batch of lookups
    session.stats.expansion_builds         # -> number of islands built
"""

from repro.session.cache import SchemaArtifacts, SessionCache
from repro.session.fingerprint import canonical_form, schema_fingerprint
from repro.session.session import ENGINE, ReasoningSession

__all__ = [
    "ENGINE",
    "ReasoningSession",
    "SchemaArtifacts",
    "SessionCache",
    "canonical_form",
    "schema_fingerprint",
]
