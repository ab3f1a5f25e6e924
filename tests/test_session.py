"""The session layer: cache reuse, pruned enumeration, fingerprints,
budget degradation, countermodels built on first read, reuse of pinned
zero-set walks across classes, and the acceptance scenario of a
50-query batch on a Figure-5-sized schema that must build the expansion
zero times once warm."""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.session.cache as cache_module
import repro.session.session as session_module
from repro.components import decompose_schema, monolithic_decomposition
from repro.cr.builder import SchemaBuilder
from repro.cr.checker import check_model
from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.expansion import Expansion
from repro.cr.implication import statement_holds
from repro.cr.satisfiability import is_class_satisfiable
from repro.cr.schema import CRSchema
from repro.dsl import parse_schema
from repro.errors import SolverError
from repro.runtime.budget import Budget
from repro.runtime.outcome import ImplicationVerdict, Verdict
from repro.session import ReasoningSession, SessionCache, schema_fingerprint
from repro.solver.registry import pin_backend
from repro.store import ArtifactStore
from tests.strategies import (
    implication_queries_for,
    multi_component_schemas,
    property_max_examples,
    schemas,
)


def _chain(k: int) -> CRSchema:
    builder = SchemaBuilder(f"Chain{k}")
    for i in range(k):
        builder.cls(f"K{i}")
    for i in range(1, k):
        builder.isa(f"K{i}", f"K{i-1}")
    return builder.build()


# ---------------------------------------------------------------------------
# the acceptance scenario: 50 warm queries, zero expansion builds
# ---------------------------------------------------------------------------


def test_fifty_query_batch_builds_expansion_zero_times_warm(meeting):
    session = ReasoningSession(meeting)
    queries = [
        ("sat", cls) for cls in meeting.classes
    ] + [
        ("implies", IsaStatement("Speaker", "Discussant")),
        ("implies", IsaStatement("Discussant", "Speaker")),
        ("implies", DisjointnessStatement(["Speaker", "Talk"])),
        ("implies", MinCardinalityStatement("Speaker", "Holds", "U1", 1)),
    ]

    def run(query):
        kind, payload = query
        if kind == "sat":
            return session.is_class_satisfiable(payload).satisfiable
        return session.implies(payload).implied

    # Warm-up pass: builds the schema's entry and the one extended
    # schema the cardinality query needs.
    warm_answers = [run(query) for query in queries]
    assert session.warm

    builds_before = Expansion.build_count
    batch = [queries[i % len(queries)] for i in range(50)]
    answers = [run(query) for query in batch]
    assert Expansion.build_count == builds_before, (
        "a warm 50-query batch must not rebuild the expansion"
    )
    assert answers == [warm_answers[i % len(queries)] for i in range(50)]
    assert session.stats.expansion_builds == 2  # meeting + one extension


def test_repeated_cardinality_queries_warm_up(meeting):
    session = ReasoningSession(meeting)
    query = MinCardinalityStatement("Discussant", "Holds", "U1", 1)
    first = session.implies(query)
    builds_before = Expansion.build_count
    second = session.implies(query)
    assert Expansion.build_count == builds_before
    assert first.implied == second.implied


# ---------------------------------------------------------------------------
# pruned enumeration
# ---------------------------------------------------------------------------


@settings(max_examples=property_max_examples())
@given(data=st.data())
def test_enumeration_is_exactly_the_consistent_compounds(data):
    """The closure-guided search must generate the ISA-consistent
    compounds and *only* those — compared against the brute-force
    powerset filter it replaced."""
    schema = data.draw(schemas(allow_extensions=True))
    expansion = Expansion(schema)
    generated = {
        compound.members
        for compound in expansion.consistent_compound_classes()
    }
    for members in generated:
        assert schema.is_consistent_compound(members)
    brute_force = {
        frozenset(subset)
        for size in range(1, len(schema.classes) + 1)
        for subset in itertools.combinations(schema.classes, size)
        if schema.is_consistent_compound(frozenset(subset))
    }
    assert generated == brute_force


def test_enumeration_is_linear_on_isa_chains():
    """On a k-chain the old powerset-and-filter walk visited O(2^k)
    candidates; unit propagation decides every class on the spot, so
    the search tree is one node per class plus the backtrack spine."""
    k = 24
    expansion = Expansion(_chain(k))
    assert len(expansion.consistent_compound_classes()) == k
    assert expansion.nodes_visited <= 2 * k + 2


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_ignores_name_but_tracks_semantics(meeting):
    relabelled = CRSchema(
        classes=meeting.classes,
        relationships=meeting.relationships,
        isa=meeting.isa_statements,
        cards=meeting.declared_cards,
        disjointness=meeting.disjointness_groups,
        coverings=meeting.coverings,
        name="SomethingElseEntirely",
    )
    assert schema_fingerprint(relabelled) == schema_fingerprint(meeting)

    extra_isa = CRSchema(
        classes=meeting.classes,
        relationships=meeting.relationships,
        isa=tuple(meeting.isa_statements) + (("Talk", "Speaker"),),
        cards=meeting.declared_cards,
        disjointness=meeting.disjointness_groups,
        coverings=meeting.coverings,
        name=meeting.name,
    )
    assert schema_fingerprint(extra_isa) != schema_fingerprint(meeting)


def test_for_schema_sibling_is_warm_after_pure_relabel(meeting):
    session = ReasoningSession(meeting)
    session.satisfiable_classes()
    relabelled = CRSchema(
        classes=meeting.classes,
        relationships=meeting.relationships,
        isa=meeting.isa_statements,
        cards=meeting.declared_cards,
        disjointness=meeting.disjointness_groups,
        coverings=meeting.coverings,
        name="MeetingV2",
    )
    sibling = session.for_schema(relabelled)
    assert sibling.warm
    builds_before = Expansion.build_count
    assert sibling.satisfiable_classes() == session.satisfiable_classes()
    assert Expansion.build_count == builds_before


@settings(
    max_examples=max(5, property_max_examples() // 10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_islands_are_keyed_by_the_decompositions_fingerprints(data):
    """A session over a prebuilt decomposition computes no fingerprint
    of its own: satisfiability, same-island and cross-island ISA and
    disjointness are keyed by the fingerprints the decomposition holds,
    so neither the session nor its cache calls ``schema_fingerprint``."""
    schema, _count = data.draw(multi_component_schemas())
    decomposition = decompose_schema(schema)
    first, second = decomposition.components[:2]
    a, b = min(first.classes), min(second.classes)
    queries = [
        IsaStatement(a, max(first.classes)),
        IsaStatement(a, b),
        DisjointnessStatement(frozenset({a, b})),
    ]
    if len(first.classes) > 1:
        queries.append(DisjointnessStatement(first.classes))
    calls = []

    def counted(original):
        def fingerprint(target):
            calls.append(target.name)
            return original(target)

        return fingerprint

    with ExitStack() as stack:
        for module in (session_module, cache_module):
            stack.enter_context(
                mock.patch.object(
                    module,
                    "schema_fingerprint",
                    counted(module.schema_fingerprint),
                )
            )
        session = ReasoningSession(schema, decomposition=decomposition)
        for cls in schema.classes:
            session.is_class_satisfiable(cls)
        session.implies_all(queries)
        session.satisfiable_classes()
    assert calls == []


# ---------------------------------------------------------------------------
# budgets: degrade to UNKNOWN, then resume under a fresh budget
# ---------------------------------------------------------------------------


def test_budget_exhaustion_degrades_then_resumes(meeting):
    session = ReasoningSession(meeting)
    starved = Budget(max_expansion_nodes=2)
    degraded = session.satisfiable_classes(budget=starved)
    assert degraded == {cls: Verdict.UNKNOWN for cls in meeting.classes}
    assert not session.warm  # exhaustion must not publish partial state

    result = session.is_class_satisfiable("Speaker", budget=Budget(max_expansion_nodes=2))
    assert result.verdict is Verdict.UNKNOWN
    assert not result.satisfiable
    assert result.unknown_reason

    # A fresh (absent) budget resumes from whatever stage completed.
    verdicts = session.satisfiable_classes()
    assert verdicts == {cls: True for cls in meeting.classes}
    assert session.warm


# ---------------------------------------------------------------------------
# pinned zero-set walks: one memo and one nogood ledger per island
# ---------------------------------------------------------------------------

PLANTED_STYLE = """schema Planted {
  class P0;
  class P1;
  class P2 isa P0;
  class T;
  class TS isa T;
  relationship R0(R0a: P0, R0b: P1);
  relationship R1(R1a: P1, R1b: P0);
  relationship RT(RTu: T, RTv: T);
  relationship RL(RLa: P2, RLt: T);
  cardinality P0 in R0.R0a: (1, 2);
  cardinality P2 in R0.R0a: (1, 1);
  cardinality P1 in R0.R0b: (1, 2);
  cardinality P1 in R1.R1a: (0, 2);
  cardinality P0 in R1.R1b: (1, 1);
  cardinality P2 in R1.R1b: (1, 1);
  cardinality T in RT.RTu: (2, 2);
  cardinality T in RT.RTv: (1, 1);
  cardinality P2 in RL.RLa: (0, 3);
  disjoint P0, P1;
  disjoint P0, T;
  disjoint P1, T;
}
"""
"""Satisfiable classes ``P0``-``P2`` tied to a root ``T`` that the
``2|T| <= |R| = |T|`` conflict empties, in one island."""


def _ask_pruned(session: ReasoningSession, cls: str):
    budget = Budget()
    result = session.is_class_satisfiable(cls, budget=budget)
    return result, budget.solver_calls


def test_pinned_pruned_walks_share_one_ledger_per_island(
    meeting, refined_meeting, figure1
):
    """Every class of five schemas, asked through one pinned-pruned
    session per schema on one cache: each answer is the fresh naive
    walk's, and walks that start from their island's ledger solve fewer
    LPs in total than a fresh session per class does."""
    from tests.test_pruned import symmetric_conflict_schema

    schemas = [
        symmetric_conflict_schema(),
        meeting,
        refined_meeting,
        figure1,
        parse_schema(PLANTED_STYLE),
    ]
    cache = SessionCache()
    shared_lps = fresh_lps = 0
    for schema in schemas:
        session = ReasoningSession(schema, cache=cache)
        for cls in schema.classes:
            naive = is_class_satisfiable(schema, cls, engine="naive")
            with pin_backend("pruned"):
                result, lps = _ask_pruned(session, cls)
                _, alone_lps = _ask_pruned(ReasoningSession(schema), cls)
            assert (result.verdict, result.solution, result.support) == (
                naive.verdict,
                naive.solution,
                naive.support,
            ), (schema.name, cls)
            shared_lps += lps
            fresh_lps += alone_lps
    assert shared_lps < fresh_lps


def test_an_island_a_pinned_walk_answered_is_reused(meeting):
    """A second session asking what a pinned walk already answered on
    the same cache reads the island's walk memo: the island counts as
    reused, and no LP runs."""
    cache = SessionCache()
    with pin_backend("pruned"):
        first = ReasoningSession(meeting, cache=cache)
        _ask_pruned(first, "Speaker")
        second = ReasoningSession(meeting, cache=cache)
        _, lps = _ask_pruned(second, "Speaker")
    assert (first.components_rebuilt, first.components_reused) == (1, 0)
    assert (second.components_rebuilt, second.components_reused) == (0, 1)
    assert lps == 0


# ---------------------------------------------------------------------------
# shared caches
# ---------------------------------------------------------------------------


def test_shared_cache_is_hit_across_sessions(meeting):
    cache = SessionCache()
    first = ReasoningSession(meeting, cache=cache)
    first.satisfiable_classes()
    builds_before = Expansion.build_count
    second = ReasoningSession(meeting, cache=cache)
    assert second.warm
    assert second.satisfiable_classes() == first.satisfiable_classes()
    assert Expansion.build_count == builds_before
    assert cache.stats.expansion_builds == 1


def test_lru_eviction_and_invalidation(meeting, figure1):
    cache = SessionCache(max_entries=1)
    meeting_session = ReasoningSession(meeting, cache=cache)
    meeting_session.satisfiable_classes()
    assert len(cache) == 1

    figure1_session = ReasoningSession(figure1, cache=cache)
    figure1_session.satisfiable_classes()
    assert len(cache) == 1
    assert cache.stats.evictions == 1
    assert not meeting_session.warm  # evicted

    assert cache.invalidate(figure1_session.fingerprint)
    assert not cache.invalidate(figure1_session.fingerprint)
    assert len(cache) == 0


def test_one_cache_shared_by_four_threads_keeps_its_books():
    """The cache locks its own entry map and counters: every lookup is
    counted once, and each entry still held was a miss not yet
    evicted."""
    schemas = [_chain(k) for k in range(1, 7)]
    keyed = [(schema, schema_fingerprint(schema)) for schema in schemas]
    cache = SessionCache(max_entries=3)
    calls_per_thread = 600

    def hammer(offset: int) -> None:
        for i in range(calls_per_thread):
            schema, fingerprint = keyed[(i * (offset + 1) + offset) % len(keyed)]
            cache.artifacts(schema, fingerprint)

    threads = [
        threading.Thread(target=hammer, args=(offset,)) for offset in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = cache.stats
    assert stats.hits + stats.misses == 4 * calls_per_thread
    assert stats.misses - stats.evictions == len(cache) == 3


# ---------------------------------------------------------------------------
# countermodels: built on first read, from a witness checked at birth
# ---------------------------------------------------------------------------

def _monolithic(schema: CRSchema) -> ReasoningSession:
    """A session over the whole schema as one island."""
    return ReasoningSession(
        schema, decomposition=monolithic_decomposition(schema)
    )


SESSION_KINDS = (_monolithic, ReasoningSession)
SESSION_KIND_IDS = ("ReasoningSession", "DecomposedSession")
"""Whole-schema and per-island sessions.  The ids are the names of the
two session classes these cases first ran on, kept so the ids stay
stable."""


def _loose_schema() -> CRSchema:
    """A schema with room above its upper bound: on the Figure-3 schema
    every ``maxc`` statement with a positive value is implied."""
    return (
        SchemaBuilder("Loose")
        .classes("A", "B", "C")
        .isa("C", "A")
        .relationship("R", u="A", v="B")
        .card("A", "R", "u", 0, 3)
        .build()
    )


NOT_IMPLIED = [
    ("meeting", IsaStatement("Talk", "Speaker")),
    ("meeting", IsaStatement("Speaker", "Talk")),
    ("meeting", DisjointnessStatement(frozenset({"Speaker", "Discussant"}))),
    ("meeting", DisjointnessStatement(frozenset({"Speaker", "Talk"}))),
    ("meeting", MinCardinalityStatement("Speaker", "Holds", "U1", 2)),
    ("meeting", MinCardinalityStatement("Talk", "Participates", "U4", 2)),
    ("loose", MaxCardinalityStatement("A", "R", "u", 1)),
    ("loose", MaxCardinalityStatement("C", "R", "u", 2)),
    ("loose", MinCardinalityStatement("C", "R", "u", 1)),
]


def _assert_refuting_model(schema: CRSchema, result) -> None:
    """``result`` is NOT_IMPLIED and its countermodel is a model of
    ``schema`` (``C_exc`` stripped) in which the query fails."""
    assert result.verdict is ImplicationVerdict.NOT_IMPLIED
    model = result.countermodel
    assert model is not None
    assert set(model.class_extensions) <= set(schema.classes)
    assert check_model(schema, model) == []
    assert not statement_holds(model, result.query)


@pytest.mark.parametrize(
    "session_kind", SESSION_KINDS, ids=SESSION_KIND_IDS
)
@pytest.mark.parametrize(("which", "query"), NOT_IMPLIED)
def test_session_countermodels_refute_the_query(
    meeting, session_kind, which, query
):
    schema = meeting if which == "meeting" else _loose_schema()
    session = session_kind(schema)
    _assert_refuting_model(schema, session.implies(query))
    # The warm answer builds its model from the same cached witness.
    _assert_refuting_model(schema, session.implies(query))


@pytest.mark.parametrize(
    "session_kind", SESSION_KINDS, ids=SESSION_KIND_IDS
)
def test_implied_answers_carry_no_countermodel(meeting, session_kind):
    session = session_kind(meeting)
    for query in (
        IsaStatement("Discussant", "Speaker"),
        MaxCardinalityStatement("Speaker", "Holds", "U1", 2),
    ):
        result = session.implies(query)
        assert result.verdict is ImplicationVerdict.IMPLIED
        assert result.countermodel is None


@settings(
    max_examples=max(5, property_max_examples() // 10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_session_countermodels_on_multi_component_schemas(data):
    schema, _count = data.draw(multi_component_schemas())
    query = data.draw(implication_queries_for(schema))
    for session_kind in SESSION_KINDS:
        result = session_kind(schema).implies(query)
        if result.verdict is ImplicationVerdict.NOT_IMPLIED:
            _assert_refuting_model(schema, result)
        else:
            assert result.countermodel is None


@pytest.mark.parametrize(
    "session_kind", SESSION_KINDS, ids=SESSION_KIND_IDS
)
def test_no_model_is_built_until_the_countermodel_is_read(
    meeting, session_kind, monkeypatch
):
    built = []
    construct = session_module.construct_model

    def spy(cr_system, witness):
        built.append(cr_system)
        return construct(cr_system, witness)

    monkeypatch.setattr(session_module, "construct_model", spy)
    session = session_kind(meeting)
    results = [
        session.implies(IsaStatement("Talk", "Speaker")),
        session.implies(DisjointnessStatement(frozenset({"Speaker", "Talk"}))),
        session.implies(MinCardinalityStatement("Speaker", "Holds", "U1", 2)),
    ]
    assert [result.implied for result in results] == [False, False, False]
    assert built == []
    model = results[0].countermodel
    assert len(built) == 1
    assert results[0].countermodel is model  # built once, then cached
    assert len(built) == 1


def test_a_witness_violating_psi_s_is_never_published(meeting, tmp_path, monkeypatch):
    def violating(solution):
        # One discussant and nothing else: Discussant's minc on
        # Participates.U3 is (1, 1), so no Psi_S row can hold.
        witness = {name: 0 for name in solution}
        witness["c4"] = 1
        return witness

    monkeypatch.setattr(cache_module, "integerize", violating)
    store = ArtifactStore(str(tmp_path / "store"))
    cache = SessionCache(store=store)
    entry = cache.artifacts(meeting)
    with pytest.raises(SolverError, match="does not solve Psi_S"):
        entry.ensure_support()
    assert not entry.warm
    assert entry.witness is None and entry.class_verdicts is None
    assert cache.stats.store_writes == 0
    assert store.stats.writes == 0
    assert ArtifactStore(str(tmp_path / "store")).get(entry.fingerprint) is None
