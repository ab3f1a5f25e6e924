"""Unit tests for the pruned zero-set search (orbit + nogood pruning).

Covers the two pruning levers of :mod:`repro.solver.pruned` in
isolation — automorphism discovery over the symmetric sibling family,
the canonicity test, nogood learning/subsumption — plus the
``naive_limit`` size gate, exact parity with the naive oracle
(verdict, witness, support, *and* a ≥5x reduction in LPs solved on the
symmetric family), the session's reuse of pinned walks (memoized
answers, one nogood ledger per island), and the pinned human-readable
rendering behind ``repro explain --nogoods``.
"""

from __future__ import annotations

import pytest

from repro.cr.builder import SchemaBuilder
from repro.cr.expansion import Expansion
from repro.cr.satisfiability import class_targets, decision_problem
from repro.cr.system import build_system
from repro.errors import LimitExceededError
from repro.paper import meeting_schema
from repro.runtime.budget import Budget, activate
from repro.runtime.faults import inject_faults
from repro.runtime.outcome import Verdict
from repro.runtime.stats import SEARCH_COUNTERS, Counters, search_stats_sink
from repro.session import ReasoningSession
from repro.solver.core import InternedSystem, VariableTable
from repro.solver.pruned import (
    Nogood,
    NogoodStore,
    is_canonical,
    nogood_source_system,
    orbit_permutations,
    pruned_zero_set_search,
    render_nogoods,
)
from repro.solver.registry import (
    DEFAULT_NAIVE_LIMIT,
    AcceptabilityProblem,
    decide_acceptable,
    pin_backend,
)


def symmetric_conflict_schema(siblings: int = 2):
    """The bench family: a root ``T`` forced empty by ``2|T| = |R| =
    |T|``, plus ``siblings`` interchangeable classes hanging off it."""
    builder = SchemaBuilder("Conflict")
    builder.cls("T")
    names = [f"A{i}" for i in range(1, siblings + 1)]
    for name in names:
        builder.cls(name)
    builder.relationship("R", u="T", v="T")
    builder.card("T", "R", "u", 2, 2)
    builder.card("T", "R", "v", 1, 1)
    for i, name in enumerate(names, start=1):
        builder.relationship(f"R{i}", **{f"x{i}": name, f"y{i}": "T"})
        builder.card(name, f"R{i}", f"x{i}", 1, 2)
    return builder.build()


def problem_for(schema, cls: str) -> AcceptabilityProblem:
    cr_system = build_system(Expansion(schema), mode="pruned")
    return decision_problem(cr_system, class_targets(cr_system, cls))


class TestRegistration:
    def test_the_size_gate_fires(self):
        wide = InternedSystem(
            VariableTable([f"c{i}" for i in range(DEFAULT_NAIVE_LIMIT + 1)])
        )
        problem = AcceptabilityProblem(
            system=wide,
            class_unknowns=wide.table.names(),
            dependencies={},
            targets=frozenset({"c0"}),
        )
        with pytest.raises(LimitExceededError, match="naive_limit"):
            decide_acceptable(problem, "pruned")


class TestOrbits:
    def test_sibling_symmetry_is_discovered(self):
        problem = problem_for(symmetric_conflict_schema(), "T")
        permutations, orbits = orbit_permutations(problem)
        assert permutations, "interchangeable siblings must yield a perm"
        # {A1} ~ {A2} and {T, A1} ~ {T, A2}: two non-trivial orbits.
        assert orbits == 2

    def test_targets_on_a_sibling_break_the_symmetry(self):
        # Swapping A1 and A2 no longer fixes the target set, so no
        # verified automorphism survives and orbit pruning disables
        # itself (nogood learning still applies).
        problem = problem_for(symmetric_conflict_schema(), "A1")
        permutations, orbits = orbit_permutations(problem)
        assert permutations == ()
        assert orbits == 0

    def test_canonicity_partitions_the_lattice(self):
        from itertools import combinations

        problem = problem_for(symmetric_conflict_schema(), "T")
        permutations, _ = orbit_permutations(problem)
        size = len(problem.class_unknowns)
        canonical = skipped = 0
        for width in range(size + 1):
            for combo in combinations(range(size), width):
                if is_canonical(combo, permutations):
                    canonical += 1
                else:
                    skipped += 1
        assert canonical + skipped == 2**size
        assert skipped > 0
        # The identity-free test never skips a fixed point: the empty
        # and full sets are their own (only) images.
        assert is_canonical((), permutations)
        assert is_canonical(tuple(range(size)), permutations)


class TestParity:
    def test_matches_naive_with_a_5x_lp_reduction(self):
        problem = problem_for(symmetric_conflict_schema(), "T")

        naive_counters = Counters(SEARCH_COUNTERS)
        with search_stats_sink(naive_counters):
            expected = decide_acceptable(problem, "naive")
        pruned_counters = Counters(SEARCH_COUNTERS)
        with search_stats_sink(pruned_counters):
            actual = decide_acceptable(problem, "pruned")

        assert actual == expected
        assert pruned_counters.pruned_by_orbit > 0
        assert pruned_counters.pruned_by_nogood > 0
        assert pruned_counters.orbits_found == 2
        assert (
            naive_counters.zero_sets_enumerated
            >= 5 * pruned_counters.zero_sets_enumerated
        )

    @pytest.mark.parametrize(
        ("siblings", "lps", "pivots"), [(2, 11, 207), (3, 63, 3307)]
    )
    def test_one_lp_per_tested_candidate(self, siblings, lps, pivots):
        # A refuted candidate's nogood comes from the certificate of the
        # solve that refuted it: no second LP per candidate.
        problem = problem_for(symmetric_conflict_schema(siblings), "T")
        counters = Counters(SEARCH_COUNTERS)
        budget = Budget()
        with activate(budget), search_stats_sink(counters):
            found, _, _ = pruned_zero_set_search(problem)
        assert not found
        assert budget.solver_calls == counters.zero_sets_enumerated == lps
        assert budget.pivots == pivots

    def test_satisfiable_family_matches_too(self):
        builder = SchemaBuilder("Benign")
        builder.cls("T")
        for name in ("A1", "A2"):
            builder.cls(name)
        builder.relationship("R", u="T", v="T")
        builder.card("T", "R", "u", 1, 2)
        builder.card("T", "R", "v", 1, 1)
        for i in (1, 2):
            builder.relationship(f"R{i}", **{f"x{i}": f"A{i}", f"y{i}": "T"})
            builder.card(f"A{i}", f"R{i}", f"x{i}", 1, 2)
        problem = problem_for(builder.build(), "T")
        expected = decide_acceptable(problem, "naive")
        actual = decide_acceptable(problem, "pruned")
        assert expected[0]
        assert actual == expected


class TestNogoodStore:
    def _nogood(self, zeros, positives, source=()):
        return Nogood(
            zeros=frozenset(zeros),
            positives=frozenset(positives),
            source=tuple(source),
            certificate=None,
        )

    def test_a_more_general_fact_subsumes_the_specific_one(self):
        store = NogoodStore()
        assert store.install(self._nogood({"a"}, {"b", "c"}))
        assert store.install(self._nogood(set(), {"b"}))
        assert [ng.zeros for ng in store.nogoods] == [frozenset()]
        assert [ng.positives for ng in store.nogoods] == [frozenset({"b"})]

    def test_a_less_general_fact_is_refused(self):
        store = NogoodStore()
        assert store.install(self._nogood(set(), {"b"}))
        assert not store.install(self._nogood({"a"}, {"b", "c"}))
        assert len(store.nogoods) == 1

    def test_incomparable_facts_coexist(self):
        store = NogoodStore()
        assert store.install(self._nogood({"a"}, {"b"}))
        assert store.install(self._nogood({"b"}, {"a"}))
        assert len(store.nogoods) == 2

    def test_matching_respects_zeros_and_positives(self):
        nogood = self._nogood({"a"}, {"b"})
        assert nogood.matches(frozenset({"a"}))
        assert nogood.matches(frozenset({"a", "c"}))
        assert not nogood.matches(frozenset({"c"}))  # missing zero
        assert not nogood.matches(frozenset({"a", "b"}))  # hits a positive


class TestSessionFunnel:
    def test_a_pinned_pruned_backend_feeds_the_session_counters(self):
        from repro.session import ReasoningSession
        from repro.solver.registry import pin_backend

        schema = symmetric_conflict_schema()
        with pin_backend("pruned"):
            session = ReasoningSession(schema)
            result = session.is_class_satisfiable("T")
        assert not result.satisfiable
        assert result.engine == "pruned"
        stats = session.stats
        assert stats.zero_sets_enumerated > 0
        assert stats.pruned_by_orbit > 0
        assert stats.pruned_by_nogood > 0
        assert stats.orbits_found == 2

    def test_batch_stats_prints_the_pruning_line(self, tmp_path, capsys):
        from repro.cli import main
        from repro.dsl import serialize_schema

        path = tmp_path / "conflict.cr"
        path.write_text(serialize_schema(symmetric_conflict_schema()))
        code = main(
            ["batch", str(path), "--query", "sat T",
             "--backend", "pruned", "--stats"]
        )
        assert code == 1  # UNSAT verdicts exit 1
        out = capsys.readouterr().out
        assert "sat T: UNSATISFIABLE" in out
        assert (
            "# pruning: 11 zero-set(s) enumerated, 54 orbit-pruned, "
            "55 nogood-pruned, 2 orbit(s)" in out
        )


def ask(session: ReasoningSession, cls: str):
    """``session.is_class_satisfiable(cls)`` and the LPs it solved."""
    budget = Budget()
    result = session.is_class_satisfiable(cls, budget=budget)
    return result, budget.solver_calls


def answer_of(result):
    return (result.verdict, result.solution, result.support, result.engine)


class TestWalkReuse:
    """A pinned walk's answer is memoized on its island's cache entry;
    a faulted or budget-cut walk leaves nothing behind."""

    @pytest.mark.parametrize(
        ("engine", "schema", "cls", "lps"),
        [
            ("pruned", symmetric_conflict_schema(), "T", 11),
            ("pruned", meeting_schema(), "Speaker", 4),
            ("naive", symmetric_conflict_schema(), "T", 120),
            ("naive", meeting_schema(), "Speaker", 9),
        ],
        ids=["pruned-unsat", "pruned-sat", "naive-unsat", "naive-sat"],
    )
    def test_a_repeated_class_costs_no_lp(self, engine, schema, cls, lps):
        with pin_backend(engine):
            session = ReasoningSession(schema)
            first, first_lps = ask(session, cls)
            second, second_lps = ask(session, cls)
        assert (first_lps, second_lps) == (lps, 0)
        assert answer_of(second) == answer_of(first)
        assert first.engine == engine
        # Each answer carries its own copy of a witness.
        assert second.solution is None or second.solution is not first.solution

    def test_a_faulted_walk_is_answered_by_the_fixpoint_and_not_kept(self):
        schema = symmetric_conflict_schema()
        with pin_backend("pruned"):
            session = ReasoningSession(schema)
            with inject_faults(simplex_failures={1}) as plan:
                faulted, _ = ask(session, "T")
            assert plan.injected == [("simplex", 1)]
            retried, retried_lps = ask(session, "T")
            _, third_lps = ask(session, "T")
        assert faulted.verdict is Verdict.UNSAT
        assert faulted.engine == "pruned"
        # The walk runs again, from an empty ledger, and only then is
        # its answer kept.
        assert (retried_lps, third_lps) == (11, 0)
        assert answer_of(retried) == answer_of(faulted)

    def test_a_walk_cut_short_by_its_budget_keeps_nothing(self):
        schema = symmetric_conflict_schema()
        with pin_backend("pruned"):
            session = ReasoningSession(schema)
            cut = session.is_class_satisfiable(
                "T", budget=Budget(max_solver_calls=3)
            )
            entry = session.cache.artifacts(schema, session.fingerprint)
            assert entry.walks == {}
            assert entry.ledger.nogoods == []
            retried, retried_lps = ask(session, "T")
            fresh, fresh_lps = ask(ReasoningSession(schema), "T")
        assert cut.verdict is Verdict.UNKNOWN
        assert answer_of(retried) == answer_of(fresh)
        assert retried_lps == fresh_lps == 11

    def test_a_walk_works_on_a_copy_of_the_published_ledger(self):
        # Copy-on-write: the second class's walk reads the first one's
        # nogoods, then publishes a new store; the one it started from
        # is never written, so a concurrent reader of it is safe.
        schema = symmetric_conflict_schema()
        with pin_backend("pruned"):
            session = ReasoningSession(schema)
            ask(session, "T")
            entry = session.cache.artifacts(schema, session.fingerprint)
            published = entry.ledger
            before = (
                list(published.nogoods),
                list(published.hits),
                list(published.first_victims),
                dict(published.witnesses),
            )
            _, lps = ask(session, "A1")
            _, fresh_lps = ask(ReasoningSession(schema), "A1")
        assert lps < fresh_lps
        assert entry.ledger is not published
        assert sum(entry.ledger.hits) > sum(published.hits)
        assert (
            published.nogoods,
            published.hits,
            published.first_victims,
            published.witnesses,
        ) == before

    def test_batch_stats_count_a_repeated_query_once(self, tmp_path, capsys):
        from repro.cli import main
        from repro.dsl import serialize_schema

        path = tmp_path / "conflict.cr"
        path.write_text(serialize_schema(symmetric_conflict_schema()))
        code = main(
            ["batch", str(path), "--query", "sat T", "--query", "sat T",
             "--backend", "pruned", "--stats"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("sat T: UNSATISFIABLE") == 2
        assert (
            "# pruning: 11 zero-set(s) enumerated, 54 orbit-pruned, "
            "55 nogood-pruned, 2 orbit(s)" in out
        )


class TestSessionReuseGate:
    """bench_prune's session-reuse validator refuses each broken claim."""

    RECORD = {
        "workload": "conflict-2",
        "classes": 3,
        "round_lps": [18, 0],
        "fresh_lps": 47,
        "verdicts_agree": True,
        "witnesses_identical": True,
    }

    def test_a_sound_record_passes(self):
        from benchmarks.bench_prune import validate_session_reuse

        validate_session_reuse({"session_reuse": [dict(self.RECORD)]})

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            ({"round_lps": [18, 1]}, "second round solved 1 LP"),
            ({"round_lps": [48, 0]}, "more than the 47"),
            ({"verdicts_agree": False}, "differs from the naive"),
            ({"witnesses_identical": False}, "differs from the naive"),
        ],
    )
    def test_a_broken_claim_fails(self, change, message):
        from benchmarks.bench_prune import validate_session_reuse

        with pytest.raises(ValueError, match=message):
            validate_session_reuse({"session_reuse": [{**self.RECORD, **change}]})


PINNED_RENDERING = """\
nogood 1: Z must contain {} and avoid {c1}
  learned from Z = {}; eliminated 0 candidate zero-set(s)
  Farkas combination over the sharpened source system:
    infeasibility proof (Farkas combination):
      2 * (2*c1 <= r11) [min:R:u:1]
      -1 * (2*c1 >= r11) [max:R:u:1]
      -1 * (c1 >= r11) [max:R:v:1]
      -1 * (c1 >= 1) [Z-positive:c1]
      => 1 <= 0 must hold, but it is >= 1 > 0 for all non-negative unknowns"""


class TestExplainRendering:
    def _loop_schema(self):
        builder = SchemaBuilder("Loop")
        builder.cls("T")
        builder.relationship("R", u="T", v="T")
        builder.card("T", "R", "u", 2, 2)
        builder.card("T", "R", "v", 1, 1)
        return builder.build()

    def test_the_farkas_nogood_rendering_is_pinned(self):
        problem = problem_for(self._loop_schema(), "T")
        store = NogoodStore()
        found, witness, support = pruned_zero_set_search(problem, store=store)
        assert not found and witness is None and support == frozenset()
        assert render_nogoods(problem, store) == PINNED_RENDERING

    def test_every_learned_nogood_reverifies(self):
        problem = problem_for(symmetric_conflict_schema(), "T")
        store = NogoodStore()
        pruned_zero_set_search(problem, store=store)
        assert store.nogoods
        for nogood in store.nogoods:
            source = set(nogood.source)
            assert nogood.zeros <= source
            assert not (nogood.positives & source)
            assert nogood.certificate.verify(
                nogood_source_system(problem, nogood)
            )

    def test_no_nogoods_renders_a_placeholder(self):
        problem = problem_for(self._loop_schema(), "T")
        assert "no nogoods learned" in render_nogoods(problem, NogoodStore())

    def test_explain_cli_appends_the_nogood_section(self, tmp_path, capsys):
        from repro.cli import main
        from repro.dsl import serialize_schema

        path = tmp_path / "loop.cr"
        path.write_text(serialize_schema(self._loop_schema()))
        assert main(["explain", str(path), "--class", "T", "--nogoods"]) == 0
        out = capsys.readouterr().out
        assert "nogoods learned while deciding 'T'" in out
        assert PINNED_RENDERING in out
