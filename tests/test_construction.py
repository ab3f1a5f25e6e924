"""Unit tests for model construction (Theorem 3.3's constructive half)."""

from __future__ import annotations

import random

import pytest

from repro.cr.builder import SchemaBuilder
from repro.cr.checker import check_expansion_model, check_model
from repro.cr.construction import (
    _capacity,
    _distinct_balanced_tuples,
    construct_model,
    construct_model_for_result,
    witness_violation,
)
from repro.cr.expansion import CompoundRelationship, Expansion
from repro.cr.satisfiability import is_class_satisfiable
from repro.cr.system import build_system
from repro.errors import ReproError


class TestMeetingModel:
    def test_constructed_model_satisfies_the_schema(self, meeting):
        result = is_class_satisfiable(meeting, "Speaker")
        model = construct_model_for_result(result)
        assert check_model(meeting, model) == []

    def test_constructed_model_satisfies_the_expansion_conditions(
        self, meeting, meeting_expansion
    ):
        result = is_class_satisfiable(meeting, "Speaker")
        model = construct_model_for_result(result)
        assert check_expansion_model(meeting_expansion, model) == []

    def test_model_populates_requested_class(self, meeting):
        for cls in ("Speaker", "Discussant", "Talk"):
            model = construct_model_for_result(
                is_class_satisfiable(meeting, cls)
            )
            assert model.instances_of(cls)

    def test_figure6_solution_reproduces_paper_model_shape(
        self, meeting, meeting_system
    ):
        # Figure 6's solution: c3 = c4 = 2, h34 = p34 = 2, rest 0 — two
        # discussant-speakers, two talks, as in the John/Mary model.
        solution = {name: 0 for name in meeting_system.system.variables}
        solution.update({"c3": 2, "c4": 2, "h43": 2, "p43": 2})
        model = construct_model(meeting_system, solution)
        assert check_model(meeting, model) == []
        assert len(model.instances_of("Speaker")) == 2
        assert len(model.instances_of("Discussant")) == 2
        assert len(model.instances_of("Talk")) == 2
        assert len(model.tuples_of("Holds")) == 2
        assert len(model.tuples_of("Participates")) == 2

    def test_unsatisfiable_result_raises(self, refined_meeting):
        result = is_class_satisfiable(refined_meeting, "Speaker")
        with pytest.raises(ReproError):
            construct_model_for_result(result)


class TestSolutionValidation:
    def test_non_solution_rejected(self, meeting_system):
        bogus = {name: 0 for name in meeting_system.system.variables}
        bogus["c4"] = 1  # one discussant with no Holds tuple: minc broken
        with pytest.raises(ReproError, match="does not solve"):
            construct_model(meeting_system, bogus)

    def test_unacceptable_solution_rejected(self):
        # B is empty but an R-tuple class pair involving B is positive.
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .relationship("R", U1="A", U2="B")
            .build()
        )
        cr_system = build_system(Expansion(schema), mode="pruned")
        a_var = next(
            name
            for cc, name in cr_system.class_var.items()
            if cc.members == frozenset({"A"})
        )
        rel_var = next(
            name
            for cr, name in cr_system.rel_var.items()
            if cr.component("U1").members == frozenset({"A"})
            and cr.component("U2").members == frozenset({"B"})
        )
        solution = {name: 0 for name in cr_system.system.variables}
        solution[a_var] = 1
        solution[rel_var] = 1
        with pytest.raises(ReproError, match="not acceptable"):
            construct_model(cr_system, solution)

    def test_negative_counts_rejected(self, meeting_system):
        solution = {name: 0 for name in meeting_system.system.variables}
        solution["c3"] = -1
        with pytest.raises(ReproError, match="negative"):
            construct_model(meeting_system, solution)

    def test_the_reported_row_matches_the_string_keyed_system(
        self, meeting_system
    ):
        # witness_violation checks the interned rows; the string-keyed
        # Psi_S is the reference for which row is violated first and
        # how it renders.
        rng = random.Random(0)
        names = meeting_system.system.variables
        for _ in range(300):
            witness = {name: rng.randint(0, 2) for name in names}
            blocking = [
                c
                for c in meeting_system.system.violated_constraints(witness)
                if not c.relation.is_strict
            ]
            message = witness_violation(meeting_system, witness)
            if blocking:
                assert message is not None
                assert message.endswith(f"disequation: {blocking[0].pretty()}")
            else:
                assert message is None or "not acceptable" in message


class TestTupleDistribution:
    """The distinct-balanced tuple generator in isolation."""

    @staticmethod
    def _make_rel(counts):
        from repro.cr.expansion import CompoundClass

        signature = tuple(
            (f"U{i}", CompoundClass(frozenset({f"K{i}"})))
            for i in range(len(counts))
        )
        return CompoundRelationship("R", signature)

    @pytest.mark.parametrize(
        "counts,n",
        [
            ([2, 2], 4),
            ([2, 3], 6),
            ([4, 6], 24),
            ([1, 5], 5),
            ([3, 3, 3], 9),
            ([2, 3, 4], 12),
            ([5, 5], 17),
            ([6, 4, 2], 13),
        ],
    )
    def test_distinct_and_balanced(self, counts, n):
        rel = self._make_rel(counts)
        offsets = [0] * len(counts)
        tuples = _distinct_balanced_tuples(rel, n, counts, offsets)
        assert len(tuples) == n
        assert len(set(tuples)) == n
        for coordinate, count in enumerate(counts):
            histogram = [0] * count
            for combination in tuples:
                histogram[combination[coordinate]] += 1
            assert max(histogram) - min(histogram) <= 1

    @pytest.mark.parametrize("offset", [0, 1, 3, 7])
    def test_offsets_produce_window_multisets(self, offset):
        # With an offset, the slot multiset on each coordinate must be
        # the contiguous-window multiset starting at the offset.
        counts = [4, 6]
        n = 9
        rel = self._make_rel(counts)
        tuples = _distinct_balanced_tuples(rel, n, counts, [offset, 0])
        histogram = [0] * counts[0]
        for combination in tuples:
            histogram[combination[0]] += 1
        expected = [n // counts[0]] * counts[0]
        for j in range(n % counts[0]):
            expected[(offset + j) % counts[0]] += 1
        assert histogram == expected

    def test_capacity_formula(self):
        # Best pivot for [4, 6]: lcm(4)*6 = 24 = lcm(6)*4.
        assert _capacity([4, 6]) == 24
        # For [2, 3, 4]: pivots give lcm(3,4)*2=24, lcm(2,4)*3=12,
        # lcm(2,3)*4=24 — best 24.
        assert _capacity([2, 3, 4]) == 24
        assert _capacity([1, 1]) == 1


class TestScaling:
    def test_tight_equalities_force_scaling(self):
        # Every A holds exactly 2 R-links and every B receives exactly 2:
        # the minimal solution a=1, b=1, r=2 exceeds the 1x1 grid, so
        # construction must scale it and still satisfy the schema.
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .relationship("R", U1="A", U2="B")
            .card("A", "R", "U1", minc=2, maxc=2)
            .card("B", "R", "U2", minc=2, maxc=2)
            .build()
        )
        result = is_class_satisfiable(schema, "A")
        assert result.satisfiable
        model = construct_model_for_result(result)
        assert check_model(schema, model) == []
        # Each instance participates exactly twice.
        for individual in model.instances_of("A"):
            assert model.participation_count("R", "U1", individual) == 2

    def test_self_relationship(self):
        # Both roles on the same class: every A manages exactly one A and
        # is managed by exactly one A.
        schema = (
            SchemaBuilder()
            .classes("A")
            .relationship("Manages", boss="A", sub="A")
            .card("A", "Manages", "boss", minc=1, maxc=1)
            .card("A", "Manages", "sub", minc=1, maxc=1)
            .build()
        )
        result = is_class_satisfiable(schema, "A")
        model = construct_model_for_result(result)
        assert check_model(schema, model) == []

    def test_ternary_relationship(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B", "C")
            .relationship("R", U1="A", U2="B", U3="C")
            .card("A", "R", "U1", minc=2, maxc=2)
            .card("B", "R", "U2", minc=1, maxc=1)
            .card("C", "R", "U3", minc=1, maxc=3)
            .build()
        )
        result = is_class_satisfiable(schema, "A")
        assert result.satisfiable
        model = construct_model_for_result(result)
        assert check_model(schema, model) == []
