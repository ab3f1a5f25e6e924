"""Unit tests for the implication engine (Section 4 / Figure 7)."""

from __future__ import annotations

import pytest

from repro.cr.builder import SchemaBuilder
from repro.cr.checker import check_model
from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.implication import (
    implies,
    implies_disjointness,
    implies_isa,
    implies_max_cardinality,
    implies_min_cardinality,
    statement_holds,
)
from repro.errors import ReproError, SchemaError
from repro.runtime.budget import Budget
from repro.runtime.outcome import ImplicationVerdict
from repro.solver.registry import pin_backend

ENGINES = ["fixpoint", "naive"]


class TestFigure7:
    """The paper's three showcase inferences, plus controls."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_speaker_isa_discussant_is_implied(self, meeting, engine):
        # Surprising but true in finite models: |Talk| = |Speaker| =
        # |Discussant| is forced, and Discussant <= Speaker, so the two
        # classes coincide extensionally.
        assert implies_isa(meeting, "Speaker", "Discussant", engine).implied

    @pytest.mark.parametrize("engine", ENGINES)
    def test_maxc_talk_participates_is_implied(self, meeting, engine):
        assert implies_max_cardinality(
            meeting, "Talk", "Participates", "U4", 1, engine
        ).implied

    @pytest.mark.parametrize("engine", ENGINES)
    def test_maxc_speaker_holds_is_implied(self, meeting, engine):
        assert implies_max_cardinality(
            meeting, "Speaker", "Holds", "U1", 1, engine
        ).implied

    def test_declared_isa_is_implied(self, meeting):
        assert implies_isa(meeting, "Discussant", "Speaker").implied

    def test_reflexive_isa_is_implied(self, meeting):
        assert implies_isa(meeting, "Talk", "Talk").implied

    def test_non_implications_as_controls(self, meeting):
        assert not implies_isa(meeting, "Speaker", "Talk").implied
        assert not implies_isa(meeting, "Talk", "Speaker").implied
        # Weaker maxc bounds ARE implied; a minc of 2 is not.
        assert implies_max_cardinality(
            meeting, "Speaker", "Holds", "U1", 5
        ).implied
        assert not implies_min_cardinality(
            meeting, "Discussant", "Holds", "U1", 2
        ).implied

    def test_implied_minc_from_declaration(self, meeting):
        assert implies_min_cardinality(
            meeting, "Speaker", "Holds", "U1", 1
        ).implied
        # Discussants inherit the speakers' minimum.
        assert implies_min_cardinality(
            meeting, "Discussant", "Holds", "U1", 1
        ).implied


class TestCountermodels:
    def test_isa_countermodel_is_a_model_violating_the_query(self, meeting):
        result = implies_isa(meeting, "Speaker", "Talk")
        assert not result.implied
        model = result.countermodel
        assert model is not None
        assert check_model(meeting, model) == []
        assert not statement_holds(model, IsaStatement("Speaker", "Talk"))

    def test_min_cardinality_countermodel(self, meeting):
        query_value = 2
        result = implies_min_cardinality(
            meeting, "Discussant", "Holds", "U1", query_value
        )
        assert not result.implied
        model = result.countermodel
        assert check_model(meeting, model) == []
        statement = MinCardinalityStatement(
            "Discussant", "Holds", "U1", query_value
        )
        assert not statement_holds(model, statement)
        # The auxiliary class C_exc must not leak into the counter-model.
        assert "C_exc" not in model.class_extensions

    def test_max_cardinality_countermodel(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .relationship("R", U1="A", U2="B")
            .build()
        )
        result = implies_max_cardinality(schema, "A", "R", "U1", 1)
        assert not result.implied
        model = result.countermodel
        assert check_model(schema, model) == []
        assert not statement_holds(
            model, MaxCardinalityStatement("A", "R", "U1", 1)
        )

    def test_implied_statement_has_no_countermodel(self, meeting):
        result = implies_isa(meeting, "Discussant", "Speaker")
        assert result.implied
        assert result.countermodel is None


class TestCardinalityQueryValidation:
    def test_minc_zero_is_vacuously_implied(self, meeting):
        result = implies_min_cardinality(meeting, "Talk", "Holds", "U2", 0)
        assert result.implied

    def test_query_on_non_subclass_rejected(self, meeting):
        with pytest.raises(SchemaError):
            implies_min_cardinality(meeting, "Speaker", "Participates", "U3", 1)
        with pytest.raises(SchemaError):
            implies_max_cardinality(meeting, "Talk", "Holds", "U1", 1)

    def test_exceptional_class_name_cannot_collide(self):
        # A user class literally named C_exc must not break the reduction.
        schema = (
            SchemaBuilder()
            .classes("C_exc", "B")
            .relationship("R", U1="C_exc", U2="B")
            .card("C_exc", "R", "U1", minc=1)
            .build()
        )
        result = implies_min_cardinality(schema, "C_exc", "R", "U1", 1)
        assert result.implied


class TestUnsatisfiableSchemas:
    def test_everything_is_implied_by_an_unsatisfiable_schema(
        self, refined_meeting
    ):
        # All finite models have every class empty, so any statement holds.
        assert implies_isa(refined_meeting, "Speaker", "Talk").implied
        assert implies_min_cardinality(
            refined_meeting, "Speaker", "Holds", "U1", 100
        ).implied
        assert implies_max_cardinality(
            refined_meeting, "Speaker", "Holds", "U1", 0
        ).implied


class TestDisjointnessImplication:
    def test_unrelated_classes_not_disjoint_by_default(self, meeting):
        result = implies_disjointness(meeting, ["Speaker", "Talk"])
        assert not result.implied
        model = result.countermodel
        assert check_model(meeting, model) == []
        assert not statement_holds(
            model, DisjointnessStatement(frozenset({"Speaker", "Talk"}))
        )

    def test_declared_disjointness_is_implied(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .relationship("R", U1="A", U2="B")
            .disjoint("A", "B")
            .build()
        )
        assert implies_disjointness(schema, ["A", "B"]).implied

    def test_subclass_never_disjoint_from_its_superclass(self, meeting):
        # Any model populating Discussant puts the same instances in
        # Speaker.  But is Discussant satisfiable?  Yes — so disjointness
        # cannot be implied.
        assert not implies_disjointness(
            meeting, ["Discussant", "Speaker"]
        ).implied

    def test_needs_two_classes(self, meeting):
        with pytest.raises(SchemaError):
            implies_disjointness(meeting, ["Speaker"])


class TestDispatcher:
    def test_dispatch_each_statement_kind(self, meeting):
        assert implies(meeting, IsaStatement("Discussant", "Speaker")).implied
        assert implies(
            meeting, MaxCardinalityStatement("Speaker", "Holds", "U1", 1)
        ).implied
        assert implies(
            meeting, MinCardinalityStatement("Speaker", "Holds", "U1", 1)
        ).implied
        assert not implies(
            meeting, DisjointnessStatement(frozenset({"Speaker", "Talk"}))
        ).implied

    def test_pretty_output(self, meeting):
        result = implies(meeting, IsaStatement("Speaker", "Discussant"))
        assert result.pretty() == "S |= Speaker isa Discussant"
        result = implies(meeting, IsaStatement("Speaker", "Talk"))
        assert result.pretty() == "S |/= Speaker isa Talk"

    def test_unsupported_query_rejected(self, meeting):
        with pytest.raises(ReproError):
            implies(meeting, "not a statement")


class TestPinnedEngine:
    @pytest.mark.parametrize("engine", ["pruned", "naive"])
    def test_result_and_budget_phase_name_the_pinned_walk(
        self, meeting, engine
    ):
        # Like is_class_satisfiable, implies resolves the pinned walk
        # once: the result and the phase its budget ran out in both
        # name the walk that decided, not the default "fixpoint".
        query = IsaStatement("Talk", "Discussant")
        with pin_backend(engine):
            decided = implies(meeting, query)
            capped = implies(meeting, query, budget=Budget(max_solver_calls=2))
            vacuous = implies_min_cardinality(meeting, "Talk", "Holds", "U2", 0)
        assert not decided.implied
        assert decided.engine == engine
        assert capped.verdict is ImplicationVerdict.UNKNOWN
        assert capped.engine == engine
        assert capped.snapshot.phase == f"decide:{engine}"
        assert f"'decide:{engine}'" in capped.pretty()
        assert vacuous.engine == engine


class TestStatementHolds:
    def test_isa(self, meeting):
        from repro.cr.interpretation import Interpretation

        interp = Interpretation.build({"Speaker": ["x"], "Discussant": ["x"]})
        assert statement_holds(interp, IsaStatement("Discussant", "Speaker"))
        assert statement_holds(interp, IsaStatement("Speaker", "Discussant"))
        interp2 = Interpretation.build({"Speaker": ["x", "y"], "Discussant": ["x"]})
        assert not statement_holds(interp2, IsaStatement("Speaker", "Discussant"))

    def test_cardinality_statements(self):
        from repro.cr.interpretation import Interpretation

        interp = Interpretation.build(
            {"A": ["a"], "B": ["b"]},
            {"R": [{"U1": "a", "U2": "b"}]},
        )
        assert statement_holds(interp, MinCardinalityStatement("A", "R", "U1", 1))
        assert not statement_holds(
            interp, MinCardinalityStatement("A", "R", "U1", 2)
        )
        assert statement_holds(interp, MaxCardinalityStatement("A", "R", "U1", 1))
        assert not statement_holds(
            interp, MaxCardinalityStatement("A", "R", "U1", 0)
        )

    def test_disjointness(self):
        from repro.cr.interpretation import Interpretation

        interp = Interpretation.build({"A": ["x"], "B": ["y"]})
        assert statement_holds(
            interp, DisjointnessStatement(frozenset({"A", "B"}))
        )

    def test_unsupported(self):
        from repro.cr.interpretation import Interpretation

        with pytest.raises(ReproError):
            statement_holds(Interpretation.empty(), object())
