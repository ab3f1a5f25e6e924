"""Unit tests for the Definition-2.2 model checker (and extensions)."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.cr.builder import SchemaBuilder
from repro.cr.checker import check_model, is_model
from repro.cr.interpretation import Interpretation


@pytest.fixture
def schema():
    return (
        SchemaBuilder()
        .classes("A", "B")
        .isa("B", "A")
        .relationship("R", U1="A", U2="B")
        .card("A", "R", "U1", minc=1, maxc=2)
        .build()
    )


def violations_by_condition(schema, interp):
    result = {}
    for violation in check_model(schema, interp):
        result.setdefault(violation.condition, []).append(violation)
    return result


class TestConditionA:
    def test_containment_satisfied(self, schema):
        interp = Interpretation.build(
            {"A": ["x"], "B": ["x"]}, {"R": [{"U1": "x", "U2": "x"}]}
        )
        assert "A" not in violations_by_condition(schema, interp)

    def test_containment_violated(self, schema):
        interp = Interpretation.build({"A": [], "B": ["x"]})
        found = violations_by_condition(schema, interp)
        assert "A" in found
        assert "B isa A" in str(found["A"][0])


class TestConditionB:
    def test_component_outside_primary_class(self, schema):
        interp = Interpretation.build(
            {"A": ["a"], "B": ["a"]},
            {"R": [{"U1": "a", "U2": "stranger"}]},
            extra_domain=["stranger"],
        )
        found = violations_by_condition(schema, interp)
        assert "B" in found

    def test_well_typed_tuples_pass(self, schema):
        interp = Interpretation.build(
            {"A": ["a", "b"], "B": ["b"]}, {"R": [{"U1": "a", "U2": "b"}]}
        )
        assert "B" not in violations_by_condition(schema, interp)


class TestConditionC:
    def test_minc_violated(self, schema):
        # a2 holds no R tuple but minc(A, R, U1) = 1.
        interp = Interpretation.build(
            {"A": ["a1", "a2"], "B": ["a1"]},
            {"R": [{"U1": "a1", "U2": "a1"}]},
        )
        found = violations_by_condition(schema, interp)
        assert any("a2" in str(v) for v in found.get("C", []))

    def test_maxc_violated(self, schema):
        interp = Interpretation.build(
            {"A": ["a"], "B": ["b1", "b2", "b3", "a"]},
            {
                "R": [
                    {"U1": "a", "U2": "b1"},
                    {"U1": "a", "U2": "b2"},
                    {"U1": "a", "U2": "b3"},
                ]
            },
        )
        # b1..b3 are in B <= A... they're not in A, which also breaks (A);
        # restrict attention to the cardinality violation of `a`.
        found = violations_by_condition(schema, interp)
        assert any("3 time(s)" in str(v) for v in found.get("C", []))

    def test_refinement_checked_on_subclass_instances(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .isa("B", "A")
            .relationship("R", U1="A", U2="A")
            .card("B", "R", "U1", maxc=0)
            .build()
        )
        # b is a B, so it may not participate at all; a may.
        interp = Interpretation.build(
            {"A": ["a", "b"], "B": ["b"]},
            {"R": [{"U1": "b", "U2": "a"}]},
        )
        found = violations_by_condition(schema, interp)
        assert found.get("C")

    def test_empty_interpretation_is_always_a_model(self, schema):
        # The paper: "every schema is satisfied by any interpretation that
        # assigns an empty set of instances to every class".
        assert is_model(schema, Interpretation.empty())

    def test_relationship_scans_do_not_grow_with_the_instances(self, schema):
        # One relationship scan per declared bound, not per instance,
        # keeps the check linear in the size of the model.
        def scans(size: int) -> int:
            names = [f"a{index}" for index in range(size)]
            interp = Interpretation.build(
                {"A": names, "B": names},
                {"R": [{"U1": name, "U2": name} for name in names]},
            )
            with mock.patch.object(
                Interpretation,
                "tuples_of",
                autospec=True,
                side_effect=Interpretation.tuples_of,
            ) as spy:
                assert is_model(schema, interp)
            return spy.call_count

        assert scans(40) == scans(20)


class TestExtensions:
    def test_disjointness_violation(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .relationship("R", U1="A", U2="B")
            .disjoint("A", "B")
            .build()
        )
        interp = Interpretation.build({"A": ["x"], "B": ["x"]})
        found = violations_by_condition(schema, interp)
        assert "disjointness" in found

    def test_covering_violation(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B", "C")
            .isa("B", "A")
            .isa("C", "A")
            .relationship("R", U1="A", U2="A")
            .cover("A", "B", "C")
            .build()
        )
        interp = Interpretation.build({"A": ["x"], "B": [], "C": []})
        found = violations_by_condition(schema, interp)
        assert "covering" in found

    def test_covering_satisfied(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .isa("B", "A")
            .relationship("R", U1="A", U2="A")
            .cover("A", "B")
            .build()
        )
        interp = Interpretation.build({"A": ["x"], "B": ["x"]})
        assert "covering" not in violations_by_condition(schema, interp)


class TestViolationReporting:
    def test_str_includes_condition(self, schema):
        interp = Interpretation.build({"A": [], "B": ["x"]})
        violation = check_model(schema, interp)[0]
        assert str(violation).startswith("[A]")

    def test_multiple_violations_reported_together(self, schema):
        interp = Interpretation.build(
            {"A": ["lonely"], "B": ["stray"]},
        )
        found = violations_by_condition(schema, interp)
        assert "A" in found  # stray in B but not A
        assert "C" in found  # lonely participates 0 < minc
