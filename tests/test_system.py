"""Unit tests for the disequation-system generator (Section 3.2 / Figure 5)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.cr.builder import SchemaBuilder
from repro.cr.constraints import DisjointnessStatement, IsaStatement
from repro.cr.expansion import Expansion
from repro.cr.implication import reduce_query
from repro.cr.satisfiability import class_targets, compound_targets
from repro.cr.system import build_system
from repro.errors import ReproError
from repro.solver.linear import Relation


class TestUnknownNaming:
    def test_paper_names_for_meeting_schema(self, meeting_literal_system):
        names = set(meeting_literal_system.class_var.values())
        assert names == {f"c{i}" for i in range(1, 8)}
        rel_names = set(meeting_literal_system.rel_var.values())
        assert {"h34", "p47", "h11", "p77"} <= rel_names
        assert len(rel_names) == 98

    def test_pruned_mode_names_are_sparse(self, meeting_system):
        assert set(meeting_system.class_var.values()) == {
            "c1",
            "c3",
            "c4",
            "c5",
            "c7",
        }
        assert len(meeting_system.rel_var) == 18

    def test_prefix_collision_with_class_unknowns_avoided(self):
        # A relationship starting with "c" cannot use the initial as its
        # prefix — "c12" would collide with compound-class unknowns.
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .relationship("Contains", U1="A", U2="B")
            .build()
        )
        cr_system = build_system(Expansion(schema), mode="pruned")
        for name in cr_system.rel_var.values():
            assert name.startswith("contains_")

    def test_duplicate_initials_fall_back_to_full_names(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .relationship("Rel1", U1="A", U2="B")
            .relationship("Rel2", U3="A", U4="B")
            .build()
        )
        cr_system = build_system(Expansion(schema), mode="pruned")
        prefixes = {name.split("_")[0] for name in cr_system.rel_var.values()}
        assert prefixes == {"rel1", "rel2"}

    def test_large_indices_use_separators(self):
        builder = SchemaBuilder().classes(*[f"K{i}" for i in range(5)])
        builder.relationship("R", U1="K0", U2="K1")
        # No ISA: every subset is consistent; indices go to 31 > 9.
        cr_system = build_system(Expansion(builder.build()), mode="pruned")
        sample = next(iter(cr_system.rel_var.values()))
        assert "_" in sample


class TestSystemShape:
    def test_homogeneous_with_integer_coefficients(self, meeting_system):
        assert meeting_system.system.is_homogeneous()
        for constraint in meeting_system.system:
            for coeff in constraint.expr.coefficients.values():
                assert coeff.denominator == 1

    def test_no_strict_constraints(self, meeting_system):
        assert not meeting_system.system.has_strict_constraints()

    def test_literal_mode_pins_inconsistent_unknowns(
        self, meeting_literal_system
    ):
        zero_rows = [
            c
            for c in meeting_literal_system.system
            if c.label and c.label.startswith("zero-")
        ]
        # Figure 5: c2 = c6 = 0, plus one row per inconsistent compound
        # relationship (98 - 18 of them).
        assert len(zero_rows) == 2 + (98 - 18)
        assert all(c.relation is Relation.EQ for c in zero_rows)

    def test_figure5_min_disequation_for_c4(self, meeting_literal_system):
        # Figure 5 row: c4 <= h43 + h45 + h47 (minc(C4, Holds, U1) = 1).
        target = next(
            c
            for c in meeting_literal_system.system
            if c.label == "min:Holds:U1:4"
        )
        coeffs = target.expr.coefficients
        assert coeffs == {
            "c4": Fraction(1),
            "h43": Fraction(-1),
            "h45": Fraction(-1),
            "h47": Fraction(-1),
        }

    def test_figure5_max_disequation_for_c4(self, meeting_literal_system):
        # Figure 5 row: 2*c4 >= h43 + h45 + h47 (maxc(C4, Holds, U1) = 2).
        target = next(
            c
            for c in meeting_literal_system.system
            if c.label == "max:Holds:U1:4"
        )
        assert target.expr.coefficient("c4") == 2
        assert target.relation is Relation.GE

    def test_figure5_role2_sums_over_first_index(self, meeting_literal_system):
        # cj <= h1j + h4j + h5j + h7j for role U2 (here j = 3).
        target = next(
            c
            for c in meeting_literal_system.system
            if c.label == "min:Holds:U2:3"
        )
        assert set(target.expr.coefficients) == {"c3", "h13", "h43", "h53", "h73"}

    def test_pruned_and_literal_agree_on_shared_rows(
        self, meeting_system, meeting_literal_system
    ):
        pruned_labels = {
            c.label for c in meeting_system.system if c.label.startswith(("min", "max"))
        }
        literal_labels = {
            c.label
            for c in meeting_literal_system.system
            if c.label and c.label.startswith(("min", "max"))
        }
        assert pruned_labels == literal_labels

    def test_unknown_mode_rejected(self, meeting_expansion):
        with pytest.raises(ReproError):
            build_system(meeting_expansion, mode="fancy")


class TestDerivedExpressions:
    def test_class_population_expr(self, meeting_system):
        expr = meeting_system.class_population_expr("Speaker")
        assert set(expr.coefficients) == {"c1", "c4", "c5", "c7"}

    def test_uncoverable_class_has_no_targets(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .isa("A", "B")
            .isa("B", "A")
            .relationship("R", U1="A", U2="B")
            .disjoint("A", "B")
            .build()
        )
        # A <= B and B <= A with A,B disjoint: no consistent compound
        # class contains A, so no solution can populate it.
        cr_system = build_system(Expansion(schema), mode="pruned")
        assert class_targets(cr_system, "A") == frozenset()

    def test_isa_counterexample_targets(self, meeting, meeting_system):
        reduction = reduce_query(meeting, IsaStatement("Speaker", "Discussant"))
        # Compound classes with Speaker but not Discussant: C1, C5.
        assert compound_targets(meeting_system, reduction.where) == {"c1", "c5"}

    def test_disjointness_targets(self, meeting, meeting_system):
        query = DisjointnessStatement({"Speaker", "Talk"})
        reduction = reduce_query(meeting, query)
        # Compound classes with both Speaker and Talk: C5, C7.
        assert compound_targets(meeting_system, reduction.where) == {"c5", "c7"}

    def test_dependencies_cover_all_consistent_relationship_unknowns(
        self, meeting_system
    ):
        assert set(meeting_system.dependencies) == set(
            meeting_system.rel_var.values()
        )
        for rel_unknown, class_unknowns in meeting_system.dependencies.items():
            assert len(class_unknowns) == 2
            assert all(name.startswith("c") for name in class_unknowns)
