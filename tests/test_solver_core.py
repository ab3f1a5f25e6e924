"""Unit tests for the interned sparse solver core.

Covers the three layers of :mod:`repro.solver.core`: the interning
primitives (:class:`VariableTable`, :class:`SparseRow`,
:class:`InternedSystem` and its boundary conversions), the sparse
revised simplex (:func:`solve_interned` across the three statuses,
presolve, free variables, and the integer fast path), and the
homogeneous helpers (:func:`sharpened_rows`,
:func:`solve_positive`, :func:`interned_maximal_support`),
including a certified maximal support of the paper's meeting system.
String-keyed LP cases live in ``test_simplex.py``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import SolverError
from repro.solver.core import (
    InternedSystem,
    SparseRow,
    SparseStatus,
    VariableTable,
    _div,
    _norm,
    _SparseTableau,
    interned_maximal_support,
    sharpened_rows,
    solve_interned,
    solve_positive,
)
from repro.solver.certificates import support_is_certified
from repro.solver.linear import Constraint, LinearSystem, Relation, term
from tests.test_simplex import BEALE_OBJECTIVE, BEALE_ROWS, solve_linear


class TestNormalisation:
    def test_norm_collapses_integral_fractions_to_int(self):
        value = _norm(Fraction(6, 3))
        assert value == 2
        assert type(value) is int

    def test_norm_keeps_proper_fractions(self):
        assert _norm(Fraction(1, 3)) == Fraction(1, 3)

    def test_norm_keeps_plain_ints(self):
        assert _norm(7) == 7
        assert type(_norm(7)) is int

    def test_div_takes_the_integer_fast_path(self):
        value = _div(6, 3)
        assert value == 2
        assert type(value) is int

    def test_div_falls_back_to_exact_rationals(self):
        assert _div(1, 3) == Fraction(1, 3)
        assert _div(Fraction(1, 2), 2) == Fraction(1, 4)

    def test_div_renormalises_a_rational_quotient(self):
        value = _div(Fraction(3, 2), Fraction(1, 2))
        assert value == 3
        assert type(value) is int


class TestVariableTable:
    def test_intern_is_idempotent(self):
        table = VariableTable()
        assert table.intern("x") == 0
        assert table.intern("y") == 1
        assert table.intern("x") == 0
        assert len(table) == 2

    def test_index_and_name_round_trip(self):
        table = VariableTable(["a", "b"])
        assert table.index("b") == 1
        assert table.name(0) == "a"
        assert table.names() == ("a", "b")
        assert "a" in table and "z" not in table

    def test_unknown_name_is_a_solver_error(self):
        with pytest.raises(SolverError, match="unknown variable 'z'"):
            VariableTable().index("z")

    def test_copy_is_independent(self):
        table = VariableTable(["a"])
        clone = table.copy()
        clone.intern("b")
        assert len(table) == 1
        assert len(clone) == 2


class TestSparseRow:
    def test_make_sorts_columns_and_drops_zeros(self):
        row = SparseRow.make({3: 2, 1: -1, 2: 0}, Relation.GE)
        assert row.cols == (1, 3)
        assert row.coeffs == (-1, 2)

    def test_make_normalises_integral_fractions(self):
        row = SparseRow.make({0: Fraction(4, 2)}, Relation.EQ, Fraction(6, 3))
        assert type(row.coeffs[0]) is int
        assert type(row.const) is int

    def test_is_homogeneous(self):
        assert SparseRow.make({0: 1}, Relation.GE).is_homogeneous
        assert not SparseRow.make({0: 1}, Relation.GE, const=-1).is_homogeneous


class TestInternedSystem:
    def test_add_named_interns_on_demand(self):
        system = InternedSystem()
        system.add_named({"x": 1, "y": -1}, Relation.GE, label="x-dominates")
        assert system.num_variables == 2
        assert len(system) == 1
        assert system.rows[0].label == "x-dominates"

    def test_linear_round_trip_preserves_everything(self):
        linear = LinearSystem(variables=["x", "y", "unused"])
        linear.add(
            Constraint(term("x") - term("y"), Relation.GE, label="L1")
        )
        linear.add(Constraint(term("y", Fraction(1, 2)), Relation.GT))
        interned = InternedSystem.from_linear(linear)
        back = interned.to_linear()
        # Declaration order survives, including constraint-free unknowns.
        assert back.variables == linear.variables
        assert len(back) == len(linear)
        for original, converted in zip(linear, back):
            assert converted.expr.coefficients == original.expr.coefficients
            assert converted.relation is original.relation
            assert converted.label == original.label

    def test_with_rows_shares_the_table(self):
        system = InternedSystem()
        system.add_named({"x": 1}, Relation.GE)
        extended = system.with_rows([SparseRow.make({0: 1}, Relation.EQ)])
        assert extended.table is system.table
        assert len(extended) == 2
        assert len(system) == 1  # the original is untouched

    def test_inspection_helpers(self):
        system = InternedSystem()
        system.add_named({"x": 1, "y": 1}, Relation.GT)
        system.add_named({"y": 1}, Relation.LE, const=1)
        assert system.nonzeros() == 3
        assert system.has_strict_rows()
        assert not system.is_homogeneous()


def _system(rows):
    """An InternedSystem over x, y (indices 0, 1) with the given rows."""
    system = InternedSystem(VariableTable(["x", "y"]))
    for entries, relation, const in rows:
        system.add(entries, relation, const)
    return system


class TestSolveInterned:
    def test_minimises_over_a_feasible_polytope(self):
        # x >= 1 written as x - 1 >= 0.
        system = _system([({0: 1}, Relation.GE, -1)])
        result = solve_interned(system, objective={0: 1})
        assert result.status is SparseStatus.OPTIMAL
        assert result.objective_value == 1
        assert result.values[0] == 1

    def test_equality_rows(self):
        # x + y = 4, minimise x: the vertex is (0, 4).
        system = _system([({0: 1, 1: 1}, Relation.EQ, -4)])
        result = solve_interned(system, objective={0: 1})
        assert result.is_feasible
        assert result.values == {0: 0, 1: 4}

    def test_detects_infeasibility(self):
        # x <= -1 with x non-negative.
        system = _system([({0: 1}, Relation.LE, 1)])
        result = solve_interned(system)
        assert result.status is SparseStatus.INFEASIBLE
        assert not result.is_feasible
        assert result.values is None

    def test_detects_unboundedness(self):
        system = _system([])
        result = solve_interned(system, objective={0: 1}, sense="max")
        assert result.status is SparseStatus.UNBOUNDED

    def test_free_variables_go_negative(self):
        # x >= -5 with x sign-free: min x reaches -5.
        system = _system([({0: 1}, Relation.GE, 5)])
        result = solve_interned(system, objective={0: 1}, free_variables=[0])
        assert result.is_feasible
        assert result.values[0] == -5

    def test_presolve_pins_forced_zeros(self):
        # -x >= 0 pins the non-negative x; y is then minimised freely.
        system = _system(
            [({0: -1}, Relation.GE, 0), ({0: 1, 1: 1}, Relation.GE, -2)]
        )
        result = solve_interned(system, objective={1: 1})
        assert result.is_feasible
        assert result.values[0] == 0
        assert result.values[1] == 2

    def test_integral_inputs_keep_integer_arithmetic(self):
        system = _system(
            [({0: 1, 1: 1}, Relation.GE, -4), ({1: 1}, Relation.GE, -1)]
        )
        result = solve_interned(system, objective={0: 1, 1: 1})
        assert result.is_feasible
        # The fast path keeps exact ints wherever values are integral.
        assert all(
            type(value) is int for value in result.values.values()
        ), result.values

    def test_named_values_projects_to_strings(self):
        system = _system([({0: 1}, Relation.GE, -1)])
        result = solve_interned(system, objective={0: 1})
        named = result.named_values(system.table)
        assert named["x"] == Fraction(1)

    def test_strict_rows_are_rejected(self):
        system = _system([({0: 1}, Relation.GT, 0)])
        with pytest.raises(SolverError, match="strict"):
            solve_interned(system)

    def test_bad_sense_is_rejected(self):
        with pytest.raises(SolverError, match="sense"):
            solve_interned(_system([]), objective={0: 1}, sense="upwards")

    def test_undeclared_objective_index_is_rejected(self):
        with pytest.raises(SolverError, match="undeclared"):
            solve_interned(_system([]), objective={9: 1})


class TestHomogeneousHelpers:
    def test_sharpened_rows_apply_cone_scaling(self):
        system = _system(
            [
                ({0: 1}, Relation.GT, 0),
                ({1: 1}, Relation.LT, 0),
                ({0: 1, 1: 1}, Relation.EQ, 0),
            ]
        )
        sharp = sharpened_rows(system)
        assert sharp[0].relation is Relation.GE and sharp[0].const == -1
        assert sharp[1].relation is Relation.LE and sharp[1].const == 1
        assert sharp[2] is system.rows[2]  # non-strict rows pass through

    def test_positive_solution_found(self):
        # x = y with x > 0: the ray x = y = t, witnessed at some t > 0.
        system = _system(
            [({0: 1, 1: -1}, Relation.EQ, 0), ({0: 1}, Relation.GT, 0)]
        )
        result = solve_positive(system)
        assert result.is_feasible
        witness = result.named_values(system.table)
        assert witness["x"] == witness["y"] > 0

    def test_positive_solution_infeasible(self):
        system = _system(
            [({0: 1}, Relation.EQ, 0), ({0: 1}, Relation.GT, 0)]
        )
        result = solve_positive(system)
        assert not result.is_feasible
        # Sharpened: x = 0 and x >= 1; the certificate weighs both rows.
        assert result.farkas is not None and len(result.farkas) == 2

    def test_positive_solution_requires_homogeneity(self):
        with pytest.raises(SolverError, match="homogeneous"):
            solve_positive(_system([({0: 1}, Relation.GE, -1)]))

    def test_maximal_support_excludes_forced_zeros(self):
        # x <= 0 (so x = 0) while y is unconstrained above.
        system = _system([({0: 1}, Relation.LE, 0)])
        support, solution = interned_maximal_support(system, ["x", "y"])
        assert support == frozenset({"y"})
        assert solution["x"] == 0
        assert solution["y"] > 0

    def test_maximal_support_rejects_strict_systems(self):
        system = _system([({0: 1}, Relation.GT, 0)])
        with pytest.raises(SolverError, match="non-strict"):
            interned_maximal_support(system, ["x"])

    def test_maximal_support_leaves_the_input_table_clean(self):
        # The shadow variables t#<name> must not leak into the caller's
        # table (the probe runs on a copy).
        system = _system([({0: 1}, Relation.LE, 0)])
        interned_maximal_support(system, ["x", "y"])
        assert system.table.names() == ("x", "y")

    def test_support_is_certified_on_the_meeting_system(self, meeting_system):
        candidates = meeting_system.consistent_class_unknowns()
        support, solution = interned_maximal_support(
            meeting_system.interned, candidates
        )
        assert support  # the meeting schema is satisfiable
        assert support_is_certified(
            meeting_system.system, candidates, support, solution
        )


class TestIntegerTableau:
    """The tableau holds ``int`` numerators over positive ``int``
    denominators, also where the vertex is fractional; ``Fraction``
    appears only where values leave the kernel."""

    @pytest.fixture
    def snapshots(self, monkeypatch):
        """After every pivot: the types of the tableau's numbers, and
        its denominators."""
        taken: list[tuple[set[type], list[int]]] = []
        pivot = _SparseTableau.pivot

        def spy(tableau, row_index, col_index):
            pivot(tableau, row_index, col_index)
            numbers = [
                *(value for row in tableau.rows for value in row.values()),
                *tableau.rhs,
                *tableau.reduced.values(),
                tableau.neg_obj,
            ]
            denominators = [*tableau.denominators, tableau.cost_denominator]
            taken.append(
                ({type(n) for n in numbers + denominators}, denominators)
            )

        monkeypatch.setattr(_SparseTableau, "pivot", spy)
        return taken

    @staticmethod
    def check(snapshots):
        assert snapshots, "the solve made no pivot"
        for types, denominators in snapshots:
            assert types == {int}, types
            assert all(d > 0 for d in denominators)
        # A fractional vertex: some pivot left a row over a denominator.
        assert any(d != 1 for _, denominators in snapshots for d in denominators)

    def test_fractional_vertex(self, snapshots):
        x, y = term("x"), term("y")
        linear = LinearSystem([3 * x + 3 * y <= 2, x - y >= 0])
        _result, vertex = solve_linear(linear, y, "max")
        self.check(snapshots)
        assert vertex == {"x": Fraction(1, 3), "y": Fraction(1, 3)}

    def test_beale_with_fractional_inputs(self, snapshots):
        result, _vertex = solve_linear(LinearSystem(BEALE_ROWS), BEALE_OBJECTIVE)
        self.check(snapshots)
        assert result.objective_value == Fraction(-22, 25)

    def test_maximal_support_on_the_meeting_system(
        self, snapshots, meeting_system
    ):
        support, _solution = interned_maximal_support(
            meeting_system.interned, meeting_system.consistent_class_unknowns()
        )
        self.check(snapshots)
        assert support
