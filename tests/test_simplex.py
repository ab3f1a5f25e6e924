"""Unit tests for the exact simplex (:func:`solve_interned`) on string-keyed
systems interned with :meth:`InternedSystem.from_linear`.  The known-answer
cases were checked against an independent solver."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import SolverError
from repro.solver import core
from repro.solver.core import (
    InternedSystem,
    SparseResult,
    SparseStatus,
    solve_interned,
    solve_positive,
)
from repro.solver.linear import LinearSystem, LinExpr, term


def solve_linear(
    linear: LinearSystem,
    objective: LinExpr | None = None,
    sense: str = "min",
    free: tuple[str, ...] = (),
    positive: bool = False,
) -> tuple[SparseResult, dict[str, Fraction] | None]:
    """:func:`solve_interned` on the interned form of a string-keyed
    system, or :func:`solve_positive` (the sharpened homogeneous solve)
    if ``positive``; returns the result and its vertex by name (``None``
    unless optimal).  Shared with the homogeneous and differential
    suites."""
    system = InternedSystem.from_linear(linear)
    index = system.table.index
    if positive:
        result = solve_positive(system)
    else:
        result = solve_interned(
            system,
            objective=None
            if objective is None
            else {index(name): c for name, c in objective.coefficients.items()},
            sense=sense,
            free_variables=[index(name) for name in free],
        )
    vertex = result.named_values(system.table) if result.is_feasible else None
    return result, vertex


x, y, z = term("x"), term("y"), term("z")
x1, x2, x3, x4 = (term(f"x{i}") for i in range(1, 5))

# Beale's cycling system: both interesting rows have zero right-hand
# side, the classic case on which textbook Dantzig pivoting cycles.
# Optimum -22/25 at (2/5, 0, 1, 1/10).
BEALE_ROWS = [
    Fraction(1, 4) * x1 - 8 * x2 - x3 + 9 * x4 <= 0,
    Fraction(1, 2) * x1 - 12 * x2 - Fraction(1, 2) * x3 + 3 * x4 <= 0,
    x3 <= 1,
]
BEALE_OBJECTIVE = -Fraction(3, 4) * x1 + 150 * x2 + Fraction(1, 50) * x3 - 6 * x4
BEALE_VERTEX = {"x1": Fraction(2, 5), "x2": 0, "x3": 1, "x4": Fraction(1, 10)}


class TestFeasibility:
    def test_trivial_feasible(self):
        # Non-negativity alone: presolved away.
        result, vertex = solve_linear(LinearSystem([x >= 0]))
        assert result.status is SparseStatus.OPTIMAL
        assert vertex == {"x": 0}

    def test_empty_system_is_feasible(self):
        result, vertex = solve_linear(LinearSystem(variables=["x"]))
        assert result.is_feasible
        assert vertex == {"x": 0}

    def test_contradictory_bounds_infeasible(self):
        result, vertex = solve_linear(LinearSystem([x >= 3, x <= 2]))
        assert result.status is SparseStatus.INFEASIBLE
        assert result.farkas is not None
        assert vertex is None

    def test_equality_constraints(self):
        _result, vertex = solve_linear(LinearSystem([(x + y).equals(4), x.equals(1)]))
        assert vertex == {"x": 1, "y": 3}

    def test_implicit_nonnegativity(self):
        # x <= -1 is infeasible because x >= 0 is implicit.
        result, _vertex = solve_linear(LinearSystem([x <= -1]))
        assert not result.is_feasible

    def test_free_variable_can_go_negative(self):
        result, vertex = solve_linear(LinearSystem([x <= -1, x >= -2]), free=("x",))
        assert result.is_feasible
        assert -2 <= vertex["x"] <= -1

    def test_strict_constraints_rejected(self):
        with pytest.raises(SolverError, match="strict"):
            solve_linear(LinearSystem([x > 0]))

    def test_zero_rhs_ge_rows(self):
        # With every right-hand side zero, phase 1 ends at once with the
        # artificials still basic at zero; eviction must pivot them out
        # before phase 2.  The second system mixes in a non-zero row.
        for linear in (
            LinearSystem([x - y >= 0, (x - y).equals(0)]),
            LinearSystem([x - y >= 0, y >= 1]),
        ):
            result, vertex = solve_linear(linear)
            assert result.is_feasible
            assert linear.is_satisfied_by(vertex)


class TestOptimization:
    def test_simple_maximum(self):
        linear = LinearSystem([x + y <= 4, x - y >= 1])
        result, vertex = solve_linear(linear, x + 2 * y, "max")
        assert result.objective_value == Fraction(11, 2)
        assert vertex == {"x": Fraction(5, 2), "y": Fraction(3, 2)}

    def test_simple_minimum(self):
        result, vertex = solve_linear(LinearSystem([x >= 3]), x, "min")
        assert result.objective_value == 3
        assert vertex == {"x": 3}

    def test_unbounded(self):
        result, vertex = solve_linear(LinearSystem([x >= 1]), x, "max")
        assert result.status is SparseStatus.UNBOUNDED
        assert vertex is None

    def test_objective_over_free_variable(self):
        linear = LinearSystem([x >= -5, x <= 5])
        result, _vertex = solve_linear(linear, x, "min", free=("x",))
        assert result.objective_value == -5

    def test_degenerate_problem_terminates(self):
        result, vertex = solve_linear(LinearSystem(BEALE_ROWS), BEALE_OBJECTIVE)
        assert result.status is SparseStatus.OPTIMAL
        assert result.objective_value == Fraction(-22, 25)
        assert vertex == BEALE_VERTEX

    def test_bland_fall_back_reaches_the_optimum(self, monkeypatch):
        # Beale's system never stalls long enough to trip the Bland
        # fall-back, so trip it at the first degenerate pivot.
        monkeypatch.setattr(core, "_DEGENERATE_PIVOT_LIMIT", 1)
        rules = []
        entering = core._SparseTableau._entering_column

        def spy(tableau, use_bland):
            rules.append(use_bland)
            return entering(tableau, use_bland)

        monkeypatch.setattr(core._SparseTableau, "_entering_column", spy)
        result, vertex = solve_linear(LinearSystem(BEALE_ROWS), BEALE_OBJECTIVE)
        assert any(rules)
        assert result.objective_value == Fraction(-22, 25)
        assert vertex == BEALE_VERTEX

    def test_invalid_sense_rejected(self):
        with pytest.raises(SolverError, match="sense"):
            solve_linear(LinearSystem([x >= 0]), x, "best")

    def test_objective_with_undeclared_variable_rejected(self):
        with pytest.raises(SolverError):
            solve_linear(LinearSystem([x >= 0]), term("ghost"))


class TestExactness:
    def test_fractional_vertex_is_exact(self):
        # The optimum sits at a vertex with denominator 3; floats would
        # return 0.3333... — the exact solver must return 1/3.
        linear = LinearSystem([3 * x + 3 * y <= 2, x - y >= 0])
        result, vertex = solve_linear(linear, y, "max")
        assert result.objective_value == Fraction(1, 3)
        assert vertex == {"x": Fraction(1, 3), "y": Fraction(1, 3)}

    def test_large_coefficients_stay_exact(self):
        big = 10**12
        result, vertex = solve_linear(LinearSystem([big * x <= 1]), x, "max")
        assert result.objective_value == Fraction(1, big)
        assert vertex == {"x": Fraction(1, big)}

    def test_assignment_satisfies_all_constraints(self):
        # Several optimal vertices: whichever is returned must satisfy
        # every row, equality included.
        linear = LinearSystem([x + y + z <= 10, x - y >= 2, (y + z).equals(3), z <= 1])
        result, vertex = solve_linear(linear, x + y + z, "max")
        assert result.objective_value == 10
        assert linear.is_satisfied_by(vertex)
