"""Unit tests for the homogeneous-cone decision routines."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import SolverError
from repro.solver.homogeneous import integerize, maximal_support
from repro.solver.linear import LinearSystem, term
from tests.test_simplex import solve_linear


class TestFindPositiveSolution:
    def test_figure1_style_unsatisfiable_cone(self):
        # 2c <= r, c >= r, c > 0 has only the zero solution: the core of
        # the paper's Figure 1.
        c, r = term("c"), term("r")
        system = LinearSystem([2 * c <= r, c >= r, c > 0])
        assert not solve_linear(system, positive=True)[0].is_feasible

    def test_feasible_cone_returns_integral_witness(self):
        c, r = term("c"), term("r")
        system = LinearSystem([c <= r, 2 * c >= r, c > 0])
        witness = integerize(solve_linear(system, positive=True)[1])
        assert witness["c"] >= 1
        assert system.is_satisfied_by(
            {k: Fraction(v) for k, v in witness.items()}
        )

    def test_strict_less_than(self):
        x, y = term("x"), term("y")
        system = LinearSystem([x - y < 0, y <= 2 * x, x > 0])
        _result, solution = solve_linear(system, positive=True)
        assert solution is not None
        assert solution["x"] < solution["y"]
        assert system.is_satisfied_by(solution)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(SolverError):
            solve_linear(LinearSystem([term("x") >= 1]), positive=True)

    def test_no_strict_constraints_zero_is_fine(self):
        system = LinearSystem([term("x") <= term("y")])
        assert solve_linear(system, positive=True)[0].is_feasible


class TestIntegerize:
    def test_already_integral(self):
        assert integerize({"a": Fraction(2)}) == {"a": 2}

    def test_scales_by_lcm_of_denominators(self):
        solution = {"a": Fraction(1, 2), "b": Fraction(1, 3)}
        assert integerize(solution) == {"a": 3, "b": 2}

    def test_zero_stays_zero(self):
        assert integerize({"a": Fraction(0), "b": Fraction(1, 4)}) == {
            "a": 0,
            "b": 1,
        }


class TestMaximalSupport:
    def test_full_support(self):
        c, r = term("c"), term("r")
        system = LinearSystem([c <= r, 2 * c >= r])
        support, solution = maximal_support(system)
        assert support == {"c", "r"}
        assert all(solution[name] > 0 for name in support)

    def test_empty_support(self):
        c, r = term("c"), term("r")
        system = LinearSystem([2 * c <= r, c >= r])
        support, solution = maximal_support(system)
        assert support == frozenset()
        assert all(value == 0 for value in solution.values())

    def test_partial_support(self):
        # y is forced to zero, x is free to be positive.
        x, y = term("x"), term("y")
        system = LinearSystem([y <= 0, x >= 0])
        support, solution = maximal_support(system)
        assert support == {"x"}
        assert solution["y"] == 0

    def test_candidate_restriction(self):
        x, y = term("x"), term("y")
        system = LinearSystem([x >= 0, y >= 0])
        support, _solution = maximal_support(system, candidates=["x"])
        assert "x" in support

    def test_support_is_exact_support_of_witness(self):
        x, y, z = term("x"), term("y"), term("z")
        system = LinearSystem([z.equals(0), x <= y])
        support, solution = maximal_support(system)
        assert support == {name for name, value in solution.items() if value > 0}
        assert support == {"x", "y"}

    def test_rejects_strict_systems(self):
        with pytest.raises(SolverError):
            maximal_support(LinearSystem([term("x") > 0]))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(SolverError):
            maximal_support(LinearSystem([term("x") <= 5]))

    def test_chained_dependencies(self):
        # a <= b <= c <= a/2 forces everything to 0.
        a, b, c = term("a"), term("b"), term("c")
        system = LinearSystem([a <= b, b <= c, 2 * c <= a])
        support, _ = maximal_support(system)
        assert support == frozenset()
