"""Differential tests: three independent LP engines must agree.

* the exact sparse simplex, the library's one LP kernel
  (:func:`repro.solver.core.solve_interned`),
* Fourier–Motzkin elimination (:mod:`repro.solver.fourier_motzkin`),
* scipy's HiGHS ``linprog`` (floating point; used only here, as an
  external oracle — the library's decision paths never touch floats).

Random non-strict systems are generated with small integer
coefficients; all engines must return the same feasibility verdict, and
feasible witnesses must actually satisfy the system.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.solver.fourier_motzkin import fm_solve
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation
from tests.test_simplex import solve_linear

NUM_VARS = 3
VARIABLES = [f"x{i}" for i in range(NUM_VARS)]


@st.composite
def random_systems(draw) -> LinearSystem:
    num_constraints = draw(st.integers(1, 5))
    constraints = []
    for _ in range(num_constraints):
        coeffs = {
            name: draw(st.integers(-3, 3)) for name in VARIABLES
        }
        constant = draw(st.integers(-4, 4))
        relation = draw(
            st.sampled_from([Relation.LE, Relation.GE, Relation.EQ])
        )
        constraints.append(Constraint(LinExpr(coeffs, constant), relation))
    return LinearSystem(constraints, variables=VARIABLES)


def scipy_feasible(system: LinearSystem) -> bool:
    """Feasibility via scipy's HiGHS (floats), variables >= 0."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for constraint in system.constraints:
        row = [float(constraint.expr.coefficient(name)) for name in VARIABLES]
        rhs = -float(constraint.expr.constant_term)
        if constraint.relation is Relation.LE:
            a_ub.append(row)
            b_ub.append(rhs)
        elif constraint.relation is Relation.GE:
            a_ub.append([-value for value in row])
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    result = linprog(
        c=np.zeros(NUM_VARS),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * NUM_VARS,
        method="highs",
    )
    return bool(result.success)


@settings(max_examples=150, deadline=None)
@given(random_systems())
def test_simplex_agrees_with_fourier_motzkin(system):
    simplex_verdict = solve_linear(system)[0].is_feasible
    fm_verdict = fm_solve(system).feasible
    assert simplex_verdict == fm_verdict


@settings(max_examples=150, deadline=None)
@given(random_systems())
def test_simplex_agrees_with_scipy(system):
    assert solve_linear(system)[0].is_feasible == scipy_feasible(system)


@settings(max_examples=100, deadline=None)
@given(random_systems())
def test_feasible_witnesses_satisfy_the_system(system):
    result, vertex = solve_linear(system)
    if result.is_feasible:
        assert system.is_satisfied_by(vertex)
        assert all(value >= 0 for value in vertex.values())
    fm_result = fm_solve(system)
    if fm_result.feasible:
        assignment = {
            name: fm_result.assignment.get(name, Fraction(0))
            for name in VARIABLES
        }
        assert system.is_satisfied_by(assignment)


@settings(max_examples=60, deadline=None)
@given(random_systems(), st.integers(0, NUM_VARS - 1))
def test_optimum_matches_scipy(system, objective_index):
    """When both engines find a bounded optimum, the values must agree."""
    objective = LinExpr({VARIABLES[objective_index]: 1})
    exact, _vertex = solve_linear(system, objective)
    if not exact.is_feasible:
        return
    row = [0.0] * NUM_VARS
    row[objective_index] = 1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for constraint in system.constraints:
        coeffs = [
            float(constraint.expr.coefficient(name)) for name in VARIABLES
        ]
        rhs = -float(constraint.expr.constant_term)
        if constraint.relation is Relation.LE:
            a_ub.append(coeffs)
            b_ub.append(rhs)
        elif constraint.relation is Relation.GE:
            a_ub.append([-value for value in coeffs])
            b_ub.append(-rhs)
        else:
            a_eq.append(coeffs)
            b_eq.append(rhs)
    result = linprog(
        c=np.array(row),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * NUM_VARS,
        method="highs",
    )
    assert result.success
    assert float(exact.objective_value) == pytest.approx(result.fun, abs=1e-7)
