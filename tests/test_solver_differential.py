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

from repro.solver.core import SparseStatus
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


def highs(system: LinearSystem, costs: list[int], ray: bool = False):
    """scipy's HiGHS (floats) on ``min costs · x``, variables >= 0.

    With ``ray``, the rows lose their constants and the variables are
    capped at 1: the optimum is negative exactly when the original
    system, if feasible, has a ray along which the objective falls
    without bound.
    """
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for constraint in system.constraints:
        row = [float(constraint.expr.coefficient(name)) for name in VARIABLES]
        rhs = 0.0 if ray else -float(constraint.expr.constant_term)
        if constraint.relation is Relation.LE:
            a_ub.append(row)
            b_ub.append(rhs)
        elif constraint.relation is Relation.GE:
            a_ub.append([-value for value in row])
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    return linprog(
        c=np.array(costs, dtype=float),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, 1 if ray else None)] * NUM_VARS,
        method="highs",
    )


def scipy_feasible(system: LinearSystem) -> bool:
    """Feasibility via scipy's HiGHS (floats), variables >= 0."""
    return bool(highs(system, [0] * NUM_VARS).success)


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
@given(
    random_systems(),
    st.lists(st.integers(-3, 3), min_size=NUM_VARS, max_size=NUM_VARS),
    st.sampled_from(["min", "max"]),
)
def test_optimum_matches_scipy(system, weights, sense):
    """On a feasible system both engines agree on the status (optimal
    or unbounded) and on the optimum.  Maximising runs the phase 2 the
    maximal-support probes run, with row denominators above 1.

    HiGHS's own status is not the oracle for unboundedness: its
    presolve can call a feasible, unbounded problem infeasible.  Its
    optimum over the capped rays (:func:`highs` with ``ray``) is."""
    objective = LinExpr(dict(zip(VARIABLES, weights)))
    exact, _vertex = solve_linear(system, objective, sense)
    if exact.status is SparseStatus.INFEASIBLE:
        return
    sign = -1 if sense == "max" else 1
    costs = [sign * weight for weight in weights]
    falling_ray = highs(system, costs, ray=True)
    assert falling_ray.status == 0, falling_ray.message
    unbounded = falling_ray.fun < -1e-9
    assert (exact.status is SparseStatus.UNBOUNDED) == unbounded
    if not unbounded:
        result = highs(system, costs)
        assert result.status == 0, result.message
        assert float(exact.objective_value) == pytest.approx(
            sign * result.fun, abs=1e-7
        )
