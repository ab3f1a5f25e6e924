"""Decision routines for homogeneous systems of linear disequations.

The systems `Ψ_S` generated from a CR-schema (Section 3.2 of the paper)
are homogeneous with integer coefficients over non-negative unknowns.
Two classical facts make them pleasant to decide exactly:

1. **Cone scaling** — the solution set is a convex cone: any positive
   multiple of a solution is a solution, and sums of solutions are
   solutions.  Hence a strict constraint ``e > 0`` is satisfiable
   together with the system iff the non-strict system plus ``e >= 1``
   is, which *is* an LP.

2. **Rational = integer feasibility** — scaling a rational solution by
   the least common multiple of its denominators yields an integer
   solution; the cardinality unknowns of the paper therefore never need
   integer programming.

This module packages both facts, plus the *maximal support* computation
that powers the fixpoint satisfiability engine: because supports of cone
points are closed under union (add the witnesses), there is a unique
largest set of unknowns that can be simultaneously positive, computable
with one LP per unknown.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import SolverError
from repro.solver.certificates import FarkasCertificate
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation, term
from repro.solver.simplex import solve_lp
from repro.utils.rationals import common_denominator_scale

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class HomogeneousWitness:
    """Result of :func:`find_positive_solution`.

    When ``feasible``, ``rational`` is a solution of the original system
    (strict constraints satisfied strictly) and ``integral`` is the same
    solution scaled to non-negative integers.  When infeasible, a
    backend that certifies (the sparse simplex) sets ``certificate`` to
    the Farkas proof over the sharpened system, row for row; the other
    backends leave it empty.
    """

    feasible: bool
    rational: dict[str, Fraction] | None
    integral: dict[str, int] | None
    certificate: FarkasCertificate | None = None


def _require_homogeneous(system: LinearSystem) -> None:
    if not system.is_homogeneous():
        offending = next(
            c for c in system.constraints if not c.is_homogeneous()
        )
        raise SolverError(
            "this routine requires a homogeneous system; constraint "
            f"{offending.pretty()!r} has a non-zero constant term"
        )


def _sharpened(constraint: Constraint) -> Constraint:
    """Rewrite a strict homogeneous constraint as a non-strict LP one.

    ``e > 0`` becomes ``e >= 1`` and ``e < 0`` becomes ``e <= -1``;
    correct for homogeneous systems by cone scaling.
    """
    if constraint.relation is Relation.GT:
        return Constraint(
            constraint.expr - 1, Relation.GE, constraint.label, constraint.origin
        )
    if constraint.relation is Relation.LT:
        return Constraint(
            constraint.expr + 1, Relation.LE, constraint.label, constraint.origin
        )
    return constraint


def find_positive_solution(system: LinearSystem) -> HomogeneousWitness:
    """Decide a homogeneous system that may contain strict constraints.

    Returns a witness assignment over exactly the system's variables.
    All variables are taken non-negative (the unknowns of the paper
    count instances of compound classes and relationships).
    """
    _require_homogeneous(system)
    sharpened = LinearSystem(
        (_sharpened(c) for c in system.constraints), system.variables
    )
    result = solve_lp(sharpened)
    if not result.is_feasible:
        return HomogeneousWitness(False, None, None)
    assert result.assignment is not None
    rational = dict(result.assignment)
    return HomogeneousWitness(True, rational, integerize(rational))


def integerize(solution: Mapping[str, Fraction]) -> dict[str, int]:
    """Scale a rational cone point to the integers.

    Multiplies by the least common multiple of the denominators — the
    smallest uniform scaling that lands every coordinate on an integer.
    """
    scale = common_denominator_scale(solution.values())
    return {name: int(value * scale) for name, value in solution.items()}


def maximal_support(
    system: LinearSystem,
    candidates: Iterable[str] | None = None,
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """The largest set of unknowns simultaneously positive in a solution.

    Parameters
    ----------
    system:
        Homogeneous, non-strict system; all variables non-negative.
    candidates:
        Restrict the unknowns whose positivity is probed (the returned
        solution may still make other unknowns positive; the returned
        support reflects the actual solution).  Defaults to all
        variables.

    Returns
    -------
    (support, solution)
        ``support`` is exactly the set of variables positive in
        ``solution``, and no solution of the system makes a variable
        outside ``support ∪ (variables \\ candidates)`` positive beyond
        what ``solution`` exhibits: for probed variables, membership is
        definitive.

    Notes
    -----
    Correctness rests on the cone structure: if ``x`` and ``y`` are
    solutions then so is ``x + y``, whose support is the union — so
    there is a unique maximal support ``S*``, and it can be read off a
    *single* LP.  Introduce a capped shadow ``t_v`` per probed unknown
    with ``0 ≤ t_v ≤ x_v`` and ``t_v ≤ 1``, and maximise ``Σ t_v``:
    scaling a full-support cone point up shows the optimum is
    ``|S* ∩ candidates|`` with ``t_v = 1`` exactly on ``S* ∩ candidates``,
    while any feasible ``t_v > 0`` forces ``x_v > 0``.  The ``x`` part
    of the optimal vertex is the witness.
    """
    _require_homogeneous(system)
    if system.has_strict_constraints():
        raise SolverError(
            "maximal_support expects a non-strict system; express "
            "positivity requirements through the probe instead"
        )
    probe_list = (
        list(candidates) if candidates is not None else list(system.variables)
    )
    shadow = {name: f"t#{name}" for name in probe_list}
    capped = system.copy()
    objective = LinExpr()
    for name, shadow_name in shadow.items():
        capped.add(Constraint(term(shadow_name) - term(name), Relation.LE))
        capped.add(Constraint(term(shadow_name) - 1, Relation.LE))
        objective = objective + term(shadow_name)
    # Each shadow is capped at 1, so the probe count bounds the
    # objective — a sound early-exit ceiling for the simplex.
    result = solve_lp(
        capped, objective=objective, sense="max", known_bound=len(shadow)
    )
    if not result.is_feasible:  # pragma: no cover - x = 0 is always feasible
        raise SolverError("internal error: homogeneous system reported infeasible")
    assert result.assignment is not None
    solution = {
        name: result.assignment[name] for name in system.variables
    }
    support = frozenset(name for name, value in solution.items() if value > 0)
    # The probe is definitive for the candidates; other unknowns may be
    # positive in the witness only as a side effect.
    missing = {
        name
        for name, shadow_name in shadow.items()
        if result.assignment[shadow_name] < 1 and name in support
    }
    assert not missing, f"support probe inconsistent for {sorted(missing)}"
    return support, solution


__all__ = [
    "HomogeneousWitness",
    "find_positive_solution",
    "integerize",
    "maximal_support",
]
