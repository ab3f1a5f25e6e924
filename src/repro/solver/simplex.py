"""Exact two-phase simplex over the rationals.

This is the workhorse behind every satisfiability and implication check:
Theorem 3.4 reduces reasoning in CR to feasibility tests on linear
systems, and (as the paper notes in Section 3.3) each such test is a
linear-programming feasibility problem.  The implementation is a
textbook dense tableau simplex with **Bland's anti-cycling rule**,
running entirely on :class:`fractions.Fraction` so the decision
procedure never depends on floating-point tolerances.

Variables are non-negative by default (the paper's unknowns count
instances); free variables can be named explicitly and are split into
differences of two non-negative variables internally.

Strict inequalities are *rejected* here: they are not expressible in an
LP.  The homogeneous layer (:mod:`repro.solver.homogeneous`) removes
them soundly by cone scaling before calling into this module.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import SolverError
from repro.runtime.budget import current_budget
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation

_ZERO = Fraction(0)
_ONE = Fraction(1)

_FAULT_HOOK = None
"""Test seam: when set (by :mod:`repro.runtime.faults`), called with no
arguments at the top of every :func:`solve_lp`; may raise to simulate a
backend fault."""


class SimplexStatus(enum.Enum):
    """Outcome of a simplex run."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    """Solution report of :func:`solve_lp`.

    ``assignment`` maps every variable of the input system to its value
    in the found vertex (``None`` unless the status is ``OPTIMAL``).
    ``objective_value`` is the optimal value of the objective, or 0 for
    pure feasibility runs.
    """

    status: SimplexStatus
    objective_value: Fraction | None
    assignment: dict[str, Fraction] | None

    @property
    def is_feasible(self) -> bool:
        return self.status is SimplexStatus.OPTIMAL


_DEGENERATE_PIVOT_LIMIT = 40
"""Consecutive degenerate (zero-step) pivots tolerated under the Dantzig
rule before switching to Bland's rule, whose anti-cycling guarantee then
ensures termination."""


class _Tableau:
    """Dense simplex tableau, pivoting sparse-aware.

    ``rows[i]`` holds the coefficients of the i-th basic-feasible
    equality, with the right-hand side in the last position.  ``basis[i]``
    is the column currently basic in row i.

    Pivoting uses the Dantzig rule (most negative reduced cost) for
    speed, falling back to Bland's rule after a run of degenerate pivots
    to guarantee termination.  Row updates iterate only over the
    non-zero entries of the pivot row — the generated systems are
    sparse, and this is the difference between milliseconds and minutes
    on exact rational arithmetic.
    """

    def __init__(
        self, rows: list[list[Fraction]], basis: list[int], num_columns: int
    ) -> None:
        self.rows = rows
        self.basis = basis
        self.num_columns = num_columns
        self.blocked: set[int] = set()

    def pivot(
        self, row_index: int, col_index: int, reduced: list[Fraction]
    ) -> None:
        """Make ``col_index`` basic in ``row_index``; update reduced costs."""
        pivot_row = self.rows[row_index]
        pivot_value = pivot_row[col_index]
        if pivot_value == 0:
            raise SolverError("internal error: pivot on a zero entry")
        if pivot_value != 1:
            inverse = _ONE / pivot_value
            pivot_row = [entry * inverse for entry in pivot_row]
            self.rows[row_index] = pivot_row
        support = [j for j, entry in enumerate(pivot_row) if entry != 0]
        for i, row in enumerate(self.rows):
            if i == row_index:
                continue
            factor = row[col_index]
            if factor != 0:
                for j in support:
                    row[j] -= factor * pivot_row[j]
        factor = reduced[col_index]
        if factor != 0:
            for j in support:
                reduced[j] -= factor * pivot_row[j]
        self.basis[row_index] = col_index

    def reduced_costs(self, cost: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        """Reduced cost vector and current objective for min ``cost . x``.

        The returned vector has ``num_columns + 1`` entries; the last one
        is the *negated* objective value and is kept up to date by
        :meth:`pivot`.
        """
        reduced = list(cost) + [_ZERO]
        for row, basic in zip(self.rows, self.basis):
            basic_cost = cost[basic]
            if basic_cost != 0:
                for j, entry in enumerate(row):
                    if entry != 0:
                        reduced[j] -= basic_cost * entry
        return reduced, -reduced[-1]

    def minimize(
        self, cost: list[Fraction], floor: Fraction | None = None
    ) -> tuple[SimplexStatus, Fraction]:
        """Run simplex iterations minimising ``cost . x``.

        ``floor`` is a value the caller *knows* the objective cannot go
        below; the iteration stops as optimal the moment it is reached.
        This matters enormously on degenerate problems: phase 1 of a
        homogeneous system starts at its optimum (all artificials zero)
        and would otherwise burn hundreds of zero-step pivots polishing
        reduced costs.
        """
        reduced, objective = self.reduced_costs(cost)
        degenerate_run = 0
        use_bland = False
        budget = current_budget()
        while True:
            if budget is not None:
                budget.charge_pivots()
            if floor is not None and -reduced[-1] <= floor:
                return SimplexStatus.OPTIMAL, -reduced[-1]
            entering = self._entering_column(reduced, use_bland)
            if entering is None:
                return SimplexStatus.OPTIMAL, -reduced[-1]
            leaving: int | None = None
            best_ratio: Fraction | None = None
            for i, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff > 0:
                    ratio = row[-1] / coeff
                    better = best_ratio is None or ratio < best_ratio
                    tie = best_ratio is not None and ratio == best_ratio
                    if better or (
                        tie
                        and leaving is not None
                        and self.basis[i] < self.basis[leaving]
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                return SimplexStatus.UNBOUNDED, -reduced[-1]
            if best_ratio == 0:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_PIVOT_LIMIT:
                    use_bland = True
            else:
                degenerate_run = 0
            self.pivot(leaving, entering, reduced)

    def _entering_column(
        self, reduced: list[Fraction], use_bland: bool
    ) -> int | None:
        if use_bland:
            for j in range(self.num_columns):
                if j not in self.blocked and reduced[j] < 0:
                    return j
            return None
        best: int | None = None
        best_value = _ZERO
        for j in range(self.num_columns):
            if j not in self.blocked and reduced[j] < best_value:
                best = j
                best_value = reduced[j]
        return best

    def basic_values(self) -> dict[int, Fraction]:
        """Current value of each basic column."""
        return {basic: row[-1] for basic, row in zip(self.basis, self.rows)}


def _presolve(
    system: LinearSystem, free_variables: frozenset[str]
) -> tuple[list[Constraint], set[str]]:
    """Cheap presolve exploiting the implicit non-negativity of variables.

    Two sound reductions, iterated to a fixpoint:

    * **pinning** — a constraint forcing a single non-negative variable
      to zero (``c·x = 0``, ``x ≤ 0``) removes the variable entirely;
    * **triviality** — a constraint that non-negativity alone already
      guarantees (``Σ aᵢxᵢ + b ≥ 0`` with ``aᵢ, b ≥ 0``, or the ``≤``
      mirror image) is dropped.

    The generated disequation systems are full of both patterns (the
    explicit non-negativity rows of group 3, the forced-zero rows of
    the acceptability fixpoint and of Theorem 3.4's ``Ψ_Z``), so this
    routinely shrinks the tableau by an order of magnitude.

    Returns the surviving constraints (with pinned variables already
    substituted away) and the set of pinned variable names.
    """
    constraints = list(system.constraints)
    pinned: set[str] = set()
    changed = True
    while changed:
        changed = False
        remaining: list[Constraint] = []
        for constraint in constraints:
            coeffs = {
                name: value
                for name, value in constraint.expr.coefficients.items()
                if name not in pinned
            }
            const = constraint.expr.constant_term
            relation = constraint.relation
            if len(coeffs) == 1 and const == 0:
                ((name, coeff),) = coeffs.items()
                if name not in free_variables and (
                    relation is Relation.EQ
                    or (relation is Relation.LE and coeff > 0)
                    or (relation is Relation.GE and coeff < 0)
                ):
                    pinned.add(name)
                    changed = True
                    continue
            if not any(name in free_variables for name in coeffs):
                if (
                    relation is Relation.GE
                    and const >= 0
                    and all(value >= 0 for value in coeffs.values())
                ):
                    continue
                if (
                    relation is Relation.LE
                    and const <= 0
                    and all(value <= 0 for value in coeffs.values())
                ):
                    continue
            if relation is Relation.EQ and not coeffs and const == 0:
                continue
            remaining.append(
                Constraint(LinExpr(coeffs, const), relation, constraint.label)
            )
        constraints = remaining
    return constraints, pinned


def _split_free_variables(
    system: LinearSystem, free_variables: frozenset[str]
) -> tuple[list[Constraint], list[str]]:
    """Rewrite free variables as differences of fresh non-negative pairs.

    Returns the rewritten constraints and the ordered list of internal
    (all non-negative) variable names.
    """
    internal_names: list[str] = []
    for name in system.variables:
        if name in free_variables:
            internal_names.append(f"{name}#pos")
            internal_names.append(f"{name}#neg")
        else:
            internal_names.append(name)

    rewritten: list[Constraint] = []
    for constraint in system.constraints:
        coeffs: dict[str, Fraction] = {}
        for name, coeff in constraint.expr.coefficients.items():
            if name in free_variables:
                coeffs[f"{name}#pos"] = coeffs.get(f"{name}#pos", _ZERO) + coeff
                coeffs[f"{name}#neg"] = coeffs.get(f"{name}#neg", _ZERO) - coeff
            else:
                coeffs[name] = coeffs.get(name, _ZERO) + coeff
        rewritten.append(
            Constraint(
                LinExpr(coeffs, constraint.expr.constant_term),
                constraint.relation,
                constraint.label,
            )
        )
    return rewritten, internal_names


def solve_lp(
    system: LinearSystem,
    objective: LinExpr | None = None,
    sense: str = "min",
    free_variables: Iterable[str] = (),
    known_bound: Fraction | int | None = None,
) -> SimplexResult:
    """Solve ``optimise objective subject to system`` exactly.

    Parameters
    ----------
    system:
        Constraints; strict relations are rejected (see module docs).
        Every variable not listed in ``free_variables`` is implicitly
        constrained to be ≥ 0.
    objective:
        Linear objective; ``None`` means a pure feasibility check.
    sense:
        ``"min"`` or ``"max"``.
    free_variables:
        Names allowed to take negative values.
    known_bound:
        A bound the caller can *prove* the objective never passes (a
        lower bound when minimising, an upper bound when maximising).
        Reaching it ends the iteration immediately — a large saving on
        degenerate problems.  Must be sound: a wrong bound yields a
        sub-optimal "optimum".

    Returns
    -------
    SimplexResult
        With status ``OPTIMAL`` (feasible, optimum attained),
        ``INFEASIBLE``, or ``UNBOUNDED``.
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK()
    budget = current_budget()
    if budget is not None:
        budget.charge_solver_call()
    if sense not in ("min", "max"):
        raise SolverError(f"sense must be 'min' or 'max', not {sense!r}")
    for constraint in system.constraints:
        if constraint.relation.is_strict:
            raise SolverError(
                "strict inequalities are not LP constraints; use "
                "repro.solver.homogeneous for homogeneous systems with "
                "strict constraints"
            )

    free = frozenset(free_variables)
    if objective is not None:
        unknown = set(objective.variables()) - set(system.variables)
        if unknown:
            raise SolverError(
                f"objective uses undeclared variables: {sorted(unknown)}"
            )
    presolved, pinned = _presolve(system, free)
    active_names = [name for name in system.variables if name not in pinned]
    reduced_system = LinearSystem(presolved, active_names)
    constraints, internal_names = _split_free_variables(reduced_system, free)
    column_of = {name: j for j, name in enumerate(internal_names)}
    if objective is not None and pinned:
        # Pinned variables are zero in every feasible point; their
        # objective terms contribute nothing.
        objective = LinExpr(
            {
                name: coeff
                for name, coeff in objective.coefficients.items()
                if name not in pinned
            },
            objective.constant_term,
        )

    # Build rows in standard form: coeffs . x (REL) rhs with rhs >= 0.
    raw_rows: list[tuple[list[Fraction], Relation, Fraction]] = []
    for constraint in constraints:
        coeffs = [_ZERO] * len(internal_names)
        for name, coeff in constraint.expr.coefficients.items():
            coeffs[column_of[name]] += coeff
        rhs = -constraint.expr.constant_term
        relation = constraint.relation
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            relation = relation.flipped()
        raw_rows.append((coeffs, relation, rhs))

    num_structural = len(internal_names)
    num_slacks = sum(
        1 for _, relation, _ in raw_rows if relation is not Relation.EQ
    )
    # Artificials are needed for EQ and GE rows; LE rows start with their
    # slack basic.
    num_artificials = sum(
        1 for _, relation, _ in raw_rows if relation is not Relation.LE
    )

    total_columns = num_structural + num_slacks + num_artificials
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    artificial_columns: list[int] = []
    slack_cursor = num_structural
    artificial_cursor = num_structural + num_slacks

    for coeffs, relation, rhs in raw_rows:
        row = list(coeffs) + [_ZERO] * (total_columns - num_structural) + [rhs]
        if relation is Relation.LE:
            row[slack_cursor] = _ONE
            basis.append(slack_cursor)
            slack_cursor += 1
        elif relation is Relation.GE:
            row[slack_cursor] = -_ONE
            slack_cursor += 1
            row[artificial_cursor] = _ONE
            basis.append(artificial_cursor)
            artificial_columns.append(artificial_cursor)
            artificial_cursor += 1
        else:  # EQ
            row[artificial_cursor] = _ONE
            basis.append(artificial_cursor)
            artificial_columns.append(artificial_cursor)
            artificial_cursor += 1
        rows.append(row)

    tableau = _Tableau(rows, basis, total_columns)

    # ---- Phase 1: drive artificials to zero. -------------------------
    if artificial_columns:
        phase1_cost = [_ZERO] * total_columns
        for col in artificial_columns:
            phase1_cost[col] = _ONE
        # The phase-1 objective (a sum of non-negative artificials) can
        # never go below zero, so 0 is a valid floor.
        status, value = tableau.minimize(phase1_cost, floor=_ZERO)
        if status is not SimplexStatus.OPTIMAL or value > 0:
            return SimplexResult(SimplexStatus.INFEASIBLE, None, None)
        _evict_basic_artificials(tableau, set(artificial_columns), num_structural + num_slacks)
        tableau.blocked.update(artificial_columns)

    # ---- Phase 2: optimise the real objective. ------------------------
    if objective is None:
        cost = [_ZERO] * total_columns
        objective_constant = _ZERO
        flip = False
        floor: Fraction | None = _ZERO  # feasibility only: nothing to improve
    else:
        flip = sense == "max"
        cost = [_ZERO] * total_columns
        for name, coeff in objective.coefficients.items():
            signed = -coeff if flip else coeff
            if name in free:
                cost[column_of[f"{name}#pos"]] += signed
                cost[column_of[f"{name}#neg"]] -= signed
            else:
                cost[column_of[name]] += signed
        objective_constant = objective.constant_term
        if known_bound is None:
            floor = None
        else:
            # The floor applies to the *internal* minimised objective,
            # without the constant term and negated when maximising.
            floor = Fraction(known_bound) - objective_constant
            if flip:
                floor = -floor

    status, value = tableau.minimize(cost, floor=floor)
    if status is SimplexStatus.UNBOUNDED:
        return SimplexResult(SimplexStatus.UNBOUNDED, None, None)

    values = tableau.basic_values()
    assignment: dict[str, Fraction] = {}
    for name in system.variables:
        if name in pinned:
            assignment[name] = _ZERO
        elif name in free:
            positive = values.get(column_of[f"{name}#pos"], _ZERO)
            negative = values.get(column_of[f"{name}#neg"], _ZERO)
            assignment[name] = positive - negative
        else:
            assignment[name] = values.get(column_of[name], _ZERO)

    objective_value = (-value if flip else value) + objective_constant
    return SimplexResult(SimplexStatus.OPTIMAL, objective_value, assignment)


def _evict_basic_artificials(
    tableau: _Tableau, artificial_columns: set[int], num_real_columns: int
) -> None:
    """Pivot zero-valued artificial variables out of the basis.

    After a successful phase 1 every artificial is zero; any still basic
    sits in a degenerate row.  Pivot on any non-artificial column with a
    non-zero entry; if the whole row is zero outside the artificials the
    row is redundant and can be neutralised by leaving the artificial
    basic at value zero (it is then blocked from re-entering, which is
    enough for correctness).
    """
    for i in range(len(tableau.rows)):
        if tableau.basis[i] not in artificial_columns:
            continue
        replacement = next(
            (
                j
                for j in range(num_real_columns)
                if tableau.rows[i][j] != 0
            ),
            None,
        )
        if replacement is not None:
            dummy_reduced = [_ZERO] * (tableau.num_columns + 1)
            tableau.pivot(i, replacement, dummy_reduced)
