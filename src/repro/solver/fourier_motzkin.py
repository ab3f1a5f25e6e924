"""Fourier–Motzkin elimination over the rationals.

A second, completely independent decision procedure for linear
feasibility.  Unlike the simplex (:mod:`repro.solver.core`) it handles
**strict** inequalities natively, which makes it the reference oracle
for the cone-scaling argument (:func:`repro.solver.core.sharpened_rows`):
the test-suite cross-checks the two engines on thousands of random
systems.

Fourier–Motzkin is doubly exponential in the number of eliminated
variables, so this module guards against blow-up with an explicit
constraint budget and is only used directly on small systems.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import SolverError
from repro.runtime.budget import current_budget
from repro.solver.linear import LinearSystem, Relation

_ZERO = Fraction(0)

_FAULT_HOOK = None
"""Test seam: when set (by :mod:`repro.runtime.faults`), called with no
arguments at the top of every :func:`fm_solve`; may raise to simulate a
backend fault."""


@dataclass(frozen=True)
class _Ineq:
    """A normalised inequality ``coeffs . x + const (<= | <) 0``."""

    coeffs: tuple[tuple[str, Fraction], ...]
    const: Fraction
    strict: bool

    @classmethod
    def make(
        cls, coeffs: dict[str, Fraction], const: Fraction, strict: bool
    ) -> _Ineq:
        cleaned = tuple(
            sorted((name, value) for name, value in coeffs.items() if value != 0)
        )
        return cls(cleaned, const, strict)

    def coefficient(self, name: str) -> Fraction:
        for var, value in self.coeffs:
            if var == name:
                return value
        return _ZERO

    def is_constant(self) -> bool:
        return not self.coeffs

    def is_trivially_true(self) -> bool:
        if self.coeffs:
            return False
        return self.const < 0 or (self.const == 0 and not self.strict)

    def is_contradiction(self) -> bool:
        if self.coeffs:
            return False
        return self.const > 0 or (self.const == 0 and self.strict)

    def canonical(self) -> _Ineq:
        """Scale so the leading coefficient has magnitude 1 (for dedup)."""
        if not self.coeffs:
            sign = _canonical_const(self.const)
            return _Ineq((), sign, self.strict)
        leading = abs(self.coeffs[0][1])
        if leading == 1:
            return self
        return _Ineq(
            tuple((name, value / leading) for name, value in self.coeffs),
            self.const / leading,
            self.strict,
        )


def _canonical_const(const: Fraction) -> Fraction:
    if const > 0:
        return Fraction(1)
    if const < 0:
        return Fraction(-1)
    return _ZERO


def _combine(lower: _Ineq, upper: _Ineq, name: str) -> _Ineq:
    """Eliminate ``name`` from a lower bound and an upper bound.

    ``upper`` has a positive coefficient on ``name`` (it bounds the
    variable from above); ``lower`` has a negative one.  The positive
    combination cancels the variable exactly.
    """
    upper_coeff = upper.coefficient(name)
    lower_coeff = lower.coefficient(name)
    multiplier_upper = -lower_coeff  # positive
    multiplier_lower = upper_coeff  # positive
    coeffs: dict[str, Fraction] = {}
    for var, value in upper.coeffs:
        coeffs[var] = coeffs.get(var, _ZERO) + multiplier_upper * value
    for var, value in lower.coeffs:
        coeffs[var] = coeffs.get(var, _ZERO) + multiplier_lower * value
    const = multiplier_upper * upper.const + multiplier_lower * lower.const
    return _Ineq.make(coeffs, const, upper.strict or lower.strict)


def _to_inequalities(system: LinearSystem) -> list[_Ineq]:
    result: list[_Ineq] = []
    for constraint in system.constraints:
        coeffs = constraint.expr.coefficients
        const = constraint.expr.constant_term
        relation = constraint.relation
        if relation in (Relation.LE, Relation.LT):
            result.append(
                _Ineq.make(coeffs, const, relation is Relation.LT)
            )
        elif relation in (Relation.GE, Relation.GT):
            negated = {name: -value for name, value in coeffs.items()}
            result.append(
                _Ineq.make(negated, -const, relation is Relation.GT)
            )
        else:  # EQ: two opposite non-strict inequalities
            result.append(_Ineq.make(coeffs, const, False))
            negated = {name: -value for name, value in coeffs.items()}
            result.append(_Ineq.make(negated, -const, False))
    return result


@dataclass(frozen=True)
class FourierMotzkinResult:
    """Outcome of :func:`fm_solve`."""

    feasible: bool
    assignment: dict[str, Fraction] | None


def fm_feasible(
    system: LinearSystem,
    free_variables: Iterable[str] = (),
    max_constraints: int = 200_000,
) -> bool:
    """Whether the system admits a rational solution (strictness honoured)."""
    return fm_solve(system, free_variables, max_constraints).feasible


def fm_solve(
    system: LinearSystem,
    free_variables: Iterable[str] = (),
    max_constraints: int = 200_000,
) -> FourierMotzkinResult:
    """Decide feasibility by variable elimination and return a witness.

    Every variable not in ``free_variables`` is implicitly non-negative,
    as in :func:`repro.solver.core.solve_interned`.  Raises
    :class:`~repro.errors.SolverError` if intermediate systems exceed
    ``max_constraints`` (Fourier–Motzkin can blow up doubly
    exponentially; callers choosing this engine accept small inputs).
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK()
    budget = current_budget()
    if budget is not None:
        budget.charge_solver_call()
    free = frozenset(free_variables)
    inequalities = _to_inequalities(system)
    for name in system.variables:
        if name not in free:
            inequalities.append(_Ineq.make({name: Fraction(-1)}, _ZERO, False))

    order = list(system.variables)
    snapshots: list[tuple[str, list[_Ineq]]] = []
    current = _dedup(inequalities)

    for name in order:
        if budget is not None:
            budget.check()
        snapshots.append((name, current))
        uppers = [ineq for ineq in current if ineq.coefficient(name) > 0]
        lowers = [ineq for ineq in current if ineq.coefficient(name) < 0]
        others = [ineq for ineq in current if ineq.coefficient(name) == 0]
        combined = others
        for lower in lowers:
            for upper in uppers:
                if budget is not None:
                    budget.charge_pivots()
                combined.append(_combine(lower, upper, name))
                if len(combined) > max_constraints:
                    raise SolverError(
                        "Fourier-Motzkin exceeded the constraint budget "
                        f"({max_constraints}); use the simplex engine"
                    )
        current = _dedup(combined)
        contradiction = next(
            (ineq for ineq in current if ineq.is_contradiction()), None
        )
        if contradiction is not None:
            return FourierMotzkinResult(False, None)

    # All variables eliminated; remaining constraints are constant and
    # true, so the system is feasible.  Back-substitute a witness.
    assignment: dict[str, Fraction] = {}
    for name, inequalities_before in reversed(snapshots):
        assignment[name] = _choose_value(name, inequalities_before, assignment)
    return FourierMotzkinResult(True, assignment)


def _dedup(inequalities: Sequence[_Ineq]) -> list[_Ineq]:
    seen: set[_Ineq] = set()
    result: list[_Ineq] = []
    for ineq in inequalities:
        canonical = ineq.canonical()
        if canonical.is_trivially_true() or canonical in seen:
            continue
        seen.add(canonical)
        result.append(canonical)
    return result


def _choose_value(
    name: str, inequalities: Sequence[_Ineq], chosen: dict[str, Fraction]
) -> Fraction:
    """Pick a value for ``name`` inside the interval its bounds induce.

    ``inequalities`` is the system as it stood *before* ``name`` was
    eliminated; all variables other than ``name`` appearing in it are
    either already assigned (later in elimination order) or absent.
    """
    lower: Fraction | None = None
    lower_strict = False
    upper: Fraction | None = None
    upper_strict = False
    for ineq in inequalities:
        coeff = ineq.coefficient(name)
        if coeff == 0:
            continue
        rest = ineq.const
        for var, value in ineq.coeffs:
            if var != name:
                rest += value * chosen[var]
        bound = -rest / coeff
        if coeff > 0:  # name <= bound
            if upper is None or bound < upper or (bound == upper and ineq.strict):
                upper = bound
                upper_strict = ineq.strict
        else:  # name >= bound
            if lower is None or bound > lower or (bound == lower and ineq.strict):
                lower = bound
                lower_strict = ineq.strict
    if lower is None and upper is None:
        return _ZERO
    if lower is None:
        assert upper is not None
        return upper - 1 if upper_strict else upper
    if upper is None:
        return lower + 1 if lower_strict else lower
    if lower == upper:
        # Feasibility of the eliminated system guarantees the bounds are
        # compatible, which rules out both being strict here.
        return lower
    return (lower + upper) / 2


__all__ = ["FourierMotzkinResult", "fm_feasible", "fm_solve"]
