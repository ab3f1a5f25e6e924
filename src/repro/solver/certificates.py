"""Farkas certificates: independently checkable proofs of infeasibility.

When the reasoner declares a schema class unsatisfiable, the verdict
rests on the infeasibility of a linear system — which, unlike a
feasibility verdict, normally has no witness a user could inspect.
Farkas' lemma closes that gap: a system over non-negative unknowns is
infeasible **iff** there is a weighted combination of its constraints

    S(x)  =  Σ  uᵢ · exprᵢ(x)        (uᵢ ≥ 0 for ``exprᵢ ≤ 0`` rows,
                                      uᵢ ≤ 0 for ``exprᵢ ≥ 0`` rows,
                                      uᵢ free for equalities)

whose variable coefficients are all non-negative and whose constant
term is strictly positive: every feasible point would need ``S ≤ 0``,
but ``S > 0`` holds for all ``x ≥ 0``.

:func:`farkas_certificate` takes the weights from the phase-1 optimum
of the sparse exact simplex (:func:`repro.solver.core.solve_interned`
reads them off the final reduced costs);
:meth:`FarkasCertificate.verify` re-checks the proof with nothing but
exact arithmetic — no trust in the solver required.  The schema layer
(:mod:`repro.cr.explain`) attaches these proofs to unsatisfiability
reports, fulfilling the paper's "support the designer in schema
debugging" agenda with machine-checkable evidence.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import SolverError
from repro.solver.core import Coeff, InternedSystem, solve_interned
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation, term


@dataclass(frozen=True)
class FarkasCertificate:
    """Weights proving a :class:`LinearSystem` infeasible.

    ``weights[i]`` is the multiplier of ``system.constraints[i]``
    (absent indices weigh zero).  The certificate is self-contained:
    :meth:`verify` recomputes the combination from scratch.
    """

    weights: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_weights(
        cls, weights: Iterable[tuple[int, Coeff]]
    ) -> FarkasCertificate:
        """Wrap the ``(row index, weight)`` pairs of a solver result."""
        return cls(tuple((index, Fraction(weight)) for index, weight in weights))

    def combination(self, system: LinearSystem) -> LinExpr:
        """``Σ uᵢ · exprᵢ`` over the weighted constraints."""
        total = LinExpr()
        for index, weight in self.weights:
            total = total + weight * system.constraints[index].expr
        return total

    def verify(self, system: LinearSystem) -> bool:
        """Check the proof: sign conditions, coefficients, constant.

        Sound and complete relative to Farkas' lemma for systems over
        non-negative variables; runs in exact arithmetic.
        """
        for index, weight in self.weights:
            if index < 0 or index >= len(system.constraints):
                return False
            relation = system.constraints[index].relation
            if relation is Relation.LE and weight < 0:
                return False
            if relation is Relation.GE and weight > 0:
                return False
            if relation.is_strict:
                return False
        combined = self.combination(system)
        if any(
            coeff < 0 for coeff in combined.coefficients.values()
        ):
            return False
        return combined.constant_term > 0

    def pretty(self, system: LinearSystem) -> str:
        """Human-readable proof listing, one weighted constraint per line."""
        lines = ["infeasibility proof (Farkas combination):"]
        for index, weight in self.weights:
            constraint = system.constraints[index]
            label = f" [{constraint.label}]" if constraint.label else ""
            lines.append(
                f"  {weight} * ({constraint.pretty()}){label}"
            )
        combined = self.combination(system)
        lines.append(
            f"  => {combined.pretty()} <= 0 must hold, but it is >= "
            f"{combined.constant_term} > 0 for all non-negative unknowns"
        )
        return "\n".join(lines)


def farkas_certificate(system: LinearSystem) -> FarkasCertificate | None:
    """A verified infeasibility proof, or ``None`` if the system is feasible.

    The system must be non-strict (sharpen strict homogeneous
    constraints first — see :func:`repro.solver.core.sharpened_rows`);
    variables are implicitly non-negative.

    A thin wrapper over :func:`repro.solver.core.solve_interned`, whose
    infeasible results carry the phase-1 Farkas ray lifted back through
    the presolve and verified on the interned rows; row indices carry
    over one for one.  The pruned zero-set search reads the same
    certificate straight off the solve that refuted a candidate.
    """
    result = solve_interned(InternedSystem.from_linear(system))
    if result.is_feasible:
        return None
    if result.farkas is None:  # pragma: no cover - soundness net
        raise SolverError(
            "internal error: extracted Farkas certificate failed verification"
        )
    return FarkasCertificate.from_weights(result.farkas)


def support_is_certified(
    system: LinearSystem,
    candidates: Iterable[str],
    support: frozenset[str],
    solution: Mapping[str, Fraction],
) -> bool:
    """Check a maximal-support answer of a homogeneous ``system``.

    The answer is certified when ``solution`` is a non-negative solution
    of ``system``, positive exactly on ``support``, and every candidate
    outside ``support`` has a Farkas refutation of ``system ∪ {x ≥ 1}``
    that :meth:`FarkasCertificate.verify` accepts — by cone scaling, no
    solution then makes that candidate positive.  Only the refutations
    come from the solver; every check runs in plain exact arithmetic.
    """
    if any(value < 0 for value in solution.values()):
        return False
    if not system.is_satisfied_by(solution):
        return False
    if {name for name, value in solution.items() if value > 0} != support:
        return False
    for name in candidates:
        if name in support:
            continue
        probe = system.with_constraints(
            [Constraint(term(name) - 1, Relation.GE, label=f"probe:{name}")]
        )
        certificate = farkas_certificate(probe)
        if certificate is None or not certificate.verify(probe):
            return False
    return True


__all__ = ["FarkasCertificate", "farkas_certificate", "support_is_certified"]
