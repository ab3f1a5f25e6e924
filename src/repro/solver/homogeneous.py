"""Homogeneous-cone results at the string-keyed boundary.

The systems `Ψ_S` generated from a CR-schema (Section 3.2 of the paper)
are homogeneous with integer coefficients over non-negative unknowns.
Two classical facts make them pleasant to decide exactly:

1. **Cone scaling** — the solution set is a convex cone: any positive
   multiple of a solution is a solution, and sums of solutions are
   solutions.  Hence a strict constraint ``e > 0`` is satisfiable
   together with the system iff the non-strict system plus ``e >= 1``
   is, which *is* an LP (:func:`repro.solver.core.solve_positive`).

2. **Rational = integer feasibility** — scaling a rational solution by
   the least common multiple of its denominators yields an integer
   solution (:func:`integerize`); the cardinality unknowns of the paper
   therefore never need integer programming.

Because supports of cone points are closed under union (add the
witnesses), there is a unique largest set of unknowns that can be
simultaneously positive.  :func:`maximal_support` computes it for a
string-keyed :class:`~repro.solver.linear.LinearSystem` (the
render/explain boundary) by interning the system and running the one
exact kernel, :func:`repro.solver.core.interned_maximal_support`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from repro.solver.certificates import FarkasCertificate
from repro.solver.core import InternedSystem, interned_maximal_support
from repro.solver.linear import LinearSystem
from repro.utils.rationals import common_denominator_scale


@dataclass(frozen=True)
class HomogeneousWitness:
    """The kernel's answer to a possibly-strict homogeneous system
    (:func:`repro.solver.registry.positive_witness`).

    When ``feasible``, ``rational`` is a solution of the original system
    (strict constraints satisfied strictly) and ``integral`` is the same
    solution scaled to non-negative integers.  When infeasible,
    ``certificate`` is the Farkas proof over the sharpened system, row
    for row, or ``None`` when the kernel could not verify one.
    """

    feasible: bool
    rational: dict[str, Fraction] | None
    integral: dict[str, int] | None
    certificate: FarkasCertificate | None = None


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
    """:func:`repro.solver.core.interned_maximal_support` on a
    string-keyed homogeneous non-strict ``system``; ``candidates``
    (the probed unknowns) defaults to every variable."""
    probes = list(system.variables if candidates is None else candidates)
    return interned_maximal_support(InternedSystem.from_linear(system), probes)


__all__ = [
    "HomogeneousWitness",
    "integerize",
    "maximal_support",
]
