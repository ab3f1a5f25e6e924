"""Exact linear-arithmetic substrate.

The paper reduces reasoning over ISA + cardinality constraints to the
existence of particular solutions of homogeneous systems of linear
disequations (Section 3.2).  This package supplies everything that
reduction needs, implemented from scratch and float-free:

* :mod:`repro.solver.linear` — expressions, constraints, systems (the
  string-keyed form used where systems are rendered or explained);
* :mod:`repro.solver.core` — the one exact LP kernel: interned sparse
  systems and a two-phase revised simplex (Dantzig's rule with a
  Bland fall-back) whose infeasible answers carry Farkas certificates;
* :mod:`repro.solver.certificates` — those certificates, re-checkable
  in plain exact arithmetic;
* :mod:`repro.solver.fourier_motzkin` — Fourier–Motzkin elimination,
  supporting strict inequalities natively (the retry link of the
  fallback chain and a differential-testing oracle for the kernel);
* :mod:`repro.solver.homogeneous` — homogeneous-cone results at the
  string-keyed boundary: maximal support, integer witnesses.
"""

from repro.solver.certificates import FarkasCertificate, farkas_certificate
from repro.solver.fourier_motzkin import FourierMotzkinResult, fm_feasible, fm_solve
from repro.solver.homogeneous import HomogeneousWitness, integerize, maximal_support
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation, term

# Importing the package finalises the backend registry: the pruned
# (orbit/nogood) decision procedure registers itself on import, and it
# lives above repro.solver.registry, so the registry module cannot pull
# it in directly without a cycle.
from repro.solver import pruned as _pruned  # noqa: E402  (registration import)

del _pruned

__all__ = [
    "Constraint",
    "LinearSystem",
    "LinExpr",
    "Relation",
    "term",
    "FarkasCertificate",
    "farkas_certificate",
    "FourierMotzkinResult",
    "fm_feasible",
    "fm_solve",
    "HomogeneousWitness",
    "integerize",
    "maximal_support",
]
