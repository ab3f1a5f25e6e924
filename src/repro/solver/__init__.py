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
  supporting strict inequalities natively: the independent reference
  the kernel is tested against, on no production path;
* :mod:`repro.solver.homogeneous` — homogeneous-cone results at the
  string-keyed boundary: maximal support, integer witnesses;
* :mod:`repro.solver.registry` — the engine switch (``fixpoint``,
  ``naive``, ``pruned``) and the LP steps the engines share; the
  pruned walk lives in :mod:`repro.solver.pruned`.
"""

from repro.solver.certificates import FarkasCertificate, farkas_certificate
from repro.solver.fourier_motzkin import FourierMotzkinResult, fm_feasible, fm_solve
from repro.solver.homogeneous import HomogeneousWitness, integerize, maximal_support
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation, term

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
