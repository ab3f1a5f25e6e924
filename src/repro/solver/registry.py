"""The engine switch, and the LP steps every engine shares.

Every decision of the pipeline reduces to exact LPs on one kernel, the
interned sparse simplex of :mod:`repro.solver.core`.  Three engines
turn those LPs into the Theorem-3.3/3.4 acceptability decision:

``fixpoint`` (the default)
    The acceptability fixpoint over the maximal support
    (:func:`fixpoint_support`, one
    :func:`~repro.solver.core.interned_maximal_support` per iteration).
``naive``
    The literal Theorem-3.4 zero-set walk (:func:`naive_zero_set_search`),
    one :func:`positive_witness` per subset ``Z``.
``pruned``
    The same walk under orbit and Farkas-nogood pruning
    (:mod:`repro.solver.pruned`).

:func:`decide_acceptable` dispatches on the engine name.  The active
engine is picked by :func:`pin_backend` from code, ``--backend`` on the
CLI, or the ``REPRO_BACKEND`` environment variable (pin > environment >
default); an unknown name fails loudly before any work starts.

Layering: this module sits strictly in the solver layer.  It knows
nothing about CR-schemas; the acceptability decision operates on the
plain :class:`AcceptabilityProblem` data that
:mod:`repro.cr.satisfiability` extracts from a :class:`~repro.cr.system.CRSystem`.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Iterator

from repro.errors import LimitExceededError, ReproError
from repro.runtime.budget import current_budget
from repro.runtime.stats import bump_search_stat
from repro.solver.certificates import FarkasCertificate
from repro.solver.core import (
    InternedSystem,
    SparseRow,
    interned_maximal_support,
    solve_positive,
)
from repro.solver.homogeneous import HomogeneousWitness, integerize
from repro.solver.linear import Relation

if TYPE_CHECKING:
    from repro.solver.pruned import NogoodStore

ENGINES = ("fixpoint", "naive", "pruned")
"""The values of ``--backend``, ``REPRO_BACKEND`` and
:func:`pin_backend`; the first is the default."""

DEFAULT_NAIVE_LIMIT = 16
"""Default cap on class unknowns for the zero-set walks, which visit
``2^n`` zero-sets."""


@dataclass(frozen=True)
class AcceptabilityProblem:
    """The Theorem-3.3 decision input, as plain solver-layer data.

    ``system`` is the interned homogeneous ``Ψ_S`` (non-strict);
    ``class_unknowns`` the consistent compound-class unknown names (the
    probe set of the fixpoint and the universe of the naive zero-set
    enumeration); ``dependencies`` maps each relationship unknown to the
    class unknowns it depends on (Section 3.3's acceptability);
    ``targets`` the unknowns whose joint positivity is queried.
    """

    system: InternedSystem
    class_unknowns: tuple[str, ...]
    dependencies: Mapping[str, tuple[str, ...]]
    targets: frozenset[str]


def positive_witness(system: InternedSystem) -> HomogeneousWitness:
    """Decide a homogeneous system that may contain strict rows.

    Strict rows are handled by cone sharpening inside
    :func:`~repro.solver.core.solve_positive`.  A feasible answer
    carries the rational solution and its integer scaling; an
    infeasible one carries the kernel's verified Farkas certificate over
    the sharpened rows (``None`` only when the kernel could not verify
    one), which the pruned walk learns its nogoods from.
    """
    result = solve_positive(system)
    if not result.is_feasible:
        certificate = (
            None
            if result.farkas is None
            else FarkasCertificate.from_weights(result.farkas)
        )
        return HomogeneousWitness(False, None, None, certificate)
    rational = result.named_values(system.table)
    return HomogeneousWitness(True, rational, integerize(rational))


def fixpoint_support(
    problem: AcceptabilityProblem,
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """Maximal support over all *acceptable* solutions, with a witness.

    The acceptability fixpoint (module docstring of
    :mod:`repro.cr.satisfiability`): compute the maximal support over
    the class unknowns and find the relationship unknowns that depend
    on a class unknown outside it.  Zeroed in the LP's solution, they
    usually leave a point that still satisfies every row: it keeps the
    support's class values, every relationship unknown it leaves
    positive depends only on support classes, and forcing unknowns to
    zero can only shrink the support, so that point is the fixpoint's
    answer and is returned as it is.  Otherwise the unknowns are forced
    to zero by interned rows and the LP is solved again.
    """
    table = problem.system.table
    names = table.names()
    forced_zero: set[str] = set()
    budget = current_budget()
    while True:
        if budget is not None:
            budget.check()
        constrained = problem.system.with_rows(
            SparseRow.make(
                {table.index(name): 1},
                Relation.EQ,
                label=f"forced-zero:{name}",
            )
            for name in sorted(forced_zero)
        )
        support, solution = interned_maximal_support(
            constrained, problem.class_unknowns
        )
        newly_forced = {
            rel_unknown
            for rel_unknown, class_unknowns in problem.dependencies.items()
            if rel_unknown not in forced_zero
            and any(c not in support for c in class_unknowns)
        }
        if not newly_forced:
            return support, solution
        for name in newly_forced:
            solution[name] = Fraction(0)
        scaled = integerize(solution)
        if constrained.violated_row([scaled[name] for name in names]) is None:
            return support - newly_forced, solution
        forced_zero |= newly_forced


def zero_set_rows(
    problem: AcceptabilityProblem, zero_set: frozenset[str]
) -> list[SparseRow]:
    """The extra rows of ``Ψ_Z`` (Theorem 3.4), interned.

    Class unknowns in ``Z`` are pinned to 0, the others required
    strictly positive, and every relationship unknown depending on a
    member of ``Z`` is pinned to 0.
    """
    table = problem.system.table
    rows: list[SparseRow] = []
    for name in problem.class_unknowns:
        index = table.index(name)
        if name in zero_set:
            rows.append(
                SparseRow.make({index: 1}, Relation.EQ, label=f"Z-zero:{name}")
            )
        else:
            rows.append(
                SparseRow.make(
                    {index: 1}, Relation.GT, label=f"Z-positive:{name}"
                )
            )
    for rel_unknown, class_unknowns in problem.dependencies.items():
        if any(c in zero_set for c in class_unknowns):
            rows.append(
                SparseRow.make(
                    {table.index(rel_unknown): 1},
                    Relation.EQ,
                    label=f"Z-dep:{rel_unknown}",
                )
            )
    return rows


def naive_zero_set_search(
    problem: AcceptabilityProblem,
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """The literal Theorem-3.4 walk: test ``Ψ_Z`` for every subset ``Z``
    of the class unknowns, smaller subsets first, and return the first
    feasible one as ``(True, integer_witness, support)``."""
    class_unknowns = list(problem.class_unknowns)
    universe = set(class_unknowns)
    budget = current_budget()
    # Smaller zero-sets first: solutions with rich support come out
    # of the search earlier, and Z = {} settles most satisfiable cases.
    for size in range(len(class_unknowns) + 1):
        for zero_tuple in combinations(class_unknowns, size):
            if budget is not None:
                budget.check()
            zero_set = frozenset(zero_tuple)
            if problem.targets <= zero_set:
                continue  # the required positivity would be impossible
            bump_search_stat("zero_sets_enumerated")
            witness = positive_witness(
                problem.system.with_rows(zero_set_rows(problem, zero_set))
            )
            if witness.feasible:
                assert witness.integral is not None
                support = frozenset(
                    name
                    for name, value in witness.integral.items()
                    if value > 0
                )
                assert universe - zero_set <= support
                return True, witness.integral, support
    return False, None, frozenset()


def decide_acceptable(
    problem: AcceptabilityProblem,
    engine: str = "fixpoint",
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    store: NogoodStore | None = None,
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """Is some acceptable solution positive on a target unknown?

    Returns ``(found, integer_witness, support)``, decided by
    ``engine``.  The two zero-set walks are gated by ``naive_limit``
    class unknowns.  ``store`` is handed to the pruned walk
    (:func:`~repro.solver.pruned.pruned_zero_set_search`), which starts
    from its facts and adds what it learns; the other paths ignore it.
    """
    _require_engine(engine)
    if engine == "fixpoint":
        support, solution = fixpoint_support(problem)
        if not (problem.targets & support):
            return False, None, support
        return True, integerize(solution), support
    size = len(problem.class_unknowns)
    if size > naive_limit:
        walk = (
            f"enumerates 2^{size} zero-sets"
            if engine == "naive"
            else f"still visits the 2^{size} zero-set lattice"
        )
        raise LimitExceededError(
            f"the {engine} (Theorem 3.4) engine {walk}, above the "
            f"configured naive_limit of {naive_limit}; use "
            "engine='fixpoint' for schemas of this size or raise the limit"
        )
    if engine == "naive":
        return naive_zero_set_search(problem)
    # Deferred import: repro.solver.pruned imports this module.
    from repro.solver.pruned import pruned_zero_set_search

    return pruned_zero_set_search(problem, store)


# ---------------------------------------------------------------------------
# The switch
# ---------------------------------------------------------------------------

_PINNED: ContextVar[str | None] = ContextVar("repro_backend_pin", default=None)


def _require_engine(name: str) -> str:
    """Return ``name`` if it is an engine, else fail naming the three."""
    if name not in ENGINES:
        raise ReproError(
            f"unknown solver backend {name!r}; available: "
            f"{', '.join(ENGINES)}"
        )
    return name


def active_backend_name() -> str:
    """The selected engine: pin > ``REPRO_BACKEND`` > ``fixpoint``."""
    pinned = _PINNED.get()
    if pinned is not None:
        return pinned
    env = os.environ.get("REPRO_BACKEND")
    if env:
        return _require_engine(env)  # fail loudly, not mid-query
    return "fixpoint"


@contextmanager
def pin_backend(name: str) -> Iterator[str]:
    """Select the engine for the enclosed block.

    Context-local (safe under threads and nested pins); the CLI
    ``--backend`` flag wraps the whole command in one pin.
    """
    token = _PINNED.set(_require_engine(name))  # validate before pinning
    try:
        yield name
    finally:
        _PINNED.reset(token)


__all__ = [
    "AcceptabilityProblem",
    "DEFAULT_NAIVE_LIMIT",
    "ENGINES",
    "active_backend_name",
    "decide_acceptable",
    "fixpoint_support",
    "naive_zero_set_search",
    "pin_backend",
    "positive_witness",
    "zero_set_rows",
]
