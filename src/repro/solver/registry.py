"""Pluggable solver backends with declared capabilities.

The decision pipeline needs three numeric services — maximal support of
a homogeneous system, a positive solution of a possibly-strict system,
and the full acceptability decision of Theorem 3.3/3.4 — and several
engines provide them: the interned sparse simplex
(:mod:`repro.solver.core`, the one exact LP kernel), Fourier–Motzkin
elimination (:mod:`repro.solver.fourier_motzkin`), and the Theorem-3.4
zero-set walks (the naive enumeration here, the pruned one in
:mod:`repro.solver.pruned`).  This module makes them
first-class :class:`SolverBackend` objects in a process-wide registry,
each declaring :class:`BackendCapabilities`, so that

* the fallback chain (:mod:`repro.runtime.fallback`) is *composed* from
  registered backends instead of hard-wiring module calls;
* the active primary backend is selectable — ``pin_backend`` from code,
  the ``--backend`` CLI flag, or the ``REPRO_BACKEND`` environment
  variable — without touching call sites;
* a new engine plugs in by subclassing :class:`SolverBackend` and
  calling :func:`register_backend` (see DESIGN.md, "Solver core and
  backends").

Layering: this module sits strictly in the solver layer.  It knows
nothing about CR-schemas; the acceptability decision operates on the
plain :class:`AcceptabilityProblem` data that
:mod:`repro.cr.satisfiability` extracts from a :class:`~repro.cr.system.CRSystem`.
"""

from __future__ import annotations

import abc
import os
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from repro.errors import (
    BudgetExceededError,
    LimitExceededError,
    ReproError,
    SolverError,
)
from repro.runtime.budget import current_budget
from repro.solver.certificates import FarkasCertificate
from repro.solver.core import (
    InternedSystem,
    SparseRow,
    interned_maximal_support,
    solve_positive,
)
from repro.solver.fourier_motzkin import fm_solve
from repro.solver.homogeneous import HomogeneousWitness, integerize
from repro.solver.linear import Constraint, Relation, term
from repro.solver.stats import bump_search_stat

_ZERO = Fraction(0)

DEFAULT_BACKEND = "sparse-simplex"
"""Registry name of the backend used when nothing pins a choice."""

DEFAULT_NAIVE_LIMIT = 16
"""Default cap on class unknowns for the naive (Theorem 3.4) engine,
which enumerates ``2^n`` zero-sets."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can accept and produce.

    ``equalities``
        Accepts ``= 0`` rows directly (every current backend does).
    ``strict``
        Decides strict disequations (``> 0``) — natively, as
        Fourier–Motzkin does, or soundly via cone sharpening.
    ``certificates``
        Returns a verified Farkas certificate with every infeasible
        :meth:`SolverBackend.positive_solution` answer (the sparse
        simplex reads it off phase 1; the pruned search learns its
        nogoods from it).
    ``exponential``
        Worst-case exponential in the *number of unknowns* (the naive
        zero-set enumeration); such backends are gated by
        ``naive_limit`` rather than offered as LP primitives.
    """

    equalities: bool = True
    strict: bool = True
    certificates: bool = False
    exponential: bool = False


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


class SolverBackend(abc.ABC):
    """One engine answering the pipeline's numeric questions.

    LP-style backends implement :meth:`maximal_support` and
    :meth:`positive_solution` and inherit the generic acceptability
    fixpoint as :meth:`decide_acceptable`; decision-procedure backends
    (the naive engine) override :meth:`decide_acceptable` directly and
    may refuse the LP primitives with :class:`~repro.errors.SolverError`
    (which a chain treats as "try the next backend").
    """

    name: str
    capabilities: BackendCapabilities

    @abc.abstractmethod
    def maximal_support(
        self, system: InternedSystem, candidates: Sequence[str]
    ) -> tuple[frozenset[str], dict[str, Fraction]]:
        """Largest simultaneously-positive set among ``candidates`` of a
        homogeneous non-strict ``system``, with a witness solution
        (contract of :func:`repro.solver.core.interned_maximal_support`)."""

    @abc.abstractmethod
    def positive_solution(self, system: InternedSystem) -> HomogeneousWitness:
        """Decide a homogeneous system that may contain strict rows."""

    def decide_acceptable(
        self,
        problem: AcceptabilityProblem,
        chain: Sequence[SolverBackend] | None = None,
        naive_limit: int = DEFAULT_NAIVE_LIMIT,
        jobs: int = 1,
    ) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
        """Is some acceptable solution positive on a target unknown?

        Returns ``(found, integer_witness, support)``.  The default
        implementation is the acceptability fixpoint of
        :mod:`repro.cr.satisfiability` run on ``chain`` (defaulting to
        this backend alone) — each support LP is retried down the chain
        on a :class:`~repro.errors.SolverError`.  ``jobs`` is ignored
        here: the fixpoint's witness solution comes out of one shadow
        LP, and keeping that witness bit-identical means keeping the
        serial path; only the naive backend fans out.
        """
        del naive_limit, jobs  # only the exponential backend uses these
        support, solution = fixpoint_support(problem, chain or (self,))
        if not (problem.targets & support):
            return False, None, support
        return True, integerize(solution), support

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Chains: ordered retry over backends
# ---------------------------------------------------------------------------


def chain_maximal_support(
    system: InternedSystem,
    candidates: Sequence[str],
    chain: Sequence[SolverBackend],
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """Try ``maximal_support`` on each backend in order.

    A :class:`~repro.errors.SolverError` moves to the next backend;
    budget exhaustion always propagates (a slower backend would not
    have more resources).  The last error surfaces if every backend
    faults.
    """
    last_error: SolverError | None = None
    for backend in chain:
        try:
            return backend.maximal_support(system, candidates)
        except BudgetExceededError:
            raise
        except SolverError as error:
            last_error = error
    assert last_error is not None, "chain_maximal_support needs a backend"
    raise last_error


def chain_positive_solution(
    system: InternedSystem, chain: Sequence[SolverBackend]
) -> HomogeneousWitness:
    """Try ``positive_solution`` on each backend in order (same
    degradation contract as :func:`chain_maximal_support`)."""
    last_error: SolverError | None = None
    for backend in chain:
        try:
            return backend.positive_solution(system)
        except BudgetExceededError:
            raise
        except SolverError as error:
            last_error = error
    assert last_error is not None, "chain_positive_solution needs a backend"
    raise last_error


def fixpoint_support(
    problem: AcceptabilityProblem, chain: Sequence[SolverBackend]
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """Maximal support over all *acceptable* solutions, with a witness.

    The acceptability fixpoint (module docstring of
    :mod:`repro.cr.satisfiability`): compute the maximal support over
    the class unknowns, force to zero every relationship unknown that
    depends on a class unknown outside it, and iterate until stable.
    Forced-zero rows are added at the interned level; each support LP
    degrades down ``chain``.
    """
    table = problem.system.table
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
        support, solution = chain_maximal_support(
            constrained, problem.class_unknowns, chain
        )
        newly_forced = {
            rel_unknown
            for rel_unknown, class_unknowns in problem.dependencies.items()
            if rel_unknown not in forced_zero
            and any(c not in support for c in class_unknowns)
        }
        if not newly_forced:
            return support, solution
        forced_zero |= newly_forced


# ---------------------------------------------------------------------------
# The concrete backends
# ---------------------------------------------------------------------------


class SparseSimplexBackend(SolverBackend):
    """The interned sparse revised simplex (:mod:`repro.solver.core`).

    The default primary backend: fraction-free sparse pivoting,
    no string-keyed data on the hot path.  Strict rows are handled by
    cone sharpening.  The only certificate producer: an infeasible
    :meth:`positive_solution` carries the phase-1 Farkas proof over the
    sharpened rows.
    """

    name = "sparse-simplex"
    capabilities = BackendCapabilities(certificates=True)

    def maximal_support(
        self, system: InternedSystem, candidates: Sequence[str]
    ) -> tuple[frozenset[str], dict[str, Fraction]]:
        return interned_maximal_support(system, candidates)

    def positive_solution(self, system: InternedSystem) -> HomogeneousWitness:
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


class FourierMotzkinBackend(SolverBackend):
    """Variable elimination (:mod:`repro.solver.fourier_motzkin`).

    Completely independent of the simplex code paths — the retry link
    of the degradation chain.  Handles strict rows natively, so needs
    no cone sharpening.  ``max_constraints`` bounds the intermediate
    systems (FM is doubly exponential); blowing through it raises
    :class:`~repro.errors.SolverError`, which moves a chain along.
    """

    name = "fourier-motzkin"
    capabilities = BackendCapabilities(certificates=False)

    def __init__(self, max_constraints: int = 50_000) -> None:
        self.max_constraints = max_constraints

    def maximal_support(
        self, system: InternedSystem, candidates: Sequence[str]
    ) -> tuple[frozenset[str], dict[str, Fraction]]:
        linear = system.to_linear()
        totals: dict[str, Fraction] = {
            name: _ZERO for name in linear.variables
        }
        # One strict probe per candidate; feasible witnesses are summed
        # (cone closure), so the union of probe supports is itself the
        # support of a single solution — the maximal_support contract.
        for name in candidates:
            if totals.get(name, _ZERO) > 0:
                continue  # already known positive via an earlier witness
            probe = linear.with_constraints(
                [Constraint(term(name), Relation.GT, label=f"fm-probe:{name}")]
            )
            result = fm_solve(probe, max_constraints=self.max_constraints)
            if result.feasible:
                assert result.assignment is not None
                for var, value in result.assignment.items():
                    totals[var] = totals.get(var, _ZERO) + value
        solution = {name: totals[name] for name in linear.variables}
        support = frozenset(
            name for name, value in solution.items() if value > 0
        )
        return support, solution

    def positive_solution(self, system: InternedSystem) -> HomogeneousWitness:
        result = fm_solve(
            system.to_linear(), max_constraints=self.max_constraints
        )
        if not result.feasible:
            return HomogeneousWitness(False, None, None)
        assert result.assignment is not None
        rational = dict(result.assignment)
        return HomogeneousWitness(True, rational, integerize(rational))


class NaiveBackend(SolverBackend):
    """The literal Theorem-3.4 zero-set enumeration.

    A decision procedure, not an LP engine: it answers
    :meth:`decide_acceptable` by enumerating every subset ``Z`` of the
    class unknowns and testing feasibility of ``Ψ_Z`` — exponential,
    hence gated by ``naive_limit`` — and refuses the LP primitives so
    that chains skip over it.  The per-zero-set strict probes run on
    ``chain`` (defaulting to the registry default backend), because the
    naivety is in the *enumeration strategy*, not the arithmetic.
    """

    name = "naive"
    capabilities = BackendCapabilities(exponential=True)

    def maximal_support(
        self, system: InternedSystem, candidates: Sequence[str]
    ) -> tuple[frozenset[str], dict[str, Fraction]]:
        raise SolverError(
            "the naive backend provides no LP primitives; use "
            "decide_acceptable"
        )

    def positive_solution(self, system: InternedSystem) -> HomogeneousWitness:
        raise SolverError(
            "the naive backend provides no LP primitives; use "
            "decide_acceptable"
        )

    def decide_acceptable(
        self,
        problem: AcceptabilityProblem,
        chain: Sequence[SolverBackend] | None = None,
        naive_limit: int = DEFAULT_NAIVE_LIMIT,
        jobs: int = 1,
    ) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
        class_unknowns = list(problem.class_unknowns)
        if len(class_unknowns) > naive_limit:
            raise LimitExceededError(
                f"the naive (Theorem 3.4) engine enumerates "
                f"2^{len(class_unknowns)} zero-sets, above the configured "
                f"naive_limit of {naive_limit}; use engine='fixpoint' for "
                "schemas of this size or raise the limit"
            )
        probes = chain or (get_backend(DEFAULT_BACKEND),)
        if jobs > 1:
            # Deferred import: repro.parallel sits above the solver
            # layer (its workers answer whole queries), so the registry
            # only reaches for it when a fan-out was requested.
            from repro.parallel.fanout import parallel_zero_set_search

            return parallel_zero_set_search(problem, probes, jobs)
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
                candidate = problem.system.with_rows(
                    zero_set_rows(problem, zero_set)
                )
                witness = chain_positive_solution(candidate, probes)
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


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, SolverBackend] = {}

_PINNED: ContextVar[str | None] = ContextVar("repro_backend_pin", default=None)


def register_backend(backend: SolverBackend, replace: bool = False) -> None:
    """Add a backend under ``backend.name``.

    Third-party engines register here and become selectable through
    every mechanism (``--backend``, ``REPRO_BACKEND``,
    :func:`pin_backend`) without further wiring.
    """
    if not replace and backend.name in _REGISTRY:
        raise ReproError(
            f"solver backend {backend.name!r} is already registered; "
            "pass replace=True to override"
        )
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> SolverBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown solver backend {name!r}; available: "
            f"{', '.join(backend_names())}"
        ) from None


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def available_backends() -> tuple[SolverBackend, ...]:
    return tuple(_REGISTRY[name] for name in backend_names())


def active_backend_name() -> str:
    """The selected primary backend: pin > ``REPRO_BACKEND`` > default."""
    pinned = _PINNED.get()
    if pinned is not None:
        return pinned
    env = os.environ.get("REPRO_BACKEND")
    if env:
        get_backend(env)  # validate eagerly: fail loudly, not mid-query
        return env
    return DEFAULT_BACKEND


def active_backend() -> SolverBackend:
    return get_backend(active_backend_name())


@contextmanager
def pin_backend(name: str) -> Iterator[SolverBackend]:
    """Select the primary backend for the enclosed block.

    Context-local (safe under threads and nested pins); the CLI
    ``--backend`` flag wraps the whole command in one pin.
    """
    backend = get_backend(name)  # validate before pinning
    token = _PINNED.set(name)
    try:
        yield backend
    finally:
        _PINNED.reset(token)


register_backend(SparseSimplexBackend())
register_backend(FourierMotzkinBackend())
register_backend(NaiveBackend())


__all__ = [
    "AcceptabilityProblem",
    "BackendCapabilities",
    "DEFAULT_BACKEND",
    "DEFAULT_NAIVE_LIMIT",
    "FourierMotzkinBackend",
    "NaiveBackend",
    "SolverBackend",
    "SparseSimplexBackend",
    "active_backend",
    "active_backend_name",
    "available_backends",
    "backend_names",
    "chain_maximal_support",
    "chain_positive_solution",
    "fixpoint_support",
    "get_backend",
    "pin_backend",
    "register_backend",
    "zero_set_rows",
]
