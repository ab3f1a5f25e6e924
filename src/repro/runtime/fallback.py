"""Fault-tolerant solver fallback, composed from the backend registry.

The satisfiability fixpoint normally runs every LP on the active
primary backend (the interned sparse simplex unless ``--backend`` /
``REPRO_BACKEND`` / :func:`repro.solver.registry.pin_backend` says
otherwise).  If a solve *faults* (a :class:`~repro.errors.SolverError`,
whether a genuine defect or one injected by
:mod:`repro.runtime.faults`), the affected LP is retried down the
policy's backend chain — by default the completely independent
Fourier–Motzkin backend — before the failure is allowed to surface; if
the whole fixpoint run still faults, the caller
(:func:`repro.cr.satisfiability.acceptable_with_positive`) falls back
to the naive Theorem-3.4 engine when the system is small enough.  The
default chain is

    fixpoint/primary LP backend  →  per-LP Fourier–Motzkin retry
    →  naive engine

(a faulted ``naive`` or ``pruned`` zero-set walk falls back the other
way, to the fixpoint), and every link degrades, never silently changes
the answer: each backend is sound and complete on the systems it
accepts, so a verdict produced down-chain equals the verdict the
unfaulted run would have produced.

Budget exhaustion (:class:`~repro.errors.BudgetExceededError`) is
deliberately *not* retried — running out of resources on one backend
is not evidence the next, slower backend would do better.

Historically this module hard-wired ``simplex → fourier_motzkin``
calls; it is now a thin policy layer over
:mod:`repro.solver.registry`, and :class:`FallbackPolicy` can name an
arbitrary registered chain via ``chain=``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from repro.solver.core import InternedSystem
from repro.solver.homogeneous import HomogeneousWitness
from repro.solver.linear import LinearSystem
from repro.solver.registry import (
    DEFAULT_BACKEND,
    FourierMotzkinBackend,
    SolverBackend,
    active_backend,
    chain_maximal_support,
    chain_positive_solution,
    get_backend,
)


@dataclass(frozen=True)
class FallbackPolicy:
    """What the degradation chain is allowed to try.

    ``fm_max_constraints`` bounds the intermediate systems of the
    Fourier–Motzkin retries (FM is doubly exponential in the number of
    eliminated variables; blowing through the bound raises
    :class:`~repro.errors.SolverError`, which moves the chain along).
    ``use_naive`` gates the final fall-back to the naive Theorem-3.4
    engine, which is only attempted when the system has at most
    ``naive_limit`` class unknowns (checked by the caller).

    ``chain`` overrides the derived chain with explicit registry
    backend names, in retry order (``"fourier-motzkin"`` entries honour
    ``fm_max_constraints``).  When ``None``, the chain is the active
    primary backend followed — if ``use_fourier_motzkin`` — by
    Fourier–Motzkin.
    """

    use_fourier_motzkin: bool = True
    use_naive: bool = True
    fm_max_constraints: int = 50_000
    chain: tuple[str, ...] | None = None

    def backends(self) -> tuple[SolverBackend, ...]:
        """The LP retry chain this policy denotes, in order."""
        if self.chain is not None:
            return tuple(self._resolve(name) for name in self.chain)
        primary = active_backend()
        if primary.capabilities.exponential:
            # The naive engine is a decision procedure, not an LP
            # backend; individual LPs run on the default engine.
            primary = get_backend(DEFAULT_BACKEND)
        links: list[SolverBackend] = [primary]
        if self.use_fourier_motzkin and primary.name != "fourier-motzkin":
            links.append(FourierMotzkinBackend(self.fm_max_constraints))
        return tuple(links)

    def _resolve(self, name: str) -> SolverBackend:
        if name == "fourier-motzkin":
            return FourierMotzkinBackend(self.fm_max_constraints)
        return get_backend(name)


DEFAULT_FALLBACK = FallbackPolicy()


def chain_for(policy: FallbackPolicy | None) -> tuple[SolverBackend, ...]:
    """The LP backend chain a policy denotes (``None`` disables retries:
    the active primary backend runs alone)."""
    if policy is None:
        primary = active_backend()
        if primary.capabilities.exponential:
            primary = get_backend(DEFAULT_BACKEND)
        return (primary,)
    return policy.backends()


def resilient_maximal_support(
    system: LinearSystem | InternedSystem,
    candidates: Iterable[str],
    policy: FallbackPolicy | None = DEFAULT_FALLBACK,
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """Maximal support with down-chain retry.

    On a primary-backend fault the same support is recomputed by the
    next backend of the chain (per-unknown Fourier–Motzkin probes by
    default); budget exhaustion always propagates.  Accepts either the
    interned sparse form (the hot path) or a string-keyed system, which
    is interned at the boundary.
    """
    if isinstance(system, LinearSystem):
        system = InternedSystem.from_linear(system)
    return chain_maximal_support(system, list(candidates), chain_for(policy))


def fm_maximal_support(
    system: LinearSystem | InternedSystem,
    candidates: Iterable[str],
    max_constraints: int = 50_000,
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """Maximal support by one Fourier–Motzkin probe per candidate.

    Kept as a named entry point for tests and callers that want the FM
    backend specifically; equivalent to
    ``FourierMotzkinBackend(max_constraints).maximal_support``.
    """
    if isinstance(system, LinearSystem):
        system = InternedSystem.from_linear(system)
    backend = FourierMotzkinBackend(max_constraints)
    return backend.maximal_support(system, list(candidates))


def resilient_positive_solution(
    system: LinearSystem | InternedSystem,
    policy: FallbackPolicy | None = DEFAULT_FALLBACK,
) -> HomogeneousWitness:
    """Positive-solution decision with down-chain retry.

    Used by the naive engine's per-zero-set feasibility tests.  The
    Fourier–Motzkin backend decides strict systems directly; the
    simplex backends sharpen them first (cone scaling).
    """
    if isinstance(system, LinearSystem):
        system = InternedSystem.from_linear(system)
    return chain_positive_solution(system, chain_for(policy))


__all__ = [
    "DEFAULT_FALLBACK",
    "FallbackPolicy",
    "chain_for",
    "fm_maximal_support",
    "resilient_maximal_support",
    "resilient_positive_solution",
]
