"""Deterministic fault injection: one registry for solver and disk faults.

Degradation paths that are written but never executed are not robust —
they are untested code on the most stressful path.  This harness makes
every degradation path in the repository *testable* through a single
deterministic injection registry:

* the **solver fallbacks** of :mod:`repro.runtime.fallback` — the N-th
  LP solve raises a chosen exception::

      with inject_faults(simplex_failures={1}) as plan:
          result = is_class_satisfiable(schema, "Speaker")
      assert plan.injected == [("simplex", 1)]

* the **persistent artifact store** of :mod:`repro.store` — the N-th
  firing of a named disk fault point simulates a crash, an I/O error,
  or silent corruption at exactly that moment of the write protocol::

      with inject_faults(disk_failures={"store:write:pre-rename": {1}}):
          store.put(fingerprint, artifacts)   # dies after fsync,
                                              # before the rename

Both kinds of fault are scripted on the same :class:`FaultPlan` and
counted in the same ``calls`` table, so a test can stage a disk crash
*and* a solver fault in one plan and assert the combined history via
``plan.injected`` — there is exactly one injection mechanism.

Fault *points* are string names.  The solver point is ``"simplex"``
(every solve of the one LP kernel,
:func:`repro.solver.core.solve_interned`); disk fault points are dotted
paths like ``store:write:torn`` fired by :mod:`repro.store.atomic`
between the syscalls of the atomic-write protocol (see
:data:`DISK_WRITE_POINTS`).

The kernel exposes a module-level ``_FAULT_HOOK`` seam called at the
top of every solve; the disk layer exposes the module-level :func:`fire`
seam.  :func:`inject_faults` installs counting hooks for the duration
of the ``with`` block and restores the previous hooks on exit, so
injections nest and never leak.

``error_factory`` lets a test inject *any* failure mode at the chosen
call — e.g. a :class:`~repro.errors.BudgetExceededError` to simulate a
solve timing out mid-run, or an ``OSError(ENOSPC)`` to simulate a
full disk.  The defaults are :class:`InjectedSolverFault` (a
:class:`~repro.errors.SolverError` — exactly what the fallbacks
catch) for the solver point and :class:`SimulatedCrash` for disk points
(deliberately *not* an ``OSError``: the store degrades real I/O errors
gracefully, but a simulated kill must propagate like a dying process,
leaving the on-disk state exactly as the crash point left it).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SolverError
from repro.solver import core


class InjectedSolverFault(SolverError):
    """The deliberate failure raised at a scripted solver fault point."""


class SimulatedCrash(Exception):
    """A scripted process death at a disk fault point.

    Deliberately a bare ``Exception`` subclass rather than an
    ``OSError`` or :class:`~repro.errors.ReproError`: the store's
    degradation paths swallow real I/O errors, and a simulated kill
    must not be swallowed — it has to unwind the stack the way a dying
    process abandons it, leaving files, temp files, and lock files in
    whatever state the crash point defines.
    """


SOLVER_POINTS = ("simplex",)
"""The solver fault point: every solve of the LP kernel."""

DISK_WRITE_POINTS = (
    "store:write:start",
    "store:write:torn",
    "store:write:pre-fsync",
    "store:write:pre-rename",
    "store:write:pre-dirsync",
)
"""The crash points of the atomic-write protocol, in protocol order.

``start`` fires before the temp file exists, ``torn`` after only half
the bytes are written (the temp file is left torn, like a real partial
write), ``pre-fsync`` after the data is written but not durable,
``pre-rename`` after fsync but before the entry becomes visible, and
``pre-dirsync`` after the rename but before the directory entry is
durable.  :mod:`repro.store.atomic` fires them in exactly this order on
every write.
"""

DISK_ENCODE_POINT = "store:put:encoded"
"""Fired by :meth:`repro.store.ArtifactStore.put` with the encoded
entry bytes as a mutable ``{"buffer": bytearray}`` context — the seam
``disk_corruptions`` uses to flip bits (simulated bit-rot that the
checksum must catch on read)."""


def _default_error(point: str, call_index: int) -> Exception:
    if point in SOLVER_POINTS:
        return InjectedSolverFault(
            f"injected fault: {point} call #{call_index}"
        )
    return SimulatedCrash(
        f"simulated crash: {point} call #{call_index}"
    )


_DISK_HOOK: Callable[[str, dict[str, Any] | None], None] | None = None
"""The disk-layer seam; ``None`` outside an :func:`inject_faults` block."""


def fire(point: str, context: dict[str, Any] | None = None) -> None:
    """Fire a disk fault point (no-op unless a plan is installed).

    Called by :mod:`repro.store` at each step of its write protocol.
    ``context`` optionally carries mutable state the plan may corrupt
    in place (see :data:`DISK_ENCODE_POINT`).
    """
    hook = _DISK_HOOK
    if hook is not None:
        hook(point, context)


@dataclass
class FaultPlan:
    """Which calls fail, and a record of what actually happened.

    ``calls`` counts every firing per fault point (1-based indices);
    ``injected`` lists the ``(point, call_index)`` pairs at which a
    fault was raised, in order, and ``corrupted`` the pairs at which a
    buffer was silently flipped — assertions on them prove a
    degradation path genuinely ran.
    """

    simplex_failures: frozenset[int] = frozenset()
    disk_failures: Mapping[str, frozenset[int]] = field(default_factory=dict)
    disk_corruptions: Mapping[str, frozenset[int]] = field(
        default_factory=dict
    )
    error_factory: Callable[[str, int], Exception] = _default_error
    calls: dict[str, int] = field(default_factory=lambda: {"simplex": 0})
    injected: list[tuple[str, int]] = field(default_factory=list)
    corrupted: list[tuple[str, int]] = field(default_factory=list)

    def _failures_for(self, point: str) -> frozenset[int]:
        if point == "simplex":
            return self.simplex_failures
        return self.disk_failures.get(point, frozenset())

    def on_call(
        self, point: str, context: dict[str, Any] | None = None
    ) -> None:
        """The hook body: count the call, corrupt or raise if scripted."""
        self.calls[point] = self.calls.get(point, 0) + 1
        index = self.calls[point]
        if index in self.disk_corruptions.get(point, frozenset()):
            buffer = (context or {}).get("buffer")
            if isinstance(buffer, bytearray) and buffer:
                # Flip every bit of the middle byte: a deterministic
                # single-byte corruption the checksum must catch.
                buffer[len(buffer) // 2] ^= 0xFF
                self.corrupted.append((point, index))
        if index in self._failures_for(point):
            self.injected.append((point, index))
            raise self.error_factory(point, index)


def _normalize_points(
    mapping: Mapping[str, Iterable[int]] | None,
) -> dict[str, frozenset[int]]:
    if not mapping:
        return {}
    return {point: frozenset(indices) for point, indices in mapping.items()}


@contextmanager
def inject_faults(
    simplex_failures: Iterable[int] = (),
    disk_failures: Mapping[str, Iterable[int]] | None = None,
    disk_corruptions: Mapping[str, Iterable[int]] | None = None,
    error_factory: Callable[[str, int], Exception] | None = None,
) -> Iterator[FaultPlan]:
    """Fail the given (1-based) fault-point firings for the block.

    Counters are per point: ``simplex_failures={2, 3}`` fails the
    second and third kernel solves;
    ``disk_failures={"store:write:pre-rename": {1}}`` crashes the first
    write after its fsync but before its rename.  Yields the
    :class:`FaultPlan` so the caller can assert on ``plan.calls``,
    ``plan.injected``, and ``plan.corrupted`` afterwards.
    """
    global _DISK_HOOK
    plan = FaultPlan(
        simplex_failures=frozenset(simplex_failures),
        disk_failures=_normalize_points(disk_failures),
        disk_corruptions=_normalize_points(disk_corruptions),
        error_factory=error_factory or _default_error,
    )
    previous_core = core._FAULT_HOOK
    previous_disk = _DISK_HOOK
    core._FAULT_HOOK = lambda: plan.on_call("simplex")
    _DISK_HOOK = plan.on_call
    try:
        yield plan
    finally:
        core._FAULT_HOOK = previous_core
        _DISK_HOOK = previous_disk


@contextmanager
def inject_solver_faults(
    simplex_failures: Iterable[int] = (),
    error_factory: Callable[[str, int], Exception] | None = None,
) -> Iterator[FaultPlan]:
    """Solver-only spelling of :func:`inject_faults` (kept because the
    solver suites predate the unified registry; same plan, same hooks)."""
    with inject_faults(
        simplex_failures=simplex_failures,
        error_factory=error_factory,
    ) as plan:
        yield plan


__all__ = [
    "DISK_ENCODE_POINT",
    "DISK_WRITE_POINTS",
    "FaultPlan",
    "InjectedSolverFault",
    "SOLVER_POINTS",
    "SimulatedCrash",
    "fire",
    "inject_faults",
    "inject_solver_faults",
]
