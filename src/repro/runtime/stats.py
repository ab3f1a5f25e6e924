"""Named counters, and the ambient sink the zero-set walks report to.

:class:`Counters` is the one integer-counter type.  The session cache
keeps one over :data:`repro.session.cache.CACHE_COUNTERS`, the artifact
store one over :data:`repro.store.store.STORE_COUNTERS`, and a
benchmark or test timing a bare walk one over :data:`SEARCH_COUNTERS`.
Each increment takes the instance's own lock, so a counter shared by
the serve daemon's executor threads never loses an update and every
``/metrics`` sample reads monotone values.

The decision procedures (:mod:`repro.solver.registry`'s naive walk and
:mod:`repro.solver.pruned`'s orbit/nogood walk) run far below the
layers that own counters, and threading one through
``decide_acceptable`` → walk → ``positive_witness`` call chains would
contaminate every engine signature.  Instead the owner *activates* its
counters as the ambient sink::

    with search_stats_sink(cache.stats):
        session.is_class_satisfiable("Employee")

and the search engines report through :func:`bump_search_stat`, which
is a no-op when no sink is active.  A :class:`~contextvars.ContextVar`
carries the sink so concurrent serve requests each see their own
activation.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar

SEARCH_COUNTERS = (
    "zero_sets_enumerated",
    "pruned_by_orbit",
    "pruned_by_nogood",
    "orbits_found",
)
"""What the Theorem-3.4 walks report: LP-tested zero-sets, candidates
skipped by orbit and by nogood, and non-trivial orbits found."""


class Counters:
    """Integer counters with names fixed at construction, read as
    attributes (``stats.hits``).

    :meth:`bump` on a name that was not declared raises
    :class:`KeyError`, and reading one raises :class:`AttributeError`,
    so a misspelt counter fails instead of counting nothing.
    """

    def __init__(self, names: Iterable[str]) -> None:
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        """``name += amount``, atomically."""
        with self._lock:
            self._values[name] += amount

    def __getattr__(self, name: str) -> int:
        try:
            return self.__dict__["_values"][name]
        except KeyError:
            raise AttributeError(f"no counter named {name!r}") from None

    def as_dict(self) -> dict[str, int]:
        """Every counter, in declaration order."""
        with self._lock:
            return dict(self._values)

    def __repr__(self) -> str:
        values = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Counters({values})"


_SINK: ContextVar[Counters | None] = ContextVar("search_stats_sink", default=None)


@contextmanager
def search_stats_sink(sink: Counters | None) -> Iterator[None]:
    """Activate ``sink`` as the ambient search-counter receiver."""
    token = _SINK.set(sink)
    try:
        yield
    finally:
        _SINK.reset(token)


def bump_search_stat(counter: str, amount: int = 1) -> None:
    """Report ``counter += amount`` to the active sink (no-op without one)."""
    sink = _SINK.get()
    if sink is not None and amount:
        sink.bump(counter, amount)


__all__ = [
    "Counters",
    "SEARCH_COUNTERS",
    "bump_search_stat",
    "search_stats_sink",
]
