"""Ambient counter sink for the zero-set search engines.

The decision procedures (:mod:`repro.solver.registry`'s naive walk and
:mod:`repro.solver.pruned`'s orbit/nogood walk) run far below the layers
that own statistics objects — sessions hold a
:class:`~repro.session.cache.CacheStats`, benchmarks hold ad-hoc
counter bags — and threading a stats parameter through
``decide_acceptable`` → walk → ``positive_witness`` call chains would
contaminate every engine signature.  Instead the owner *activates* its
stats object as the ambient sink::

    with search_stats_sink(cache.stats):
        session.is_class_satisfiable("Employee")

and the search engines report through :func:`bump_search_stat`, which is
a no-op when no sink is active.  Any object with a
``bump(counter, amount)`` method qualifies — ``CacheStats``, the serve
daemon's lock-guarded subclass, or the lightweight
:class:`SearchCounters` below (used by benchmarks and unit tests).

A :class:`~contextvars.ContextVar` carries the sink so concurrent serve
requests each see their own activation.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Protocol


class StatsSink(Protocol):
    def bump(self, counter: str, amount: int = 1) -> None: ...


_SINK: ContextVar[StatsSink | None] = ContextVar("search_stats_sink", default=None)


@contextmanager
def search_stats_sink(sink: StatsSink | None) -> Iterator[None]:
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


@dataclass
class SearchCounters:
    """A free-standing bag of the search counters.

    Benchmarks and unit tests activate one via :func:`search_stats_sink`
    when there is no session cache around to absorb the bumps.
    """

    zero_sets_enumerated: int = 0
    pruned_by_orbit: int = 0
    pruned_by_nogood: int = 0
    orbits_found: int = 0

    def bump(self, counter: str, amount: int = 1) -> None:
        if hasattr(self, counter):
            setattr(self, counter, getattr(self, counter) + amount)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


__all__ = [
    "SearchCounters",
    "StatsSink",
    "bump_search_stat",
    "search_stats_sink",
]
