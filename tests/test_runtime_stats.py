"""``repro.runtime.stats.Counters``: the one integer-counter type behind
the session cache, the artifact store and the zero-set walks."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.runtime.stats import (
    SEARCH_COUNTERS,
    Counters,
    bump_search_stat,
    search_stats_sink,
)


def test_as_dict_keeps_declaration_order():
    counters = Counters(("zeta", "alpha", "mid"))
    counters.bump("mid", 3)
    counters.bump("zeta")
    assert list(counters.as_dict()) == ["zeta", "alpha", "mid"]
    assert counters.as_dict() == {"zeta": 1, "alpha": 0, "mid": 3}
    assert (counters.zeta, counters.alpha, counters.mid) == (1, 0, 3)


def test_undeclared_names_fail():
    counters = Counters(("hits",))
    with pytest.raises(KeyError):
        counters.bump("hit")
    with pytest.raises(AttributeError):
        counters.hit  # the read is what raises
    assert counters.as_dict() == {"hits": 0}


def test_concurrent_bumps_sum_exactly():
    counters = Counters(("total",))
    threads = [
        threading.Thread(
            target=lambda: [counters.bump("total") for _ in range(10_000)]
        )
        for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counters.total == 40_000


def test_the_search_sink_routes_bumps_to_the_active_counters():
    counters = Counters(SEARCH_COUNTERS)
    bump_search_stat("orbits_found")  # no sink: a no-op
    with search_stats_sink(counters):
        bump_search_stat("orbits_found", 2)
        bump_search_stat("pruned_by_orbit", 0)
    bump_search_stat("orbits_found")
    assert counters.as_dict() == {
        "zero_sets_enumerated": 0,
        "pruned_by_orbit": 0,
        "pruned_by_nogood": 0,
        "orbits_found": 2,
    }
