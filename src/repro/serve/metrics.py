"""Thread-safe request metrics for the daemon's ``/metrics`` endpoint.

The engine's worker threads and the event loop both report here, so
every mutation happens under one lock — which is what makes the
exported counters *monotone*: a ``/metrics`` sample can never observe a
counter lower than an earlier sample (the concurrency soak test holds
the daemon to exactly that).  The same lock gives the in-flight gauge
atomic check-and-reserve semantics for the saturation (503) gate.

Per-stage timing aggregates fold each request's
:class:`~repro.pipeline.PipelineRun` dict into running totals, so the
``/metrics`` payload exposes where served requests actually spend their
time (normalize / analyze / expand / build-system / solve / verdict).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping


class ServeMetrics:
    """Counters and gauges shared by the app, engine, and server."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self.requests_total = 0
        self.requests_by_endpoint: dict[str, int] = {}
        self.responses_by_status: dict[str, int] = {}
        self.in_flight = 0
        self.in_flight_peak = 0
        self.rejected_busy = 0
        self.retries = 0
        self._stage_runs: dict[str, int] = {}
        self._stage_seconds: dict[str, float] = {}

    # -- request lifecycle ---------------------------------------------------

    def count_get(self, endpoint: str) -> None:
        """Count a GET observability request — totals only, no
        in-flight slot: the gauge tracks *reasoning* requests, and a
        ``/metrics`` sample must be able to observe it at 0."""
        with self._lock:
            self.requests_total += 1
            self.requests_by_endpoint[endpoint] = (
                self.requests_by_endpoint.get(endpoint, 0) + 1
            )

    def try_start(self, endpoint: str, limit: int) -> bool:
        """Atomically reserve an in-flight slot, or count a rejection.

        The saturation gate: ``False`` means the caller should answer
        503 + ``Retry-After`` without touching the engine.
        """
        with self._lock:
            if self.in_flight >= limit:
                self.rejected_busy += 1
                return False
            self.requests_total += 1
            self.requests_by_endpoint[endpoint] = (
                self.requests_by_endpoint.get(endpoint, 0) + 1
            )
            self.in_flight += 1
            self.in_flight_peak = max(self.in_flight_peak, self.in_flight)
            return True

    def request_finished(
        self,
        status: int,
        stages: Mapping[str, Mapping[str, float | int]] | None = None,
    ) -> None:
        """Release the in-flight slot and fold in the pipeline timings."""
        with self._lock:
            self.in_flight -= 1
            key = str(status)
            self.responses_by_status[key] = (
                self.responses_by_status.get(key, 0) + 1
            )
            if stages:
                for name, timing in stages.items():
                    self._stage_runs[name] = self._stage_runs.get(
                        name, 0
                    ) + int(timing.get("runs", 0))
                    self._stage_seconds[name] = self._stage_seconds.get(
                        name, 0.0
                    ) + float(timing.get("seconds", 0.0))

    def count_response(self, status: int) -> None:
        """Count a response that never held an in-flight slot (GET
        endpoints, 404/405, malformed bodies, 503 rejections)."""
        with self._lock:
            key = str(status)
            self.responses_by_status[key] = (
                self.responses_by_status.get(key, 0) + 1
            )

    count_rejection = count_response

    def count_retry(self) -> None:
        """Count one engine-level rebuild-and-answer retry."""
        with self._lock:
            self.retries += 1

    # -- reporting -----------------------------------------------------------

    def uptime_seconds(self) -> float:
        return self._clock() - self._started

    def snapshot(self) -> dict[str, Any]:
        """The ``server`` and ``stages`` sections of ``/metrics``."""
        with self._lock:
            return {
                "server": {
                    "uptime_seconds": self.uptime_seconds(),
                    "requests_total": self.requests_total,
                    "requests_by_endpoint": dict(self.requests_by_endpoint),
                    "responses_by_status": dict(self.responses_by_status),
                    "in_flight": self.in_flight,
                    "in_flight_peak": self.in_flight_peak,
                    "rejected_busy": self.rejected_busy,
                    "retries": self.retries,
                },
                "stages": {
                    name: {
                        "runs": self._stage_runs[name],
                        "seconds": self._stage_seconds[name],
                    }
                    for name in sorted(self._stage_runs)
                },
            }


__all__ = ["ServeMetrics"]
