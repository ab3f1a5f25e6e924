"""``repro.serve`` — the async reasoning daemon over the shared cache.

A stdlib-only HTTP/1.1 service (``asyncio`` streams, no web framework)
exposing the reasoning pipeline long-lived: ``POST /check``,
``POST /implies``, and ``POST /batch`` answer through one process-wide
two-tier cache (memory LRU over the crash-safe
:class:`~repro.store.ArtifactStore`), producing records byte-identical
to ``repro batch --json``; ``GET /healthz`` and ``GET /metrics`` expose
liveness, cache/store counters, and per-stage timing aggregates.

Start it from the CLI (``repro serve --cache-dir DIR``) or in-process
for tests (:func:`running_server`); speak to it with
:class:`ServeClient`.
"""

from repro.serve.client import ServeClient
from repro.serve.engine import ServeEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.server import ReasoningServer, ServeConfig, running_server

__all__ = [
    "ReasoningServer",
    "ServeClient",
    "ServeConfig",
    "ServeEngine",
    "ServeMetrics",
    "running_server",
]
