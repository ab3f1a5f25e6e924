"""Deterministic process-pool fan-out for the decision pipeline.

Layering: :mod:`repro.parallel.pool` is the generic spawn-pool plumbing
(job resolution, chunking, ordered merge, budget aggregation);
:mod:`repro.parallel.worker` holds the spawn-picklable task functions
that run inside workers; :mod:`repro.parallel.fanout` are the three
parent-side fan-out sites (batch queries, fixpoint probe sweeps, the
naive zero-set lattice).  ``jobs=1`` always bypasses this package —
the serial code paths remain the oracle.

The fan-out sites are imported lazily by their callers (the CLI, the
satisfiability layer, the engine switch), so importing
:mod:`repro.parallel` itself stays cheap.
"""

from repro.parallel.pool import (
    ENV_JOBS,
    WorkerPool,
    chunk_evenly,
    parallel_map,
    resolve_jobs,
    worker_caps,
)

__all__ = [
    "ENV_JOBS",
    "WorkerPool",
    "chunk_evenly",
    "parallel_map",
    "resolve_jobs",
    "worker_caps",
]
