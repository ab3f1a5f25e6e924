"""E15 — parallel decision fabric: worker-count scaling, serial parity.

Paper context: both exponential axes of the decision procedure — the
Section-3.1 expansion underlying every cardinality implication's
extended schema, and Theorem 3.4's zero-set lattice — decompose into
independent probes of one shared immutable system.  The parallel
fabric (:mod:`repro.parallel`) fans them across a spawn-context
process pool under a strict determinism contract: the worker count
must be observationally invisible.

This standalone runner times two workloads at 1, 2, and 4 workers and
emits the repo's perf-trajectory artifact::

    PYTHONPATH=src:. python benchmarks/bench_parallel.py --quick \
        --output BENCH_parallel.json

* **batch** — distinct-fingerprint cardinality implications over an
  ISA antichain (every query pays its own extended-schema expansion
  and fixpoint; the partitioner spreads fingerprints across workers);
* **zero-set** — the naive engine on a Figure-1-style finitely
  unsatisfiable schema padded with free classes, forcing a full
  enumeration of the zero-set lattice (no first hit, so the fan-out
  has no early exit to hide behind).

``validate_report`` is the schema check CI runs against the JSON.  It
always enforces parity — every parallel run's observables must be
identical to the serial run's — and enforces the ≥2x batch speedup at
4 workers only when the measuring host actually has ≥4 cores
(``cpu_count`` is recorded in the report; a single-core container
cannot honestly show wall-clock scaling and must not fake it).
"""

from __future__ import annotations

import os
import sys
import time

from benchmarks._emit import (
    check_entry_fields,
    check_report_shape,
    check_summary,
    run_emit_main,
)
from repro.cr.builder import SchemaBuilder
from repro.cr.constraints import (
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.satisfiability import is_class_satisfiable
from repro.cr.schema import CRSchema

JOB_COUNTS = (1, 2, 4)
"""Worker counts each workload is timed at."""

BATCH_SPEEDUP_BAR = 2.0
"""Acceptance bar: batch speedup at 4 workers, on hosts with >=4 cores."""

NAIVE_LIMIT = 40
"""Raised zero-set cap: the workload's lattice is the measurement."""


def batch_workload(quick: bool) -> tuple[CRSchema, list]:
    """Distinct-fingerprint cardinality implications over an antichain.

    Six ISA-unrelated classes put the extended expansion at ~2^7
    compound classes, so every query costs seconds; each distinct
    ``(cls, rel, role, value)`` triple keys its own Section-4 extended
    fingerprint, so no two queries share a warm cache entry and the
    partitioner has one group per query to spread.
    """
    builder = SchemaBuilder("ParallelBatch")
    for i in range(6):
        builder.cls(f"K{i}")
    builder.relationship("R", U1="K0", U2="K1")
    builder.card("K0", "R", "U1", minc=1)
    schema = builder.build()
    count = 8 if quick else 12
    queries: list = []
    for v in range(count):
        if v % 2 == 0:
            queries.append(
                ("implies", MaxCardinalityStatement("K0", "R", "U1", v // 2 + 1))
            )
        else:
            queries.append(
                ("implies", MinCardinalityStatement("K1", "R", "U2", v // 2 + 1))
            )
    return schema, queries


def zero_set_workload(quick: bool) -> tuple[CRSchema, str]:
    """A finitely unsatisfiable class whose naive decision enumerates
    the full zero-set lattice.

    The A/B core is the Figure-1 pattern (each A holds exactly two
    tuples whose B-side is forced unique, with ``B isa A``) — finitely
    unsatisfiable for arithmetic reasons, so Theorem 3.4 finds no
    acceptable zero-set and every chunk runs to completion.  Two free
    classes put the lattice at 2^11 candidates; the extra A–B
    relationships fatten each candidate's LP without touching the
    class-unknown count.
    """
    builder = SchemaBuilder("ParallelZeroSet")
    builder.cls("A")
    builder.cls("B")
    builder.isa("B", "A")
    builder.relationship("R", U1="A", U2="B")
    builder.card("A", "R", "U1", minc=2, maxc=2)
    builder.card("B", "R", "U2", minc=1, maxc=1)
    for i in range(2):
        builder.cls(f"F{i}")
    for j in range(1 if quick else 2):
        builder.relationship(f"E{j}", **{f"W{j}a": "A", f"W{j}b": "B"})
        builder.card("A", f"E{j}", f"W{j}a", minc=1, maxc=3)
    return builder.build(), "A"


def _run_batch(schema: CRSchema, queries: list, jobs: int):
    """One timed batch run; observables in a comparable form."""
    if jobs == 1:
        from repro.components import monolithic_decomposition
        from repro.parallel.worker import answer_query
        from repro.session import ReasoningSession

        # The serial baseline reasons over the whole schema, the
        # baseline BATCH_SPEEDUP_BAR was set against.  The workers
        # decompose it, so the batch speedup includes the islands' gain.
        session = ReasoningSession(
            schema, decomposition=monolithic_decomposition(schema)
        )
        start = time.perf_counter()
        answers = [
            answer_query(session, kind, query) for kind, query in queries
        ]
        elapsed = time.perf_counter() - start
        records = [record for record, _, _, _ in answers]
        texts = [text for _, text, _, _ in answers]
        return elapsed, (records, texts)
    from repro.parallel.fanout import run_parallel_batch

    start = time.perf_counter()
    outcome = run_parallel_batch(schema, queries, jobs=jobs)
    elapsed = time.perf_counter() - start
    return elapsed, (outcome.records, outcome.texts)


def _run_zero_set(schema: CRSchema, cls: str, jobs: int):
    """One timed naive decision; witness included in the observables."""
    start = time.perf_counter()
    result = is_class_satisfiable(
        schema, cls, engine="naive", naive_limit=NAIVE_LIMIT, jobs=jobs
    )
    elapsed = time.perf_counter() - start
    return elapsed, (result.satisfiable, result.solution, result.support)


def run_benchmarks(quick: bool = False) -> dict:
    cpu_count = os.cpu_count() or 1
    workloads = [
        ("batch", "batch", batch_workload(quick)),
        ("zero-set", "zero-set", zero_set_workload(quick)),
    ]
    entries = []
    speedups_at_4: dict[str, float] = {}
    for label, family, workload in workloads:
        baseline_seconds = 0.0
        baseline_observables = None
        for jobs in JOB_COUNTS:
            if family == "batch":
                schema, queries = workload
                elapsed, observables = _run_batch(schema, queries, jobs)
            else:
                schema, cls = workload
                elapsed, observables = _run_zero_set(schema, cls, jobs)
            if jobs == 1:
                baseline_seconds = elapsed
                baseline_observables = observables
            speedup = (
                baseline_seconds / elapsed if elapsed > 0 else float("inf")
            )
            entries.append(
                {
                    "workload": label,
                    "family": family,
                    "schema": schema.name,
                    "jobs": jobs,
                    "seconds": elapsed,
                    "speedup": speedup,
                    "identical": observables == baseline_observables,
                }
            )
            if jobs == max(JOB_COUNTS):
                speedups_at_4[family] = speedup
    return {
        "benchmark": "parallel",
        "version": 1,
        "quick": quick,
        "cpu_count": cpu_count,
        "bar_enforced": cpu_count >= max(JOB_COUNTS),
        "batch_speedup_bar": BATCH_SPEEDUP_BAR,
        "entries": entries,
        "summary": {
            "workloads": len(workloads),
            "batch_speedup_at_4": speedups_at_4["batch"],
            "zero_set_speedup_at_4": speedups_at_4["zero-set"],
        },
    }


_ENTRY_KEYS = {
    "workload": str,
    "family": str,
    "schema": str,
    "jobs": int,
    "seconds": float,
    "speedup": float,
    "identical": bool,
}


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` unless ``report`` is a well-formed
    BENCH_parallel.json payload; returns the report for chaining.

    Parity (``identical``) is enforced unconditionally — determinism
    does not depend on core count.  The wall-clock bar is enforced only
    when the report says it was measured on >=4 cores, and the
    ``bar_enforced`` flag must agree with the recorded ``cpu_count`` so
    the gate cannot be waved through independently of the hardware.
    """
    entries = check_report_shape(report, "parallel")
    cpu_count = report.get("cpu_count")
    if not isinstance(cpu_count, int) or isinstance(cpu_count, bool):
        raise ValueError("report['cpu_count'] must be an int")
    if report.get("bar_enforced") != (cpu_count >= max(JOB_COUNTS)):
        raise ValueError(
            "report['bar_enforced'] must equal cpu_count >= "
            f"{max(JOB_COUNTS)}"
        )
    seen: dict[str, set[int]] = {}
    for entry in entries:
        check_entry_fields(entry, _ENTRY_KEYS)
        if not entry["identical"]:
            raise ValueError(
                f"entry {entry['workload']!r} at jobs={entry['jobs']}: "
                "parallel observables diverged from the serial run"
            )
        seen.setdefault(entry["family"], set()).add(entry["jobs"])
    expected = {"batch": set(JOB_COUNTS), "zero-set": set(JOB_COUNTS)}
    if seen != expected:
        raise ValueError(f"expected {expected}, got {seen}")
    summary = check_summary(report)
    batch_at_4 = summary.get("batch_speedup_at_4")
    if not isinstance(batch_at_4, float):
        raise ValueError("summary.batch_speedup_at_4 must be a float")
    if report["bar_enforced"] and batch_at_4 < BATCH_SPEEDUP_BAR:
        raise ValueError(
            f"acceptance bar missed: batch speedup at {max(JOB_COUNTS)} "
            f"workers is {batch_at_4:.2f}x < {BATCH_SPEEDUP_BAR}x on a "
            f"{cpu_count}-core host"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    return run_emit_main(
        argv,
        description=(
            "parallel fabric scaling and parity; emits BENCH_parallel.json"
        ),
        default_output="BENCH_parallel.json",
        quick_help="smaller batch and lattice sizes (CI)",
        run=lambda args: run_benchmarks(quick=args.quick),
        validate=validate_report,
        entry_line=lambda entry: (
            f"{entry['workload']:<10} jobs={entry['jobs']}"
            f"  {entry['seconds']*1e3:9.1f} ms"
            f"  speedup {entry['speedup']:5.2f}x"
            f"  identical={entry['identical']}"
        ),
        summary_line=lambda report, output: (
            f"-> {output}: {report['summary']['workloads']} workloads on "
            f"{report['cpu_count']} core(s), batch "
            f"{report['summary']['batch_speedup_at_4']:.2f}x, zero-set "
            f"{report['summary']['zero_set_speedup_at_4']:.2f}x at "
            f"{max(JOB_COUNTS)} workers"
            + ("" if report["bar_enforced"] else " (bar not enforced)")
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
