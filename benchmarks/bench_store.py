"""E15 — the persistent artifact store: restore-from-disk vs rebuild.

Paper context: BENCH_session shows the exponential Section-3.1
expansion amortising across one process's queries; this module measures
the *cross-process* version of the same economics.  A cold process pays
the expansion + pruned ``Ψ_S`` + acceptability fixpoint and writes the
warm bundle through to the :mod:`repro.store` tier; the next process
restores the bundle (checksum-verified, canonically encoded: the
compound-class table, support, witness, verdicts and analysis report)
instead of rebuilding.  The report records both totals, the restore
speedup, each workload's mean on-disk entry size and mean ``get`` cost
per entry, and the raw store round-trip throughput; ``validate_report``
asserts the structural guarantees the timings rest on: the warm process
ran **zero** fixpoints, expansion builds and system builds, and
answered entirely from persisted-store hits.

Standalone runner (what CI's bench-smoke invokes)::

    PYTHONPATH=src python benchmarks/bench_store.py --quick \
        --output BENCH_store.json
"""

from __future__ import annotations

import sys
import tempfile
import time

from benchmarks._emit import (
    check_entry_fields,
    check_report_shape,
    check_summary,
    run_emit_main,
)
from benchmarks.bench_session import batch_queries, chain_schema
from repro.cr.schema import CRSchema
from repro.paper import (
    figure1_schema,
    meeting_schema,
    refined_meeting_schema,
)
from repro.session import ReasoningSession, SessionCache
from repro.store import ArtifactStore

BATCH_SIZE = 30
"""Queries per workload batch."""

ROUND_TRIPS = 200
"""Entries written and re-read by the raw-throughput micro-benchmark."""

GET_REPEATS = 20
"""Reads of every stored entry behind each workload's mean ``get`` cost."""


def _answer(session: ReasoningSession, query) -> None:
    kind, payload = query
    if kind == "sat":
        session.is_class_satisfiable(payload)
    else:
        session.implies(payload)


def run_workload(label: str, schema: CRSchema, size: int = BATCH_SIZE) -> dict:
    """One workload: a cold process persists, a fresh process restores.

    Each phase opens its own :class:`SessionCache` and
    :class:`ArtifactStore` over the shared directory — exactly what two
    OS processes sharing a ``REPRO_CACHE_DIR`` do, minus the exec.
    """
    queries = batch_queries(schema, size)
    with tempfile.TemporaryDirectory() as root:
        cold_session = ReasoningSession(
            schema, cache=SessionCache(store=ArtifactStore(root))
        )
        cold_start = time.perf_counter()
        for query in queries:
            _answer(cold_session, query)
        cold_total = time.perf_counter() - cold_start

        warm_session = ReasoningSession(
            schema, cache=SessionCache(store=ArtifactStore(root))
        )
        warm_start = time.perf_counter()
        for query in queries:
            _answer(warm_session, query)
        warm_total = time.perf_counter() - warm_start

        store = ArtifactStore(root)
        entries = list(store.entries())
        get_start = time.perf_counter()
        for _ in range(GET_REPEATS):
            for entry in entries:
                assert store.get(entry.fingerprint, entry.kind) is not None
        get_total = time.perf_counter() - get_start

        cold_stats = cold_session.stats
        warm_stats = warm_session.stats
        return {
            "workload": label,
            "schema": schema.name,
            "queries": len(queries),
            "cold_total_s": cold_total,
            "warm_total_s": warm_total,
            "speedup": (
                cold_total / warm_total if warm_total > 0 else float("inf")
            ),
            "store_writes": cold_stats.store_writes,
            "entry_bytes": sum(entry.size for entry in entries) / len(entries),
            "warm_get_s": get_total / (GET_REPEATS * len(entries)),
            "warm_store_hits": warm_stats.store_hits,
            "warm_fixpoint_runs": warm_stats.fixpoint_runs,
            "warm_expansion_builds": warm_stats.expansion_builds,
            "warm_system_builds": warm_stats.system_builds,
        }


def round_trip_throughput(count: int = ROUND_TRIPS) -> dict:
    """Raw put/get cost of the checksummed envelope + lock protocol."""
    payload = {
        "support": frozenset(f"x{i}" for i in range(64)),
        "witness": {f"x{i}": i + 1 for i in range(64)},
    }
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        fingerprints = [f"{i:064x}" for i in range(count)]
        put_start = time.perf_counter()
        for fingerprint in fingerprints:
            store.put(fingerprint, payload)
        put_total = time.perf_counter() - put_start
        get_start = time.perf_counter()
        for fingerprint in fingerprints:
            assert store.get(fingerprint) == payload
        get_total = time.perf_counter() - get_start
        verify_start = time.perf_counter()
        outcome = store.verify()
        verify_total = time.perf_counter() - verify_start
        assert outcome.valid == count
        return {
            "entries": count,
            "puts_per_s": count / put_total if put_total > 0 else float("inf"),
            "gets_per_s": count / get_total if get_total > 0 else float("inf"),
            "verify_total_s": verify_total,
        }


def workloads(quick: bool) -> list[tuple[str, CRSchema]]:
    entries: list[tuple[str, CRSchema]] = [
        ("figure1", figure1_schema()),
        ("figures3-5:meeting", meeting_schema()),
        ("figure6:refined-meeting", refined_meeting_schema()),
    ]
    for k in (16,) if quick else (16, 32, 64):
        entries.append((f"synthetic:chain{k}", chain_schema(k)))
    return entries


def run_benchmarks(quick: bool = False, size: int = BATCH_SIZE) -> dict:
    entries = [
        run_workload(label, schema, size)
        for label, schema in workloads(quick)
    ]
    speedups = [entry["speedup"] for entry in entries]
    return {
        "benchmark": "store",
        "version": 1,
        "quick": quick,
        "batch_size": size,
        "entries": entries,
        "round_trip": round_trip_throughput(
            ROUND_TRIPS // 4 if quick else ROUND_TRIPS
        ),
        "summary": {
            "workloads": len(entries),
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
        },
    }


_ENTRY_KEYS = {
    "workload": str,
    "schema": str,
    "queries": int,
    "cold_total_s": float,
    "warm_total_s": float,
    "speedup": float,
    "store_writes": int,
    "entry_bytes": float,
    "warm_get_s": float,
    "warm_store_hits": int,
    "warm_fixpoint_runs": int,
    "warm_expansion_builds": int,
    "warm_system_builds": int,
}


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` unless ``report`` is a well-formed
    BENCH_store.json payload; returns the report for chaining.

    The bars are structural rather than wall-clock (CI timing is
    noisy): the warm process must answer with zero fixpoint runs,
    expansion builds and system builds, entirely from persisted-store
    hits the cold process wrote.
    """
    entries = check_report_shape(report, "store")
    for entry in entries:
        check_entry_fields(entry, _ENTRY_KEYS)
        if entry["store_writes"] < 1:
            raise ValueError(
                f"entry {entry.get('workload')!r}: the cold process "
                "persisted nothing"
            )
        if entry["warm_store_hits"] < entry["store_writes"]:
            raise ValueError(
                f"entry {entry.get('workload')!r}: the warm process missed "
                "entries the cold process wrote"
            )
        if entry["warm_fixpoint_runs"] != 0:
            raise ValueError(
                f"entry {entry.get('workload')!r}: warm process re-ran the "
                f"fixpoint {entry['warm_fixpoint_runs']} time(s)"
            )
        if entry["warm_expansion_builds"] != 0:
            raise ValueError(
                f"entry {entry.get('workload')!r}: warm process rebuilt the "
                f"expansion {entry['warm_expansion_builds']} time(s)"
            )
        if entry["warm_system_builds"] != 0:
            raise ValueError(
                f"entry {entry.get('workload')!r}: warm process rebuilt "
                f"Psi_S {entry['warm_system_builds']} time(s)"
            )
    round_trip = report.get("round_trip")
    if not isinstance(round_trip, dict) or round_trip.get("entries", 0) < 1:
        raise ValueError("report['round_trip'] must describe >= 1 entry")
    summary = check_summary(report)
    if not isinstance(summary.get("min_speedup"), float):
        raise ValueError("summary.min_speedup must be a float")
    return report


# -- pytest-benchmark entry points (pytest benchmarks/ --benchmark-only) ----


def test_restore_beats_rebuild(benchmark):
    from benchmarks.conftest import paper_row

    schema = meeting_schema()
    queries = batch_queries(schema, BATCH_SIZE)
    with tempfile.TemporaryDirectory() as root:
        cold = ReasoningSession(
            schema, cache=SessionCache(store=ArtifactStore(root))
        )
        for query in queries:
            _answer(cold, query)

        def warm_process():
            session = ReasoningSession(
                schema, cache=SessionCache(store=ArtifactStore(root))
            )
            for query in queries:
                _answer(session, query)
            return session

        session = benchmark(warm_process)
    stats = session.stats
    assert stats.fixpoint_runs == 0
    assert stats.store_hits > 0
    paper_row(
        "E15/store",
        "warm bundle restored from the persistent tier",
        f"{len(queries)} queries, {stats.store_hits} store hit(s), "
        "0 fixpoint re-runs",
    )


def test_report_is_wellformed(benchmark):
    report = benchmark.pedantic(
        run_benchmarks,
        kwargs={"quick": True, "size": 10},
        rounds=1,
        iterations=1,
    )
    validate_report(report)


def main(argv: list[str] | None = None) -> int:
    return run_emit_main(
        argv,
        description="persistent-store benchmark; emits BENCH_store.json",
        default_output="BENCH_store.json",
        quick_help="fewer synthetic workloads and round trips (CI)",
        add_arguments=lambda parser: parser.add_argument(
            "--batch-size", type=int, default=BATCH_SIZE, metavar="N"
        ),
        run=lambda args: run_benchmarks(
            quick=args.quick, size=args.batch_size
        ),
        validate=validate_report,
        entry_line=lambda entry: (
            f"{entry['workload']:<24} cold {entry['cold_total_s']*1e3:9.1f} ms"
            f"  warm {entry['warm_total_s']*1e3:8.1f} ms"
            f"  speedup {entry['speedup']:7.1f}x"
            f"  hits {entry['warm_store_hits']}"
            f"  {entry['entry_bytes']:7.0f} B/entry"
            f"  get {entry['warm_get_s']*1e3:.3f} ms"
        ),
        summary_line=lambda report, output: (
            f"-> {output}: {report['summary']['workloads']} workloads, "
            f"restore speedup {report['summary']['min_speedup']:.1f}x–"
            f"{report['summary']['max_speedup']:.1f}x, "
            f"{report['round_trip']['puts_per_s']:.0f} puts/s, "
            f"{report['round_trip']['gets_per_s']:.0f} gets/s"
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
