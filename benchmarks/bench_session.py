"""E13 — cached reasoning sessions: cold vs. warm query latency.

Paper context: the Section-3.1 expansion is exponential in the class
set, and the stateless API pays it on *every* query.  The session layer
(:mod:`repro.session`) builds it once per schema fingerprint and
answers every further satisfiability/implication query from the cached
maximal acceptable support.

This module is both a pytest-benchmark suite (``pytest
benchmarks/bench_session.py --benchmark-only``) and a standalone runner
that emits the repo's perf-trajectory artifact::

    PYTHONPATH=src python benchmarks/bench_session.py --quick \
        --output BENCH_session.json

The report records, per workload (the paper's Figures 1–7 schemas plus
synthetic ISA chains and antichains): cold-batch total (a fresh session
per query — what the stateless API does), warm-batch total (one shared
session), the speedup, expansion builds performed either way, and the
pruned enumeration's search-node counts.  ``validate_report`` is the
schema check CI runs against the emitted JSON.
"""

from __future__ import annotations

import sys
import time

from benchmarks._emit import (
    check_entry_fields,
    check_report_shape,
    check_summary,
    run_emit_main,
)
from repro.components import monolithic_decomposition
from repro.cr.builder import SchemaBuilder
from repro.cr.constraints import IsaStatement
from repro.cr.expansion import Expansion
from repro.cr.schema import CRSchema
from repro.paper import (
    figure1_schema,
    figure7_queries,
    meeting_schema,
    refined_meeting_schema,
)
from repro.session import ReasoningSession, SessionCache

BATCH_SIZE = 50
"""Queries per workload batch (the ISSUE-2 acceptance scenario)."""


def chain_schema(k: int) -> CRSchema:
    """``K(k-1) ≼ ... ≼ K0`` — the expansion stays linear."""
    builder = SchemaBuilder(f"Chain{k}")
    for i in range(k):
        builder.cls(f"K{i}")
    for i in range(1, k):
        builder.isa(f"K{i}", f"K{i-1}")
    builder.relationship("R", U1="K0", U2="K0")
    builder.card("K0", "R", "U1", minc=1)
    return builder.build()


def antichain_schema(k: int) -> CRSchema:
    """``k`` ISA-unrelated classes — the expansion is ``2^k - 1``."""
    builder = SchemaBuilder(f"Antichain{k}")
    for i in range(k):
        builder.cls(f"K{i}")
    builder.relationship("R", U1="K0", U2="K0")
    builder.card("K0", "R", "U1", minc=1)
    return builder.build()


def batch_queries(schema: CRSchema, size: int = BATCH_SIZE) -> list:
    """A deterministic mixed batch: per-class satisfiability plus ISA
    implication pairs, cycled to ``size`` queries."""
    base: list = [("sat", cls) for cls in schema.classes]
    classes = schema.classes
    for sub in classes[:4]:
        for sup in classes[:4]:
            if sub != sup:
                base.append(("implies", IsaStatement(sub, sup)))
    return [base[i % len(base)] for i in range(size)]


def _answer(session: ReasoningSession, query) -> None:
    kind, payload = query
    if kind == "sat":
        session.is_class_satisfiable(payload)
    else:
        session.implies(payload)


def _whole_schema_session(
    schema: CRSchema, cache: SessionCache | None = None
) -> ReasoningSession:
    """A session over the whole schema as one island: the workloads
    measure amortising the whole-schema expansion, and the antichains
    would otherwise split into one island per class."""
    return ReasoningSession(
        schema, cache=cache, decomposition=monolithic_decomposition(schema)
    )


def run_workload(label: str, schema: CRSchema, size: int = BATCH_SIZE) -> dict:
    """Cold-batch vs. warm-batch totals for one schema."""
    queries = batch_queries(schema, size)

    cold_builds_before = Expansion.build_count
    cold_start = time.perf_counter()
    for query in queries:
        _answer(_whole_schema_session(schema, cache=SessionCache()), query)
    cold_total = time.perf_counter() - cold_start
    cold_builds = Expansion.build_count - cold_builds_before

    session = _whole_schema_session(schema)
    _answer(session, queries[0])  # prime the cache entry
    warm_builds_before = Expansion.build_count
    warm_start = time.perf_counter()
    for query in queries:
        _answer(session, query)
    warm_total = time.perf_counter() - warm_start
    warm_builds = Expansion.build_count - warm_builds_before

    expansion = session.cache.artifacts(schema, session.fingerprint).expansion
    summary = expansion.size_summary()
    return {
        "workload": label,
        "schema": schema.name,
        "classes": summary["classes"],
        "queries": len(queries),
        "cold_total_s": cold_total,
        "warm_total_s": warm_total,
        "speedup": cold_total / warm_total if warm_total > 0 else float("inf"),
        "cold_expansion_builds": cold_builds,
        "warm_expansion_builds": warm_builds,
        "all_compound_classes": summary["all_compound_classes"],
        "consistent_compound_classes": summary["consistent_compound_classes"],
        "expansion_nodes_visited": summary["expansion_nodes_visited"],
    }


def workloads(quick: bool) -> list[tuple[str, CRSchema]]:
    entries: list[tuple[str, CRSchema]] = [
        ("figure1", figure1_schema()),
        ("figures3-5:meeting", meeting_schema()),
        ("figure6:refined-meeting", refined_meeting_schema()),
    ]
    chain_sizes = (8, 16) if quick else (8, 16, 32, 64)
    antichain_sizes = (4, 6) if quick else (4, 6, 8)
    entries.extend(
        (f"synthetic:chain{k}", chain_schema(k)) for k in chain_sizes
    )
    entries.extend(
        (f"synthetic:antichain{k}", antichain_schema(k))
        for k in antichain_sizes
    )
    return entries


def run_benchmarks(quick: bool = False, size: int = BATCH_SIZE) -> dict:
    entries = [
        run_workload(label, schema, size)
        for label, schema in workloads(quick)
    ]
    # Figure-7 implication batch against the warm meeting session.
    meeting = meeting_schema()
    session = ReasoningSession(meeting)
    session.satisfiable_classes()
    start = time.perf_counter()
    results = session.implies_all(figure7_queries())
    figure7_total = time.perf_counter() - start
    speedups = [entry["speedup"] for entry in entries]
    return {
        "benchmark": "session",
        "version": 1,
        "quick": quick,
        "batch_size": size,
        "entries": entries,
        "figure7": {
            "queries": len(results),
            "implied": sum(1 for r in results if r.implied),
            "warm_total_s": figure7_total,
        },
        "summary": {
            "workloads": len(entries),
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
        },
    }


_ENTRY_KEYS = {
    "workload": str,
    "schema": str,
    "classes": int,
    "queries": int,
    "cold_total_s": float,
    "warm_total_s": float,
    "speedup": float,
    "cold_expansion_builds": int,
    "warm_expansion_builds": int,
    "all_compound_classes": int,
    "consistent_compound_classes": int,
    "expansion_nodes_visited": int,
}


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` unless ``report`` is a well-formed
    BENCH_session.json payload; returns the report for chaining."""
    entries = check_report_shape(report, "session")
    for entry in entries:
        check_entry_fields(entry, _ENTRY_KEYS)
        if entry["warm_expansion_builds"] != 0:
            raise ValueError(
                f"entry {entry.get('workload')!r}: warm batch rebuilt the "
                f"expansion {entry['warm_expansion_builds']} time(s)"
            )
        if entry["cold_expansion_builds"] < entry["queries"]:
            raise ValueError(
                f"entry {entry.get('workload')!r}: cold batch should build "
                "at least one expansion per query"
            )
    summary = check_summary(report)
    if not isinstance(summary.get("min_speedup"), float):
        raise ValueError("summary.min_speedup must be a float")
    return report


# -- pytest-benchmark entry points (pytest benchmarks/ --benchmark-only) ----


def test_warm_batch_is_faster_and_buildless(benchmark):
    from benchmarks.conftest import paper_row

    schema = meeting_schema()
    session = ReasoningSession(schema)
    queries = batch_queries(schema)
    for query in queries:
        _answer(session, query)
    builds_before = Expansion.build_count

    def warm_batch():
        for query in queries:
            _answer(session, query)

    benchmark(warm_batch)
    assert Expansion.build_count == builds_before
    paper_row(
        "E13/session",
        "one expansion build amortised over the whole batch",
        f"{len(queries)} warm queries, 0 expansion rebuilds",
    )


def test_report_is_wellformed(benchmark):
    report = benchmark.pedantic(
        run_benchmarks, kwargs={"quick": True}, rounds=1, iterations=1
    )
    validate_report(report)
    assert report["summary"]["min_speedup"] > 1.0


def main(argv: list[str] | None = None) -> int:
    return run_emit_main(
        argv,
        description="cold vs warm session benchmark; emits BENCH_session.json",
        default_output="BENCH_session.json",
        quick_help="smaller synthetic sizes (CI)",
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
            f"  nodes {entry['expansion_nodes_visited']}"
        ),
        summary_line=lambda report, output: (
            f"-> {output}: {report['summary']['workloads']} workloads, "
            f"speedup {report['summary']['min_speedup']:.1f}x–"
            f"{report['summary']['max_speedup']:.1f}x"
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
