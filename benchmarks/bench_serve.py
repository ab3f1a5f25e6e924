"""E16 — the serve daemon: request throughput over the shared cache.

Paper context: BENCH_session prices the Section-3.1 expansion
amortising across one process's queries and BENCH_store across
processes; this module prices the *service* form of the same economics.
A live in-process daemon answers ``/batch`` requests over HTTP: the
first request pays the cold pipeline, every later request — from any
client — rides the process-wide warm cache, so request latency drops to
transport + lookup.  The report records the cold/warm split, the
differential parity bit (served records versus the serial
:func:`~repro.cli.answer_all` oracle), and sustained
req/s with p50/p99 latency at 1, 8, and 32 concurrent clients.

``validate_report`` keeps structural bars (parity must hold, the warm
path must beat cold by ≥ 2×, percentiles must be ordered) rather than
absolute wall-clock bars — CI boxes are noisy; shape is not.

Standalone runner (what CI's bench-smoke invokes)::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick \
        --output BENCH_serve.json
"""

from __future__ import annotations

import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from benchmarks._emit import (
    check_entry_fields,
    check_report_shape,
    check_summary,
    run_emit_main,
)
from repro.cli import answer_all, parse_batch_query
from repro.dsl import serialize_schema
from repro.paper import meeting_schema, refined_meeting_schema
from repro.serve import ServeClient, ServeConfig, running_server
from repro.session import ReasoningSession

CONCURRENCY_LEVELS = (1, 8, 32)
"""Client counts for the sustained-throughput sweep."""

REQUESTS_PER_LEVEL = 96
"""Requests per concurrency level (divisible by every level)."""

QUERY_LINES = [
    "sat Speaker",
    "sat Talk",
    "Discussant isa Speaker",
    "Talk isa Speaker",
    "maxc(Talk, Holds, U2) = 1",
    "disjoint(Speaker, Talk)",
]


def _schema_texts() -> dict[str, str]:
    return {
        "meeting": serialize_schema(meeting_schema()),
        "refined-meeting": serialize_schema(refined_meeting_schema()),
    }


def _oracle_records(text: str) -> list[dict]:
    """The serial batch loop's records — the parity reference."""
    from repro.dsl import parse_schema

    session = ReasoningSession(parse_schema(text))
    return answer_all(session, list(map(parse_batch_query, QUERY_LINES)))[0]


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def cold_vs_warm(text: str, warm_samples: int) -> dict:
    """First-request cost vs steady-state cost on one fresh daemon,
    plus the parity bit against the serial oracle."""
    expected = _oracle_records(text)
    with tempfile.TemporaryDirectory() as tmp:
        config = ServeConfig(cache_dir=str(Path(tmp) / "store"))
        with running_server(config) as server:
            client = ServeClient(server.base_url)
            cold_start = time.perf_counter()
            status, payload = client.batch(text, QUERY_LINES)
            cold_ms = (time.perf_counter() - cold_start) * 1000.0
            parity = status == 200 and payload["results"] == expected
            warm_times = []
            for _ in range(warm_samples):
                warm_start = time.perf_counter()
                status, payload = client.batch(text, QUERY_LINES)
                warm_times.append((time.perf_counter() - warm_start) * 1000.0)
                parity = parity and status == 200 and payload["results"] == expected
    warm_times.sort()
    warm_ms = warm_times[len(warm_times) // 2]
    return {
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "warm_speedup": cold_ms / warm_ms if warm_ms > 0 else float("inf"),
        "parity": parity,
    }


def throughput(
    server, texts: dict[str, str], concurrency: int, requests: int
) -> dict:
    """Sustained req/s and latency percentiles on an already-warm daemon."""
    names = sorted(texts)

    def client_loop(client_index: int) -> list[float]:
        client = ServeClient(server.base_url)
        latencies = []
        for request_index in range(requests // concurrency):
            text = texts[names[(client_index + request_index) % len(names)]]
            start = time.perf_counter()
            status, payload = client.batch(text, QUERY_LINES)
            latencies.append((time.perf_counter() - start) * 1000.0)
            assert status == 200, payload
        return latencies

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        latencies = [
            latency
            for chunk in pool.map(client_loop, range(concurrency))
            for latency in chunk
        ]
    wall = time.perf_counter() - wall_start
    latencies.sort()
    return {
        "workload": f"throughput:conc{concurrency}",
        "concurrency": concurrency,
        "requests": len(latencies),
        "req_per_s": len(latencies) / wall if wall > 0 else float("inf"),
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
    }


def run_benchmarks(quick: bool = False, requests: int = REQUESTS_PER_LEVEL) -> dict:
    texts = _schema_texts()
    if quick:
        requests = min(requests, 32)
    entries = []
    with running_server(ServeConfig(max_inflight=max(CONCURRENCY_LEVELS))) as server:
        # Warm every schema once so the sweep prices the service, not
        # the one-off cold build (cold_warm below prices that).
        warmup = ServeClient(server.base_url)
        for text in texts.values():
            status, _ = warmup.batch(text, QUERY_LINES)
            assert status == 200
        for concurrency in CONCURRENCY_LEVELS:
            entries.append(throughput(server, texts, concurrency, requests))
        _, metrics = warmup.metrics()
    return {
        "benchmark": "serve",
        "version": 1,
        "quick": quick,
        "entries": entries,
        "cold_warm": cold_vs_warm(
            texts["meeting"], warm_samples=5 if quick else 15
        ),
        "server_stats": {
            "requests_total": metrics["server"]["requests_total"],
            "rejected_busy": metrics["server"]["rejected_busy"],
            "cache_hits": metrics["cache"]["hits"],
            "fixpoint_runs": metrics["cache"]["fixpoint_runs"],
        },
        "summary": {
            "workloads": len(entries),
            "max_req_per_s": max(entry["req_per_s"] for entry in entries),
            "warm_speedup": None,  # filled below for summary_line symmetry
        },
    }


def _finish_summary(report: dict) -> dict:
    report["summary"]["warm_speedup"] = report["cold_warm"]["warm_speedup"]
    return report


_ENTRY_KEYS = {
    "workload": str,
    "concurrency": int,
    "requests": int,
    "req_per_s": float,
    "p50_ms": float,
    "p99_ms": float,
}


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` unless ``report`` is a well-formed
    BENCH_serve.json payload; returns the report for chaining."""
    entries = check_report_shape(report, "serve")
    for entry in entries:
        check_entry_fields(entry, _ENTRY_KEYS)
        if entry["requests"] < entry["concurrency"]:
            raise ValueError(
                f"entry {entry.get('workload')!r}: fewer requests than clients"
            )
        if entry["req_per_s"] <= 0:
            raise ValueError(
                f"entry {entry.get('workload')!r}: non-positive throughput"
            )
        if entry["p50_ms"] > entry["p99_ms"]:
            raise ValueError(
                f"entry {entry.get('workload')!r}: p50 above p99"
            )
    cold_warm = report.get("cold_warm")
    if not isinstance(cold_warm, dict):
        raise ValueError("report['cold_warm'] must be an object")
    if cold_warm.get("parity") is not True:
        raise ValueError(
            "served records diverged from the serial oracle (parity=False)"
        )
    if not cold_warm.get("warm_speedup", 0) >= 2.0:
        raise ValueError(
            f"warm requests must beat the cold build by >= 2x, got "
            f"{cold_warm.get('warm_speedup')!r}"
        )
    stats = report.get("server_stats")
    if not isinstance(stats, dict) or stats.get("rejected_busy", 0) != 0:
        raise ValueError(
            "the sweep saturated the daemon (rejected_busy != 0); "
            "its throughput numbers under-count"
        )
    summary = check_summary(report)
    if not isinstance(summary.get("max_req_per_s"), float):
        raise ValueError("summary.max_req_per_s must be a float")
    return report


# -- pytest-benchmark entry points (pytest benchmarks/ --benchmark-only) ----


def test_warm_requests_beat_the_cold_build(benchmark):
    from benchmarks.conftest import paper_row

    text = _schema_texts()["meeting"]
    expected = _oracle_records(text)
    with running_server(ServeConfig()) as server:
        client = ServeClient(server.base_url)
        status, payload = client.batch(text, QUERY_LINES)  # cold build
        assert status == 200 and payload["results"] == expected

        def warm_request():
            status, payload = client.batch(text, QUERY_LINES)
            assert status == 200
            return payload

        payload = benchmark(warm_request)
    assert payload["results"] == expected
    paper_row(
        "E16/serve",
        "warm HTTP requests over the shared session cache",
        f"{len(QUERY_LINES)} queries per request, records identical to "
        "the serial formatter",
    )


def test_report_is_wellformed(benchmark):
    report = benchmark.pedantic(
        run_benchmarks,
        kwargs={"quick": True, "requests": 32},
        rounds=1,
        iterations=1,
    )
    validate_report(_finish_summary(report))


def main(argv: list[str] | None = None) -> int:
    return run_emit_main(
        argv,
        description="serve-daemon benchmark; emits BENCH_serve.json",
        default_output="BENCH_serve.json",
        quick_help="fewer requests per level and warm samples (CI)",
        add_arguments=lambda parser: parser.add_argument(
            "--requests", type=int, default=REQUESTS_PER_LEVEL, metavar="N"
        ),
        run=lambda args: _finish_summary(
            run_benchmarks(quick=args.quick, requests=args.requests)
        ),
        validate=validate_report,
        entry_line=lambda entry: (
            f"{entry['workload']:<20} {entry['requests']:4d} requests"
            f"  {entry['req_per_s']:8.1f} req/s"
            f"  p50 {entry['p50_ms']:7.2f} ms"
            f"  p99 {entry['p99_ms']:7.2f} ms"
        ),
        summary_line=lambda report, output: (
            f"-> {output}: {report['summary']['workloads']} levels, "
            f"peak {report['summary']['max_req_per_s']:.0f} req/s, "
            f"cold {report['cold_warm']['cold_ms']:.1f} ms -> warm "
            f"{report['cold_warm']['warm_ms']:.2f} ms "
            f"({report['cold_warm']['warm_speedup']:.0f}x)"
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
