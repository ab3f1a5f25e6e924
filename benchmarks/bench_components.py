"""E17 — component decomposition: per-island reasoning and warm deltas.

Paper context: Theorem 3.3 decides satisfiability through the
Section-3.1 expansion, which is exponential in the class set.  The
constraint graph of a schema assembled from independent islands is
disconnected, and models compose across islands — so
:class:`~repro.session.ReasoningSession` may expand each island
separately (``k * 2^m`` instead of ``2^(k*m)``), and an edit that
touches one island can reuse every other island's persisted artifacts
(the ``repro diff`` contract).

Two workload kinds, over archipelago schemas of ``k`` two-class
islands (one binary relationship per island keeps it a single
component; no ISA, so the whole-schema expansion enumerates every
nonempty subset of all ``2k`` classes and every compound relationship
over them — the count grows like ``4^k`` per relationship — while each
island's own expansion is constant-size):

* ``monolithic-vs-decomposed`` — cold ``satisfiable_classes`` through
  a session over :func:`~repro.components.monolithic_decomposition`
  (the whole schema as one island) versus a per-island session;
  verdict agreement is a hard check, the speedup is reported but not
  gated;
* ``warm-delta-vs-cold-full`` — after a one-statement cardinality edit
  in a single island, a store-warm delta run (only the touched island
  rebuilds; ``components_reused == k-1`` is a hard check) versus a
  cold monolithic rebuild of the edited schema.  The acceptance bar:
  the warm delta is at least 2x faster.

Standalone runner (what CI's bench-smoke invokes)::

    PYTHONPATH=src python benchmarks/bench_components.py --quick \
        --output BENCH_components.json
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
from repro.components import monolithic_decomposition
from repro.cr.schema import Card, CRSchema, Relationship
from repro.session import ReasoningSession, SessionCache
from repro.store import ArtifactStore

REPEATS = 3
"""Timed repetitions per path; the minimum is reported."""

SPEEDUP_BAR = 2.0
"""Acceptance bar: the store-warm delta run must beat a cold full
rebuild of the edited schema by this factor."""


def archipelago(islands: int, card: int = 2) -> CRSchema:
    """``islands`` independent two-class islands, each tied into one
    component by a binary relationship; ``card`` parameterises one
    declaration in the *last* island, so two calls with different
    values model a one-statement edit leaving every other island
    untouched.

    Island sizes are pinned at two classes because the monolithic
    expansion's compound-relationship count is a *product* over roles
    of subset counts over **all** classes — at four islands it already
    approaches the default :class:`~repro.cr.expansion.ExpansionLimits`
    ceiling, which is precisely the blow-up the decomposition avoids.
    """
    classes: list[str] = []
    relationships: list[Relationship] = []
    cards: dict[tuple[str, str, str], Card] = {}
    for i in range(islands):
        names = [f"I{i}K0", f"I{i}K1"]
        classes.extend(names)
        rel = f"I{i}R"
        relationships.append(
            Relationship(rel, ((f"I{i}u", names[0]), (f"I{i}v", names[1])))
        )
        value = card if i == islands - 1 else 2
        cards[(names[0], rel, f"I{i}u")] = Card(1, value)
    return CRSchema(
        classes=classes,
        relationships=relationships,
        cards=cards,
        name=f"Archipelago{islands}",
    )


def _timed(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _monolithic(schema: CRSchema) -> ReasoningSession:
    """A session reasoning over the whole schema as one island."""
    return ReasoningSession(
        schema, decomposition=monolithic_decomposition(schema)
    )


def run_split_workload(islands: int) -> dict:
    """Cold whole-schema reasoning vs cold per-island reasoning."""
    schema = archipelago(islands)
    monolithic_verdicts = _monolithic(schema).satisfiable_classes()
    probe = ReasoningSession(schema)
    decomposed_verdicts = probe.satisfiable_classes()

    monolithic_s = _timed(lambda: _monolithic(schema).satisfiable_classes())
    decomposed_s = _timed(
        lambda: ReasoningSession(schema).satisfiable_classes()
    )
    return {
        "workload": f"split-{islands}",
        "kind": "monolithic-vs-decomposed",
        "islands": islands,
        "classes": len(schema.classes),
        "baseline_s": monolithic_s,
        "candidate_s": decomposed_s,
        "speedup": monolithic_s / decomposed_s if decomposed_s > 0 else 0.0,
        "verdicts_agree": bool(monolithic_verdicts == decomposed_verdicts),
        "components_reused": 0,
        "components_rebuilt": probe.components_rebuilt,
    }


def run_delta_workload(islands: int) -> dict:
    """Store-warm delta after a one-island edit vs a cold full rebuild.

    Each repetition warms a *fresh* store on the old schema (untimed)
    before timing the delta run on the edited one — otherwise the first
    repetition's write-through would hand later repetitions a fully
    warm store and the minimum would measure reuse of the edit itself.
    """
    old = archipelago(islands, card=2)
    new = archipelago(islands, card=3)
    cold_verdicts = _monolithic(new).satisfiable_classes()

    reused = rebuilt = 0
    delta_verdicts: dict = {}
    best_delta = float("inf")
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as store_dir:
            warmer = ReasoningSession(
                old, cache=SessionCache(store=ArtifactStore(store_dir))
            )
            warmer.satisfiable_classes()
            start = time.perf_counter()
            session = ReasoningSession(
                new, cache=SessionCache(store=ArtifactStore(store_dir))
            )
            delta_verdicts = session.satisfiable_classes()
            best_delta = min(best_delta, time.perf_counter() - start)
            reused = session.components_reused
            rebuilt = session.components_rebuilt

    cold_full_s = _timed(lambda: _monolithic(new).satisfiable_classes())
    return {
        "workload": f"delta-{islands}",
        "kind": "warm-delta-vs-cold-full",
        "islands": islands,
        "classes": len(new.classes),
        "baseline_s": cold_full_s,
        "candidate_s": best_delta,
        "speedup": cold_full_s / best_delta if best_delta > 0 else 0.0,
        "verdicts_agree": bool(delta_verdicts == cold_verdicts),
        "components_reused": reused,
        "components_rebuilt": rebuilt,
    }


def workloads(quick: bool) -> list[int]:
    return [3] if quick else [3, 4]


def run_benchmarks(quick: bool = False) -> dict:
    entries = []
    for islands in workloads(quick):
        entries.append(run_split_workload(islands))
        entries.append(run_delta_workload(islands))
    delta_speedups = [
        entry["speedup"]
        for entry in entries
        if entry["kind"] == "warm-delta-vs-cold-full"
    ]
    return {
        "benchmark": "components",
        "version": 1,
        "quick": quick,
        "speedup_bar": SPEEDUP_BAR,
        "entries": entries,
        "summary": {
            "workloads": len(entries),
            "min_delta_speedup": min(delta_speedups),
            "max_delta_speedup": max(delta_speedups),
        },
    }


_ENTRY_KEYS = {
    "workload": str,
    "kind": str,
    "islands": int,
    "classes": int,
    "baseline_s": float,
    "candidate_s": float,
    "speedup": float,
    "verdicts_agree": bool,
    "components_reused": int,
    "components_rebuilt": int,
}


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` unless ``report`` is a well-formed
    BENCH_components.json payload; returns the report for chaining."""
    entries = check_report_shape(report, "components")
    for entry in entries:
        check_entry_fields(entry, _ENTRY_KEYS)
        if not entry["verdicts_agree"]:
            raise ValueError(
                f"entry {entry.get('workload')!r}: decomposed verdicts "
                "disagree with the monolithic session"
            )
        if entry["kind"] == "warm-delta-vs-cold-full":
            if entry["components_rebuilt"] != 1:
                raise ValueError(
                    f"entry {entry.get('workload')!r}: a one-island edit "
                    f"must rebuild exactly one component, rebuilt "
                    f"{entry['components_rebuilt']}"
                )
            if entry["components_reused"] != entry["islands"] - 1:
                raise ValueError(
                    f"entry {entry.get('workload')!r}: every untouched "
                    "island must come back warm from the store"
                )
    summary = check_summary(report)
    min_delta = summary.get("min_delta_speedup")
    if not isinstance(min_delta, float):
        raise ValueError("summary.min_delta_speedup must be a float")
    if min_delta < SPEEDUP_BAR:
        raise ValueError(
            f"acceptance bar missed: min warm-delta speedup "
            f"{min_delta:.1f}x is below {SPEEDUP_BAR:.0f}x"
        )
    return report


# -- pytest-benchmark entry points (pytest benchmarks/ --benchmark-only) ----


def test_warm_delta_rebuilds_one_island(benchmark):
    from benchmarks.conftest import paper_row

    entry = benchmark.pedantic(
        run_delta_workload, args=(3,), rounds=1, iterations=1
    )
    assert entry["verdicts_agree"]
    assert entry["components_rebuilt"] == 1
    paper_row(
        "E17/components",
        "a one-statement edit re-expands one island, not the schema",
        f"{entry['components_reused']} island(s) reused, "
        f"delta {entry['speedup']:.1f}x faster than a full rebuild",
    )


def test_report_is_wellformed(benchmark):
    report = benchmark.pedantic(
        run_benchmarks, kwargs={"quick": True}, rounds=1, iterations=1
    )
    validate_report(report)
    assert report["summary"]["min_delta_speedup"] >= SPEEDUP_BAR


def main(argv: list[str] | None = None) -> int:
    return run_emit_main(
        argv,
        description=(
            "component decomposition vs monolithic reasoning; emits "
            "BENCH_components.json"
        ),
        default_output="BENCH_components.json",
        quick_help="fewer/smaller archipelagos (CI)",
        run=lambda args: run_benchmarks(quick=args.quick),
        validate=validate_report,
        entry_line=lambda entry: (
            f"{entry['workload']:<12} {entry['kind']:<26}"
            f" baseline {entry['baseline_s']*1e3:9.2f} ms"
            f"  candidate {entry['candidate_s']*1e3:9.2f} ms"
            f"  speedup {entry['speedup']:7.1f}x"
        ),
        summary_line=lambda report, output: (
            f"-> {output}: {report['summary']['workloads']} workloads, "
            f"warm-delta speedup "
            f"{report['summary']['min_delta_speedup']:.1f}x–"
            f"{report['summary']['max_delta_speedup']:.1f}x "
            f"(bar: {SPEEDUP_BAR:.0f}x)"
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
