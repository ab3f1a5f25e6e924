"""E18 — pruned zero-set search: orbit reduction and Farkas nogoods.

Paper context: Theorem 3.4 decides acceptability by walking the
``2^n`` zero-set lattice, and the paper remarks that "there are many
possible criteria for decreasing the complexity of the method".  The
``pruned`` backend (:mod:`repro.solver.pruned`) implements two such
criteria on top of the literal walk: exactly-verified column
automorphisms collapse symmetric candidates to orbit representatives,
and a Farkas certificate extracted from each refuted candidate is
generalised to a nogood that eliminates later ones.  The contract is
byte-identity with the naive engine — verdict, integer witness, and
support — with only the LP count allowed to differ.

Workload family: a root class ``T`` forced empty by ``2|T| = |R| =
|T|`` over a self-relationship, plus ``k`` interchangeable sibling
classes hanging off it (guaranteed non-trivial orbits); a root-side
variant adds ``(0, 2)`` cardinalities on ``T``'s side of each sibling
relationship (more LP rows, same symmetry); a satisfiable variant
relaxes the conflict to ``(1, 2)`` so parity is also exercised on the
witness-producing path.

Acceptance bars (hard-checked by :func:`validate_report`, re-run by
CI's bench-smoke against the emitted artifact): on every unsatisfiable
symmetric workload the pruned engine must enumerate at least
:data:`REDUCTION_BAR` times fewer zero-sets than the naive walk *and*
win wall-clock; every workload must agree on verdict and witness, and
the pruned run must solve exactly one LP per tested candidate
(``pruned_lp_calls == pruned_enumerated``: each nogood is learned from
the certificate of the solve that refuted it).

Session reuse: one pinned-pruned ``ReasoningSession`` asks every class
of each workload twice, and the report records the LPs of each round
(``session_reuse``).  The session memoizes each walk's answer and
keeps one nogood ledger per island, so the validator fails if round 2
solves any LP, if round 1 solves more LPs than a fresh session per
class does, or if any verdict or witness differs from the naive
walk's.

Standalone runner (what CI's bench-smoke invokes)::

    PYTHONPATH=src python benchmarks/bench_prune.py --quick \
        --output BENCH_prune.json
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
from repro.cr.builder import SchemaBuilder
from repro.cr.expansion import Expansion
from repro.cr.satisfiability import class_targets, decision_problem
from repro.cr.system import build_system
from repro.runtime.budget import Budget, activate
from repro.runtime.stats import SEARCH_COUNTERS, Counters, search_stats_sink
from repro.session import ReasoningSession
from repro.solver.registry import decide_acceptable, pin_backend

REPEATS = 3
"""Timed repetitions per engine; the minimum is reported."""

REDUCTION_BAR = 5.0
"""Acceptance bar: zero-sets enumerated by the naive walk over those
the pruned search pays for, on the unsatisfiable symmetric family."""

SPEEDUP_BAR = 1.0
"""Acceptance bar: the pruned engine must also *win wall-clock* on the
unsatisfiable family — pruning that trades LPs for slower bookkeeping
does not count."""


def sibling_schema(
    siblings: int,
    root_umax: int = 2,
    root_side: bool = False,
    disjoint: bool = False,
):
    """The symmetric family: root ``T`` with a self-relationship ``R``
    under ``Card(T,R,u) = (2, root_umax)`` and ``Card(T,R,v) = (1,1)``
    (unsatisfiable iff ``root_umax == 2``), plus ``siblings``
    interchangeable classes each tied to ``T`` by its own relationship.

    ``root_side`` adds a ``(0, 2)`` cardinality on ``T``'s side of each
    sibling relationship; ``disjoint`` declares the siblings pairwise
    disjoint, which caps the expansion at seven consistent compounds
    and keeps the naive side affordable for ``siblings >= 3``.
    """
    builder = SchemaBuilder(f"Siblings{siblings}")
    builder.cls("T")
    names = [f"A{i}" for i in range(1, siblings + 1)]
    for name in names:
        builder.cls(name)
    builder.relationship("R", u="T", v="T")
    builder.card("T", "R", "u", 2, root_umax)
    builder.card("T", "R", "v", 1, 1)
    for i, name in enumerate(names, start=1):
        builder.relationship(f"R{i}", **{f"x{i}": name, f"y{i}": "T"})
        builder.card(name, f"R{i}", f"x{i}", 1, 2)
        if root_side:
            builder.card("T", f"R{i}", f"y{i}", 0, 2)
    if disjoint:
        builder.disjoint(*names)
    return builder.build()


def _problem(schema):
    cr_system = build_system(Expansion(schema), mode="pruned")
    return decision_problem(cr_system, class_targets(cr_system, "T"))


def _run_engine(problem, engine: str):
    """One counted run plus ``REPEATS`` timed ones; returns the result
    tuple, the fold of the counted run's search stats, its LP count
    (:attr:`Budget.solver_calls`), and the best wall-clock."""
    counters = Counters(SEARCH_COUNTERS)
    budget = Budget()
    with activate(budget), search_stats_sink(counters):
        result = decide_acceptable(problem, engine)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        decide_acceptable(problem, engine)
        best = min(best, time.perf_counter() - start)
    return result, counters, budget.solver_calls, best


def _workload_schema(siblings: int, root_side: bool, satisfiable: bool):
    return sibling_schema(
        siblings,
        root_umax=3 if satisfiable else 2,
        root_side=root_side,
        disjoint=siblings >= 3,
    )


def _ask(session: ReasoningSession, cls: str):
    """One class through ``session``: its answer and the LPs it cost."""
    budget = Budget()
    result = session.is_class_satisfiable(cls, budget=budget)
    answer = (result.satisfiable, result.solution, result.support)
    return answer, budget.solver_calls


def run_session_reuse(
    workload: str,
    siblings: int,
    root_side: bool = False,
    satisfiable: bool = False,
) -> dict:
    """Every class asked twice through one pinned-pruned session, against
    a fresh session per class and the naive walk's answers."""
    schema = _workload_schema(siblings, root_side, satisfiable)
    cr_system = build_system(Expansion(schema), mode="pruned")
    naive = {}
    for cls in schema.classes:
        problem = decision_problem(cr_system, class_targets(cr_system, cls))
        naive[cls] = decide_acceptable(problem, "naive")
    round_lps: list[int] = []
    verdicts_agree = witnesses_identical = True
    fresh_lps = 0
    with pin_backend("pruned"):
        session = ReasoningSession(schema)
        for _round in range(2):
            lps = 0
            for cls in schema.classes:
                answer, cost = _ask(session, cls)
                lps += cost
                verdicts_agree &= answer[0] == naive[cls][0]
                witnesses_identical &= repr(answer) == repr(naive[cls])
            round_lps.append(lps)
        for cls in schema.classes:
            fresh_lps += _ask(ReasoningSession(schema), cls)[1]
    return {
        "workload": workload,
        "classes": len(schema.classes),
        "round_lps": round_lps,
        "fresh_lps": fresh_lps,
        "verdicts_agree": verdicts_agree,
        "witnesses_identical": witnesses_identical,
    }


def run_workload(
    workload: str,
    kind: str,
    siblings: int,
    root_side: bool = False,
    satisfiable: bool = False,
) -> dict:
    schema = _workload_schema(siblings, root_side, satisfiable)
    problem = _problem(schema)
    naive_result, naive_counters, _, naive_s = _run_engine(problem, "naive")
    pruned_result, pruned_counters, pruned_lp_calls, pruned_s = _run_engine(
        problem, "pruned"
    )
    pruned_enumerated = pruned_counters.zero_sets_enumerated
    return {
        "workload": workload,
        "kind": kind,
        "siblings": siblings,
        "classes": len(schema.classes),
        "unknowns": len(problem.class_unknowns),
        "naive_s": naive_s,
        "pruned_s": pruned_s,
        "speedup": naive_s / pruned_s if pruned_s > 0 else 0.0,
        "verdicts_agree": bool(naive_result[0] == pruned_result[0]),
        "witnesses_identical": repr(naive_result) == repr(pruned_result),
        "naive_enumerated": naive_counters.zero_sets_enumerated,
        "pruned_enumerated": pruned_enumerated,
        "pruned_lp_calls": pruned_lp_calls,
        "enumeration_reduction": (
            naive_counters.zero_sets_enumerated / pruned_enumerated
            if pruned_enumerated > 0
            else 0.0
        ),
        "pruned_by_orbit": pruned_counters.pruned_by_orbit,
        "pruned_by_nogood": pruned_counters.pruned_by_nogood,
        "orbits_found": pruned_counters.orbits_found,
    }


def run_benchmarks(quick: bool = False) -> dict:
    entries = [
        run_workload("conflict-2", "unsat-conflict", 2),
        run_workload("rootside-2", "unsat-conflict", 2, root_side=True),
        run_workload("benign-2", "sat-parity", 2, satisfiable=True),
    ]
    session_reuse = [
        run_session_reuse("conflict-2", 2),
        run_session_reuse("rootside-2", 2, root_side=True),
        run_session_reuse("benign-2", 2, satisfiable=True),
    ]
    if not quick:
        entries.append(run_workload("conflict-3", "unsat-conflict", 3))
        session_reuse.append(run_session_reuse("conflict-3", 3))
    gated = [e for e in entries if e["kind"] == "unsat-conflict"]
    return {
        "benchmark": "prune",
        "version": 1,
        "quick": quick,
        "reduction_bar": REDUCTION_BAR,
        "speedup_bar": SPEEDUP_BAR,
        "entries": entries,
        "session_reuse": session_reuse,
        "summary": {
            "workloads": len(entries),
            "min_reduction": min(e["enumeration_reduction"] for e in gated),
            "min_speedup": min(e["speedup"] for e in gated),
        },
    }


_ENTRY_KEYS = {
    "workload": str,
    "kind": str,
    "siblings": int,
    "classes": int,
    "unknowns": int,
    "naive_s": float,
    "pruned_s": float,
    "speedup": float,
    "verdicts_agree": bool,
    "witnesses_identical": bool,
    "naive_enumerated": int,
    "pruned_enumerated": int,
    "pruned_lp_calls": int,
    "enumeration_reduction": float,
    "pruned_by_orbit": int,
    "pruned_by_nogood": int,
    "orbits_found": int,
}

_REUSE_KEYS = {
    "workload": str,
    "classes": int,
    "round_lps": list,
    "fresh_lps": int,
    "verdicts_agree": bool,
    "witnesses_identical": bool,
}


def validate_session_reuse(report: dict) -> None:
    """Raise ``ValueError`` unless every session-reuse record shows a
    free second round, a first round no dearer than fresh sessions,
    and the naive walk's answers."""
    records = report.get("session_reuse")
    if not isinstance(records, list) or not records:
        raise ValueError("report['session_reuse'] must be a non-empty list")
    for record in records:
        check_entry_fields(record, _REUSE_KEYS)
        label = record["workload"]
        rounds = record["round_lps"]
        if len(rounds) != 2 or not all(
            isinstance(lps, int) and not isinstance(lps, bool)
            for lps in rounds
        ):
            raise ValueError(
                f"session reuse {label!r}: round_lps must be two LP counts"
            )
        for claim in ("verdicts_agree", "witnesses_identical"):
            if not record[claim]:
                raise ValueError(
                    f"session reuse {label!r}: an answer differs from the "
                    f"naive walk's ({claim} is false)"
                )
        if rounds[1] != 0:
            raise ValueError(
                f"session reuse {label!r}: the second round solved "
                f"{rounds[1]} LP(s); a repeated class must be answered "
                "from the walk memo"
            )
        if rounds[0] > record["fresh_lps"]:
            raise ValueError(
                f"session reuse {label!r}: the first round solved "
                f"{rounds[0]} LPs, more than the {record['fresh_lps']} of "
                "a fresh session per class"
            )


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` unless ``report`` is a well-formed
    BENCH_prune.json payload; returns the report for chaining."""
    entries = check_report_shape(report, "prune")
    for entry in entries:
        check_entry_fields(entry, _ENTRY_KEYS)
        label = entry.get("workload")
        for claim in ("verdicts_agree", "witnesses_identical"):
            if not entry[claim]:
                raise ValueError(
                    f"entry {label!r}: parity violated ({claim} is false)"
                )
        if entry["pruned_lp_calls"] != entry["pruned_enumerated"]:
            raise ValueError(
                f"entry {label!r}: {entry['pruned_lp_calls']} LPs for "
                f"{entry['pruned_enumerated']} tested candidates; a refuted "
                "candidate's nogood must come from the solve that refuted it"
            )
        if entry["kind"] == "unsat-conflict":
            if entry["pruned_by_orbit"] + entry["pruned_by_nogood"] <= 0:
                raise ValueError(
                    f"entry {label!r}: neither pruning lever fired on a "
                    "symmetric unsatisfiable workload"
                )
            if entry["orbits_found"] <= 0:
                raise ValueError(
                    f"entry {label!r}: interchangeable siblings must "
                    "yield at least one non-trivial orbit"
                )
            if entry["enumeration_reduction"] < REDUCTION_BAR:
                raise ValueError(
                    f"entry {label!r}: enumeration reduction "
                    f"{entry['enumeration_reduction']:.1f}x is below "
                    f"the {REDUCTION_BAR:.0f}x bar"
                )
            if entry["speedup"] < SPEEDUP_BAR:
                raise ValueError(
                    f"entry {label!r}: pruned engine lost wall-clock "
                    f"({entry['speedup']:.2f}x vs the naive walk)"
                )
    validate_session_reuse(report)
    summary = check_summary(report)
    for key in ("min_reduction", "min_speedup"):
        if not isinstance(summary.get(key), float):
            raise ValueError(f"summary.{key} must be a float")
    return report


# -- pytest-benchmark entry points (pytest benchmarks/ --benchmark-only) ----


def test_pruned_beats_naive_on_the_conflict_family(benchmark):
    from benchmarks.conftest import paper_row

    entry = benchmark.pedantic(
        run_workload,
        args=("conflict-2", "unsat-conflict", 2),
        rounds=1,
        iterations=1,
    )
    assert entry["verdicts_agree"] and entry["witnesses_identical"]
    assert entry["enumeration_reduction"] >= REDUCTION_BAR
    paper_row(
        "E18/prune",
        "orbit + nogood pruning shrink the Theorem-3.4 lattice walk",
        f"{entry['naive_enumerated']} -> {entry['pruned_enumerated']} "
        f"zero-sets ({entry['enumeration_reduction']:.1f}x), "
        f"wall-clock {entry['speedup']:.1f}x",
    )


def test_report_is_wellformed(benchmark):
    report = benchmark.pedantic(
        run_benchmarks, kwargs={"quick": True}, rounds=1, iterations=1
    )
    validate_report(report)
    assert report["summary"]["min_reduction"] >= REDUCTION_BAR


def main(argv: list[str] | None = None) -> int:
    return run_emit_main(
        argv,
        description=(
            "pruned vs naive zero-set search on the symmetric sibling "
            "family; emits BENCH_prune.json"
        ),
        default_output="BENCH_prune.json",
        quick_help="skip the three-sibling workload (CI)",
        run=lambda args: run_benchmarks(quick=args.quick),
        validate=validate_report,
        entry_line=lambda entry: (
            f"{entry['workload']:<12} {entry['kind']:<15}"
            f" naive {entry['naive_s']*1e3:8.1f} ms"
            f" /{entry['naive_enumerated']:4d} sets"
            f"  pruned {entry['pruned_s']*1e3:8.1f} ms"
            f" /{entry['pruned_enumerated']:4d} sets"
            f"  speedup {entry['speedup']:5.1f}x"
        ),
        summary_line=lambda report, output: (
            f"-> {output}: {report['summary']['workloads']} workloads, "
            f"enumeration reduction >= "
            f"{report['summary']['min_reduction']:.1f}x "
            f"(bar: {REDUCTION_BAR:.0f}x), wall-clock >= "
            f"{report['summary']['min_speedup']:.2f}x "
            f"(bar: {SPEEDUP_BAR:.1f}x); session reuse, LPs per round "
            "(fresh sessions): "
            + ", ".join(
                f"{r['workload']} {r['round_lps'][0]}/{r['round_lps'][1]}"
                f" ({r['fresh_lps']})"
                for r in report["session_reuse"]
            )
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
