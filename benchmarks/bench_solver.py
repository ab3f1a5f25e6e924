"""E12/E14 — the exact LP kernel: certified supports, exact vs float.

Two experiments share this module:

**E14 (standalone runner, CI artifact).**  Every LP the library solves
runs on one kernel, the interned sparse revised simplex
(:mod:`repro.solver.core`).  This runner times its maximal-support
computation — the LP at the heart of the acceptability fixpoint — on
the paper's figure schemas and on a deterministic random
growing-schema family, certifies every answer, and emits the
perf-trajectory artifact::

    PYTHONPATH=src:. python benchmarks/bench_solver.py --quick \
        --output BENCH_solver.json

Each entry records, beside the time, the LP calls and pivots an
ambient :class:`~repro.runtime.budget.Budget` charged for one solve:
deterministic counts that show whether a change moved the pivot
sequence or only its cost.  ``validate_report`` is the schema check CI
runs against the JSON; it requires every support to be certified
(:func:`repro.solver.certificates.support_is_certified`) and both
counts to be non-negative ints.  The runner needs only the
standard library and :mod:`repro`.

**E12 (pytest-benchmark suite).**  The decision path of the library is
float-free by design (Section 3.2's systems are decided exactly).  The
benchmark tests below measure what that exactness costs by comparing,
on the paper's own systems: the exact kernel, Fourier–Motzkin
elimination (exact, strictness-native, exponential), and scipy's HiGHS
``linprog`` (floating point; oracle only).  All engines must agree on
feasibility; the timings quantify the gap.  Run with ``pytest
benchmarks/bench_solver.py --benchmark-only`` (needs the ``dev``
extras).
"""

from __future__ import annotations

import random
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
from repro.cr.schema import CRSchema
from repro.cr.system import CRSystem, build_system
from repro.paper import figure1_schema, meeting_schema, refined_meeting_schema
from repro.runtime.budget import Budget, activate
from repro.solver.certificates import support_is_certified
from repro.solver.core import InternedSystem, interned_maximal_support, solve_interned

try:  # the pytest-benchmark suite below needs the dev extras;
    import pytest  # the standalone E14 runner must work without them.
except ImportError:  # pragma: no cover - CI bench-smoke has no pytest
    pytest = None  # type: ignore[assignment]

FIGURE_REPEATS = 5
"""Best-of-N repeats for the (microsecond-scale) figure schemas."""


# ---------------------------------------------------------------------------
# E14: the sparse kernel's certified maximal supports
# ---------------------------------------------------------------------------


def random_schema(classes: int, relationships: int, seed: int) -> CRSchema:
    """A deterministic pseudo-random CR-schema.

    A sparse ISA forest (edge probability 0.6 keeps the consistent
    expansion growing but tractable) plus binary relationships between
    random classes with random min/max cardinalities.  The same
    ``(classes, relationships, seed)`` always yields the same schema,
    so report entries are comparable across runs and machines.
    """
    rng = random.Random(seed)
    builder = SchemaBuilder(f"Random{classes}x{relationships}")
    names = [f"K{i}" for i in range(classes)]
    for name in names:
        builder.cls(name)
    for i in range(1, classes):
        if rng.random() < 0.6:
            builder.isa(names[i], names[rng.randrange(i)])
    for j in range(relationships):
        first, second = rng.sample(names, 2)
        builder.relationship(f"R{j}", **{f"V{j}a": first, f"V{j}b": second})
        builder.card(
            first, f"R{j}", f"V{j}a", minc=rng.choice([0, 1, 1, 2])
        )
        builder.card(
            second,
            f"R{j}",
            f"V{j}b",
            minc=rng.choice([0, 1]),
            maxc=rng.choice([2, 3]),
        )
    return builder.build()


def _support_workload(
    label: str, family: str, schema: CRSchema, repeats: int = 1
) -> dict:
    """Time one maximal-support LP on the kernel, then certify it.

    The system is built once outside the timed region (system
    generation is shared infrastructure, not under test), and the probe
    set is the class unknowns — exactly what the satisfiability
    fixpoint probes.  ``repeats`` takes the best of N to stabilise
    microsecond-scale figure workloads; each repeat runs under a fresh
    ambient budget, which counts its LP calls and pivots.  Certification
    runs after the timing, on the string-keyed form of the system.
    """
    cr_system: CRSystem = build_system(Expansion(schema), mode="pruned")
    candidates = list(cr_system.class_var.values())

    best = float("inf")
    for _ in range(repeats):
        budget = Budget()
        start = time.perf_counter()
        with activate(budget):
            support, solution = interned_maximal_support(
                cr_system.interned, candidates
            )
        best = min(best, time.perf_counter() - start)

    return {
        "workload": label,
        "family": family,
        "schema": schema.name,
        "unknowns": cr_system.interned.num_variables,
        "rows": len(cr_system.interned),
        "nonzeros": cr_system.interned.nonzeros(),
        "sparse_s": best,
        "lp_calls": budget.solver_calls,
        "pivots": budget.pivots,
        "support_size": len(support),
        "certified": support_is_certified(
            cr_system.system, candidates, support, solution
        ),
    }


def workloads(quick: bool) -> list[tuple[str, str, CRSchema, int]]:
    """(label, family, schema, repeats) rows of the E14 runner."""
    entries: list[tuple[str, str, CRSchema, int]] = [
        ("figure1", "figure", figure1_schema(), FIGURE_REPEATS),
        ("figures3-5:meeting", "figure", meeting_schema(), FIGURE_REPEATS),
        (
            "figure6:refined-meeting",
            "figure",
            refined_meeting_schema(),
            FIGURE_REPEATS,
        ),
    ]
    sizes = (4, 5, 6) if quick else (4, 5, 6, 7)
    entries.extend(
        (
            f"random:{k}classes",
            "random",
            random_schema(k, relationships=2, seed=7),
            1,
        )
        for k in sizes
    )
    return entries


def run_benchmarks(quick: bool = False) -> dict:
    entries = [
        _support_workload(label, family, schema, repeats)
        for label, family, schema, repeats in workloads(quick)
    ]
    random_entries = [
        entry for entry in entries if entry["family"] == "random"
    ]
    largest = max(random_entries, key=lambda entry: entry["unknowns"])
    return {
        "benchmark": "solver",
        "version": 3,
        "quick": quick,
        "entries": entries,
        "summary": {
            "workloads": len(entries),
            "certified": sum(entry["certified"] for entry in entries),
            "largest_random_workload": largest["workload"],
            "largest_random_unknowns": largest["unknowns"],
            "largest_random_sparse_s": largest["sparse_s"],
        },
    }


_ENTRY_KEYS = {
    "workload": str,
    "family": str,
    "schema": str,
    "unknowns": int,
    "rows": int,
    "nonzeros": int,
    "sparse_s": float,
    "lp_calls": int,
    "pivots": int,
    "support_size": int,
    "certified": bool,
}


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` unless ``report`` is a well-formed
    BENCH_solver.json payload whose every support is certified and
    whose counts are non-negative; returns the report for chaining."""
    entries = check_report_shape(report, "solver")
    for entry in entries:
        check_entry_fields(entry, _ENTRY_KEYS)
        for key in ("lp_calls", "pivots"):
            if entry[key] < 0:
                raise ValueError(
                    f"entry {entry['workload']!r}: {key} must be >= 0"
                )
        if not entry["certified"]:
            raise ValueError(
                f"entry {entry['workload']!r}: the maximal support failed "
                "certification"
            )
    families = {entry["family"] for entry in entries}
    if families != {"figure", "random"}:
        raise ValueError(f"expected figure+random families, got {families}")
    summary = check_summary(report)
    if summary.get("certified") != len(entries):
        raise ValueError("summary.certified must count every entry")
    if not isinstance(summary.get("largest_random_sparse_s"), float):
        raise ValueError("summary.largest_random_sparse_s must be a float")
    return report


def _summary_line(report: dict, output: str) -> str:
    summary = report["summary"]
    return (
        f"-> {output}: {summary['workloads']} workloads, "
        f"{summary['certified']} certified, largest random "
        f"({summary['largest_random_workload']}, "
        f"{summary['largest_random_unknowns']} unknowns) "
        f"{summary['largest_random_sparse_s']*1e3:.1f} ms"
    )


def main(argv: list[str] | None = None) -> int:
    return run_emit_main(
        argv,
        description=(
            "certified maximal supports on the exact LP kernel; emits "
            "BENCH_solver.json"
        ),
        default_output="BENCH_solver.json",
        quick_help="smaller random sizes (CI)",
        run=lambda args: run_benchmarks(quick=args.quick),
        validate=validate_report,
        entry_line=lambda entry: (
            f"{entry['workload']:<24} {entry['unknowns']:>5} unknowns"
            f"  sparse {entry['sparse_s']*1e3:8.2f} ms"
            f"  {entry['lp_calls']} LP {entry['pivots']:>5} pivots"
            f"  support {entry['support_size']:>4}"
            f"  certified {entry['certified']}"
        ),
        summary_line=_summary_line,
    )


# ---------------------------------------------------------------------------
# E12: pytest-benchmark suite (exact engines vs scipy float oracle)
# ---------------------------------------------------------------------------

if pytest is not None:
    from repro.ext.disjointness import with_disjointness
    from repro.solver.fourier_motzkin import fm_feasible
    from repro.solver.linear import Constraint, LinearSystem, Relation, term

    def kernel_feasible(system: LinearSystem) -> bool:
        """Feasibility on the exact kernel (interned at the boundary)."""
        return solve_interned(InternedSystem.from_linear(system)).is_feasible

    def _positivity_system(schema, cls) -> LinearSystem:
        """Psi_S plus the Theorem-3.3 positivity row, with > sharpened to
        >= 1 (sound for homogeneous systems by cone scaling)."""
        cr_system = build_system(Expansion(schema), mode="pruned")
        positivity = Constraint(
            cr_system.class_population_expr(cls) - 1, Relation.GE
        )
        return cr_system.system.with_constraints([positivity])

    def scipy_feasible(system: LinearSystem) -> bool:
        np = pytest.importorskip("numpy")
        linprog = pytest.importorskip("scipy.optimize").linprog
        variables = list(system.variables)
        index = {name: i for i, name in enumerate(variables)}
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for constraint in system.constraints:
            row = [0.0] * len(variables)
            for name, coeff in constraint.expr.coefficients.items():
                row[index[name]] = float(coeff)
            rhs = -float(constraint.expr.constant_term)
            if constraint.relation is Relation.LE:
                a_ub.append(row)
                b_ub.append(rhs)
            elif constraint.relation is Relation.GE:
                a_ub.append([-v for v in row])
                b_ub.append(-rhs)
            else:
                a_eq.append(row)
                b_eq.append(rhs)
        result = linprog(
            c=np.zeros(len(variables)),
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(0, None)] * len(variables),
            method="highs",
        )
        return bool(result.success)

    CASES = [
        ("meeting/sat", meeting_schema, "Speaker", True),
        ("refined/unsat", refined_meeting_schema, "Speaker", False),
    ]

    @pytest.mark.parametrize("name,schema_factory,cls,expected", CASES)
    def test_exact_simplex(benchmark, name, schema_factory, cls, expected):
        from benchmarks.conftest import paper_row

        system = _positivity_system(schema_factory(), cls)
        verdict = benchmark(kernel_feasible, system)
        assert verdict == expected
        paper_row(
            "E12/simplex",
            f"{name} feasibility",
            f"exact simplex says {verdict}",
        )

    FM_CASES = [
        # Fourier-Motzkin is doubly exponential in the eliminated
        # variables: on the full 23-unknown meeting system it does not
        # terminate in reasonable time (that blow-up IS the measurement
        # — see EXPERIMENTS.md E12), so the FM rows use the small
        # systems: the Figure-1 schema and the disjointness-pruned
        # meeting schema of E9.
        ("figure1/unsat", lambda: figure1_schema(), "D", False),
        ("figure1-ratio1/sat", lambda: figure1_schema(1), "D", True),
        (
            "pruned-meeting/sat",
            lambda: with_disjointness(meeting_schema(), ("Speaker", "Talk")),
            "Speaker",
            True,
        ),
    ]

    @pytest.mark.parametrize("name,schema_factory,cls,expected", FM_CASES)
    def test_fourier_motzkin(benchmark, name, schema_factory, cls, expected):
        from benchmarks.conftest import paper_row

        system = _positivity_system(schema_factory(), cls)
        verdict = benchmark(
            lambda: fm_feasible(system, max_constraints=2_000_000)
        )
        assert verdict == expected
        paper_row(
            "E12/fourier-motzkin",
            f"{name} feasibility (small systems only; FM blows up beyond)",
            f"FM agrees: {verdict}",
        )

    @pytest.mark.parametrize("name,schema_factory,cls,expected", FM_CASES)
    def test_exact_simplex_on_fm_cases(
        benchmark, name, schema_factory, cls, expected
    ):
        """The same small systems through the simplex, for a direct ratio."""
        system = _positivity_system(schema_factory(), cls)
        verdict = benchmark(kernel_feasible, system)
        assert verdict == expected

    @pytest.mark.parametrize("name,schema_factory,cls,expected", CASES)
    def test_scipy_float_lp(benchmark, name, schema_factory, cls, expected):
        from benchmarks.conftest import paper_row

        system = _positivity_system(schema_factory(), cls)
        verdict = benchmark(scipy_feasible, system)
        assert verdict == expected
        paper_row(
            "E12/scipy",
            f"{name} feasibility (float oracle)",
            f"HiGHS agrees: {verdict}",
        )

    def test_exactness_guard(benchmark):
        """A case where float tolerance would be dangerous: a cone that is
        infeasible only by an exact rational margin."""
        x, y = term("x"), term("y")
        big = 10**14
        system = LinearSystem([big * x <= (big - 1) * y, y <= x, x >= 1])
        verdict = benchmark(kernel_feasible, system)
        assert not verdict
        assert not fm_feasible(system)

    def test_solver_report_is_wellformed(benchmark):
        """The E14 runner's artifact passes its own acceptance gate."""
        report = benchmark.pedantic(
            run_benchmarks, kwargs={"quick": True}, rounds=1, iterations=1
        )
        validate_report(report)


if __name__ == "__main__":
    sys.exit(main())
