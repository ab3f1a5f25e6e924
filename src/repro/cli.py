"""Command-line interface: ``python -m repro <command> schema.cr ...``.

Brings the reasoner to the shell for schemas written in the DSL
(:mod:`repro.dsl`):

========  =============================================================
check     per-class finite satisfiability (optionally one class,
          optionally also the unrestricted verdict); runs the static
          analyzer first and serves statically-settled verdicts
          without expanding
lint      the polynomial-time static analyzer alone: structured
          diagnostics (errors / warnings / infos) with machine-checked
          witnesses, ``--json`` for tooling, ``--strict`` to fail on
          warnings; ``--repo`` turns the lens inward and runs the
          :mod:`repro.lintkit` rules (R1–R3, R6–R11) over the repo's
          own source against the checked-in baseline
          (``tools/lint_baseline.json``)
implies   decide ``S ⊨ K`` for a statement like ``"A isa B"`` or
          ``"maxc(Speaker, Holds, U1) = 1"``
batch     answer many queries (``sat <Class>`` lines and implication
          statements) from ONE cached reasoning session, so the
          exponential expansion is built once per constraint-graph
          component for the whole batch; ``--cache-dir`` (or
          ``REPRO_CACHE_DIR``) adds the crash-safe persistent artifact
          store so later runs start warm
diff      component-level delta between two schemas: report which
          constraint-graph islands changed, reuse warm artifacts for
          the untouched ones (``--cache-dir``), and answer queries
          against the new schema recomputing only the delta
cache     maintenance surface of the persistent store: ``stats``,
          ``verify`` (checksum every entry, quarantining damage),
          ``clear``, ``quarantine list``; ``--json`` for tooling
model     construct and print a witness database state for a class
explain   print the verified infeasibility proof for an unsat class
debug     print a minimal unsatisfiable constraint set for a class
render    print the schema / expansion / disequation system in the
          paper's figure notation
fmt       parse and re-serialise the schema (canonical formatting)
========  =============================================================

Every command exits 0 on a "positive" outcome (satisfiable / implied /
model built), 1 on the negative outcome, 2 on usage or input errors,
and 3 on **resource exhaustion** — a ``--timeout`` / ``--max-expansion``
/ ``--max-lp`` budget ran out, or a static ``ExpansionLimits`` guard
fired — so the CLI composes with shell scripts and callers can retry
with a larger budget (exit 3) without misreading the answer as a
negative verdict (exit 1) or a broken invocation (exit 2).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from collections.abc import Callable
from contextlib import ExitStack
from pathlib import Path
from typing import Any

from repro.analysis import analyze
from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.construction import construct_model_for_result
from repro.cr.explain import explain_unsatisfiability
from repro.cr.implication import implies
from repro.cr.satisfiability import is_class_satisfiable, satisfiable_classes
from repro.cr.schema import CRSchema
from repro.cr.system import build_system
from repro.cr.unrestricted import unrestricted_satisfiable_classes
from repro.dsl import parse_schema, serialize_schema
from repro.errors import BudgetExceededError, LimitExceededError, ReproError
from repro.pipeline import STAGE_NORMALIZE, PipelineRun, activate_run, stage
from repro.runtime.budget import Budget, activate
from repro.solver.registry import ENGINES, active_backend_name, pin_backend
from repro.runtime.outcome import ImplicationVerdict, Verdict
from repro.ext.debugging import (
    minimal_unsatisfiable_constraints,
    quickxplain_unsatisfiable_constraints,
)
from repro.render import (
    render_expansion,
    render_interpretation,
    render_schema,
    render_system,
)

_STATEMENT_PATTERNS = [
    (
        re.compile(r"\s*(\w+)\s+isa\s+(\w+)\s*$"),
        lambda m: IsaStatement(m.group(1), m.group(2)),
    ),
    (
        re.compile(r"\s*minc\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\w+)\s*\)\s*=\s*(\d+)\s*$"),
        lambda m: MinCardinalityStatement(
            m.group(1), m.group(2), m.group(3), int(m.group(4))
        ),
    ),
    (
        re.compile(r"\s*maxc\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\w+)\s*\)\s*=\s*(\d+)\s*$"),
        lambda m: MaxCardinalityStatement(
            m.group(1), m.group(2), m.group(3), int(m.group(4))
        ),
    ),
    (
        re.compile(r"\s*disjoint\(\s*(\w+(?:\s*,\s*\w+)+)\s*\)\s*$"),
        lambda m: DisjointnessStatement(
            frozenset(part.strip() for part in m.group(1).split(","))
        ),
    ),
]


def parse_statement(text: str):
    """Parse a query statement in the Figure-7 surface syntax."""
    for pattern, build in _STATEMENT_PATTERNS:
        match = pattern.match(text)
        if match:
            return build(match)
    raise ReproError(
        f"cannot parse statement {text!r}; expected one of: "
        "'A isa B', 'minc(C, R, U) = n', 'maxc(C, R, U) = n', "
        "'disjoint(A, B, ...)'"
    )


def _load_schema(path: str) -> CRSchema:
    with stage(STAGE_NORMALIZE):
        return parse_schema(Path(path).read_text())


def _budget_from(args: argparse.Namespace) -> Budget | None:
    """A :class:`Budget` from the resource flags, or ``None`` if unset."""
    timeout = getattr(args, "timeout", None)
    max_expansion = getattr(args, "max_expansion", None)
    max_lp = getattr(args, "max_lp", None)
    if timeout is None and max_expansion is None and max_lp is None:
        return None
    return Budget(
        timeout=timeout,
        max_expansion_nodes=max_expansion,
        max_solver_calls=max_lp,
    )


def _verdict_word(value) -> str:
    """Render a satisfiability verdict (bool or Verdict) for output."""
    if value is Verdict.UNKNOWN:
        return "UNKNOWN"
    return "satisfiable" if value else "UNSATISFIABLE"


# -- subcommand implementations (return process exit codes) ---------------


def _cmd_check(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    budget = _budget_from(args)
    if args.cls:
        result = is_class_satisfiable(
            schema, args.cls, budget=budget, precheck=True
        )
        if result.verdict is Verdict.UNKNOWN:
            print(f"{args.cls}: UNKNOWN ({result.unknown_reason})")
            return 3
        verdict = "satisfiable" if result.satisfiable else "UNSATISFIABLE"
        print(f"{args.cls}: {verdict} (finite models)")
        if result.diagnostic is not None:
            print(f"  {result.diagnostic.pretty()}")
        return 0 if result.satisfiable else 1
    verdicts = satisfiable_classes(schema, budget=budget, precheck=True)
    unrestricted = (
        unrestricted_satisfiable_classes(schema) if args.unrestricted else None
    )
    for cls, satisfiable in verdicts.items():
        line = f"{cls}: {_verdict_word(satisfiable)}"
        if unrestricted is not None:
            line += (
                "  [unrestricted: "
                f"{'satisfiable' if unrestricted[cls] else 'unsatisfiable'}]"
            )
        print(line)
    if any(value is Verdict.UNKNOWN for value in verdicts.values()):
        return 3
    return 0 if all(verdicts.values()) else 1


# The one authoritative statement of ``repro lint``'s exit semantics.
# It appears verbatim in ``repro lint --help`` and in the README's
# "Static schema analysis" section; ``tests/test_lint_cli.py`` pins
# all three surfaces (epilog text, README text, actual exit codes)
# against each other so they cannot drift again.
LINT_EXIT_CODES = """\
exit codes:
  0 = clean (no errors; with --repo, no non-baselined finding)
  1 = findings (errors, or warnings under --strict; with --repo, new
      findings, or stale suppressions under --strict)
  2 = unreadable or invalid input (missing file, parse error, bad
      baseline)"""


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer alone and report its diagnostics.

    Exit codes (pinned by ``tests/test_lint_cli.py`` against the
    ``--help`` epilog and the README): 0 when the report has no error
    (and, under ``--strict``, no warning), 1 when it does, 2 for
    unreadable or unparsable input (via :func:`main`'s error mapping).
    Infos never affect the exit code.  With ``--repo`` the subject is
    the repo's own source instead of a schema: 0 means no
    non-baselined finding, 1 means new findings (or stale baseline
    suppressions under ``--strict``), 2 means an unreadable or invalid
    baseline.
    """
    if args.repo:
        return _cmd_lint_repo(args)
    if args.schema is None:
        raise ReproError(
            "lint needs a schema file (or --repo to lint the repo's "
            "own source)"
        )
    schema = _load_schema(args.schema)
    report = analyze(schema)
    assert report.verify(schema), "analysis witness failed verification"
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.pretty())
    failing = bool(report.errors) or (args.strict and bool(report.warnings))
    return 1 if failing else 0


def _cmd_lint_repo(args: argparse.Namespace) -> int:
    """``repro lint --repo``: run the lintkit rules over this repo's
    own source and gate against the checked-in baseline."""
    from repro.lintkit import default_baseline_path, lint_repo

    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else default_baseline_path()
    )
    report = lint_repo(baseline_path=baseline_path)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        for line in report.render_human():
            print(line)
    failing = bool(report.new_findings) or (
        args.strict and bool(report.stale_suppressions)
    )
    return 1 if failing else 0


def parse_batch_query(text: str):
    """One batch line: ``sat <Class>`` or a Figure-7 statement.

    Public because the serve daemon parses its request queries through
    this exact function — the surface syntax accepted over HTTP is the
    batch file syntax, by construction.
    """
    stripped = text.strip()
    sat_match = re.match(r"sat\s+(\w+)\s*$", stripped)
    if sat_match:
        return ("sat", sat_match.group(1))
    return ("implies", parse_statement(stripped))


def answer_query(
    session: Any, kind: str, query: Any
) -> tuple[dict[str, Any], str, bool, bool]:
    """Answer one batch query: ``(record, text, positive, unknown)``.

    The single formatting path for batch output, called by
    :func:`answer_all`.
    """
    if kind == "sat":
        result = session.is_class_satisfiable(query)
        verdict = result.verdict
        positive = bool(result.satisfiable)
        unknown = verdict is Verdict.UNKNOWN
        word = (
            "UNKNOWN"
            if unknown
            else ("satisfiable" if positive else "UNSATISFIABLE")
        )
        record = {
            "query": f"sat {query}",
            "verdict": verdict.value,
            "unknown_reason": result.unknown_reason,
        }
        return record, f"sat {query}: {word}", positive, unknown
    result = session.implies(query)
    positive = bool(result.implied)
    unknown = result.verdict is ImplicationVerdict.UNKNOWN
    record = {
        "query": query.pretty(),
        "verdict": result.verdict.value,
        "unknown_reason": result.unknown_reason,
    }
    return record, result.pretty(), positive, unknown


def answer_all(
    session: Any,
    queries: list[tuple[str, Any]],
    echo: Callable[[str], object] | None = None,
) -> tuple[list[dict[str, Any]], int]:
    """Answer ``queries`` in order: ``(records, exit_code)``.

    The one batch loop: ``batch``, ``diff`` and the serve daemon all run
    it, so a served record is the ``batch --json`` record by
    construction.  ``echo`` receives each answer's text line as soon as
    it is answered, so CLI output streams.  The exit code is 3 if any
    answer is UNKNOWN, else 0 if every answer is positive (vacuously so
    for no queries), else 1.
    """
    records = []
    any_unknown = False
    all_positive = True
    for kind, query in queries:
        record, text, positive, unknown = answer_query(session, kind, query)
        records.append(record)
        any_unknown = any_unknown or unknown
        all_positive = all_positive and positive
        if echo is not None:
            echo(text)
    return records, 3 if any_unknown else (0 if all_positive else 1)


def _collect_queries(args: argparse.Namespace) -> list:
    """Queries from ``--query`` flags plus the query file (``-`` = stdin).

    May be empty — ``batch`` rejects that, ``diff`` treats it as a
    report-only run.
    """
    lines: list[str] = list(args.query or [])
    if args.queries is not None:
        source = (
            sys.stdin.read()
            if args.queries == "-"
            else Path(args.queries).read_text()
        )
        lines.extend(source.splitlines())
    queries = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        queries.append(parse_batch_query(stripped))
    return queries


def _read_batch_queries(args: argparse.Namespace) -> list:
    queries = _collect_queries(args)
    if not queries:
        raise ReproError(
            "batch needs at least one query (lines of 'sat <Class>', "
            "'A isa B', 'minc(C, R, U) = n', 'maxc(C, R, U) = n', or "
            "'disjoint(A, B, ...)')"
        )
    return queries


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.session import ReasoningSession, SessionCache
    from repro.store import resolve_cache_dir

    cache_dir = resolve_cache_dir(
        getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    )
    run = PipelineRun()
    wall_start = time.perf_counter()
    with activate_run(run):
        schema = _load_schema(args.schema)
        queries = _read_batch_queries(args)
        budget = _budget_from(args)
        cache = None
        if cache_dir is not None:
            from repro.store import ArtifactStore

            cache = SessionCache(store=ArtifactStore(cache_dir))
        session = ReasoningSession(schema, cache=cache, budget=budget)
        records, exit_code = answer_all(
            session, queries, None if args.json else print
        )
        stats_dict = session.stats.as_dict()
    _print_report(
        args,
        {"schema": schema.name, "fingerprint": session.fingerprint},
        records,
        stats_dict,
        run,
        time.perf_counter() - wall_start,
        cache_dir,
    )
    return exit_code


def _print_report(
    args: argparse.Namespace,
    head: dict[str, Any],
    records: list[dict[str, Any]],
    stats_dict: dict[str, int],
    run: PipelineRun,
    wall_seconds: float,
    cache_dir: str | None,
) -> None:
    """The tail shared by ``batch`` and ``diff``: with ``--json`` the
    report document (``head``'s keys first), with ``--stats`` the
    footer, otherwise nothing."""
    if args.json:
        import json

        report = {
            **head,
            "results": records,
            "stats": stats_dict,
            "stages": run.as_dict(),
            "wall_seconds": wall_seconds,
        }
        print(json.dumps(report, indent=2))
        return
    if not args.stats:
        return
    print(
        f"# session: {stats_dict.get('queries', 0)} queries, "
        f"{stats_dict.get('expansion_builds', 0)} expansion build(s), "
        f"{stats_dict.get('fixpoint_runs', 0)} fixpoint run(s), "
        f"{stats_dict.get('hits', 0)} cache hit(s)"
    )
    print(
        f"# analyze: {stats_dict.get('analysis_runs', 0)} run(s), "
        f"{stats_dict.get('analysis_short_circuits', 0)} short-circuit(s)"
    )
    print(
        f"# components: {stats_dict.get('components_total', 0)} total, "
        f"{stats_dict.get('components_reused', 0)} reused, "
        f"{stats_dict.get('components_rebuilt', 0)} rebuilt"
    )
    print(
        f"# pruning: {stats_dict.get('zero_sets_enumerated', 0)} "
        "zero-set(s) enumerated, "
        f"{stats_dict.get('pruned_by_orbit', 0)} orbit-pruned, "
        f"{stats_dict.get('pruned_by_nogood', 0)} nogood-pruned, "
        f"{stats_dict.get('orbits_found', 0)} orbit(s)"
    )
    if cache_dir is not None:
        print(
            f"# store: {stats_dict.get('store_hits', 0)} hit(s), "
            f"{stats_dict.get('store_misses', 0)} miss(es), "
            f"{stats_dict.get('store_writes', 0)} write(s), "
            f"{stats_dict.get('store_write_failures', 0)} "
            "write failure(s)"
        )
    for name, timing in run.as_dict().items():
        print(
            f"# stage {name}: {timing['runs']} run(s), "
            f"{timing['seconds'] * 1000.0:.1f}ms"
        )
    print(f"# wall-clock: {wall_seconds * 1000.0:.1f}ms")


def _cmd_diff(args: argparse.Namespace) -> int:
    """Component-level delta between two schemas (``repro diff OLD NEW``).

    Reports which constraint-graph islands changed between the two
    schemas, classifies the new schema's components against the session
    cache and persistent store (warm → ``components_reused``, cold →
    ``components_rebuilt``), and answers any queries against the *new*
    schema — with a warm ``--cache-dir``, only the changed islands'
    artifacts are recomputed.  Without queries the run is report-only
    and exits 0; with queries the exit semantics match ``batch``.
    """
    from repro.components import compute_delta, decompose_schema
    from repro.pipeline import STAGE_DECOMPOSE
    from repro.store import resolve_cache_dir

    cache_dir = resolve_cache_dir(
        getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    )
    run = PipelineRun()
    wall_start = time.perf_counter()
    with activate_run(run):
        old_schema = _load_schema(args.old_schema)
        new_schema = _load_schema(args.new_schema)
        queries = _collect_queries(args)
        budget = _budget_from(args)
        from repro.session import ReasoningSession, SessionCache

        cache = None
        if cache_dir is not None:
            from repro.store import ArtifactStore

            cache = SessionCache(store=ArtifactStore(cache_dir))
        with stage(STAGE_DECOMPOSE):
            old_decomposition = decompose_schema(old_schema)
        session = ReasoningSession(new_schema, cache=cache, budget=budget)
        delta = compute_delta(old_decomposition, session.decomposition)
        session.classify_all()
        delta_dict = delta.as_dict()
        if not args.json:
            print(
                f"# diff {old_schema.name} -> {new_schema.name}: "
                f"{delta_dict['old_total']} old component(s), "
                f"{delta_dict['new_total']} new, "
                f"{len(delta.unchanged)} unchanged, "
                f"{len(delta.changed)} changed, "
                f"{len(delta.removed)} removed"
            )
            for label, components in (
                ("unchanged", delta.unchanged),
                ("changed", delta.changed),
                ("removed", delta.removed),
            ):
                for component in components:
                    classes = ", ".join(sorted(component.classes))
                    print(
                        f"# {label} {component.fingerprint[:12]} "
                        f"[{classes}]"
                    )
        records, exit_code = answer_all(
            session, queries, None if args.json else print
        )
        stats_dict = session.stats.as_dict()
    _print_report(
        args,
        {
            "old_schema": old_schema.name,
            "new_schema": new_schema.name,
            "old_fingerprint": old_decomposition.whole_fingerprint,
            "new_fingerprint": session.fingerprint,
            "components": delta_dict,
        },
        records,
        stats_dict,
        run,
        time.perf_counter() - wall_start,
        cache_dir,
    )
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio reasoning daemon until SIGTERM/SIGINT drains it.

    The import is lazy in both directions: this module never imports
    :mod:`repro.serve` at the top level, and the serve package imports
    this module's parsers — so the daemon speaks exactly the CLI's
    surface syntax without an import cycle.
    """
    from repro.serve import ReasoningServer, ServeConfig
    from repro.store import resolve_cache_dir

    cache_dir = resolve_cache_dir(
        getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=cache_dir,
        memory_entries=args.memory_entries,
        max_inflight=args.max_inflight,
        workers=args.workers,
        request_timeout=args.request_timeout,
        backend=getattr(args, "backend", None),
        log_json=args.log_json,
        ready_file=args.ready_file,
    )
    return ReasoningServer(config).run()


def _require_store(args: argparse.Namespace):
    """The store the ``cache`` subcommand operates on (flag or env)."""
    from repro.store import ArtifactStore, ENV_CACHE_DIR, resolve_cache_dir

    cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None))
    if cache_dir is None:
        raise ReproError(
            f"no cache directory: pass --cache-dir or set {ENV_CACHE_DIR}"
        )
    return ArtifactStore(cache_dir)


def _cmd_cache(args: argparse.Namespace) -> int:
    """Maintenance surface of the persistent artifact store.

    ``stats`` and ``quarantine list`` report and exit 0; ``verify``
    exits 0 when every entry validates and 1 when any was damaged (the
    damage is quarantined, so a follow-up run is clean); ``clear``
    removes entries (and locks) and exits 0.
    """
    import json

    store = _require_store(args)
    if args.cache_command == "stats":
        summary = store.summary()
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(f"store: {summary['root']}")
            print(
                f"  format v{summary['format_version']}, "
                f"artifacts v{summary['artifact_version']}"
            )
            print(
                f"  {summary['entries']} entr(ies), {summary['bytes']} bytes, "
                f"{summary['quarantined']} quarantined"
            )
        return 0
    if args.cache_command == "verify":
        outcome = store.verify()
        if args.json:
            print(
                json.dumps(
                    {
                        "checked": outcome.checked,
                        "valid": outcome.valid,
                        "quarantined": outcome.quarantined,
                    },
                    indent=2,
                )
            )
        else:
            print(
                f"verified {outcome.checked} entr(ies): {outcome.valid} valid, "
                f"{len(outcome.quarantined)} quarantined"
            )
            for item in outcome.quarantined:
                print(
                    f"  quarantined {item['fingerprint']}.{item['kind']} "
                    f"({item['reason']})"
                )
        return 0 if outcome.clean else 1
    if args.cache_command == "clear":
        removed = store.clear(include_quarantine=args.include_quarantine)
        if args.json:
            print(json.dumps({"removed": removed}, indent=2))
        else:
            print(f"removed {removed} entr(ies)")
        return 0
    assert args.cache_command == "quarantine"
    infos = store.quarantined()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": info.name,
                        "reason": info.reason,
                        "bytes": info.size,
                    }
                    for info in infos
                ],
                indent=2,
            )
        )
    else:
        if not infos:
            print("quarantine is empty")
        for info in infos:
            print(f"{info.name}  ({info.reason}, {info.size} bytes)")
    return 0


def _cmd_implies(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    statement = parse_statement(args.statement)
    result = implies(schema, statement, budget=_budget_from(args))
    print(result.pretty())
    if result.verdict is ImplicationVerdict.UNKNOWN:
        return 3
    if not result.implied and args.countermodel:
        print(render_interpretation(result.countermodel))
    return 0 if result.implied else 1


def _cmd_model(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    result = is_class_satisfiable(schema, args.cls)
    if not result.satisfiable:
        print(f"{args.cls} is unsatisfiable; no model exists")
        return 1
    model = construct_model_for_result(result)
    print(render_interpretation(model))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    explanation = explain_unsatisfiability(schema, args.cls)
    assert explanation.verify()
    print(explanation.pretty())
    if getattr(args, "nogoods", False):
        print()
        print(_explain_nogoods(schema, args.cls))
    return 0


def _explain_nogoods(schema: CRSchema, cls: str) -> str:
    """The ``explain --nogoods`` appendix: re-run the class's
    Theorem-3.4 zero-set search with the pruned engine and render each
    learned Farkas nogood against its source system."""
    from repro.cr.expansion import Expansion
    from repro.cr.satisfiability import class_targets, decision_problem
    from repro.solver.pruned import (
        NogoodStore,
        pruned_zero_set_search,
        render_nogoods,
    )

    cr_system = build_system(Expansion(schema), mode="pruned")
    problem = decision_problem(cr_system, class_targets(cr_system, cls))
    store = NogoodStore()
    pruned_zero_set_search(problem, store=store)
    return (
        f"nogoods learned while deciding {cls!r} "
        f"(pruned zero-set search):\n{render_nogoods(problem, store)}"
    )


def _cmd_debug(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    extract = (
        quickxplain_unsatisfiable_constraints
        if args.algorithm == "quickxplain"
        else minimal_unsatisfiable_constraints
    )
    report = extract(schema, args.cls)
    print(report.pretty())
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    if args.what == "schema":
        print(render_schema(schema))
        return 0
    from repro.cr.expansion import Expansion

    expansion = Expansion(schema)
    if args.what == "expansion":
        print(render_expansion(expansion))
    else:
        print(render_system(build_system(expansion, mode=args.mode)))
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    text = serialize_schema(schema)
    if args.write:
        Path(args.schema).write_text(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reason about ISA + cardinality constraints "
        "(Calvanese & Lenzerini, ICDE'94).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_backend(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend",
            choices=ENGINES,
            default=None,
            help="pin the decision engine for this command "
            "(default: REPRO_BACKEND env var, else fixpoint)",
        )

    def add_budget(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget; exhaustion exits 3 instead of hanging",
        )
        sub.add_argument(
            "--max-expansion",
            type=int,
            default=None,
            metavar="NODES",
            help="cap on expansion nodes visited (the exponential step)",
        )
        sub.add_argument(
            "--max-lp",
            type=int,
            default=None,
            metavar="CALLS",
            help="cap on LP solver calls",
        )

    check = subparsers.add_parser("check", help="class satisfiability")
    check.add_argument("schema")
    check.add_argument("--class", dest="cls", default=None)
    check.add_argument(
        "--unrestricted",
        action="store_true",
        help="also report satisfiability over possibly-infinite models",
    )
    add_backend(check)
    add_budget(check)
    check.set_defaults(run=_cmd_check)

    lint = subparsers.add_parser(
        "lint",
        help="static schema diagnostics (no expansion, polynomial "
        "time); --repo lints the repo's own source instead",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=LINT_EXIT_CODES,
    )
    lint.add_argument(
        "schema",
        nargs="?",
        default=None,
        help="schema file to lint (omit with --repo)",
    )
    lint.add_argument(
        "--repo",
        action="store_true",
        help="lint the repo's own source with the lintkit rules "
        "(R1-R3, R6-R11) against the checked-in baseline instead of "
        "linting a schema",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline of accepted findings for --repo "
        "(default: tools/lint_baseline.json)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the diagnostic report as JSON",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 1) on schema warnings, or on stale baseline "
        "suppressions with --repo",
    )
    lint.set_defaults(run=_cmd_lint)

    batch = subparsers.add_parser(
        "batch",
        help="answer many queries from one cached reasoning session",
    )
    batch.add_argument("schema")
    batch.add_argument(
        "queries",
        nargs="?",
        default=None,
        help="file of queries, one per line ('-' for stdin); lines are "
        "'sat <Class>' or implication statements; '#' comments allowed",
    )
    batch.add_argument(
        "--query",
        action="append",
        metavar="QUERY",
        help="an inline query (repeatable, combined with the file)",
    )
    batch.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON report (results, fingerprint, session stats)",
    )
    batch.add_argument(
        "--stats",
        action="store_true",
        help="append session cache statistics and per-stage pipeline "
        "timings (normalize/expand/build-system/solve/verdict)",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent artifact store shared across runs "
        "(default: the REPRO_CACHE_DIR env var, else no "
        "persistence; output is byte-identical either way)",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and REPRO_CACHE_DIR for this run",
    )
    add_backend(batch)
    add_budget(batch)
    batch.set_defaults(run=_cmd_batch)

    diff = subparsers.add_parser(
        "diff",
        help="component-level schema delta; answer queries against the "
        "new schema reusing warm artifacts for unchanged islands",
    )
    diff.add_argument("old_schema")
    diff.add_argument("new_schema")
    diff.add_argument(
        "queries",
        nargs="?",
        default=None,
        help="optional file of queries against the NEW schema, one per "
        "line ('-' for stdin); same syntax as batch; omit for a "
        "report-only diff",
    )
    diff.add_argument(
        "--query",
        action="append",
        metavar="QUERY",
        help="an inline query (repeatable, combined with the file)",
    )
    diff.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON report (component delta, results, reuse "
        "counters, session stats)",
    )
    diff.add_argument(
        "--stats",
        action="store_true",
        help="append session cache statistics and per-stage pipeline "
        "timings (as in batch --stats)",
    )
    diff.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent artifact store to reuse unchanged components "
        "from (default: the REPRO_CACHE_DIR env var)",
    )
    diff.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and REPRO_CACHE_DIR for this run",
    )
    add_backend(diff)
    add_budget(diff)
    diff.set_defaults(run=_cmd_diff)

    serve = subparsers.add_parser(
        "serve",
        help="HTTP reasoning daemon over the shared session cache",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = kernel-assigned; the daemon "
        "announces the bound port on stderr and in --ready-file)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent artifact store backing the memory tier "
        "(default: the REPRO_CACHE_DIR env var, else memory-only)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and REPRO_CACHE_DIR; memory tier only",
    )
    serve.add_argument(
        "--memory-entries",
        type=int,
        default=64,
        metavar="N",
        help="memory-tier LRU capacity in schema entries (default: 64); "
        "evicted entries re-warm from the store on next touch",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="concurrent reasoning requests before answering 503 + "
        "Retry-After (default: 8)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="reasoning worker threads (default: --max-inflight)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request wall-clock budget; requests degrade "
        "to UNKNOWN records at the deadline (requests may override "
        "via their own budget caps)",
    )
    add_backend(serve)
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON access-log line per request on stderr",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write a JSON readiness file (base_url, port, pid) once "
        "the socket is bound",
    )
    serve.set_defaults(run=_cmd_serve)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain the persistent artifact store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="store root (default: the REPRO_CACHE_DIR env var)",
        )
        sub.add_argument(
            "--json", action="store_true", help="emit JSON for tooling"
        )
        sub.set_defaults(run=_cmd_cache)

    cache_stats = cache_sub.add_parser(
        "stats", help="on-disk entry/byte/quarantine counts"
    )
    add_cache_common(cache_stats)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="checksum every entry, quarantining damage (exit 1 if any)",
    )
    add_cache_common(cache_verify)
    cache_clear = cache_sub.add_parser(
        "clear", help="remove all entries (and stale locks)"
    )
    cache_clear.add_argument(
        "--include-quarantine",
        action="store_true",
        help="also empty the quarantine directory",
    )
    add_cache_common(cache_clear)
    cache_quarantine = cache_sub.add_parser(
        "quarantine", help="quarantine maintenance"
    )
    cache_quarantine.add_argument(
        "action", choices=["list"], help="what to do with the quarantine"
    )
    add_cache_common(cache_quarantine)

    imp = subparsers.add_parser("implies", help="decide S |= K")
    imp.add_argument("schema")
    imp.add_argument("statement")
    imp.add_argument(
        "--countermodel",
        action="store_true",
        help="print the counter-model when not implied",
    )
    add_backend(imp)
    add_budget(imp)
    imp.set_defaults(run=_cmd_implies)

    model = subparsers.add_parser("model", help="construct a witness state")
    model.add_argument("schema")
    model.add_argument("--class", dest="cls", required=True)
    add_backend(model)
    add_budget(model)
    model.set_defaults(run=_cmd_model)

    explain = subparsers.add_parser(
        "explain", help="verified proof of unsatisfiability"
    )
    explain.add_argument("schema")
    explain.add_argument("--class", dest="cls", required=True)
    explain.add_argument(
        "--nogoods",
        action="store_true",
        help="append the Farkas nogoods the pruned zero-set search "
        "learns while re-deciding the class",
    )
    add_backend(explain)
    add_budget(explain)
    explain.set_defaults(run=_cmd_explain)

    debug = subparsers.add_parser(
        "debug", help="minimal unsatisfiable constraint set"
    )
    debug.add_argument("schema")
    debug.add_argument("--class", dest="cls", required=True)
    debug.add_argument(
        "--algorithm",
        choices=["deletion", "quickxplain"],
        default="quickxplain",
    )
    add_backend(debug)
    add_budget(debug)
    debug.set_defaults(run=_cmd_debug)

    render = subparsers.add_parser(
        "render", help="print paper-style listings"
    )
    render.add_argument("schema")
    render.add_argument(
        "--what",
        choices=["schema", "expansion", "system"],
        default="schema",
    )
    render.add_argument(
        "--mode", choices=["pruned", "literal"], default="literal"
    )
    add_budget(render)
    render.set_defaults(run=_cmd_render)

    fmt = subparsers.add_parser("fmt", help="canonical formatting")
    fmt.add_argument("schema")
    fmt.add_argument("--write", action="store_true", help="rewrite in place")
    fmt.set_defaults(run=_cmd_fmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # ``check``/``implies`` thread the budget through explicit
        # ``budget=`` parameters (for degraded UNKNOWN verdicts); the
        # remaining commands are governed ambiently and surface
        # exhaustion as exit code 3 below.
        with ExitStack() as stack:
            if hasattr(args, "backend"):
                # Without --backend, pinning REPRO_BACKEND's engine
                # validates it before any work starts.
                stack.enter_context(
                    pin_backend(args.backend or active_backend_name())
                )
            stack.enter_context(activate(_budget_from(args)))
            return args.run(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BudgetExceededError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except LimitExceededError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
