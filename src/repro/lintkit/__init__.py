"""repro.lintkit — dataflow-aware static analysis of the repo itself.

The package turns the repo's hand-enforced contracts (exact rational
arithmetic, budget-governed termination, deterministic fan-out,
crash-safe persistence, lock-disciplined serving) into machine-checked
rules over a shared analysis core:

* :mod:`repro.lintkit.model` — per-module AST models (scopes, call
  sites, writes, lock regions, unbounded loops);
* :mod:`repro.lintkit.loader` — project discovery, order-independent;
* :mod:`repro.lintkit.callgraph` — call graph + worklist-fixpoint
  function summaries and deterministic witness chains;
* :mod:`repro.lintkit.rules` — the rule registry (R1–R12);
* :mod:`repro.lintkit.astrules` / :mod:`repro.lintkit.dataflow` — the
  single-module pattern rules and the dataflow detectors;
* :mod:`repro.lintkit.baseline` / :mod:`repro.lintkit.runner` — the
  "no new findings" gate behind ``repro lint --repo``.
"""

from repro.lintkit.baseline import Baseline, Suppression
from repro.lintkit.findings import Finding, sort_findings
from repro.lintkit.loader import (
    Project,
    default_src_root,
    iter_project_files,
    load_project,
)
from repro.lintkit.rules import RULES, all_rule_ids, run_rules
from repro.lintkit.runner import (
    RepoLintReport,
    default_baseline_path,
    lint_repo,
)

__all__ = [
    "Baseline",
    "Finding",
    "Project",
    "RULES",
    "RepoLintReport",
    "Suppression",
    "all_rule_ids",
    "default_baseline_path",
    "default_src_root",
    "iter_project_files",
    "lint_repo",
    "load_project",
    "run_rules",
    "sort_findings",
]
