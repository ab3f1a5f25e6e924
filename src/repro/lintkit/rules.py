"""Rule registry for the repo contract checker.

A :class:`Rule` couples a stable id (``R1`` … ``R11``) with the scope
it patrols and a check callable.  Two kinds exist:

* **module rules** (``check_module(module) -> findings``) — pure AST
  pattern rules; the registry applies the scope filter and exemptions
  before calling them.  R1, R3, R6 and R7 are module rules.
* **project rules** (``check_project(project) -> findings``) — the
  dataflow detectors that need the call graph; they receive the whole
  :class:`~repro.lintkit.loader.Project` and self-scope, because one
  rule may treat different packages differently.

:func:`run_rules` executes a rule subset over a project and returns
findings in canonical order.  Importing this module pulls in the rule
modules so the registry is always fully populated.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ReproError
from repro.lintkit.findings import Finding, sort_findings
from repro.lintkit.loader import Project
from repro.lintkit.model import ModuleModel

ModuleCheck = Callable[[ModuleModel], list[Finding]]
ProjectCheck = Callable[[Project], list[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered contract rule."""

    rule_id: str
    title: str
    contract: str
    scope: tuple[str, ...]
    exempt: tuple[str, ...] = ()
    check_module: ModuleCheck | None = None
    check_project: ProjectCheck | None = None

    def run(self, project: Project) -> list[Finding]:
        if self.check_project is not None:
            return self.check_project(project)
        assert self.check_module is not None
        findings: list[Finding] = []
        for module in project.modules_in_scope(self.scope, self.exempt):
            findings.extend(self.check_module(module))
        return findings


RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.rule_id in RULES:
        raise ReproError(f"duplicate lint rule id {rule.rule_id!r}")
    RULES[rule.rule_id] = rule
    return rule


def all_rule_ids() -> tuple[str, ...]:
    _ensure_loaded()
    return tuple(sorted(RULES, key=_rule_order))


def _rule_order(rule_id: str) -> tuple[int, str]:
    digits = "".join(ch for ch in rule_id if ch.isdigit())
    return (int(digits) if digits else 0, rule_id)


def _ensure_loaded() -> None:
    # Importing the rule modules populates the registry exactly once.
    from repro.lintkit import astrules, dataflow  # noqa: F401


def run_rules(
    project: Project, rule_ids: tuple[str, ...] | None = None
) -> list[Finding]:
    """Run ``rule_ids`` (default: every rule) over ``project``."""
    _ensure_loaded()
    selected = rule_ids if rule_ids is not None else all_rule_ids()
    findings: list[Finding] = []
    for rule_id in selected:
        rule = RULES.get(rule_id)
        if rule is None:
            raise ReproError(f"unknown lint rule id {rule_id!r}")
        findings.extend(rule.run(project))
    return sort_findings(findings)
