"""Diagnostics emitted by the repo contract checker.

A :class:`Finding` is one contract breach: a stable rule id (``R1`` …
``R11``, see DESIGN §14 for the catalogue), the repo-relative file and
line, the enclosing definition (``scope``), a human-readable message,
and — for the dataflow rules — a *witness chain*: the call path or
taint path that proves the finding, rendered innermost-first so a
reader can replay the derivation.

Renderings are stable by construction: :meth:`Finding.render` is the
classic ``path:line: RULE message`` single line, :meth:`as_dict` is
the JSON encoding used by ``repro lint --repo --json``, and
:func:`sort_findings` fixes one canonical order so output never
depends on module discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass

MODULE_SCOPE = "<module>"
"""Scope name for findings outside any function or method body."""


@dataclass(frozen=True)
class Finding:
    """One contract breach, formatted ``file:line: RULE message``."""

    rule: str
    path: str
    line: int
    message: str
    scope: str = MODULE_SCOPE
    witness: tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def render_witness(self) -> list[str]:
        """The witness chain as indented continuation lines."""
        return [f"    {step}" for step in self.witness]

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "scope": self.scope,
            "message": self.message,
            "witness": list(self.witness),
        }

    def suppression_key(self) -> tuple[str, str, str]:
        """Key a baseline suppression matches on.

        Line numbers are deliberately absent: a suppression survives
        unrelated edits to the file, and goes *stale* (reported by the
        runner) only when the finding itself disappears.
        """
        return (self.rule, self.path, self.scope)


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Canonical order: by path, line, rule, then message."""
    return sorted(
        findings, key=lambda f: (f.path, f.line, f.rule, f.message)
    )
