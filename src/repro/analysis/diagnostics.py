"""Structured diagnostics emitted by the schema static analyzer.

A :class:`Diagnostic` is one finding: a stable ``code`` (the lint rule
that fired — see README "Static schema analysis" for the catalogue), a
``severity``, the subject classes/relationships, a human-readable
message, and — for every ``error`` — a machine-checkable witness
(:mod:`repro.analysis.witness`).

Severities follow the soundness contract of the analyzer:

``error``
    The schema is *provably* broken: the subject classes are empty in
    every model (finitely unsatisfiable).  Errors always carry an
    emptiness witness, and the pipeline may serve an UNSAT verdict from
    them without running the exponential expansion.
``warning``
    A definite fact that usually indicates a modelling mistake but does
    not by itself make a class unsatisfiable (an ISA cycle collapsing
    classes into one, a relationship that can never be populated, a
    coverer outside its covered class).
``info``
    A simplification opportunity (redundant ISA edge, unreferenced
    class, duplicate definition).

An :class:`AnalysisReport` aggregates one analyzer run: ordered
diagnostics, the set of statically-unsatisfiable classes the pipeline
can short-circuit on, and stable dict/pretty encodings for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.witness import EmptinessWitness, Witness
from repro.cr.schema import CRSchema
from repro.errors import ReproError

SEVERITIES = ("error", "warning", "info")
"""Valid severities, most severe first."""

_SEVERITY_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``classes`` and ``relationships`` name the subjects in
    schema-declaration order.  ``witness`` is required (and is an
    emptiness proof for the first subject class) whenever ``severity ==
    "error"`` — enforced here so no unproven error can be constructed.
    """

    code: str
    severity: str
    message: str
    classes: tuple[str, ...] = ()
    relationships: tuple[str, ...] = ()
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ReproError(
                f"invalid severity {self.severity!r}; expected one of "
                f"{SEVERITIES}"
            )
        if self.severity == "error":
            if not isinstance(self.witness, EmptinessWitness):
                raise ReproError(
                    f"error diagnostic {self.code!r} needs an emptiness "
                    "witness"
                )
            if self.classes[:1] != (self.witness.subject_class(),):
                raise ReproError(
                    f"error diagnostic {self.code!r}: witness proves "
                    f"{self.witness.subject_class()!r}, subjects are "
                    f"{self.classes!r}"
                )

    def verify(self, schema: CRSchema) -> bool:
        """Machine-check the witness against the schema (vacuously true
        for witness-free diagnostics)."""
        return self.witness is None or self.witness.verify(schema)

    def as_dict(self) -> dict:
        """Stable JSON encoding (the ``repro lint --json`` element)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "classes": list(self.classes),
            "relationships": list(self.relationships),
            "witness": None if self.witness is None else self.witness.as_dict(),
        }

    def pretty(self) -> str:
        subjects = ", ".join(self.classes + self.relationships)
        prefix = f"{self.severity}[{self.code}]"
        if subjects:
            return f"{prefix} {subjects}: {self.message}"
        return f"{prefix}: {self.message}"


@dataclass(frozen=True)
class AnalysisReport:
    """The outcome of one :func:`repro.analysis.analyze` run.

    ``diagnostics`` are ordered by severity (errors first), then by the
    order the checks emitted them — deterministic for a given schema.
    """

    schema_name: str
    diagnostics: tuple[Diagnostic, ...]
    unsat_classes: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        proven = frozenset(
            diagnostic.classes[0]
            for diagnostic in self.diagnostics
            if diagnostic.severity == "error" and diagnostic.classes
        )
        if proven != self.unsat_classes:
            raise ReproError(
                "unsat_classes must equal the classes proven empty by "
                f"error diagnostics: {sorted(proven)} != "
                f"{sorted(self.unsat_classes)}"
            )

    # -- selection ---------------------------------------------------------

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self._with_severity("error")

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self._with_severity("warning")

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self._with_severity("info")

    def _with_severity(self, severity: str) -> tuple[Diagnostic, ...]:
        return tuple(
            diagnostic
            for diagnostic in self.diagnostics
            if diagnostic.severity == severity
        )

    def unsat_witness(self, cls: str) -> Diagnostic | None:
        """The error diagnostic proving ``cls`` statically empty, if any."""
        for diagnostic in self.diagnostics:
            if diagnostic.severity == "error" and diagnostic.classes[:1] == (
                cls,
            ):
                return diagnostic
        return None

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    # -- verification -------------------------------------------------------

    def verify(self, schema: CRSchema) -> bool:
        """Machine-check every carried witness against ``schema``."""
        return all(
            diagnostic.verify(schema) for diagnostic in self.diagnostics
        )

    # -- encodings ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {
            severity: len(self._with_severity(severity))
            for severity in SEVERITIES
        }

    def as_dict(self) -> dict:
        """Stable JSON encoding (the ``repro lint --json`` payload)."""
        return {
            "schema": self.schema_name,
            "diagnostics": [
                diagnostic.as_dict() for diagnostic in self.diagnostics
            ],
            "summary": {
                **self.counts(),
                "unsat_classes": sorted(self.unsat_classes),
            },
        }

    def pretty(self) -> str:
        if self.clean:
            return "no diagnostics"
        lines = [diagnostic.pretty() for diagnostic in self.diagnostics]
        counts = self.counts()
        lines.append(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info(s)"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"AnalysisReport({self.schema_name!r}: "
            f"{counts['error']}E/{counts['warning']}W/{counts['info']}I, "
            f"{len(self.unsat_classes)} unsat class(es))"
        )


def ordered(diagnostics: list[Diagnostic]) -> tuple[Diagnostic, ...]:
    """Severity-major, emission-order-minor ordering (stable sort)."""
    return tuple(
        sorted(diagnostics, key=lambda d: _SEVERITY_RANK[d.severity])
    )


__all__ = ["AnalysisReport", "Diagnostic", "SEVERITIES", "ordered"]
