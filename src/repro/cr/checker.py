"""Model checking: does an interpretation satisfy a CR-schema?

Implements conditions (A)–(C) of Definition 2.2, the Section-5
extensions (disjointness, covering), and — for the expansion — the
conditions (A')–(C') of Lemma 3.2.  The checker is the ground truth the
rest of the library is tested against: every model produced by
:mod:`repro.cr.construction` must pass it, and every counter-model
produced by the implication engine must violate exactly the queried
constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cr.expansion import Expansion
from repro.cr.interpretation import Interpretation
from repro.cr.schema import CRSchema


@dataclass(frozen=True)
class Violation:
    """One violated condition, with a human-readable explanation.

    ``condition`` names the Definition 2.2 / Lemma 3.2 condition
    (``"A"``, ``"B"``, ``"C"``, ``"A'"``, ``"B'"``, ``"C'"``,
    ``"disjointness"``, ``"covering"``).
    """

    condition: str
    message: str

    def __str__(self) -> str:
        return f"[{self.condition}] {self.message}"


def check_model(schema: CRSchema, interpretation: Interpretation) -> list[Violation]:
    """All violations of Definition 2.2 (plus extensions); empty = model."""
    interpretation.check_well_formed(schema)
    violations: list[Violation] = []
    violations.extend(_check_isa(schema, interpretation))
    violations.extend(_check_typing(schema, interpretation))
    violations.extend(_check_cardinalities(schema, interpretation))
    violations.extend(_check_disjointness(schema, interpretation))
    violations.extend(_check_covering(schema, interpretation))
    return violations


def is_model(schema: CRSchema, interpretation: Interpretation) -> bool:
    """Whether the interpretation satisfies every schema condition."""
    return not check_model(schema, interpretation)


def _check_isa(schema: CRSchema, interpretation: Interpretation) -> list[Violation]:
    """Condition (A): each declared ``C1 ≼ C2`` gives ``C1^I ⊆ C2^I``."""
    violations: list[Violation] = []
    for sub, sup in schema.isa_statements:
        stray = interpretation.instances_of(sub) - interpretation.instances_of(sup)
        if stray:
            example = sorted(map(repr, stray))[0]
            violations.append(
                Violation(
                    "A",
                    f"{sub} isa {sup} violated: {example} is in {sub} "
                    f"but not in {sup}",
                )
            )
    return violations


def _check_typing(schema: CRSchema, interpretation: Interpretation) -> list[Violation]:
    """Condition (B): tuple components are instances of the primary classes."""
    violations: list[Violation] = []
    for rel in schema.relationships:
        for labelled in interpretation.tuples_of(rel.name):
            for role, primary in rel.signature:
                value = labelled[role]
                if value not in interpretation.instances_of(primary):
                    violations.append(
                        Violation(
                            "B",
                            f"tuple {labelled.pretty()} of {rel.name}: component "
                            f"{role} = {value!r} is not an instance of the "
                            f"primary class {primary}",
                        )
                    )
    return violations


def _check_cardinalities(
    schema: CRSchema, interpretation: Interpretation
) -> list[Violation]:
    """Condition (C), checked for every *declared* cardinality.

    Undeclared triples carry the default ``(0, ∞)``, which no finite
    count can violate, so iterating the declarations is exhaustive.
    """
    violations: list[Violation] = []
    for (cls, rel, role), card in sorted(schema.declared_cards.items()):
        counts = interpretation.participation_counts(rel, role)
        for individual in sorted(interpretation.instances_of(cls), key=repr):
            count = counts[individual]
            if not card.admits(count):
                violations.append(
                    Violation(
                        "C",
                        f"instance {individual!r} of {cls} appears {count} "
                        f"time(s) as {role} of {rel}; required "
                        f"{card.pretty()}",
                    )
                )
    return violations


def _check_disjointness(
    schema: CRSchema, interpretation: Interpretation
) -> list[Violation]:
    violations: list[Violation] = []
    for group in schema.disjointness_groups:
        members = sorted(group)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                shared = interpretation.instances_of(
                    first
                ) & interpretation.instances_of(second)
                if shared:
                    example = sorted(map(repr, shared))[0]
                    violations.append(
                        Violation(
                            "disjointness",
                            f"{first} and {second} are declared disjoint but "
                            f"share {example}",
                        )
                    )
    return violations


def _check_covering(
    schema: CRSchema, interpretation: Interpretation
) -> list[Violation]:
    violations: list[Violation] = []
    for covered, coverers in schema.coverings:
        uncovered = set(interpretation.instances_of(covered))
        for coverer in coverers:
            uncovered -= interpretation.instances_of(coverer)
        if uncovered:
            example = sorted(map(repr, uncovered))[0]
            violations.append(
                Violation(
                    "covering",
                    f"{covered} is covered by {sorted(coverers)} but "
                    f"{example} is in none of the coverers",
                )
            )
    return violations


# -- expansion-level checking (Lemma 3.2) --------------------------------


def check_expansion_model(
    expansion: Expansion, interpretation: Interpretation
) -> list[Violation]:
    """All violations of Lemma 3.2's conditions (A')–(C').

    The lemma states these are equivalent to Definition 2.2's (A)–(C);
    the test-suite exercises that equivalence on random interpretations.
    """
    schema = expansion.schema
    interpretation.check_well_formed(schema)
    classes = schema.classes
    violations: list[Violation] = []

    # (A') inconsistent compound classes are empty.
    for compound in expansion.all_compound_classes():
        if expansion.is_consistent_class(compound):
            continue
        extension = interpretation.compound_extension(compound.members, classes)
        if extension:
            example = sorted(map(repr, extension))[0]
            violations.append(
                Violation(
                    "A'",
                    f"inconsistent compound class {compound.pretty()} is "
                    f"non-empty (contains {example})",
                )
            )

    # (B') tuples of a compound relationship have components in the
    # matching compound classes (true by construction of the derived
    # extensions), and inconsistent compound relationships are empty.
    for compound_rel in expansion.all_compound_relationships():
        if expansion.is_consistent_relationship(compound_rel):
            continue
        tuples = interpretation.compound_tuples(
            compound_rel.rel,
            {role: cc.members for role, cc in compound_rel.signature},
            classes,
        )
        if tuples:
            example = sorted(tuples)[0]
            violations.append(
                Violation(
                    "B'",
                    f"inconsistent compound relationship "
                    f"{compound_rel.pretty()} is non-empty "
                    f"(contains {example.pretty()})",
                )
            )

    # (C') lifted cardinalities hold for instances of consistent
    # compound classes.
    for rel in schema.relationships:
        for role, primary in rel.signature:
            counts = interpretation.participation_counts(rel.name, role)
            for compound in expansion.consistent_compound_classes():
                if primary not in compound.members:
                    continue
                card = expansion.lifted_card(compound, rel.name, role)
                extension = interpretation.compound_extension(
                    compound.members, classes
                )
                for individual in sorted(extension, key=repr):
                    count = counts[individual]
                    if not card.admits(count):
                        violations.append(
                            Violation(
                                "C'",
                                f"instance {individual!r} of compound class "
                                f"{compound.pretty()} appears {count} time(s) "
                                f"as {role} of {rel.name}; lifted bound is "
                                f"{card.pretty()}",
                            )
                        )
    return violations
