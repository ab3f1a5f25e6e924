"""Finite interpretations of CR-schemas (database states).

An interpretation assigns a finite domain, a set of instances to every
class, and a set of labelled tuples to every relationship
(Definition 2.2's ``I = (Δ, ·^I)``).  Whether the interpretation is a
*model* — satisfies conditions (A)–(C) — is decided by
:mod:`repro.cr.checker`; this module only provides the data structure
and the derived *compound* extensions of Section 3.1.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.cr.schema import CRSchema
from repro.errors import InterpretationError

Individual = Hashable


class LabeledTuple:
    """A labelled tuple ``<U1: d1, ..., Uk: dk>`` (a role → individual map).

    Immutable and hashable; equality is by role-value content, matching
    the paper's set semantics for relationship extensions.
    """

    __slots__ = ("_items",)

    def __init__(self, components: Mapping[str, Individual]) -> None:
        if not components:
            raise InterpretationError("a labelled tuple cannot be empty")
        self._items = tuple(sorted(components.items()))

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(role for role, _ in self._items)

    def __getitem__(self, role: str) -> Individual:
        for candidate, value in self._items:
            if candidate == role:
                return value
        raise KeyError(role)

    def get(self, role: str, default: Individual | None = None) -> Individual | None:
        for candidate, value in self._items:
            if candidate == role:
                return value
        return default

    def as_dict(self) -> dict[str, Individual]:
        return dict(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledTuple):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __lt__(self, other: LabeledTuple) -> bool:
        return self._items < other._items

    def pretty(self) -> str:
        inner = ", ".join(f"{role}: {value}" for role, value in self._items)
        return f"<{inner}>"

    def __repr__(self) -> str:
        return f"LabeledTuple({self.pretty()})"


@dataclass(frozen=True)
class Interpretation:
    """A finite interpretation: domain, class and relationship extensions.

    Missing entries in either mapping denote empty extensions, so the
    all-empty interpretation of a schema is ``Interpretation.empty()``.
    """

    domain: frozenset[Individual]
    class_extensions: Mapping[str, frozenset[Individual]] = field(
        default_factory=dict
    )
    relationship_extensions: Mapping[str, frozenset[LabeledTuple]] = field(
        default_factory=dict
    )

    @classmethod
    def empty(cls) -> Interpretation:
        """The interpretation with empty domain (trivially a model)."""
        return cls(frozenset(), {}, {})

    @classmethod
    def build(
        cls,
        classes: Mapping[str, Iterable[Individual]],
        relationships: Mapping[str, Iterable[Mapping[str, Individual]]] = {},
        extra_domain: Iterable[Individual] = (),
    ) -> Interpretation:
        """Convenience constructor from plain dicts/lists.

        The domain is the union of everything mentioned plus
        ``extra_domain``; relationship tuples are given as role → value
        mappings.
        """
        class_ext = {
            name: frozenset(members) for name, members in classes.items()
        }
        rel_ext = {
            name: frozenset(LabeledTuple(components) for components in tuples)
            for name, tuples in relationships.items()
        }
        domain = set(extra_domain)
        for members in class_ext.values():
            domain.update(members)
        for tuples in rel_ext.values():
            for labelled in tuples:
                domain.update(labelled.as_dict().values())
        return cls(frozenset(domain), class_ext, rel_ext)

    # -- accessors -------------------------------------------------------

    def instances_of(self, cls: str) -> frozenset[Individual]:
        """Extension of a class (empty if the class is not mentioned)."""
        return self.class_extensions.get(cls, frozenset())

    def tuples_of(self, rel: str) -> frozenset[LabeledTuple]:
        """Extension of a relationship (empty if not mentioned)."""
        return self.relationship_extensions.get(rel, frozenset())

    def participation_counts(
        self, rel: str, role: str
    ) -> Counter[Individual]:
        """Every individual's ``participation_count`` in one pass over
        the tuples of ``rel``; an individual in no tuple counts 0."""
        return Counter(labelled.get(role) for labelled in self.tuples_of(rel))

    def participation_count(
        self, rel: str, role: str, individual: Individual
    ) -> int:
        """``|{r in rel : r[role] == individual}|`` (Definition 2.2 (C))."""
        return self.participation_counts(rel, role)[individual]

    def compound_extension(
        self, members: frozenset[str], all_classes: Iterable[str]
    ) -> frozenset[Individual]:
        """Extension of the compound class ``members`` (Section 3.1).

        Individuals belonging to *all* classes in ``members`` and to
        *none* of the remaining classes of the schema.
        """
        if not members:
            raise InterpretationError("a compound class is a nonempty subset")
        result: set[Individual] | None = None
        for cls in members:
            extension = self.instances_of(cls)
            result = set(extension) if result is None else result & extension
        assert result is not None
        for cls in all_classes:
            if cls not in members:
                result -= self.instances_of(cls)
        return frozenset(result)

    def compound_tuples(
        self,
        rel: str,
        role_members: Mapping[str, frozenset[str]],
        all_classes: Iterable[str],
    ) -> frozenset[LabeledTuple]:
        """Extension of a compound relationship (Section 3.1).

        ``role_members`` maps each role to the member set of its
        compound class; a tuple belongs to the compound relationship
        when each component lies in the corresponding compound
        extension.
        """
        class_list = tuple(all_classes)
        extensions = {
            role: self.compound_extension(members, class_list)
            for role, members in role_members.items()
        }
        return frozenset(
            labelled
            for labelled in self.tuples_of(rel)
            if all(
                labelled.get(role) in extension
                for role, extension in extensions.items()
            )
        )

    # -- statistics --------------------------------------------------------

    def summary(self) -> str:
        """One-line size summary for logs and reports."""
        classes = ", ".join(
            f"|{name}|={len(ext)}"
            for name, ext in sorted(self.class_extensions.items())
        )
        relationships = ", ".join(
            f"|{name}|={len(ext)}"
            for name, ext in sorted(self.relationship_extensions.items())
        )
        return f"domain={len(self.domain)}; {classes}; {relationships}"

    def check_well_formed(self, schema: CRSchema) -> None:
        """Raise :class:`InterpretationError` if not evaluable against ``schema``.

        Checks that only declared symbols are used, extensions stay
        inside the domain, and every relationship tuple carries exactly
        the roles of the relationship's signature.  (Constraint
        *violations* are the checker's business, not an error here.)
        """
        declared_classes = set(schema.classes)
        for name, extension in self.class_extensions.items():
            if name not in declared_classes:
                raise InterpretationError(f"unknown class {name!r} in interpretation")
            if not extension <= self.domain:
                raise InterpretationError(
                    f"class {name!r} has instances outside the domain"
                )
        declared_rels = {rel.name: rel for rel in schema.relationships}
        for name, tuples in self.relationship_extensions.items():
            rel = declared_rels.get(name)
            if rel is None:
                raise InterpretationError(
                    f"unknown relationship {name!r} in interpretation"
                )
            expected_roles = tuple(sorted(rel.roles))
            for labelled in tuples:
                if labelled.roles != expected_roles:
                    raise InterpretationError(
                        f"tuple {labelled.pretty()} of {name!r} does not match "
                        f"signature roles {expected_roles}"
                    )
                for value in labelled.as_dict().values():
                    if value not in self.domain:
                        raise InterpretationError(
                            f"tuple {labelled.pretty()} of {name!r} mentions an "
                            "individual outside the domain"
                        )
