"""The system of linear disequations ``Ψ_S`` (Section 3.2 of the paper).

One unknown per compound class and per compound relationship; the
disequations encode, for every relationship role and every consistent
compound class containing the role's primary class, that the total
number of compound-relationship tuples carrying that compound class in
that role lies between ``minc · |C̄|`` and ``maxc · |C̄|``.

Two build modes:

* ``literal`` — reproduces the paper's Figure 5 exactly: unknowns for
  **all** compound classes and relationships, with explicit ``= 0``
  rows for the inconsistent ones.  Exponential in a second way (the
  inconsistent unknowns), so only sensible on small schemas; used by
  the figure-rendering layer and the literal tests.
* ``pruned`` (default) — unknowns only for consistent compounds.  The
  inconsistent unknowns are identically zero in every model, so the
  two modes have the same solutions on the shared unknowns; the
  satisfiability engines use this mode.

The generated system is homogeneous with integer coefficients
(the paper's observation at the end of Section 3.2), which the solver
layer exploits: rational feasibility equals integer feasibility.

The generator emits the *interned sparse form*
(:class:`repro.solver.core.InternedSystem`) directly — integer unknown
indices and native-``int`` coefficients, the representation the LP
kernel consumes.  The pretty string-keyed
:class:`~repro.solver.linear.LinearSystem` (Figure-5 unknown names like
``c3`` and ``h13``) is derived lazily via :attr:`CRSystem.system` and
exists only at the render/explain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cr.expansion import CompoundClass, CompoundRelationship, Expansion
from repro.errors import ReproError
from repro.solver.core import Coeff, InternedSystem, VariableTable
from repro.solver.linear import LinearSystem, LinExpr, Relation, term


def _relationship_prefixes(expansion: Expansion) -> dict[str, str]:
    """Short unknown prefixes per relationship, Figure-5 style.

    The paper abbreviates ``Holds`` to ``h`` and ``Participates`` to
    ``p``.  We use the lowercase initial when the initials are unique
    and none is ``c`` (reserved for class unknowns); otherwise the full
    lowercase relationship name.
    """
    names = [rel.name for rel in expansion.schema.relationships]
    initials = [name[0].lower() for name in names]
    if len(set(initials)) == len(initials) and "c" not in initials:
        return dict(zip(names, initials))
    return {name: f"{name.lower()}_" for name in names}


@dataclass
class CRSystem:
    """``Ψ_S`` together with the unknown ↔ compound bookkeeping.

    ``dependencies`` maps each relationship unknown to the class
    unknowns it *depends on* (Section 3.3): the unknowns of the compound
    classes appearing in its roles.  Acceptability of a solution —
    relationship unknowns vanish whenever a class unknown they depend on
    does — is phrased entirely in terms of this map.

    ``interned`` is the canonical sparse form the LP kernel
    consumes; :attr:`system` projects it to the string-keyed
    :class:`~repro.solver.linear.LinearSystem` on first access (the
    render/explain boundary — row order, labels, and origins are
    preserved, so Figure-5 output is byte-identical).
    """

    expansion: Expansion
    interned: InternedSystem
    mode: str
    class_var: dict[CompoundClass, str]
    rel_var: dict[CompoundRelationship, str]
    dependencies: dict[str, tuple[str, ...]]
    var_class: dict[str, CompoundClass] = field(init=False)
    var_rel: dict[str, CompoundRelationship] = field(init=False)
    _linear: LinearSystem | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.var_class = {name: cc for cc, name in self.class_var.items()}
        self.var_rel = {name: cr for cr, name in self.rel_var.items()}

    @property
    def system(self) -> LinearSystem:
        """The string-keyed ``Ψ_S`` (derived from ``interned`` on demand)."""
        if self._linear is None:
            self._linear = self.interned.to_linear()
        return self._linear

    # -- unknown inventories ------------------------------------------------

    def class_unknowns(self) -> tuple[str, ...]:
        return tuple(self.class_var.values())

    def relationship_unknowns(self) -> tuple[str, ...]:
        return tuple(self.rel_var.values())

    def consistent_class_unknowns(self) -> tuple[str, ...]:
        return tuple(
            name
            for compound, name in self.class_var.items()
            if self.expansion.is_consistent_class(compound)
        )

    # -- derived expressions (Theorem 3.3) ------------------------------------

    def class_population_expr(self, cls: str) -> LinExpr:
        """``Σ Var(C̄)`` over consistent compound classes containing ``cls``.

        This is the left-hand side of Theorem 3.3's side condition
        ``Σ_{C̄ ∋ C_s} Var(C̄) > 0`` (inconsistent compound classes are
        omitted — their unknowns are identically zero).
        """
        self.expansion.schema.require_class(cls)
        expr = LinExpr()
        for compound in self.expansion.consistent_classes_containing(cls):
            expr = expr + term(self.class_var[compound])
        return expr


def build_system(expansion: Expansion, mode: str = "pruned") -> CRSystem:
    """Generate ``Ψ_S`` from an expansion.

    ``mode`` is ``"pruned"`` (consistent unknowns only; used for
    solving) or ``"literal"`` (all unknowns plus explicit ``= 0`` rows,
    matching Figure 5 of the paper).
    """
    if mode not in ("pruned", "literal"):
        raise ReproError(f"unknown system mode {mode!r}")
    schema = expansion.schema
    prefixes = _relationship_prefixes(expansion)

    if mode == "literal":
        compound_classes = list(expansion.all_compound_classes())
        compound_relationships = list(expansion.all_compound_relationships())
    else:
        compound_classes = list(expansion.consistent_compound_classes())
        compound_relationships = list(
            expansion.consistent_compound_relationships()
        )

    compact = all(
        expansion.class_index(compound) <= 9 for compound in compound_classes
    )

    def class_name(compound: CompoundClass) -> str:
        return f"c{expansion.class_index(compound)}"

    def rel_name(compound: CompoundRelationship) -> str:
        prefix = prefixes[compound.rel]
        indices = [
            expansion.class_index(component)
            for _, component in compound.signature
        ]
        if compact and not prefix.endswith("_"):
            return prefix + "".join(str(index) for index in indices)
        body = "_".join(str(index) for index in indices)
        joiner = "" if prefix.endswith("_") else "_"
        return f"{prefix}{joiner}{body}"

    class_var = {compound: class_name(compound) for compound in compound_classes}
    rel_var = {
        compound: rel_name(compound) for compound in compound_relationships
    }
    all_names = list(class_var.values()) + list(rel_var.values())
    if len(set(all_names)) != len(all_names):  # pragma: no cover - defensive
        raise ReproError("internal error: unknown names collide")

    table = VariableTable(all_names)
    interned = InternedSystem(table)
    class_index = {
        compound: table.index(name) for compound, name in class_var.items()
    }
    rel_index = {
        compound: table.index(name) for compound, name in rel_var.items()
    }

    # Group 1 (literal mode only): inconsistent unknowns are zero.
    if mode == "literal":
        for compound in compound_classes:
            if not expansion.is_consistent_class(compound):
                interned.add(
                    {class_index[compound]: 1},
                    Relation.EQ,
                    label=f"zero-class:{class_var[compound]}",
                    origin=compound,
                )
        for compound in compound_relationships:
            if not expansion.is_consistent_relationship(compound):
                interned.add(
                    {rel_index[compound]: 1},
                    Relation.EQ,
                    label=f"zero-rel:{rel_var[compound]}",
                    origin=compound,
                )

    # Index the consistent compound relationships by (rel, role, compound
    # class) for the sums of group 2.
    tuples_with_component: dict[tuple[str, str, CompoundClass], list[int]] = {}
    for compound in expansion.consistent_compound_relationships():
        for role, component in compound.signature:
            key = (compound.rel, role, component)
            tuples_with_component.setdefault(key, []).append(
                rel_index[compound]
            )

    # Group 2: lifted cardinality disequations —
    # ``minc·Var(C̄) − Σ tuples ≤ 0`` and ``maxc·Var(C̄) − Σ tuples ≥ 0``.
    for rel in schema.relationships:
        for role, _primary in rel.signature:
            for compound in expansion.consistent_compound_classes():
                if rel.primary_class(role) not in compound.members:
                    continue
                lifted = expansion.lifted_card(compound, rel.name, role)
                columns = tuples_with_component.get(
                    (rel.name, role, compound), []
                )
                index = expansion.class_index(compound)
                if lifted.minc > 0:
                    entries: dict[int, Coeff] = {
                        class_index[compound]: lifted.minc
                    }
                    for column in columns:
                        entries[column] = entries.get(column, 0) - 1
                    interned.add(
                        entries,
                        Relation.LE,
                        label=f"min:{rel.name}:{role}:{index}",
                        origin=(compound, rel.name, role, lifted),
                    )
                if lifted.maxc is not None:
                    entries = {class_index[compound]: lifted.maxc}
                    for column in columns:
                        entries[column] = entries.get(column, 0) - 1
                    interned.add(
                        entries,
                        Relation.GE,
                        label=f"max:{rel.name}:{role}:{index}",
                        origin=(compound, rel.name, role, lifted),
                    )

    # Group 3: non-negativity of the consistent unknowns.  (In literal
    # mode the inconsistent ones are already pinned to zero.)
    for compound in compound_classes:
        if expansion.is_consistent_class(compound):
            interned.add(
                {class_index[compound]: 1},
                Relation.GE,
                label=f"nonneg:{class_var[compound]}",
            )
    for compound in compound_relationships:
        if expansion.is_consistent_relationship(compound):
            interned.add(
                {rel_index[compound]: 1},
                Relation.GE,
                label=f"nonneg:{rel_var[compound]}",
            )

    dependencies = {
        rel_var[compound]: tuple(
            class_var[component] for _, component in compound.signature
        )
        for compound in compound_relationships
        if expansion.is_consistent_relationship(compound)
    }

    return CRSystem(
        expansion=expansion,
        interned=interned,
        mode=mode,
        class_var=class_var,
        rel_var=rel_var,
        dependencies=dependencies,
    )
