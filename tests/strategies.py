"""Hypothesis strategies for random CR-schemas and interpretations.

The property tests lean on two generators:

* :func:`schemas` — small random CR-schemas (random ISA DAG edges,
  random binary/ternary relationships, random small cardinality
  declarations including refinements), sized so that both the fixpoint
  and the naive Theorem-3.4 engine can run;
* :func:`interpretations_for` — random finite interpretations of a
  given schema, used to exercise the model checker and the Lemma-3.2
  equivalence.
"""

from __future__ import annotations

import os

from hypothesis import strategies as st

from repro.cr.builder import SchemaBuilder
from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.interpretation import Interpretation
from repro.cr.schema import CRSchema, Relationship

CLASS_NAMES = ["A", "B", "C", "D"]
MAX_RELATIONSHIPS = 2


def property_max_examples(default: int = 200) -> int:
    """The example budget for the oracle and metamorphic suites.

    Local runs use the ISSUE-2 floor of 200 examples; CI sets
    ``REPRO_PROPERTY_MAX_EXAMPLES`` to a smaller value for a faster
    deterministic pass (see the ``ci`` profile in ``conftest.py``).
    """
    return int(os.environ.get("REPRO_PROPERTY_MAX_EXAMPLES", default))


@st.composite
def schemas(
    draw,
    max_classes: int = 4,
    max_relationships: int = MAX_RELATIONSHIPS,
    allow_ternary: bool = False,
    allow_extensions: bool = False,
    allow_isa: bool = True,
    allow_inversions: bool = False,
) -> CRSchema:
    """A random small CR-schema.

    ``allow_inversions=True`` lets a declared cardinality have
    ``minc > maxc`` — legal per the paper (it forces the class empty)
    and exactly what the static analyzer's ``card-inversion`` check
    targets; off by default because most suites want schemas whose
    unsatisfiability, if any, is *interesting*.
    """
    num_classes = draw(st.integers(min_value=2, max_value=max_classes))
    classes = CLASS_NAMES[:num_classes]
    builder = SchemaBuilder("Random")
    for cls in classes:
        builder.cls(cls)

    # A random ISA DAG: edges only from later to earlier classes, so no
    # cycles (cycles are legal but make shrunken failures harder to read).
    # ``allow_isa=False`` yields ISA-free schemas, the fragment the
    # Section-3 baseline handles without any expansion.
    if allow_isa:
        for i, sub in enumerate(classes):
            for sup in classes[:i]:
                if draw(st.booleans()):
                    builder.isa(sub, sup)

    num_relationships = draw(
        st.integers(min_value=1, max_value=max_relationships)
    )
    role_counter = 0
    relationship_signatures: list[tuple[str, list[str]]] = []
    for rel_index in range(num_relationships):
        arity = (
            draw(st.integers(min_value=2, max_value=3)) if allow_ternary else 2
        )
        roles = {}
        role_names = []
        for _ in range(arity):
            role_counter += 1
            role = f"U{role_counter}"
            roles[role] = draw(st.sampled_from(classes))
            role_names.append(role)
        name = f"R{rel_index + 1}"
        builder.relationship(name, **roles)
        relationship_signatures.append((name, role_names))

    schema_so_far = builder.build()

    # Random cardinality declarations, including refinements: any class
    # that is a subclass of the role's primary class may carry one.
    for name, role_names in relationship_signatures:
        rel = schema_so_far.relationship(name)
        for role in role_names:
            primary = rel.primary_class(role)
            candidates = [
                cls
                for cls in classes
                if schema_so_far.is_subclass(cls, primary)
            ]
            for cls in candidates:
                if not draw(st.booleans()):
                    continue
                minimum = draw(st.integers(min_value=0, max_value=2))
                max_floor = 0 if allow_inversions else minimum
                maximum = draw(
                    st.one_of(
                        st.none(), st.integers(min_value=max_floor, max_value=3)
                    )
                )
                builder.card(cls, name, role, minimum, maximum)

    if allow_extensions:
        if num_classes >= 2 and draw(st.booleans()):
            pair = draw(
                st.lists(
                    st.sampled_from(classes), min_size=2, max_size=2, unique=True
                )
            )
            builder.disjoint(*pair)
        if num_classes >= 2 and draw(st.booleans()):
            covered = draw(st.sampled_from(classes))
            coverers = draw(
                st.lists(
                    st.sampled_from(classes), min_size=1, max_size=2, unique=True
                )
            )
            builder.cover(covered, *coverers)

    return builder.build()


@st.composite
def symmetric_schemas(
    draw, min_siblings: int = 2, max_siblings: int = 3
) -> tuple[CRSchema, int]:
    """A CR-schema with ``k`` interchangeable sibling classes, plus ``k``.

    A root class ``T`` carries a self-relationship ``R(u, v)`` whose
    drawn cardinality profile decides whether the core is satisfiable
    (``(2,2)/(1,1)`` forces ``2|T| = |R| = |T|``, i.e. ``T`` empty);
    each sibling ``Ai`` hangs off the root through its own relationship
    ``Ri(xi: Ai, yi: T)`` — roles are schema-global (Definition 2.1),
    hence the per-relationship names — and every sibling gets the *same*
    drawn bounds, so swapping two siblings is a schema automorphism.
    The pruned-search suites use this to guarantee non-trivial column
    orbits while the naive oracle stays affordable: three siblings are
    always declared pairwise disjoint, which caps the consistent
    expansion at 7 compound classes (``2^7`` naive zero-sets).
    """
    siblings = draw(st.integers(min_value=min_siblings, max_value=max_siblings))
    builder = SchemaBuilder("Symmetric")
    builder.cls("T")
    names = [f"A{i}" for i in range(1, siblings + 1)]
    for name in names:
        builder.cls(name)

    builder.relationship("R", u="T", v="T")
    core_u, core_v = draw(
        st.sampled_from(
            [((2, 2), (1, 1)), ((1, 2), (1, 1)), ((1, 2), (0, 2))]
        )
    )
    builder.card("T", "R", "u", *core_u)
    builder.card("T", "R", "v", *core_v)

    sibling_min = draw(st.integers(min_value=0, max_value=2))
    sibling_max = draw(
        st.one_of(st.none(), st.integers(min_value=max(1, sibling_min), max_value=3))
    )
    root_side = draw(
        st.one_of(st.none(), st.tuples(st.just(0), st.integers(1, 3)))
    )
    for i, name in enumerate(names, start=1):
        builder.relationship(f"R{i}", **{f"x{i}": name, f"y{i}": "T"})
        builder.card(name, f"R{i}", f"x{i}", sibling_min, sibling_max)
        if root_side is not None:
            builder.card("T", f"R{i}", f"y{i}", *root_side)

    if siblings > 2 or draw(st.booleans()):
        builder.disjoint(*names)

    return builder.build(), siblings


def _component_count(schema: CRSchema) -> int:
    """An independent union-find oracle for the constraint graph.

    Deliberately *not* built on :mod:`repro.components` — the
    decomposition property suite compares the library against this
    little re-derivation, so the two cannot share a bug.
    """
    parent = {cls: cls for cls in schema.classes}

    def find(cls: str) -> str:
        while parent[cls] != cls:
            parent[cls] = parent[parent[cls]]
            cls = parent[cls]
        return cls

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    for sub, sup in schema.isa_statements:
        union(sub, sup)
    for rel in schema.relationships:
        signature = [cls for _role, cls in rel.signature]
        for cls in signature[1:]:
            union(signature[0], cls)
    for cls, rel_name, _role in schema.declared_cards:
        union(cls, schema.relationship(rel_name).signature[0][1])
    for group in schema.disjointness_groups:
        members = sorted(group)
        for cls in members[1:]:
            union(members[0], cls)
    for covered, coverers in schema.coverings:
        for cls in coverers:
            union(covered, cls)
    return len({find(cls) for cls in schema.classes})


@st.composite
def multi_component_schemas(
    draw, min_islands: int = 2, max_islands: int = 3
) -> tuple[CRSchema, int]:
    """A schema assembled from independent namespaced islands, plus the
    number of constraint-graph components it *actually* has.

    Each island is its own :func:`schemas` draw whose classes,
    relationships, and roles get an ``I{i}`` prefix before the union,
    so no constraint crosses islands.  A drawn island can itself be
    disconnected (a class mentioned by no constraint is a singleton
    component), so the expected count comes from the independent
    :func:`_component_count` oracle, not from the island count.

    Sizes are kept small — decomposition parity suites run every query
    twice (decomposed and monolithic), and the monolithic side pays the
    whole product expansion.
    """
    num_islands = draw(
        st.integers(min_value=min_islands, max_value=max_islands)
    )
    island_classes = 3 if num_islands <= 2 else 2
    classes: list[str] = []
    relationships: list[Relationship] = []
    isa: list[tuple[str, str]] = []
    cards: dict = {}
    disjointness: list[frozenset[str]] = []
    coverings: list[tuple[str, frozenset[str]]] = []
    for i in range(num_islands):
        island = draw(
            schemas(
                max_classes=island_classes,
                max_relationships=1,
                allow_extensions=True,
            )
        )
        prefix = f"I{i}"
        cls_map = {cls: f"{prefix}{cls}" for cls in island.classes}
        classes.extend(cls_map[cls] for cls in island.classes)
        relationships.extend(
            Relationship(
                f"{prefix}{rel.name}",
                tuple(
                    (f"{prefix}{role}", cls_map[cls])
                    for role, cls in rel.signature
                ),
            )
            for rel in island.relationships
        )
        isa.extend(
            (cls_map[sub], cls_map[sup])
            for sub, sup in island.isa_statements
        )
        cards.update(
            {
                (cls_map[cls], f"{prefix}{rel}", f"{prefix}{role}"): card
                for (cls, rel, role), card in island.declared_cards.items()
            }
        )
        disjointness.extend(
            frozenset(cls_map[cls] for cls in group)
            for group in island.disjointness_groups
        )
        coverings.extend(
            (cls_map[covered], frozenset(cls_map[c] for c in coverers))
            for covered, coverers in island.coverings
        )
    schema = CRSchema(
        classes=classes,
        relationships=relationships,
        isa=isa,
        cards=cards,
        disjointness=disjointness,
        coverings=coverings,
        name="Islands",
    )
    return schema, _component_count(schema)


@st.composite
def implication_queries_for(draw, schema: CRSchema):
    """A random implication query over ``schema`` — any of the four
    kinds :func:`repro.cr.implication.implies` decides.

    Cardinality queries are only generated on legal ``(cls, rel,
    role)`` triples, i.e. where ``cls`` is a subclass of the role's
    primary class (Section 4's well-formedness condition).
    """
    classes = schema.classes
    kinds = ["isa"]
    if len(classes) >= 2:
        kinds.append("disjoint")
    card_slots = [
        (cls, rel.name, role)
        for rel in schema.relationships
        for role, primary in rel.signature
        for cls in classes
        if schema.is_subclass(cls, primary)
    ]
    if card_slots:
        kinds.extend(["minc", "maxc"])
    kind = draw(st.sampled_from(kinds))
    if kind == "isa":
        return IsaStatement(
            draw(st.sampled_from(classes)), draw(st.sampled_from(classes))
        )
    if kind == "disjoint":
        pair = draw(
            st.lists(
                st.sampled_from(classes), min_size=2, max_size=2, unique=True
            )
        )
        return DisjointnessStatement(pair)
    cls, rel, role = draw(st.sampled_from(card_slots))
    if kind == "minc":
        value = draw(st.integers(min_value=0, max_value=3))
        return MinCardinalityStatement(cls, rel, role, value)
    value = draw(st.integers(min_value=1, max_value=3))
    return MaxCardinalityStatement(cls, rel, role, value)


@st.composite
def query_mixes(
    draw, schema: CRSchema, min_size: int = 1, max_size: int = 5
) -> list:
    """A mixed batch of ``(kind, payload)`` query pairs over ``schema``.

    ``("sat", class_name)`` and ``("implies", statement)`` in random
    interleaving — the exact shape :func:`repro.cli.parse_batch_query`
    produces from a batch file, which makes one generator serve every
    suite that drives batches: the component parity properties, the
    session metamorphic tests, and the serve differential harness
    (which renders the pairs back to batch-line syntax).
    """
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    queries = []
    for _ in range(size):
        if draw(st.booleans()):
            queries.append(("sat", draw(st.sampled_from(schema.classes))))
        else:
            queries.append(("implies", draw(implication_queries_for(schema))))
    return queries


def query_lines(queries: list) -> list[str]:
    """Render ``(kind, payload)`` pairs back to batch-file line syntax
    (``sat <Class>`` / ``<statement>.pretty()``) — the inverse of
    :func:`repro.cli.parse_batch_query`, used to feed the same random
    mix to the CLI and the serve daemon."""
    return [
        f"sat {payload}" if kind == "sat" else payload.pretty()
        for kind, payload in queries
    ]


@st.composite
def interpretations_for(draw, schema: CRSchema, max_domain: int = 4):
    """A random finite interpretation of ``schema``.

    Typing condition (B) is enforced by construction (tuples draw their
    components from the primary classes' extensions) so the generated
    interpretations are well-formed, while conditions (A) and (C) are
    left to chance — the checker tests need both outcomes.
    """
    domain = [f"d{i}" for i in range(draw(st.integers(1, max_domain)))]
    class_ext = {
        cls: frozenset(
            draw(st.lists(st.sampled_from(domain), max_size=len(domain), unique=True))
        )
        for cls in schema.classes
    }
    rel_ext = {}
    for rel in schema.relationships:
        pools = [sorted(class_ext[cls]) for _, cls in rel.signature]
        if any(not pool for pool in pools):
            rel_ext[rel.name] = []
            continue
        num_tuples = draw(st.integers(0, 3))
        tuples = []
        for _ in range(num_tuples):
            tuples.append(
                {
                    role: draw(st.sampled_from(pool))
                    for (role, _), pool in zip(rel.signature, pools)
                }
            )
        rel_ext[rel.name] = tuples
    return Interpretation.build(class_ext, rel_ext, extra_domain=domain)
