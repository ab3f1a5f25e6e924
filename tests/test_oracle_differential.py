"""Differential testing against a brute-force finite-model oracle.

The oracle (:func:`oracle_model`) decides class satisfiability the
dumb, obviously-correct way: enumerate every interpretation over a
bounded domain and ask the Definition-2.2 checker whether it is a
model populating the class.  It is exponential in everything, but on
the tiny schemas the strategies generate it is exact *up to the domain
bound* — which yields two one-sided agreement properties with the
Section-3 decision procedure:

* oracle finds a model  ⟹  the procedure answers SAT;
* the procedure answers UNSAT  ⟹  the oracle finds nothing.

The completeness direction (procedure SAT ⟹ some finite model) is
covered exactly rather than boundedly: the procedure's own Theorem-3.4
witness is re-validated by the checker and must populate the class.

The same enumeration decides implication boundedly
(:func:`oracle_countermodel`): a small model of ``S`` in which the
Definition-level :func:`~repro.cr.implication.statement_holds` says
``K`` fails means the stateless procedure and a session must both
answer NOT_IMPLIED.  This catches a Section-4 reduction predicate that
selects too few compound classes; the countermodel checks elsewhere
catch one that selects too many.

The enumeration is staged so the oracle stays fast: class-extension
candidates are pre-pruned against ISA/disjointness/covering, and each
relationship's extension is chosen independently (cardinality
declarations couple one relationship to the class extensions, never
two relationships to each other).  Every model the oracle returns is
re-validated with :func:`repro.cr.checker.check_model`, so the staging
cannot silently diverge from the real semantics.

Also here: the ISA-free agreement property — on schemas without ISA
(and without the Section-5 extensions) the Lenzerini–Nobili baseline,
the full procedure, and a :class:`repro.session.ReasoningSession` must
return identical per-class verdicts.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cr.baseline import baseline_satisfiable_classes
from repro.cr.builder import SchemaBuilder
from repro.cr.checker import check_model
from repro.cr.constraints import MaxCardinalityStatement
from repro.cr.construction import construct_model_for_result
from repro.cr.implication import implies, statement_holds
from repro.cr.interpretation import Interpretation
from repro.cr.satisfiability import is_class_satisfiable, satisfiable_classes
from repro.cr.schema import CRSchema, Relationship
from repro.runtime.outcome import ImplicationVerdict
from repro.session import ReasoningSession
from tests.strategies import (
    implication_queries_for,
    property_max_examples,
    schemas,
)

ORACLE_DOMAIN = 2
"""Domain bound for the brute-force search.  Two individuals already
distinguish every constraint kind the strategies generate (ISA
violations, disjointness overlaps, cardinality deficits); pushing to 3
multiplies the search space without changing any verdict on shrunken
counterexamples."""

MAXC_ORACLE_DOMAIN = 3
"""Domain bound for refuting ``maxc = n``.  A violation needs one
individual in ``n + 1`` tuples, and over two individuals a binary
relationship holds at most two tuples per individual and role, so
``ORACLE_DOMAIN`` could never refute ``maxc = 2``; three individuals
can."""


def implication_oracle_domain(query) -> int:
    """The bounded oracle's domain size for an implication query."""
    if isinstance(query, MaxCardinalityStatement):
        return MAXC_ORACLE_DOMAIN
    return ORACLE_DOMAIN


def _class_extension_candidates(schema: CRSchema, domain: tuple[str, ...]):
    """All class-extension maps over ``domain`` that respect ISA,
    disjointness, and covering (conditions the relationship extensions
    cannot repair, so pruning here is sound)."""
    subsets = [
        frozenset(combo)
        for size in range(len(domain) + 1)
        for combo in itertools.combinations(domain, size)
    ]
    for extents in itertools.product(subsets, repeat=len(schema.classes)):
        class_ext = dict(zip(schema.classes, extents))
        if any(
            not class_ext[sub] <= class_ext[sup]
            for sub, sup in schema.isa_statements
        ):
            continue
        if any(
            class_ext[first] & class_ext[second]
            for group in schema.disjointness_groups
            for first, second in itertools.combinations(sorted(group), 2)
        ):
            continue
        if any(
            not class_ext[covered]
            <= frozenset().union(*(class_ext[cls] for cls in coverers))
            for covered, coverers in schema.coverings
        ):
            continue
        yield class_ext


def _relationship_choices(
    schema: CRSchema,
    rel: Relationship,
    class_ext: dict[str, frozenset[str]],
):
    """All extensions of ``rel`` (typed tuple subsets) satisfying every
    cardinality declaration on ``rel`` under ``class_ext``."""
    roles = [role for role, _ in rel.signature]
    pools = [
        sorted(class_ext[rel.primary_class(role)]) for role in roles
    ]
    tuples = [
        dict(zip(roles, combo)) for combo in itertools.product(*pools)
    ]
    cards = [
        (cls, role, card)
        for (cls, rel_name, role), card in schema.declared_cards.items()
        if rel_name == rel.name
    ]
    for size in range(len(tuples) + 1):
        for chosen in itertools.combinations(tuples, size):
            ok = True
            for cls, role, card in cards:
                for individual in class_ext[cls]:
                    count = sum(
                        1 for tup in chosen if tup[role] == individual
                    )
                    if count < card.minc or (
                        card.maxc is not None and count > card.maxc
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                yield list(chosen)


def _oracle_models(
    schema: CRSchema,
    max_domain: int,
    wanted: Callable[[dict[str, frozenset[str]]], bool],
    varied: str | None = None,
):
    """Checker-validated models of ``schema`` over at most
    ``max_domain`` individuals whose class extensions pass ``wanted``.

    Each class-extension candidate is paired with *every* admissible
    extension of relationship ``varied`` and the first admissible
    extension of each other relationship — complete for any question
    about ``varied`` alone, because relationships never constrain one
    another."""
    domain = tuple(f"d{i}" for i in range(max_domain))
    for class_ext in _class_extension_candidates(schema, domain):
        if not wanted(class_ext):
            continue
        options = {}
        for rel in schema.relationships:
            choices = _relationship_choices(schema, rel, class_ext)
            if rel.name == varied:
                options[rel.name] = list(choices)
            else:
                first = next(choices, None)
                options[rel.name] = [] if first is None else [first]
        for combo in itertools.product(*options.values()):
            model = Interpretation.build(
                class_ext, dict(zip(options, combo)), extra_domain=domain
            )
            violations = check_model(schema, model)
            assert not violations, (
                "oracle accepted a non-model — staging bug: "
                f"{[v for v in violations]}"
            )
            yield model


def oracle_model(
    schema: CRSchema, cls: str, max_domain: int = ORACLE_DOMAIN
) -> Interpretation | None:
    """A checker-validated model of ``schema`` populating ``cls`` with
    at most ``max_domain`` individuals, or ``None`` if none exists."""
    models = _oracle_models(schema, max_domain, lambda ext: bool(ext[cls]))
    return next(models, None)


def oracle_countermodel(
    schema: CRSchema, query, max_domain: int = ORACLE_DOMAIN
) -> Interpretation | None:
    """A checker-validated model of ``schema`` violating the implication
    ``query`` with at most ``max_domain`` individuals, or ``None``.

    The violation is read off the model by the Definition-level
    :func:`~repro.cr.implication.statement_holds`, never through the
    compound-class predicates the decision procedures share."""
    models = _oracle_models(
        schema, max_domain, lambda ext: True, getattr(query, "rel", None)
    )
    return next(
        (model for model in models if not statement_holds(model, query)), None
    )


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=property_max_examples())
@given(data=st.data())
def test_procedure_agrees_with_bounded_oracle(data):
    schema = data.draw(schemas(max_classes=3, allow_extensions=True))
    cls = data.draw(st.sampled_from(schema.classes))
    result = is_class_satisfiable(schema, cls)
    small_model = oracle_model(schema, cls)

    if small_model is not None:
        assert result.satisfiable, (
            f"oracle found a {ORACLE_DOMAIN}-element model populating "
            f"{cls!r} but the procedure says UNSAT"
        )
    if result.satisfiable:
        witness = construct_model_for_result(result)
        assert not check_model(schema, witness)
        assert witness.instances_of(cls)
    else:
        assert small_model is None


@settings(max_examples=property_max_examples())
@given(data=st.data())
def test_implication_procedures_agree_with_bounded_oracle(data):
    """Whenever a small model of ``S`` violates ``K``, the stateless
    procedure and a session both answer NOT_IMPLIED: a Section-4
    predicate selecting too few compound classes would miss it.
    Several queries per schema share one session, so the CI example
    budget still reaches every query kind."""
    schema = data.draw(schemas(max_classes=3, allow_extensions=True))
    queries = data.draw(
        st.lists(implication_queries_for(schema), min_size=1, max_size=4)
    )
    session = ReasoningSession(schema)
    for query in queries:
        domain = implication_oracle_domain(query)
        if oracle_countermodel(schema, query, domain) is None:
            continue
        stateless = implies(schema, query).verdict
        assert stateless is ImplicationVerdict.NOT_IMPLIED, (
            f"a {domain}-element model violates {query.pretty()} "
            "but the procedure says it is implied"
        )
        assert session.implies(query).verdict is ImplicationVerdict.NOT_IMPLIED, (
            f"a {domain}-element model violates {query.pretty()} "
            "but the session says it is implied"
        )


@settings(max_examples=property_max_examples())
@given(data=st.data())
def test_isa_free_schemas_agree_with_baseline(data):
    schema = data.draw(schemas(allow_isa=False))
    expected = baseline_satisfiable_classes(schema)
    assert satisfiable_classes(schema) == expected
    assert ReasoningSession(schema).satisfiable_classes() == expected


# ---------------------------------------------------------------------------
# deterministic anchors
# ---------------------------------------------------------------------------


def test_figure1_oracle_agreement(figure1):
    """Figure 1 is the paper's finitely-unsatisfiable pathology: the
    oracle and the procedure must agree class by class."""
    verdicts = satisfiable_classes(figure1)
    assert not all(verdicts.values())
    for cls, satisfiable in verdicts.items():
        model = oracle_model(figure1, cls)
        if model is not None:
            assert satisfiable
        if not satisfiable:
            assert model is None


def test_three_individuals_refute_maxc_two():
    """Why ``maxc`` queries search :data:`MAXC_ORACLE_DOMAIN`
    individuals: only a third individual gives one ``A`` three ``R``
    tuples, the most its declared ``maxc = 3`` allows, so both
    procedures must answer NOT_IMPLIED (a ``C_exc`` asked for four
    tuples would wrongly make it implied)."""
    schema = (
        SchemaBuilder("Pairs")
        .classes("A", "B")
        .relationship("R", U1="A", U2="B")
        .card("A", "R", "U1", 0, 3)
        .build()
    )
    query = MaxCardinalityStatement("A", "R", "U1", 2)
    assert oracle_countermodel(schema, query, ORACLE_DOMAIN) is None
    model = oracle_countermodel(schema, query, MAXC_ORACLE_DOMAIN)
    assert model is not None and not statement_holds(model, query)
    assert implies(schema, query).verdict is ImplicationVerdict.NOT_IMPLIED
    session = ReasoningSession(schema)
    assert session.implies(query).verdict is ImplicationVerdict.NOT_IMPLIED


def test_meeting_every_class_has_small_model(meeting):
    for cls in meeting.classes:
        model = oracle_model(meeting, cls, max_domain=ORACLE_DOMAIN)
        assert model is not None
        assert model.instances_of(cls)
