"""Implication of ISA and cardinality constraints (Section 4 of the paper).

``S ⊨ K`` — every finite model of schema ``S`` satisfies statement
``K`` — is decided by reduction to (un)satisfiability, written once per
query kind by :func:`reduce_query` and decided by the one
:func:`implies` body here and the one
:meth:`repro.session.ReasoningSession.implies` body:

* **ISA** ``C ≼ D``: not implied iff ``Ψ_S`` admits an acceptable
  solution making positive some consistent compound class containing
  ``C`` but not ``D`` — from such a solution a model with a ``C``
  instance outside ``D`` is constructed.
* **minc** ``minc(C, R, U) = m`` (``m > 0``): the paper's auxiliary
  class ``C_exc`` is added with ``C_exc ≼ C`` and
  ``maxc(C_exc, R, U) = m − 1``; the statement is implied iff ``C_exc``
  is unsatisfiable in the extended schema.
* **maxc** ``maxc(C, R, U) = n``: dually, ``C_exc ≼ C`` with
  ``minc(C_exc, R, U) = n + 1``.
* **disjointness** (Section-5 extension): ``C`` and ``D`` disjoint is
  implied iff no consistent compound class containing both can be
  populated.

Whenever a statement is *not* implied, the result can produce an
explicit finite counter-model (a model of ``S`` violating ``K``), which
the test-suite re-validates with the Definition-2.2 checker.  The model
is evidence, not part of the verdict, so it is built on first read of
:attr:`ImplicationResult.countermodel`: the verdict paths keep only the
system and the integer witness, and callers that never read the model
(batch, diff and served records) never pay for its construction.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.construction import construct_model
from repro.cr.expansion import ExpansionLimits
from repro.cr.interpretation import Interpretation
from repro.cr.satisfiability import (
    DEFAULT_NAIVE_LIMIT,
    _resolve_engine,
    decide_compounds,
)
from repro.cr.schema import Card, CRSchema, Relationship, UNBOUNDED
from repro.cr.system import CRSystem
from repro.errors import BudgetExceededError, ReproError, SchemaError
from repro.pipeline import STAGE_VERDICT, stage
from repro.runtime.budget import Budget, ProgressSnapshot, run_governed
from repro.runtime.outcome import ImplicationVerdict
from repro.utils.naming import FreshNames

ImplicationQuery = (
    IsaStatement
    | MinCardinalityStatement
    | MaxCardinalityStatement
    | DisjointnessStatement
)

CardinalityQuery = MinCardinalityStatement | MaxCardinalityStatement
"""The query kinds :func:`reduce_query` decides on ``S + C_exc``."""


@dataclass(frozen=True)
class ImplicationResult:
    """Outcome of an implication check ``S ⊨ K``.

    When not implied, ``countermodel`` is a finite model of ``S`` in
    which ``K`` fails.  It is built on first read, by the zero-argument
    ``countermodel_builder`` the deciding procedure passes in place of a
    model, and cached on the result; implied and UNKNOWN results carry
    no builder and read ``None``.  Construction charges no budget.
    ``verdict`` is the three-valued answer: ``IMPLIED``,
    ``NOT_IMPLIED``, or — only when a caller-supplied budget ran out —
    ``UNKNOWN``, in which case ``unknown_reason`` explains why and
    ``implied`` conservatively reads ``False``.
    """

    query: ImplicationQuery
    implied: bool
    engine: str
    countermodel_builder: Callable[[], Interpretation] | None = field(
        compare=False, repr=False
    )
    verdict: ImplicationVerdict | None = None
    unknown_reason: str | None = None
    snapshot: ProgressSnapshot | None = None

    def __post_init__(self) -> None:
        if self.verdict is None:
            object.__setattr__(
                self, "verdict", ImplicationVerdict.from_bool(self.implied)
            )

    @cached_property
    def countermodel(self) -> Interpretation | None:
        """A finite model of ``S`` violating the query (not implied
        only), built on first access."""
        if self.countermodel_builder is None:
            return None
        return self.countermodel_builder()

    def pretty(self) -> str:
        if self.verdict is ImplicationVerdict.UNKNOWN:
            return f"S |? {self.query.pretty()}  (unknown: {self.unknown_reason})"
        verdict = "S |= " if self.implied else "S |/= "
        return verdict + self.query.pretty()


def _unknown_implication(
    query: ImplicationQuery, engine: str, error: BudgetExceededError
) -> ImplicationResult:
    snapshot = error.snapshot
    return ImplicationResult(
        query=query,
        implied=False,
        engine=engine,
        countermodel_builder=None,
        verdict=ImplicationVerdict.UNKNOWN,
        unknown_reason=str(error),
        snapshot=snapshot if isinstance(snapshot, ProgressSnapshot) else None,
    )


def exceptional_class(schema: CRSchema, cls: str, rel: str, role: str) -> str:
    """The name of Section 4's auxiliary class ``C_exc`` for a
    cardinality query on ``(cls, rel, role)``, after checking that the
    query is legal on ``schema``.

    The fresh-name choice is deterministic, so the same query against
    the same schema always yields the same extended schema — which is
    what lets :class:`repro.session.ReasoningSession` cache cardinality
    implications content-addressed by the extended schema's
    fingerprint."""
    relationship: Relationship = schema.relationship(rel)
    primary = relationship.primary_class(role)
    if not schema.is_subclass(cls, primary):
        raise SchemaError(
            f"cardinality query on ({cls!r}, {rel!r}, {role!r}) is illegal: "
            f"{cls!r} is not a subclass of the primary class {primary!r}"
        )
    fresh = FreshNames(schema.classes)
    fresh.reserve(rel)
    return fresh.fresh("C_exc")


def exceptional_schema(
    schema: CRSchema,
    exc: str,
    cls: str,
    rel: str,
    role: str,
    exceptional_card: Card,
) -> CRSchema:
    """The schema ``S'`` of Section 4: ``S`` plus ``exc ≼ cls`` with the
    given cardinality on ``(rel, role)``; ``exc`` comes from
    :func:`exceptional_class`."""
    cards = schema.declared_cards
    cards[(exc, rel, role)] = exceptional_card
    return CRSchema(
        classes=tuple(schema.classes) + (exc,),
        relationships=schema.relationships,
        isa=tuple(schema.isa_statements) + ((exc, cls),),
        cards=cards,
        disjointness=schema.disjointness_groups,
        coverings=schema.coverings,
        name=f"{schema.name}+{exc}",
    )


def strip_class(interpretation: Interpretation, cls: str) -> Interpretation:
    """Drop one class's extension (the reduct from ``S'`` back to ``S``)."""
    return Interpretation(
        domain=interpretation.domain,
        class_extensions={
            name: extension
            for name, extension in interpretation.class_extensions.items()
            if name != cls
        },
        relationship_extensions=interpretation.relationship_extensions,
    )


@dataclass(frozen=True)
class Reduction:
    """Section 4's reduction of ``S ⊨ K`` to one Theorem-3.3 test.

    ``K`` fails in some finite model iff an acceptable solution of
    ``Ψ`` over :attr:`schema` — ``S`` itself, or ``S + C_exc`` for a
    cardinality query — populates a consistent compound class whose
    member set satisfies ``where``.  ``classes`` are the classes the
    query names (a session routes on them), and ``strip`` is the
    auxiliary class a countermodel drops: ``C_exc``, or ``None``.
    ``build`` makes the deciding schema on the first read of
    :attr:`schema`, so a reduction made only to validate a query builds
    no schema.
    """

    classes: tuple[str, ...]
    where: Callable[[frozenset[str]], bool]
    build: Callable[[], CRSchema] = field(compare=False, repr=False)
    strip: str | None = None

    @cached_property
    def schema(self) -> CRSchema:
        """The deciding schema, built on first read."""
        return self.build()


def reduce_query(
    schema: CRSchema, query: ImplicationQuery
) -> Reduction | None:
    """The :class:`Reduction` deciding ``schema ⊨ query``, or ``None``
    for the vacuously implied ``minc = 0``.

    Raises :class:`~repro.errors.SchemaError` for an unknown class or
    an illegal cardinality query, and
    :class:`~repro.errors.ReproError` for an unsupported query.
    """
    if isinstance(query, IsaStatement):
        sub, sup = query.sub, query.sup
        schema.require_class(sub)
        schema.require_class(sup)
        return Reduction(
            (sub, sup),
            lambda members: sub in members and sup not in members,
            lambda: schema,
        )
    if isinstance(query, DisjointnessStatement):
        classes = tuple(sorted(query.classes))
        for cls in classes:
            schema.require_class(cls)
        return Reduction(
            classes,
            lambda members: sum(cls in members for cls in classes) >= 2,
            lambda: schema,
        )
    if isinstance(query, MinCardinalityStatement):
        if query.value == 0:
            return None
        card = Card(0, query.value - 1)
    elif isinstance(query, MaxCardinalityStatement):
        card = Card(query.value + 1, UNBOUNDED)
    else:
        raise ReproError(f"unsupported implication query {query!r}")
    cls, rel, role = query.cls, query.rel, query.role
    exc = exceptional_class(schema, cls, rel, role)
    return Reduction(
        (cls,),
        lambda members: exc in members,
        lambda: exceptional_schema(schema, exc, cls, rel, role, card),
        strip=exc,
    )


def _countermodel_builder(
    cr_system: CRSystem,
    solution: Mapping[str, int],
    strip: str | None = None,
) -> Callable[[], Interpretation]:
    """The deferred Theorem-3.3 countermodel of a not-implied answer:
    ``construct_model`` over the witness, with the Section-4 class
    ``strip`` (``C_exc``) dropped from the model when given."""

    def build() -> Interpretation:
        model = construct_model(cr_system, solution)
        return model if strip is None else strip_class(model, strip)

    return build


def implies(
    schema: CRSchema,
    query: ImplicationQuery,
    engine: str = "fixpoint",
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
) -> ImplicationResult:
    """Decide ``S ⊨ query`` through its :func:`reduce_query` reduction.

    A pinned zero-set walk (``--backend``, ``REPRO_BACKEND``) replaces
    the default ``fixpoint`` engine, and the result and its budget
    phase name the engine that decided.  ``budget`` governs the whole
    check and degrades it to an UNKNOWN verdict on exhaustion;
    ``naive_limit`` and ``fallback`` configure the solver degradation
    chain (see :mod:`repro.cr.satisfiability`).
    """
    reduction = reduce_query(schema, query)
    engine = _resolve_engine(engine)
    if reduction is None:
        return ImplicationResult(query, True, engine, None)

    def compute() -> ImplicationResult:
        cr_system, found, solution, _support = decide_compounds(
            reduction.schema,
            reduction.where,
            engine,
            limits=limits,
            naive_limit=naive_limit,
            fallback=fallback,
        )
        with stage(STAGE_VERDICT):
            if not found:
                return ImplicationResult(query, True, engine, None)
            assert solution is not None
            return ImplicationResult(
                query,
                False,
                engine,
                _countermodel_builder(cr_system, solution, reduction.strip),
            )

    return run_governed(
        budget, compute, lambda error: _unknown_implication(query, engine, error)
    )


def implies_isa(
    schema: CRSchema,
    sub: str,
    sup: str,
    engine: str = "fixpoint",
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
) -> ImplicationResult:
    """Decide ``S ⊨ sub ≼ sup``."""
    query = IsaStatement(sub, sup)
    return implies(schema, query, engine, limits, budget, naive_limit, fallback)


def implies_min_cardinality(
    schema: CRSchema,
    cls: str,
    rel: str,
    role: str,
    value: int,
    engine: str = "fixpoint",
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
) -> ImplicationResult:
    """Decide ``S ⊨ minc(cls, rel, role) = value``.

    ``value = 0`` is vacuously implied.  Otherwise ``C_exc`` with
    ``maxc = value − 1`` is satisfiable exactly when some model has a
    ``cls`` instance participating fewer than ``value`` times.
    """
    query = MinCardinalityStatement(cls, rel, role, value)
    return implies(schema, query, engine, limits, budget, naive_limit, fallback)


def implies_max_cardinality(
    schema: CRSchema,
    cls: str,
    rel: str,
    role: str,
    value: int,
    engine: str = "fixpoint",
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
) -> ImplicationResult:
    """Decide ``S ⊨ maxc(cls, rel, role) = value``.

    ``C_exc`` is required to participate at least ``value + 1`` times;
    it is satisfiable exactly when some model breaks the bound.
    """
    query = MaxCardinalityStatement(cls, rel, role, value)
    return implies(schema, query, engine, limits, budget, naive_limit, fallback)


def implies_disjointness(
    schema: CRSchema,
    classes,
    engine: str = "fixpoint",
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
) -> ImplicationResult:
    """Decide whether the given classes are pairwise disjoint in all models.

    Not implied iff some *pair* can share an instance, i.e. some
    consistent compound class containing both can be populated.
    """
    members = frozenset(classes)
    if len(members) < 2:
        raise SchemaError("disjointness query needs at least two classes")
    query = DisjointnessStatement(members)
    return implies(schema, query, engine, limits, budget, naive_limit, fallback)


# ---------------------------------------------------------------------------
# statement evaluation over a concrete interpretation (used by tests
# and by callers that want to inspect counter-models)
# ---------------------------------------------------------------------------


def statement_holds(
    interpretation: Interpretation, statement: ImplicationQuery
) -> bool:
    """Whether an interpretation satisfies a constraint statement."""
    if isinstance(statement, IsaStatement):
        return interpretation.instances_of(
            statement.sub
        ) <= interpretation.instances_of(statement.sup)
    if isinstance(statement, MinCardinalityStatement):
        counts = interpretation.participation_counts(
            statement.rel, statement.role
        )
        return all(
            counts[individual] >= statement.value
            for individual in interpretation.instances_of(statement.cls)
        )
    if isinstance(statement, MaxCardinalityStatement):
        counts = interpretation.participation_counts(
            statement.rel, statement.role
        )
        return all(
            counts[individual] <= statement.value
            for individual in interpretation.instances_of(statement.cls)
        )
    if isinstance(statement, DisjointnessStatement):
        members = sorted(statement.classes)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                if interpretation.instances_of(
                    first
                ) & interpretation.instances_of(second):
                    return False
        return True
    raise ReproError(f"unsupported statement {statement!r}")
