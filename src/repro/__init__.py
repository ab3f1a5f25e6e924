"""repro — ISA + cardinality reasoning for database schemas.

A complete reproduction of

    D. Calvanese, M. Lenzerini,
    "On the Interaction Between ISA and Cardinality Constraints",
    Proc. of the 10th IEEE Int. Conf. on Data Engineering (ICDE'94).

The library decides, for schemas in the paper's CR data model (classes,
n-ary relationships with roles, ISA statements, refinable cardinality
constraints), whether a class can be populated in a **finite** database
state, and whether the schema **implies** further ISA or cardinality
constraints — soundly and completely, by reduction to homogeneous
systems of linear disequations solved with an exact rational simplex.

Quickstart::

    from repro import SchemaBuilder, is_class_satisfiable, implies_isa

    schema = (
        SchemaBuilder("Meeting")
        .classes("Speaker", "Discussant", "Talk")
        .isa("Discussant", "Speaker")
        .relationship("Holds", U1="Speaker", U2="Talk")
        .card("Speaker", "Holds", "U1", minc=1)
        .card("Talk", "Holds", "U2", minc=1, maxc=1)
        .build()
    )
    assert is_class_satisfiable(schema, "Speaker").satisfiable
    assert not implies_isa(schema, "Speaker", "Talk").implied

Package map (see DESIGN.md for the full inventory):

=====================  ====================================================
``repro.cr``           the paper: schema model, expansion, disequation
                       system, satisfiability, model construction,
                       implication
``repro.solver``       exact rational LP substrate (simplex,
                       Fourier–Motzkin, homogeneous-cone routines)
``repro.er``           Entity-Relationship front-end (Figures 1–2)
``repro.oo``           object-oriented adapter (attributes as
                       relationships)
``repro.kr``           frame/KR adapter (slots with number restrictions)
``repro.ext``          Section-5 extensions: disjointness, covering,
                       schema debugging (MUS extraction)
``repro.session``      cached reasoning sessions: fingerprinted
                       schemas, amortised expansions, batch queries
``repro.dsl``          textual schema language (parse / serialize)
``repro.render``       regenerate the paper's figures as text
``repro.paper``        the paper's running examples, ready-made
=====================  ====================================================
"""

from repro.cr.builder import SchemaBuilder
from repro.cr.checker import check_model, is_model
from repro.cr.constraints import (
    CardinalityDeclaration,
    CoveringStatement,
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.cr.construction import construct_model, construct_model_for_result
from repro.cr.expansion import Expansion, ExpansionLimits
from repro.cr.explain import UnsatisfiabilityExplanation, explain_unsatisfiability
from repro.cr.implication import (
    ImplicationResult,
    implies,
    implies_disjointness,
    implies_isa,
    implies_max_cardinality,
    implies_min_cardinality,
)
from repro.cr.interpretation import Interpretation, LabeledTuple
from repro.cr.satisfiability import (
    SatisfiabilityResult,
    is_class_satisfiable,
    is_schema_fully_satisfiable,
    satisfiable_classes,
)
from repro.cr.schema import Card, CRSchema, Relationship, UNBOUNDED
from repro.cr.system import build_system
from repro.cr.unrestricted import (
    is_class_unrestricted_satisfiable,
    unrestricted_satisfiable_classes,
)
from repro.db import Database, IntegrityError
from repro.dsl import parse_schema, serialize_schema
from repro.er import ERSchema, er_to_cr
from repro.errors import (
    BudgetExceededError,
    CancelledError,
    LimitExceededError,
    ReproError,
    SchemaError,
)
from repro.ext import (
    minimal_unsatisfiable_constraints,
    pruning_report,
    quickxplain_unsatisfiable_constraints,
    with_covering,
    with_disjointness,
)
from repro.kr import KnowledgeBase, kr_to_cr
from repro.oo import OOModel, oo_to_cr
from repro.session import (
    ReasoningSession,
    SessionCache,
    schema_fingerprint,
)
from repro.runtime import (
    Budget,
    ImplicationVerdict,
    ProgressSnapshot,
    Verdict,
    activate,
    current_budget,
    inject_solver_faults,
    run_governed,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # schema model
    "SchemaBuilder",
    "CRSchema",
    "Relationship",
    "Card",
    "UNBOUNDED",
    "Expansion",
    "ExpansionLimits",
    # statements
    "IsaStatement",
    "CardinalityDeclaration",
    "MinCardinalityStatement",
    "MaxCardinalityStatement",
    "DisjointnessStatement",
    "CoveringStatement",
    # interpretations / checking
    "Interpretation",
    "LabeledTuple",
    "check_model",
    "is_model",
    # reasoning
    "build_system",
    "SatisfiabilityResult",
    "is_class_satisfiable",
    "satisfiable_classes",
    "is_schema_fully_satisfiable",
    "unrestricted_satisfiable_classes",
    "is_class_unrestricted_satisfiable",
    "Database",
    "IntegrityError",
    "construct_model",
    "construct_model_for_result",
    "ImplicationResult",
    "implies",
    "implies_isa",
    "implies_min_cardinality",
    "implies_max_cardinality",
    "implies_disjointness",
    # front-ends
    "ERSchema",
    "er_to_cr",
    "OOModel",
    "oo_to_cr",
    "KnowledgeBase",
    "kr_to_cr",
    # extensions
    "with_disjointness",
    "with_covering",
    "pruning_report",
    "minimal_unsatisfiable_constraints",
    "quickxplain_unsatisfiable_constraints",
    "UnsatisfiabilityExplanation",
    "explain_unsatisfiability",
    # DSL
    "parse_schema",
    "serialize_schema",
    # sessions and caching
    "ReasoningSession",
    "SessionCache",
    "schema_fingerprint",
    # resource governance
    "Budget",
    "ProgressSnapshot",
    "Verdict",
    "ImplicationVerdict",
    "activate",
    "current_budget",
    "run_governed",
    "inject_solver_faults",
    # errors
    "ReproError",
    "SchemaError",
    "LimitExceededError",
    "BudgetExceededError",
    "CancelledError",
]
