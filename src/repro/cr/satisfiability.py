"""Class satisfiability in CR (Section 3.3 of the paper).

Theorem 3.3 reduces satisfiability of a class ``C_s`` to the existence
of an **acceptable** solution of ``Ψ'_S = Ψ_S ∪ {Σ_{C̄ ∋ C_s} Var(C̄) > 0}``,
where a solution is acceptable when every relationship unknown that
depends on a zero class unknown is itself zero.  Theorem 3.4 makes this
decidable by enumerating the zero-set ``Z`` of class unknowns.

Three engines implement the test:

``naive``
    The literal Theorem-3.4 procedure: for every subset ``Z`` of the
    class unknowns, check feasibility of ``Ψ_Z`` (one exact LP each).
    Exponential in the number of *consistent compound classes* — i.e.
    doubly exponential in the schema — but it is the theorem verbatim,
    and serves as the differential-testing oracle for the fast engine.

``pruned``
    The same enumeration with two admissible prunes — orbit symmetry
    reduction and Farkas-nogood learning (:mod:`repro.solver.pruned`).
    Verdict, witness, and support are byte-identical to ``naive``; only
    the number of LPs solved shrinks.

``fixpoint``
    Exploits the cone structure of homogeneous systems: the set of
    unknowns positive in *some* solution is closed under union (sum the
    witnesses), so there is a unique maximal support, computable with
    one LP per unknown.  Acceptability is then enforced by a fixpoint:
    any relationship unknown depending on a class unknown that can
    never be positive is forced to zero, the support is recomputed, and
    so on until stable.  The final support is exactly the union of the
    supports of all acceptable solutions, so:

    * class ``C`` is satisfiable  iff  some consistent compound class
      containing ``C`` has its unknown in the final support;
    * the accumulated full-support solution is itself acceptable and
      witnesses every satisfiable class at once.

    This needs polynomially many LP calls in the size of the expansion
    (the expansion itself remains exponential in the schema, as the
    paper proves is unavoidable).

**Resource governance.**  Both engines run under the ambient
:class:`repro.runtime.Budget` (the hot loops charge it; exhaustion
raises :class:`~repro.errors.BudgetExceededError`), and the public
entry points accept a ``budget=`` parameter that additionally turns
exhaustion into a graceful UNKNOWN verdict instead of an exception.

**Fallback.**  Every LP runs on the one exact kernel
(:mod:`repro.solver.core`), which raises
:class:`~repro.errors.SolverError` only on caller misuse, on its
defensive zero-pivot check, or when :mod:`repro.runtime.faults`
injects a fault.  A fault is not retried LP by LP; with
``fallback=True`` (the default) :func:`acceptable_with_positive`
re-decides the whole question on another engine:

    fixpoint  →  naive walk, when the system has at most ``naive_limit``
                 class unknowns (the naive engine enumerates ``2^n``
                 zero-sets)
    naive / pruned walk  →  fixpoint

Each engine is sound and complete, so a fallback's verdict equals the
unfaulted one.  When no fallback is left, or ``fallback=False``, the
typed ``SolverError`` surfaces at once.  Budget exhaustion is never
retried: running out of resources on one engine is no evidence that
another would do better.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from repro.analysis.analyzer import analyze
from repro.analysis.diagnostics import Diagnostic
from repro.cr.expansion import Expansion, ExpansionLimits
from repro.cr.schema import CRSchema
from repro.cr.system import CRSystem, build_system
from repro.errors import (
    BudgetExceededError,
    ReproError,
    SolverError,
)
from repro.pipeline import (
    STAGE_BUILD_SYSTEM,
    STAGE_EXPAND,
    STAGE_SOLVE,
    STAGE_VERDICT,
    stage,
)
from repro.runtime.budget import (
    Budget,
    ProgressSnapshot,
    run_governed,
)
from repro.runtime.outcome import Verdict
from repro.solver.homogeneous import integerize
from repro.solver.registry import (
    DEFAULT_NAIVE_LIMIT,
    AcceptabilityProblem,
    active_backend_name,
    decide_acceptable,
    fixpoint_support,
)


@dataclass(frozen=True)
class SatisfiabilityResult:
    """Outcome of a class-satisfiability check.

    ``verdict`` is the three-valued answer: ``SAT``, ``UNSAT``, or —
    only when the caller supplied a budget that ran out — ``UNKNOWN``,
    in which case ``unknown_reason`` explains why and ``snapshot``
    records how far the computation got.  ``satisfiable`` stays the
    two-valued view (UNKNOWN reads as ``False``, conservatively).

    ``solution`` is an acceptable non-negative *integer* solution of
    ``Ψ'_S`` when satisfiable (the paper's Figure 6 object), from which
    :func:`repro.cr.construction.construct_model` builds an explicit
    finite model.  ``support`` is the set of unknowns the witness makes
    positive.

    ``cr_system`` is the system ``Ψ_S`` the verdict was read from.  It
    is built on first read, by the zero-argument ``system_builder`` the
    deciding procedure passes, and cached on the result: a session
    answering from a restored store entry rebuilds ``Ψ_S`` only for a
    caller that reads it.  Results without a builder read ``None``: on
    an UNKNOWN verdict (the budget can run out before the system is
    even built) and on a precheck answer.

    ``diagnostic`` is set when the verdict was served by the static
    analyzer's precheck (engine :data:`ANALYSIS_ENGINE`): the
    ``error``-level :class:`repro.analysis.Diagnostic` whose witness
    proves the class empty in every model — no expansion was built, so
    ``cr_system``/``solution`` are ``None``.
    """

    cls: str
    satisfiable: bool
    engine: str
    system_builder: Callable[[], CRSystem] | None = field(
        compare=False, repr=False
    )
    solution: dict[str, int] | None
    support: frozenset[str] | None
    verdict: Verdict | None = None
    unknown_reason: str | None = None
    snapshot: ProgressSnapshot | None = None
    diagnostic: Diagnostic | None = None

    def __post_init__(self) -> None:
        if self.verdict is None:
            object.__setattr__(
                self, "verdict", Verdict.from_bool(self.satisfiable)
            )

    @cached_property
    def cr_system(self) -> CRSystem | None:
        """``Ψ_S`` of the deciding schema, built on first access."""
        if self.system_builder is None:
            return None
        return self.system_builder()

    def witness_count(self, unknown: str) -> int:
        """Convenience accessor into the witness solution."""
        if self.solution is None:
            raise ReproError("no witness: the class is unsatisfiable")
        return self.solution.get(unknown, 0)


ANALYSIS_ENGINE = "analysis"
"""Engine tag on results short-circuited by the static analyzer."""


def diagnostic_result(cls: str, diagnostic: Diagnostic) -> SatisfiabilityResult:
    """An UNSAT verdict served from a static-analysis error diagnostic.

    Sound by the witness contract of :mod:`repro.analysis`: the carried
    witness proves ``cls`` empty in every model, so the Theorem-3.3
    procedure would answer UNSAT too — without us paying for the
    expansion (``cr_system`` stays ``None``).
    """
    return SatisfiabilityResult(
        cls=cls,
        satisfiable=False,
        engine=ANALYSIS_ENGINE,
        system_builder=None,
        solution=None,
        support=frozenset(),
        diagnostic=diagnostic,
    )


def _unknown_result(
    cls: str, engine: str, error: BudgetExceededError
) -> SatisfiabilityResult:
    snapshot = error.snapshot
    return SatisfiabilityResult(
        cls=cls,
        satisfiable=False,
        engine=engine,
        system_builder=None,
        solution=None,
        support=None,
        verdict=Verdict.UNKNOWN,
        unknown_reason=str(error),
        snapshot=snapshot if isinstance(snapshot, ProgressSnapshot) else None,
    )


def is_acceptable(
    solution: Mapping[str, Fraction | int],
    dependencies: Mapping[str, tuple[str, ...]],
) -> bool:
    """Section 3.3's acceptability condition on a solution.

    Every relationship unknown depending (via some role) on a class
    unknown valued 0 must be 0.
    """
    for rel_unknown, class_unknowns in dependencies.items():
        if solution.get(rel_unknown, 0) == 0:
            continue
        if any(solution.get(c, 0) == 0 for c in class_unknowns):
            return False
    return True


def compound_targets(
    cr_system: CRSystem, where: Callable[[frozenset[str]], bool]
) -> frozenset[str]:
    """Theorem 3.3 targets: unknowns of the consistent compound classes
    whose member set satisfies ``where``.

    Some acceptable solution makes one of these unknowns positive
    exactly when the set meets the maximal acceptable support.  Class
    satisfiability asks it of the compound classes containing a class
    (:func:`class_targets`), and each Section-4 implication of the
    compound classes its :func:`repro.cr.implication.reduce_query`
    predicate selects.
    """
    return frozenset(
        cr_system.class_var[compound]
        for compound in cr_system.expansion.consistent_compound_classes()
        if where(compound.members)
    )


def class_targets(cr_system: CRSystem, cls: str) -> frozenset[str]:
    """Theorem 3.3 targets of class ``cls``: the unknowns of the
    consistent compound classes containing it.  Shared by the
    satisfiability entry points here and the cached
    :class:`repro.session.ReasoningSession`."""
    return compound_targets(cr_system, lambda members: cls in members)


def support_verdicts(
    cr_system: CRSystem, support: frozenset[str]
) -> dict[str, bool]:
    """Per-class verdicts read off a maximal acceptable support.

    The support settles every class at once (module docstring): a class
    is satisfiable iff its Theorem-3.3 target set meets the support.
    """
    return {
        cls: bool(class_targets(cr_system, cls) & support)
        for cls in cr_system.expansion.schema.classes
    }


# ---------------------------------------------------------------------------
# Fixpoint engine
# ---------------------------------------------------------------------------


def _fixpoint_problem(
    cr_system: CRSystem, targets: frozenset[str] = frozenset()
) -> AcceptabilityProblem:
    """The interned Theorem-3.3 decision input for the fixpoint engine.

    Probing only the class unknowns suffices: the fixpoint forces out
    every relationship unknown that depends on an unreachable class,
    and at the fixpoint the witness is positive on every reachable
    class unknown, which makes it acceptable regardless of which
    relationship unknowns it happens to use.  Fewer probes mean a much
    smaller LP (one shadow variable and two rows per probe).
    """
    return AcceptabilityProblem(
        system=cr_system.interned,
        class_unknowns=tuple(cr_system.class_var.values()),
        dependencies=cr_system.dependencies,
        targets=targets,
    )


def _naive_problem(
    cr_system: CRSystem, targets: frozenset[str]
) -> AcceptabilityProblem:
    """The decision input for the naive engine, whose zero-set universe
    is the *consistent* class unknowns."""
    return AcceptabilityProblem(
        system=cr_system.interned,
        class_unknowns=cr_system.consistent_class_unknowns(),
        dependencies=cr_system.dependencies,
        targets=targets,
    )


def decision_problem(
    cr_system: CRSystem, targets: frozenset[str]
) -> AcceptabilityProblem:
    """Public form of the Theorem-3.4 decision input (zero-set universe
    = the consistent class unknowns) for callers outside the engine
    dispatch: ``repro explain --nogoods``, benchmarks, and tests that
    drive :func:`repro.solver.pruned.pruned_zero_set_search` directly."""
    return _naive_problem(cr_system, targets)


def _resolve_engine(engine: str) -> str:
    """Honour a pinned engine: the default ``fixpoint`` yields to
    ``naive`` or ``pruned`` picked via ``--backend`` /
    ``REPRO_BACKEND``."""
    if engine == "fixpoint":
        return active_backend_name()
    return engine


def acceptable_support(
    cr_system: CRSystem,
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """Maximal support over all *acceptable* solutions, with a witness.

    The witness is a single acceptable solution positive on exactly the
    returned support.  See the module docstring for why the fixpoint is
    sound and complete.  The ambient budget is checked once per
    fixpoint iteration on top of the per-pivot charges inside the
    kernel.
    """
    support, solution = fixpoint_support(_fixpoint_problem(cr_system))
    assert is_acceptable(solution, cr_system.dependencies)
    return support, solution


def acceptable_with_positive(
    cr_system: CRSystem,
    targets: frozenset[str],
    engine: str = "fixpoint",
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """Is there an acceptable solution making some ``targets`` unknown positive?

    This is the common core of Theorem 3.3 (``targets`` = unknowns of
    the compound classes containing the queried class) and of the
    Section-4 implication checks (``targets`` = unknowns of the
    counterexample compound classes).  Returns
    ``(found, integer_witness, support)``.

    With ``fallback``, a solver fault re-decides the question on
    another engine (module docstring); budget exhaustion is never
    absorbed by a fallback.
    """
    engine = _resolve_engine(engine)
    if engine == "fixpoint":
        try:
            return _fixpoint_with_positive(cr_system, targets)
        except BudgetExceededError:
            raise
        except SolverError:
            unknowns = len(cr_system.consistent_class_unknowns())
            if not fallback or unknowns > naive_limit:
                raise
            return _naive_with_positive(cr_system, targets, naive_limit)
    if engine in ("naive", "pruned"):
        try:
            return _naive_with_positive(
                cr_system, targets, naive_limit, engine=engine
            )
        except BudgetExceededError:
            raise
        except SolverError:
            if not fallback:
                raise
            return _fixpoint_with_positive(cr_system, targets)
    raise ReproError(f"unknown engine {engine!r}")


def _fixpoint_with_positive(
    cr_system: CRSystem,
    targets: frozenset[str],
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """Answer the Theorem-3.3 question from :func:`acceptable_support`."""
    support, solution = acceptable_support(cr_system)
    if not (targets & support):
        return False, None, support
    return True, integerize(solution), support


# ---------------------------------------------------------------------------
# Zero-set walks (Theorem 3.4, dispatched by the registry)
# ---------------------------------------------------------------------------


def _naive_with_positive(
    cr_system: CRSystem,
    targets: frozenset[str],
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    engine: str = "naive",
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """Run a Theorem-3.4 zero-set walk (``naive`` or ``pruned``)."""
    return decide_acceptable(
        _naive_problem(cr_system, targets), engine, naive_limit
    )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def decide_compounds(
    schema: CRSchema,
    where: Callable[[frozenset[str]], bool],
    engine: str,
    expansion: Expansion | None = None,
    limits: ExpansionLimits | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
) -> tuple[CRSystem, bool, dict[str, int] | None, frozenset[str]]:
    """The Theorem-3.3 test every stateless query runs: can an
    acceptable solution of ``Ψ_S`` populate a consistent compound class
    of ``schema`` whose member set satisfies ``where``?

    Expands ``schema`` (unless ``expansion`` is given), builds ``Ψ_S``,
    selects the :func:`compound_targets` and decides them on the
    already resolved ``engine``, each step under its pipeline stage.
    Returns ``(Ψ_S, found, integer_witness, support)``.
    """
    with stage(STAGE_EXPAND, phase="expansion"):
        if expansion is None:
            expansion = Expansion(schema, limits)
    with stage(STAGE_BUILD_SYSTEM, phase="system"):
        cr_system = build_system(expansion, mode="pruned")
        targets = compound_targets(cr_system, where)
    with stage(STAGE_SOLVE, phase=f"decide:{engine}"):
        found, solution, support = acceptable_with_positive(
            cr_system, targets, engine, naive_limit, fallback
        )
    return cr_system, found, solution, support


def is_class_satisfiable(
    schema: CRSchema,
    cls: str,
    engine: str = "fixpoint",
    expansion: Expansion | None = None,
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
    precheck: bool = False,
) -> SatisfiabilityResult:
    """Decide whether ``cls`` can be populated in some finite model.

    Parameters
    ----------
    schema:
        The CR-schema.
    cls:
        The class whose satisfiability is queried.
    engine:
        ``"fixpoint"`` (default), ``"naive"``, or ``"pruned"`` — see
        the module
        docstring.
    expansion:
        Optionally a precomputed expansion of ``schema``, to amortise
        the exponential step over several calls.
    limits:
        Expansion guards; ignored when ``expansion`` is given.
    budget:
        A :class:`repro.runtime.Budget`.  When given, it governs the
        whole pipeline (expansion, system generation, solving) and the
        result degrades to an UNKNOWN verdict — instead of raising —
        if it runs out.  Without one, any *ambient* budget still
        applies but exhaustion propagates as
        :class:`~repro.errors.BudgetExceededError`.
    naive_limit:
        Cap on class unknowns for the naive engine (it enumerates
        ``2^n`` zero-sets); also bounds the fixpoint→naive fallback.
    fallback:
        Whether a solver fault re-decides the question on another
        engine (``False`` lets it surface; see the module docstring).
    precheck:
        Run the polynomial-time static analyzer first and serve the
        verdict from an ``error`` diagnostic when one proves ``cls``
        empty — skipping the exponential expansion entirely.  Off by
        default so this function remains the analyzer-free oracle the
        differential soundness suite compares against.
    """
    schema.require_class(cls)
    engine = _resolve_engine(engine)

    def compute() -> SatisfiabilityResult:
        if precheck:
            diagnostic = analyze(schema).unsat_witness(cls)
            if diagnostic is not None:
                with stage(STAGE_VERDICT):
                    return diagnostic_result(cls, diagnostic)
        cr_system, satisfiable, solution, support = decide_compounds(
            schema,
            lambda members: cls in members,
            engine,
            expansion,
            limits,
            naive_limit,
            fallback,
        )
        with stage(STAGE_VERDICT):
            return SatisfiabilityResult(
                cls=cls,
                satisfiable=satisfiable,
                engine=engine,
                system_builder=lambda: cr_system,
                solution=solution,
                support=support if satisfiable else frozenset(),
            )

    return run_governed(
        budget, compute, lambda error: _unknown_result(cls, engine, error)
    )


def satisfiable_classes(
    schema: CRSchema,
    expansion: Expansion | None = None,
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
    fallback: bool = True,
    precheck: bool = False,
) -> dict[str, bool | Verdict]:
    """Satisfiability of every class with a single fixpoint run.

    The final acceptable support settles all classes at once: a class is
    satisfiable exactly when some consistent compound class containing
    it has a positive unknown in the support.  So the sweep runs the
    fixpoint even when a zero-set walk is pinned (``--backend``,
    ``REPRO_BACKEND``): a walk would cost one exponential search per
    class.

    Decided classes map to plain booleans.  When a caller-supplied
    ``budget`` runs out, every class maps to
    :data:`repro.runtime.Verdict.UNKNOWN` instead (which is falsy, so
    aggregate truthiness checks stay conservative).  A solver fault in
    the fixpoint re-runs the whole question on the naive engine when
    the system is small enough, and surfaces otherwise.

    With ``precheck=True`` the static analyzer runs first; when it
    proves *every* class empty the whole table is served from the
    diagnostics and the expansion is skipped (a partial precheck cannot
    skip the expansion — the remaining classes need it — and by
    soundness the full run agrees on the statically-settled ones).
    """

    def compute() -> dict[str, bool | Verdict]:
        if precheck:
            report = analyze(schema)
            if set(schema.classes) <= report.unsat_classes:
                with stage(STAGE_VERDICT):
                    return {cls: False for cls in schema.classes}
        with stage(STAGE_EXPAND, phase="expansion"):
            local_expansion = expansion
            if local_expansion is None:
                local_expansion = Expansion(schema, limits)
        with stage(STAGE_BUILD_SYSTEM, phase="system"):
            cr_system = build_system(local_expansion, mode="pruned")
        try:
            with stage(STAGE_SOLVE, phase="decide:fixpoint"):
                support, _solution = acceptable_support(cr_system)
        except BudgetExceededError:
            raise
        except SolverError:
            unknowns = len(cr_system.consistent_class_unknowns())
            if not fallback or unknowns > naive_limit:
                raise
            with stage(STAGE_SOLVE, phase="decide:naive"):
                return {
                    cls: _naive_with_positive(
                        cr_system, class_targets(cr_system, cls), naive_limit
                    )[0]
                    for cls in schema.classes
                }
        with stage(STAGE_VERDICT):
            return support_verdicts(cr_system, support)

    return run_governed(
        budget,
        compute,
        lambda error: {cls: Verdict.UNKNOWN for cls in schema.classes},
    )


def is_schema_fully_satisfiable(
    schema: CRSchema,
    expansion: Expansion | None = None,
    limits: ExpansionLimits | None = None,
    budget: Budget | None = None,
) -> bool:
    """Whether *every* class of the schema is satisfiable.

    The paper's notion of a well-formed design: no class is forced
    empty by the interaction of ISA and cardinality constraints (the
    pathology of Figure 1).  Under an exhausted ``budget`` the answer
    is conservatively ``False`` (UNKNOWN verdicts are falsy).
    """
    return all(satisfiable_classes(schema, expansion, limits, budget).values())
