"""From an acceptable solution to an explicit finite model (Theorem 3.3).

The paper proves that an acceptable solution of ``Ψ'_S`` can be turned
into a model whose compound-class and compound-relationship cardinalities
are exactly the solution values (its Figure 6 shows one such model).
This module makes that step executable.  Two obstacles have to be
handled concretely:

**Per-instance balance.**  A solution only fixes *totals*; condition (C')
bounds the participation of every single instance.  For each
relationship role and compound class we deal tuple slots to instances
round-robin through a cursor shared by all compound relationships of
the same relationship, so each instance ends up with ``⌊T/c⌋`` or
``⌈T/c⌉`` tuples — inside ``[minc, maxc]`` because the disequations
guarantee ``minc·c ≤ T ≤ maxc·c``.

**Tuple distinctness.**  Relationship extensions are *sets* of labelled
tuples: the same component combination cannot be used twice.  Plain
round-robin repeats after ``lcm`` of the role counts, so the solution
is first scaled uniformly (homogeneity keeps it a solution and scaling
preserves acceptability) until every compound relationship count fits
``lcm(counts of the non-pivot roles) · count(pivot role)`` for its best
pivot role, and then a **block-shift** is applied: tuples are generated
in blocks of ``Λ = lcm(all role counts)``; within a block every
coordinate advances round-robin; between blocks the pivot coordinate is
shifted by one.  Shifts live below ``g = gcd(Λ/·, pivot count)``, which
makes blocks pairwise disjoint, while shifting permutes the pivot
coordinate's slot multiset without changing it — so balance is
untouched.  The partial final block keeps shift 0, which makes the
pivot multiset exactly the contiguous-window multiset the balance
argument needs.

Every model produced here is re-validated by the Definition-2.2 checker
in the test-suite (and can be re-validated by callers via
``repro.cr.checker.check_model``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.cr.expansion import CompoundRelationship
from repro.cr.interpretation import Interpretation, LabeledTuple
from repro.cr.satisfiability import SatisfiabilityResult, is_acceptable
from repro.cr.system import CRSystem
from repro.errors import ReproError
from repro.solver.linear import Relation


def construct_model(
    cr_system: CRSystem, solution: Mapping[str, int]
) -> Interpretation:
    """Build a finite model realising an acceptable integer solution.

    The model's compound-class sizes equal the (possibly uniformly
    scaled) solution values.  Raises :class:`ReproError` if the solution
    does not satisfy ``Ψ_S`` or is not acceptable.
    """
    violation = witness_violation(cr_system, solution)
    if violation is not None:
        raise ReproError(violation)
    counts = _scaled_counts(cr_system, solution)

    # Individuals: one disjoint pool per consistent compound class.
    individuals: dict[str, list[str]] = {}
    for compound in cr_system.expansion.consistent_compound_classes():
        name = cr_system.class_var[compound]
        individuals[name] = [
            f"{name}_{index}" for index in range(counts.get(name, 0))
        ]

    class_extensions: dict[str, set[str]] = {
        cls: set() for cls in cr_system.expansion.schema.classes
    }
    for compound in cr_system.expansion.consistent_compound_classes():
        pool = individuals[cr_system.class_var[compound]]
        for cls in compound.members:
            class_extensions[cls].update(pool)

    # Shared cursors: one per (relationship, role, compound class).
    cursors: dict[tuple[str, str, str], int] = {}
    relationship_extensions: dict[str, set[LabeledTuple]] = {
        rel.name: set() for rel in cr_system.expansion.schema.relationships
    }

    for compound_rel in cr_system.expansion.consistent_compound_relationships():
        unknown = cr_system.rel_var[compound_rel]
        tuple_count = counts.get(unknown, 0)
        role_names = [role for role, _ in compound_rel.signature]
        class_names = [
            cr_system.class_var[component]
            for _, component in compound_rel.signature
        ]
        offsets = []
        for role, class_name in zip(role_names, class_names):
            key = (compound_rel.rel, role, class_name)
            offsets.append(cursors.get(key, 0))
            cursors[key] = cursors.get(key, 0) + tuple_count
        if tuple_count == 0:
            continue
        pools = [individuals[class_name] for class_name in class_names]
        tuples = _distinct_balanced_tuples(
            compound_rel, tuple_count, [len(pool) for pool in pools], offsets
        )
        extension = relationship_extensions[compound_rel.rel]
        for combination in tuples:
            extension.add(
                LabeledTuple(
                    {
                        role: pools[position][index]
                        for position, (role, index) in enumerate(
                            zip(role_names, combination)
                        )
                    }
                )
            )

    domain = {
        individual for pool in individuals.values() for individual in pool
    }
    return Interpretation(
        domain=frozenset(domain),
        class_extensions={
            cls: frozenset(members)
            for cls, members in class_extensions.items()
        },
        relationship_extensions={
            name: frozenset(tuples)
            for name, tuples in relationship_extensions.items()
        },
    )


def construct_model_for_result(result: SatisfiabilityResult) -> Interpretation:
    """Model witnessing a satisfiable :class:`SatisfiabilityResult`."""
    if not result.satisfiable or result.solution is None:
        raise ReproError(
            f"class {result.cls!r} is unsatisfiable; no model witnesses it"
        )
    return construct_model(result.cr_system, result.solution)


def witness_violation(
    cr_system: CRSystem, witness: Mapping[str, int]
) -> str | None:
    """Why ``witness`` is not an acceptable solution of ``Ψ_S``, or
    ``None`` when it is one.

    Works on the interned ``int`` rows, so no string-keyed system is
    built: negative counts first, then every non-strict row, then the
    Section-3.3 acceptability condition.  Only a violated row is
    rendered, in the form :meth:`~repro.solver.linear.Constraint.pretty`
    gives it.
    """
    for name, value in witness.items():
        if value < 0:
            return f"solution assigns a negative count to {name!r}"
    interned = cr_system.interned
    values = [witness.get(name, 0) for name in interned.table.names()]
    for row in interned.rows:
        relation = row.relation
        if relation.is_strict:
            continue
        total = row.const
        for col, coeff in zip(row.cols, row.coeffs):
            total += coeff * values[col]
        if relation is Relation.LE:
            holds = total <= 0
        elif relation is Relation.GE:
            holds = total >= 0
        else:
            holds = total == 0
        if not holds:
            return (
                "the given assignment does not solve Psi_S; first violated "
                f"disequation: {interned.constraint(row).pretty()}"
            )
    if not is_acceptable(witness, cr_system.dependencies):
        return (
            "the given solution is not acceptable: some relationship "
            "unknown is positive while a class unknown it depends on is zero"
        )
    return None


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _capacity(role_counts: list[int]) -> int:
    """Max distinct-tuple capacity of the block-shift scheme (best pivot)."""
    best = 0
    for pivot in range(len(role_counts)):
        others = [
            count for index, count in enumerate(role_counts) if index != pivot
        ]
        best = max(best, math.lcm(*others) * role_counts[pivot])
    return best


def _scaled_counts(
    cr_system: CRSystem, solution: Mapping[str, int]
) -> dict[str, int]:
    """Scale the solution until every compound relationship fits its capacity.

    Scaling a homogeneous-system solution by a positive integer keeps it
    a solution and keeps it acceptable; capacity grows quadratically
    with the scale while the tuple count grows linearly, so the factor
    below always suffices (asserted after the fact).
    """
    scale = 1
    for compound_rel in cr_system.expansion.consistent_compound_relationships():
        tuple_count = solution.get(cr_system.rel_var[compound_rel], 0)
        if tuple_count == 0:
            continue
        role_counts = [
            solution.get(cr_system.class_var[component], 0)
            for _, component in compound_rel.signature
        ]
        capacity = _capacity(role_counts)
        assert capacity > 0  # acceptability guarantees positive role counts
        scale = max(scale, -(-tuple_count // capacity))
    counts = {name: value * scale for name, value in solution.items()}
    for compound_rel in cr_system.expansion.consistent_compound_relationships():
        tuple_count = counts.get(cr_system.rel_var[compound_rel], 0)
        if tuple_count == 0:
            continue
        role_counts = [
            counts.get(cr_system.class_var[component], 0)
            for _, component in compound_rel.signature
        ]
        if tuple_count > _capacity(role_counts):  # pragma: no cover
            raise ReproError(
                "internal error: scaling did not reach tuple capacity for "
                f"{compound_rel.pretty()}"
            )
    return counts


def _distinct_balanced_tuples(
    compound_rel: CompoundRelationship,
    tuple_count: int,
    role_counts: list[int],
    offsets: list[int],
) -> list[tuple[int, ...]]:
    """``tuple_count`` distinct index combinations with window-balanced slots.

    Coordinate ``k`` of tuple ``i`` is ``(offsets[k] + i) mod role_counts[k]``
    except on the chosen pivot coordinate, where blocks of
    ``Λ = lcm(role_counts)`` consecutive tuples are shifted: full blocks
    take shifts 1, 2, ... (or 0, 1, ... when there is no partial block)
    and the partial final block keeps shift 0, preserving the
    contiguous-window slot multiset on the pivot.  See the module
    docstring for the disjointness invariant.
    """
    arity = len(role_counts)
    pivot = max(
        range(arity),
        key=lambda p: math.lcm(
            *(count for index, count in enumerate(role_counts) if index != p)
        )
        * role_counts[p],
    )
    non_pivot_lcm = math.lcm(
        *(count for index, count in enumerate(role_counts) if index != pivot)
    )
    block_length = math.lcm(non_pivot_lcm, role_counts[pivot])
    shift_modulus = math.gcd(non_pivot_lcm, role_counts[pivot])

    full_blocks, remainder = divmod(tuple_count, block_length)
    has_partial = remainder > 0
    total_blocks = full_blocks + (1 if has_partial else 0)
    if total_blocks > shift_modulus:  # pragma: no cover - capacity guard
        raise ReproError(
            f"internal error: {total_blocks} blocks exceed the shift "
            f"modulus {shift_modulus} for {compound_rel.pretty()}"
        )

    def pivot_shift(block: int) -> int:
        if block == full_blocks:  # the partial block keeps the window shape
            return 0
        return block + 1 if has_partial else block

    tuples: list[tuple[int, ...]] = []
    for i in range(tuple_count):
        block = i // block_length
        combination = []
        for k in range(arity):
            value = offsets[k] + i
            if k == pivot:
                value += pivot_shift(block)
            combination.append(value % role_counts[k])
        tuples.append(tuple(combination))
    if len(set(tuples)) != tuple_count:  # pragma: no cover - invariant
        raise ReproError(
            f"internal error: duplicate tuples generated for "
            f"{compound_rel.pretty()}"
        )
    return tuples
