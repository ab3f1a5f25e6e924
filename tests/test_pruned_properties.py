"""Randomized parity evidence for the pruned zero-set search.

The pruned engine's contract is byte-identity with the naive
Theorem-3.4 walk — verdict, integer witness, and support — with only
the number of LPs solved allowed to differ.  These properties drive
the symmetric sibling family of :func:`tests.strategies.symmetric_schemas`
(guaranteed non-trivial column orbits, naive side still affordable)
through both engines and compare, re-verify every learned Farkas
nogood against its rebuilt source
system, and check that one nogood ledger shared by every target of a
system changes no answer.  Orbit refinement is held to its reference:
the ``repr``-keyed :func:`reference_refine` must produce the same
colourings and the same verified permutations as
``_Profile.refine``.
"""

from __future__ import annotations

from collections.abc import Mapping
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.bench_prune import sibling_schema
from repro.cr.expansion import Expansion
from repro.cr.satisfiability import class_targets, decision_problem
from repro.cr.system import build_system
from repro.paper import figure1_schema, meeting_schema, refined_meeting_schema
from repro.solver.pruned import (
    NogoodStore,
    _canonical_colors,
    _Profile,
    nogood_source_system,
    orbit_permutations,
    pruned_zero_set_search,
)
from repro.solver.registry import decide_acceptable

from tests.strategies import schemas, symmetric_schemas

PARITY = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drawn_problem(data):
    schema, _ = data.draw(symmetric_schemas(max_siblings=3))
    cr_system = build_system(Expansion(schema), mode="pruned")
    cls = data.draw(st.sampled_from(schema.classes))
    return decision_problem(cr_system, class_targets(cr_system, cls))


@PARITY
@given(data=st.data())
def test_pruned_matches_the_naive_oracle(data):
    problem = drawn_problem(data)
    expected = decide_acceptable(problem, "naive")
    actual = decide_acceptable(problem, "pruned")
    assert actual == expected


@PARITY
@given(data=st.data())
def test_every_installed_nogood_reverifies_against_its_source(data):
    """Soundness of the learning step, empirically: each nogood's Farkas
    certificate must still check out against the rebuilt sharpened
    ``Ψ_Z`` it was extracted from, and the generalised support must be
    consistent with that source zero-set (zeros kept zero, positives
    genuinely outside it)."""
    problem = drawn_problem(data)
    store = NogoodStore()
    pruned_zero_set_search(problem, store=store)
    for nogood in store.nogoods:
        source = set(nogood.source)
        assert nogood.zeros <= source
        assert not (nogood.positives & source)
        assert nogood.certificate.verify(
            nogood_source_system(problem, nogood)
        )


@PARITY
@given(data=st.data())
def test_a_ledger_shared_by_every_target_changes_no_answer(data):
    """Walk every class of a drawn schema in turn from one store: each
    answer equals the naive walk's, and every fact the store gathered
    still checks out against its own candidate system."""
    if data.draw(st.booleans()):
        schema, _ = data.draw(symmetric_schemas())
    else:
        # Three classes keep the naive oracle at 2^7 zero-sets.
        schema = data.draw(schemas(max_classes=3))
    cr_system = build_system(Expansion(schema), mode="pruned")
    store = NogoodStore()
    for cls in schema.classes:
        problem = decision_problem(cr_system, class_targets(cr_system, cls))
        expected = decide_acceptable(problem, "naive")
        assert pruned_zero_set_search(problem, store=store) == expected
    for nogood in store.nogoods:
        assert nogood.certificate.verify(nogood_source_system(problem, nogood))
    for zero_set, witness in store.witnesses.items():
        zeros = {name for name in problem.class_unknowns if witness[name] == 0}
        assert zeros == zero_set


# ---------------------------------------------------------------------------
# orbit refinement against its repr-keyed reference
# ---------------------------------------------------------------------------


def reference_refine(
    profile: _Profile, seeds: Mapping[int, str] | None = None
) -> list[int]:
    """``_Profile.refine`` with every key built by ``repr``: each
    column's key is the ``repr`` of its colour and its signature tuples
    sorted by ``repr``.  Slow (each row is rendered once per column it
    touches), and the reference the string-assembled keys must equal."""
    keys = list(profile.initial)
    if seeds:
        for col, tag in seeds.items():
            keys[col] = f"{keys[col]}|{tag}"
    colors = _canonical_colors(keys)
    while True:
        sigs: list[list[object]] = [[] for _ in range(profile.size)]
        for row in profile.rows:
            items = tuple(row.items())
            row_sig = (
                row.relation.value,
                str(row.const),
                tuple(sorted((str(coeff), colors[col]) for col, coeff in items)),
            )
            for col, coeff in items:
                sigs[col].append(("r", str(coeff), row_sig))
        for rel_col, dep_cols in profile.dep_of.items():
            sigs[rel_col].append(
                ("d", tuple(sorted(colors[col] for col in dep_cols)))
            )
            for col in dep_cols:
                sigs[col].append(("D", colors[rel_col]))
        refined = _canonical_colors(
            [
                repr((colors[col], sorted(sigs[col], key=repr)))
                for col in range(profile.size)
            ]
        )
        if len(set(refined)) == len(set(colors)):
            return refined
        colors = refined


def assert_refinement_matches_the_reference(problem) -> None:
    profile = _Profile(problem)
    assert profile.refine() == reference_refine(profile)
    for col in profile.class_cols:
        seeds = {col: "pivot"}
        assert profile.refine(seeds) == reference_refine(profile, seeds)
    with mock.patch.object(_Profile, "refine", reference_refine):
        expected = orbit_permutations(problem)
    assert orbit_permutations(problem) == expected


def every_class_problem(schema):
    cr_system = build_system(Expansion(schema), mode="pruned")
    return [
        decision_problem(cr_system, class_targets(cr_system, cls))
        for cls in schema.classes
    ]


@PARITY
@given(data=st.data())
def test_refinement_matches_the_reference_on_drawn_schemas(data):
    schema = data.draw(schemas())
    cls = data.draw(st.sampled_from(schema.classes))
    cr_system = build_system(Expansion(schema), mode="pruned")
    assert_refinement_matches_the_reference(
        decision_problem(cr_system, class_targets(cr_system, cls))
    )


SIBLING_VARIANTS = [
    pytest.param(
        siblings, root_umax, root_side,
        id=f"{siblings}-umax{root_umax}{'-rootside' if root_side else ''}",
    )
    for siblings in (2, 3, 4)
    for root_umax in (2, 3)
    for root_side in (False, True)
]
"""The bench_prune family's variants at 2-4 siblings: the conflict
(``root_umax`` 2) and its satisfiable relaxation (3), each with and
without the root-side cardinalities.  As in the benchmark, three or
more siblings are declared disjoint; without that, four siblings give
31 class unknowns and the reference alone takes minutes."""


@pytest.mark.parametrize(("siblings", "root_umax", "root_side"), SIBLING_VARIANTS)
def test_refinement_matches_the_reference_on_the_sibling_family(
    siblings, root_umax, root_side
):
    schema = sibling_schema(
        siblings, root_umax, root_side, disjoint=siblings >= 3
    )
    for problem in every_class_problem(schema):
        assert_refinement_matches_the_reference(problem)


@pytest.mark.parametrize(
    "build", [figure1_schema, meeting_schema, refined_meeting_schema]
)
def test_refinement_matches_the_reference_on_the_paper_schemas(build):
    for problem in every_class_problem(build()):
        assert_refinement_matches_the_reference(problem)
