"""Randomized parity evidence for the pruned zero-set search.

The pruned engine's contract is byte-identity with the naive
Theorem-3.4 walk — verdict, integer witness, and support — with only
the number of LPs solved allowed to differ.  These properties drive
the symmetric sibling family of :func:`tests.strategies.symmetric_schemas`
(guaranteed non-trivial column orbits, naive side still affordable)
through both engines and compare, including across a two-worker pool,
and re-verify every learned Farkas nogood against its rebuilt source
system.

Pool-backed examples are deliberately few — each pays a real spawn-pool
startup — mirroring ``test_parallel_properties.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cr.expansion import Expansion
from repro.cr.satisfiability import class_targets, decision_problem
from repro.cr.system import build_system
from repro.solver.pruned import (
    NogoodStore,
    nogood_source_system,
    pruned_zero_set_search,
)
from repro.solver.registry import decide_acceptable

from tests.strategies import symmetric_schemas

PARITY = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
POOLED = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def drawn_problem(data, max_siblings: int = 3):
    schema, _ = data.draw(symmetric_schemas(max_siblings=max_siblings))
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


@POOLED
@given(data=st.data())
def test_two_workers_reproduce_the_serial_pruned_answer(data):
    problem = drawn_problem(data, max_siblings=2)
    serial = decide_acceptable(problem, "pruned")
    pooled = decide_acceptable(problem, "pruned", jobs=2)
    assert pooled == serial


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
