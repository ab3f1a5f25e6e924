"""Cross-backend parity: every registered backend answers alike.

The registry promises that the choice of primary backend is an
*operational* decision — speed, certificates, independence — never a
semantic one.  These properties pin that promise on random schemas:
pinning each registered backend in turn (exactly what ``--backend`` and
``REPRO_BACKEND`` do) must leave every satisfiability verdict
unchanged, and the maximal supports of the generated systems must be
certified — and shared by every other LP backend that answers.

The strategies keep schemas to at most four classes, so the consistent
class unknowns stay below the naive engine's size gate and even the
Theorem-3.4 enumeration terminates quickly.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cr.expansion import Expansion
from repro.errors import SolverError
from repro.cr.satisfiability import satisfiable_classes
from repro.cr.system import build_system
from repro.solver.certificates import support_is_certified
from repro.solver.registry import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    pin_backend,
)

from tests.strategies import schemas

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

OTHER_LP_BACKENDS = tuple(
    name
    for name in backend_names()
    if name != DEFAULT_BACKEND
    and not get_backend(name).capabilities.exponential
)


@SLOW
@given(data=st.data())
def test_every_backend_yields_the_same_satisfiability_verdicts(data):
    schema = data.draw(schemas())
    expansion = Expansion(schema)
    reference = satisfiable_classes(schema, expansion=expansion)
    assert all(isinstance(v, bool) for v in reference.values())
    for name in backend_names():
        try:
            with pin_backend(name):
                verdicts = satisfiable_classes(schema, expansion=expansion)
        except SolverError:
            # Declared degradation, not disagreement: a size-gated
            # backend (Fourier–Motzkin blowing its constraint budget)
            # may refuse a hard draw outright — pinning it leaves the
            # chain nowhere to degrade to.  It must never *answer*
            # differently, which is what the assertion below pins.
            continue
        assert verdicts == reference, f"backend {name} disagrees"


@SLOW
@given(data=st.data())
def test_lp_backends_compute_the_same_maximal_support(data):
    schema = data.draw(schemas())
    cr_system = build_system(Expansion(schema), mode="pruned")
    candidates = cr_system.consistent_class_unknowns()
    # The simplex has no size gate and must always answer, with a
    # support the exact checker accepts on its own.
    support, solution = get_backend(DEFAULT_BACKEND).maximal_support(
        cr_system.interned, candidates
    )
    assert support_is_certified(
        cr_system.system, candidates, support, solution
    )
    # The contract is definitive on the *candidates* only: unknowns
    # outside the probe set may be positive in one backend's witness
    # and zero in another's, and both witnesses are correct.
    probed = set(candidates)
    for name in OTHER_LP_BACKENDS:
        try:
            other, _ = get_backend(name).maximal_support(
                cr_system.interned, candidates
            )
        except SolverError:
            # Declared degradation (Fourier–Motzkin blowing its
            # constraint budget): the chain contract says "ask the next
            # backend", never "give a different answer".
            continue
        assert other & probed == support & probed, name
