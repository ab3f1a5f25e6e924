"""Engine parity: every ``--backend`` value answers alike.

The engine switch promises that the choice of engine is an
*operational* decision — speed, pruning — never a semantic one.  These
properties pin that promise on random schemas: pinning each engine in
turn (exactly what ``--backend`` and ``REPRO_BACKEND`` do) around
``is_class_satisfiable`` must reproduce the fixpoint's verdict map, and
the kernel's maximal supports must be certified — and equal to
Fourier–Motzkin's whenever that reference answers.

The strategies keep schemas to at most four classes.  The pinned
zero-set walks run under ``naive_limit=WALK_LIMIT``: a draw with more
consistent class unknowns must be refused by that gate, never answered
differently, and the exponential walks stay quick.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cr.expansion import Expansion
from repro.cr.satisfiability import is_class_satisfiable, satisfiable_classes
from repro.cr.system import build_system
from repro.errors import LimitExceededError, SolverError
from repro.solver.certificates import support_is_certified
from repro.solver.core import interned_maximal_support
from repro.solver.fourier_motzkin import fm_maximal_support
from repro.solver.registry import ENGINES, pin_backend

from tests.strategies import schemas

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

WALK_LIMIT = 8
"""``naive_limit`` of the pinned walks: at most ``2^8`` LPs per class."""


@SLOW
@given(data=st.data())
def test_every_backend_yields_the_same_satisfiability_verdicts(data):
    schema = data.draw(schemas())
    expansion = Expansion(schema)
    size = len(build_system(expansion).consistent_class_unknowns())
    reference = satisfiable_classes(schema, expansion=expansion)
    assert all(isinstance(v, bool) for v in reference.values())
    for engine in ENGINES:
        with pin_backend(engine):
            for cls in schema.classes:
                try:
                    result = is_class_satisfiable(
                        schema, cls, expansion=expansion, naive_limit=WALK_LIMIT
                    )
                except LimitExceededError:
                    assert engine != "fixpoint" and size > WALK_LIMIT
                    break
                assert result.engine == engine
                assert result.satisfiable == reference[cls], (engine, cls)


@SLOW
@given(data=st.data())
def test_lp_backends_compute_the_same_maximal_support(data):
    schema = data.draw(schemas())
    cr_system = build_system(Expansion(schema), mode="pruned")
    candidates = cr_system.consistent_class_unknowns()
    # The kernel has no size gate and must always answer, with a
    # support the exact checker accepts on its own.
    support, solution = interned_maximal_support(
        cr_system.interned, candidates
    )
    assert support_is_certified(
        cr_system.system, candidates, support, solution
    )
    # The contract is definitive on the *candidates* only: unknowns
    # outside the probe set may be positive in one witness and zero in
    # another, and both witnesses are correct.
    probed = set(candidates)
    try:
        reference, _ = fm_maximal_support(cr_system.system, candidates)
    except SolverError:
        # Fourier–Motzkin blew its constraint cap on a hard draw: the
        # reference refuses, it never answers differently.
        return
    assert reference & probed == support & probed
