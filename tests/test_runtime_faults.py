"""Fault injection and the fixpoint → Fourier–Motzkin → naive chain."""

from __future__ import annotations

import pytest

from repro.cr.satisfiability import is_class_satisfiable, satisfiable_classes
from repro.errors import BudgetExceededError, SolverError
from repro.paper import figure1_schema, meeting_schema, refined_meeting_schema
from repro.runtime.fallback import FallbackPolicy
from repro.runtime.faults import (
    DISK_WRITE_POINTS,
    FaultPlan,
    InjectedSolverFault,
    SimulatedCrash,
    inject_faults,
    inject_solver_faults,
)
from repro.solver import core, fourier_motzkin

# Fail every Fourier–Motzkin call a test could plausibly make; combined
# with a simplex fault this forces the chain all the way to the naive
# engine.
_ALL_FM = range(1, 1000)


class TestHarness:
    def test_nth_call_fails_deterministically(self):
        schema = meeting_schema()
        with inject_solver_faults(simplex_failures={2}) as plan:
            with pytest.raises(InjectedSolverFault):
                is_class_satisfiable(schema, "Speaker", fallback=None)
        assert plan.injected == [("simplex", 2)]
        assert plan.calls["simplex"] == 2
        assert plan.calls["fourier-motzkin"] == 0

    def test_unscripted_runs_are_untouched_but_counted(self):
        with inject_solver_faults() as plan:
            result = is_class_satisfiable(meeting_schema(), "Speaker")
        assert result.satisfiable
        assert plan.calls["simplex"] > 0
        assert plan.injected == []

    def test_hooks_restored_on_exit(self):
        assert core._FAULT_HOOK is None
        assert fourier_motzkin._FAULT_HOOK is None
        with inject_solver_faults(simplex_failures={1}):
            assert core._FAULT_HOOK is not None
        assert core._FAULT_HOOK is None
        assert fourier_motzkin._FAULT_HOOK is None

    def test_injections_nest(self):
        with inject_solver_faults(simplex_failures={1}) as outer:
            with inject_solver_faults() as inner:
                result = is_class_satisfiable(meeting_schema(), "Speaker")
        assert result.satisfiable
        assert inner.calls["simplex"] > 0
        assert outer.calls["simplex"] == 0  # shadowed by the inner plan

    def test_error_factory_controls_the_exception(self):
        class CustomFault(SolverError):
            pass

        with inject_solver_faults(
            simplex_failures={1},
            error_factory=lambda backend, index: CustomFault(
                f"{backend}#{index}"
            ),
        ):
            with pytest.raises(CustomFault):
                is_class_satisfiable(
                    meeting_schema(), "Speaker", fallback=None
                )

    def test_plan_records_multiple_injections(self):
        plan = FaultPlan(simplex_failures=frozenset({1, 3}))
        with pytest.raises(InjectedSolverFault):
            plan.on_call("simplex")  # call 1: scripted to fail
        plan.on_call("simplex")  # call 2: passes
        with pytest.raises(InjectedSolverFault):
            plan.on_call("simplex")  # call 3: scripted to fail
        assert plan.injected == [("simplex", 1), ("simplex", 3)]


class TestFallbackChain:
    def test_simplex_fault_retries_on_fourier_motzkin(self):
        schema = meeting_schema()
        baseline = is_class_satisfiable(schema, "Speaker")
        with inject_solver_faults(simplex_failures={1}) as plan:
            degraded = is_class_satisfiable(schema, "Speaker")
        assert degraded.satisfiable == baseline.satisfiable
        assert plan.injected == [("simplex", 1)]
        assert plan.calls["fourier-motzkin"] >= 1

    def test_chain_reaches_naive_engine(self):
        schema = meeting_schema()
        baseline = is_class_satisfiable(schema, "Speaker")
        with inject_solver_faults(
            simplex_failures={1}, fm_failures=_ALL_FM
        ) as plan:
            degraded = is_class_satisfiable(schema, "Speaker")
        assert degraded.satisfiable == baseline.satisfiable
        # The FM retry itself faulted, proving the naive engine (which
        # solves fresh LPs on later simplex calls) produced the verdict.
        assert ("fourier-motzkin", 1) in plan.injected
        assert plan.calls["simplex"] > 1

    def test_fallback_none_disables_the_chain(self):
        with inject_solver_faults(simplex_failures={1}):
            with pytest.raises(InjectedSolverFault):
                is_class_satisfiable(
                    meeting_schema(), "Speaker", fallback=None
                )

    def test_policy_can_disable_naive_stage_only(self):
        policy = FallbackPolicy(use_naive=False)
        with inject_solver_faults(simplex_failures={1}, fm_failures=_ALL_FM):
            with pytest.raises(SolverError):
                is_class_satisfiable(
                    meeting_schema(), "Speaker", fallback=policy
                )

    def test_naive_fallback_respects_naive_limit(self):
        with inject_solver_faults(simplex_failures={1}, fm_failures=_ALL_FM):
            with pytest.raises(SolverError):
                is_class_satisfiable(
                    meeting_schema(), "Speaker", naive_limit=1
                )

    def test_budget_exhaustion_is_never_absorbed_by_the_chain(self):
        # A backend "fault" that is actually budget exhaustion must
        # propagate, not trigger a retry that would overspend.
        with inject_solver_faults(
            simplex_failures={1},
            error_factory=lambda backend, index: BudgetExceededError(
                f"simulated exhaustion at {backend}#{index}"
            ),
        ) as plan:
            with pytest.raises(BudgetExceededError):
                is_class_satisfiable(meeting_schema(), "Speaker")
        assert plan.calls["fourier-motzkin"] == 0


class TestUnifiedRegistry:
    """Solver and disk faults script onto ONE plan with ONE history."""

    def test_solver_and_disk_faults_compose_in_one_plan(self, tmp_path):
        from repro.session import ReasoningSession, SessionCache
        from repro.store import ArtifactStore

        # Figure 1: small enough that the faulted LP retries cleanly on
        # Fourier–Motzkin (the chain's cap would fire on the larger
        # schemas — the boundary the parity tests below document).
        schema = figure1_schema()
        store = ArtifactStore(tmp_path, stale_lock_after=0.0)
        with inject_faults(
            simplex_failures={1},
            disk_failures={"store:write:pre-rename": {1}},
        ) as plan:
            session = ReasoningSession(
                schema, cache=SessionCache(store=store)
            )
            # The solver fault degrades to the FM retry inside the
            # fixpoint; the disk fault then kills the write-through.
            with pytest.raises(SimulatedCrash):
                session.satisfiable_classes()
        assert plan.injected[0] == ("simplex", 1)
        assert plan.injected[-1] == ("store:write:pre-rename", 1)
        assert plan.calls["fourier-motzkin"] >= 1
        # The crash left no entry behind — absent, not torn.
        assert ArtifactStore(tmp_path, stale_lock_after=0.0).get(
            session.fingerprint
        ) is None

    def test_disk_counters_are_per_point_and_one_based(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        with inject_faults(
            disk_failures={"store:write:pre-fsync": {2}}
        ) as plan:
            assert store.put("a" * 64, {"v": 1})  # call #1 untouched
            with pytest.raises(SimulatedCrash):
                store.put("b" * 64, {"v": 2})  # call #2 crashes
        assert plan.injected == [("store:write:pre-fsync", 2)]
        for point in DISK_WRITE_POINTS:
            assert plan.calls[point] >= 1

    def test_disk_points_are_silent_without_a_plan(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        assert store.put("a" * 64, {"v": 1})
        assert store.get("a" * 64) == {"v": 1}


class TestChainParityOnPaperSchemas:
    """Acceptance: the degraded chain agrees with the unfaulted run."""

    @pytest.fixture(
        params=[figure1_schema, meeting_schema, refined_meeting_schema],
        ids=["figure1", "meeting", "refined-meeting"],
    )
    def schema(self, request):
        return request.param()

    def test_fm_retry_parity(self, schema):
        baseline = satisfiable_classes(schema)
        with inject_solver_faults(simplex_failures={1}) as plan:
            degraded = satisfiable_classes(schema)
        assert degraded == baseline
        assert plan.injected == [("simplex", 1)]

    def test_full_chain_parity(self, schema):
        baseline = satisfiable_classes(schema)
        with inject_solver_faults(
            simplex_failures={1}, fm_failures=_ALL_FM
        ) as plan:
            degraded = satisfiable_classes(schema)
        assert degraded == baseline
        assert ("simplex", 1) in plan.injected
        assert ("fourier-motzkin", 1) in plan.injected

    @pytest.mark.parametrize("engine", ["naive", "pruned"])
    def test_faulted_walk_falls_back_to_the_fixpoint(self, schema, engine):
        # One sparse fault inside the zero-set walk, retried on
        # Fourier–Motzkin under a cap the larger Ψ_Z systems exceed:
        # the walk faults as a whole, and the fixpoint answers instead.
        policy = FallbackPolicy(fm_max_constraints=1_000)
        for cls in schema.classes:
            baseline = is_class_satisfiable(schema, cls, engine=engine)
            with inject_faults(simplex_failures={1}) as plan:
                degraded = is_class_satisfiable(
                    schema, cls, engine=engine, fallback=policy
                )
            assert degraded.satisfiable == baseline.satisfiable, cls
            assert plan.injected == [("simplex", 1)]

    def test_intermittent_faults_parity_on_small_schema(self):
        # Faults scattered through the run, not just at the first call.
        # Only on Figure 1: its systems are small enough that *every*
        # faulted LP can be retried on Fourier–Motzkin (on the larger
        # schemas a mid-fixpoint FM retry exceeds the constraint cap,
        # which is the documented boundary of the chain).
        baseline = satisfiable_classes(figure1_schema())
        with inject_solver_faults(simplex_failures={1, 2, 5}):
            degraded = satisfiable_classes(figure1_schema())
        assert degraded == baseline
