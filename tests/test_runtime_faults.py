"""Fault injection and the query-level fallbacks between engines.

A faulted fixpoint retries on the naive walk when the system is small
enough; a faulted ``naive`` or ``pruned`` walk is answered by the
fixpoint.  With no fallback left the typed ``SolverError`` surfaces at
once.  Whatever happens, a fault never changes a verdict.
"""

from __future__ import annotations

import pytest

from repro.cr.satisfiability import is_class_satisfiable, satisfiable_classes
from repro.errors import BudgetExceededError, SolverError
from repro.paper import figure1_schema, meeting_schema, refined_meeting_schema
from repro.runtime.faults import (
    DISK_WRITE_POINTS,
    FaultPlan,
    InjectedSolverFault,
    SimulatedCrash,
    inject_faults,
    inject_solver_faults,
)
from repro.solver import core


class TestHarness:
    def test_nth_call_fails_deterministically(self):
        schema = meeting_schema()
        with inject_solver_faults(simplex_failures={2}) as plan:
            with pytest.raises(InjectedSolverFault):
                is_class_satisfiable(schema, "Speaker", fallback=False)
        assert plan.injected == [("simplex", 2)]
        assert plan.calls["simplex"] == 2

    def test_unscripted_runs_are_untouched_but_counted(self):
        with inject_solver_faults() as plan:
            result = is_class_satisfiable(meeting_schema(), "Speaker")
        assert result.satisfiable
        assert plan.calls["simplex"] > 0
        assert plan.injected == []

    def test_hooks_restored_on_exit(self):
        assert core._FAULT_HOOK is None
        with inject_solver_faults(simplex_failures={1}):
            assert core._FAULT_HOOK is not None
        assert core._FAULT_HOOK is None

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
            error_factory=lambda point, index: CustomFault(
                f"{point}#{index}"
            ),
        ):
            with pytest.raises(CustomFault):
                is_class_satisfiable(
                    meeting_schema(), "Speaker", fallback=False
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
    def test_fixpoint_fault_retries_on_the_walk(self):
        schema = meeting_schema()
        baseline = is_class_satisfiable(schema, "Speaker")
        with inject_solver_faults(simplex_failures={1}) as plan:
            degraded = is_class_satisfiable(schema, "Speaker")
        assert degraded.satisfiable == baseline.satisfiable
        # The fixpoint's first LP faulted; the naive walk's own LPs
        # (later calls, none scripted) produced the verdict.
        assert plan.injected == [("simplex", 1)]
        assert plan.calls["simplex"] > 1

    def test_fallback_none_disables_the_chain(self):
        with inject_solver_faults(simplex_failures={1}):
            with pytest.raises(InjectedSolverFault):
                is_class_satisfiable(
                    meeting_schema(), "Speaker", fallback=False
                )

    def test_naive_fallback_respects_naive_limit(self):
        with inject_solver_faults(simplex_failures={1}):
            with pytest.raises(SolverError):
                is_class_satisfiable(
                    meeting_schema(), "Speaker", naive_limit=1
                )

    def test_budget_exhaustion_is_never_absorbed_by_the_chain(self):
        # A solver "fault" that is actually budget exhaustion must
        # propagate, not trigger a fallback that would overspend.
        with inject_solver_faults(
            simplex_failures={1},
            error_factory=lambda point, index: BudgetExceededError(
                f"simulated exhaustion at {point}#{index}"
            ),
        ) as plan:
            with pytest.raises(BudgetExceededError):
                is_class_satisfiable(meeting_schema(), "Speaker")
        assert plan.calls["simplex"] == 1

    def test_a_faulted_session_fixpoint_fails_fast(self):
        # The session's cached fixpoint has no fallback of its own: the
        # injected fault itself surfaces, at once.
        from repro.session import ReasoningSession

        session = ReasoningSession(meeting_schema())
        with inject_faults(simplex_failures={1}) as plan:
            with pytest.raises(InjectedSolverFault):
                session.satisfiable_classes()
        assert plan.injected == [("simplex", 1)]


class TestUnifiedRegistry:
    """Solver and disk faults script onto ONE plan with ONE history."""

    def test_solver_and_disk_faults_compose_in_one_plan(self, tmp_path):
        from repro.session import ReasoningSession, SessionCache
        from repro.solver.registry import pin_backend
        from repro.store import ArtifactStore

        schema = meeting_schema()
        store = ArtifactStore(tmp_path, stale_lock_after=0.0)
        with inject_faults(
            simplex_failures={1},
            disk_failures={"store:write:pre-rename": {1}},
        ) as plan:
            session = ReasoningSession(
                schema, cache=SessionCache(store=store)
            )
            # The solver fault lands in the pinned pruned walk, which
            # the fixpoint answers; the disk fault then kills the
            # write-through of the session's own fixpoint.
            with pin_backend("pruned"):
                assert session.is_class_satisfiable("Speaker").satisfiable
            with pytest.raises(SimulatedCrash):
                session.satisfiable_classes()
        assert plan.injected[0] == ("simplex", 1)
        assert plan.injected[-1] == ("store:write:pre-rename", 1)
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
    """Acceptance: a fallback agrees with the unfaulted run."""

    @pytest.fixture(
        params=[figure1_schema, meeting_schema, refined_meeting_schema],
        ids=["figure1", "meeting", "refined-meeting"],
    )
    def schema(self, request):
        return request.param()

    def test_fixpoint_fault_parity(self, schema):
        baseline = satisfiable_classes(schema)
        with inject_solver_faults(simplex_failures={1}) as plan:
            degraded = satisfiable_classes(schema)
        assert degraded == baseline
        assert plan.injected == [("simplex", 1)]

    @pytest.mark.parametrize("engine", ["naive", "pruned"])
    def test_faulted_walk_falls_back_to_the_fixpoint(self, schema, engine):
        # One fault inside the zero-set walk: the walk faults as a
        # whole, and the fixpoint answers instead.
        for cls in schema.classes:
            baseline = is_class_satisfiable(schema, cls, engine=engine)
            with inject_faults(simplex_failures={1}) as plan:
                degraded = is_class_satisfiable(schema, cls, engine=engine)
            assert degraded.satisfiable == baseline.satisfiable, cls
            assert plan.injected == [("simplex", 1)]

    @pytest.mark.parametrize(
        "failures", [{1}, {2}, {3}, {1, 2, 5}], ids=["1", "2", "3", "1-2-5"]
    )
    def test_intermittent_faults_never_change_a_verdict(
        self, schema, failures
    ):
        # Faults scattered through the run, not just at the first call:
        # the answer is the unfaulted one, or the fault surfaces.
        baseline = satisfiable_classes(schema)
        with inject_solver_faults(simplex_failures=failures):
            try:
                degraded = satisfiable_classes(schema)
            except SolverError:
                return
        assert degraded == baseline
