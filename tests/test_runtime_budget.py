"""Unit tests for resource budgets and graceful degradation."""

from __future__ import annotations

import pytest

from repro.cr.expansion import Expansion, ExpansionLimits
from repro.cr.implication import implies_isa
from repro.cr.satisfiability import (
    is_class_satisfiable,
    is_schema_fully_satisfiable,
    satisfiable_classes,
)
from repro.errors import (
    BudgetExceededError,
    CancelledError,
    LimitExceededError,
    ReproError,
)
from repro.paper import figure1_schema, meeting_schema
from repro.runtime.budget import (
    Budget,
    ProgressSnapshot,
    activate,
    current_budget,
    run_governed,
)
from repro.runtime.outcome import ImplicationVerdict, Verdict


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestBudgetUnit:
    def test_counters_accumulate(self):
        budget = Budget()
        budget.charge_expansion(3)
        budget.charge_expansion()
        budget.charge_solver_call()
        budget.charge_pivots(10)
        assert budget.expansion_nodes == 4
        assert budget.solver_calls == 1
        assert budget.pivots == 10

    def test_expansion_cap_exhausts_with_snapshot(self):
        budget = Budget(max_expansion_nodes=2)
        budget.enter_phase("expansion")
        budget.charge_expansion(2)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge_expansion()
        snapshot = excinfo.value.snapshot
        assert isinstance(snapshot, ProgressSnapshot)
        assert snapshot.reason == "expansion-nodes"
        assert snapshot.phase == "expansion"
        assert snapshot.expansion_nodes == 3
        assert "expansion-nodes" in str(excinfo.value)

    def test_solver_call_cap(self):
        budget = Budget(max_solver_calls=1)
        budget.charge_solver_call()
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge_solver_call()
        assert excinfo.value.snapshot.reason == "solver-calls"

    def test_pivot_cap(self):
        budget = Budget(max_pivots=5)
        budget.charge_pivots(5)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge_pivots()
        assert excinfo.value.snapshot.reason == "pivots"

    def test_timeout_with_fake_clock(self):
        clock = FakeClock()
        budget = Budget(timeout=10.0, clock=clock)
        budget.start()
        clock.now = 9.999
        budget.check()  # still inside the deadline
        clock.now = 10.0
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.check()
        assert excinfo.value.snapshot.reason == "timeout"

    def test_zero_timeout_exhausts_at_first_check(self):
        budget = Budget(timeout=0, clock=FakeClock())
        budget.start()
        with pytest.raises(BudgetExceededError):
            budget.check()

    def test_fine_grained_charges_consult_clock_eventually(self):
        clock = FakeClock()
        budget = Budget(timeout=1.0, clock=clock)
        budget.start()
        clock.now = 5.0
        # Individual ticks defer the clock read, but within one tick
        # window the deadline must be noticed.
        with pytest.raises(BudgetExceededError):
            for _ in range(200):
                budget.charge_pivots()

    def test_cancel_raises_cancelled_error(self):
        budget = Budget()
        budget.cancel()
        assert budget.cancelled
        with pytest.raises(CancelledError) as excinfo:
            budget.check()
        assert excinfo.value.snapshot.reason == "cancelled"
        # CancelledError is a BudgetExceededError, so governed entry
        # points degrade it like any other exhaustion.
        assert isinstance(excinfo.value, BudgetExceededError)

    def test_cancel_noticed_by_fine_grained_charge(self):
        budget = Budget()
        budget.cancel()
        with pytest.raises(CancelledError):
            budget.charge_expansion()

    def test_start_is_idempotent(self):
        clock = FakeClock()
        budget = Budget(clock=clock)
        budget.start()
        clock.now = 7.0
        budget.start()  # must not re-anchor
        assert budget.elapsed() == 7.0

    def test_negative_caps_rejected(self):
        with pytest.raises(ReproError):
            Budget(timeout=-1)
        with pytest.raises(ReproError):
            Budget(max_expansion_nodes=-5)

    def test_snapshot_pretty_mentions_all_counters(self):
        budget = Budget()
        budget.enter_phase("decide:fixpoint")
        budget.charge_expansion(7)
        text = budget.snapshot("in-progress").pretty()
        assert "decide:fixpoint" in text
        assert "7 expansion nodes" in text


class TestAmbientActivation:
    def test_activate_installs_and_restores(self):
        assert current_budget() is None
        budget = Budget()
        with activate(budget):
            assert current_budget() is budget
            inner = Budget()
            with activate(inner):
                assert current_budget() is inner
            assert current_budget() is budget
        assert current_budget() is None

    def test_activate_none_is_transparent(self):
        budget = Budget()
        with activate(budget):
            with activate(None):
                assert current_budget() is budget

    def test_run_governed_degrades_with_explicit_budget(self):
        budget = Budget(max_expansion_nodes=0)

        def compute():
            current_budget().charge_expansion()
            raise AssertionError("unreachable")

        result = run_governed(budget, compute, lambda error: ("degraded", error))
        assert result[0] == "degraded"
        assert isinstance(result[1], BudgetExceededError)

    def test_run_governed_propagates_ambient_exhaustion(self):
        ambient = Budget(max_expansion_nodes=0)
        with activate(ambient):
            with pytest.raises(BudgetExceededError):
                run_governed(
                    None,
                    lambda: current_budget().charge_expansion(),
                    lambda error: "degraded",
                )


class TestGovernedEntryPoints:
    def test_is_class_satisfiable_degrades_to_unknown(self):
        result = is_class_satisfiable(
            meeting_schema(), "Speaker", budget=Budget(max_expansion_nodes=1)
        )
        assert result.verdict is Verdict.UNKNOWN
        assert not result.satisfiable  # conservative two-valued view
        assert not result.verdict  # UNKNOWN is falsy
        assert result.unknown_reason is not None
        assert result.snapshot.reason == "expansion-nodes"

    def test_unbudgeted_call_unchanged(self):
        result = is_class_satisfiable(meeting_schema(), "Speaker")
        assert result.verdict is Verdict.SAT
        assert result.satisfiable

    def test_generous_budget_decides_normally(self):
        budget = Budget(timeout=60.0, max_expansion_nodes=100_000)
        result = is_class_satisfiable(meeting_schema(), "Speaker", budget=budget)
        assert result.verdict is Verdict.SAT
        assert budget.expansion_nodes > 0
        assert budget.solver_calls > 0

    def test_satisfiable_classes_degrades_every_class(self):
        schema = meeting_schema()
        verdicts = satisfiable_classes(schema, budget=Budget(timeout=0))
        assert set(verdicts) == set(schema.classes)
        assert all(value is Verdict.UNKNOWN for value in verdicts.values())
        # Falsy UNKNOWNs keep aggregate checks conservative.
        assert not all(verdicts.values())

    def test_satisfiable_classes_booleans_when_decided(self):
        verdicts = satisfiable_classes(
            figure1_schema(), budget=Budget(timeout=60.0)
        )
        assert all(isinstance(value, bool) for value in verdicts.values())

    def test_is_schema_fully_satisfiable_conservative_on_exhaustion(self):
        assert not is_schema_fully_satisfiable(
            meeting_schema(), budget=Budget(timeout=0)
        )

    def test_implies_degrades_to_unknown(self):
        result = implies_isa(
            meeting_schema(),
            "Discussant",
            "Speaker",
            budget=Budget(max_solver_calls=1),
        )
        assert result.verdict is ImplicationVerdict.UNKNOWN
        assert not result.implied
        assert "unknown" in result.pretty()

    def test_implies_unbudgeted_unchanged(self):
        result = implies_isa(meeting_schema(), "Discussant", "Speaker")
        assert result.verdict is ImplicationVerdict.IMPLIED
        assert result.implied

    def test_ambient_budget_raises_without_explicit_parameter(self):
        with activate(Budget(max_expansion_nodes=1)):
            with pytest.raises(BudgetExceededError):
                is_class_satisfiable(meeting_schema(), "Speaker")

    def test_cancelled_budget_degrades_to_unknown(self):
        budget = Budget()
        budget.cancel()
        result = is_class_satisfiable(meeting_schema(), "Speaker", budget=budget)
        assert result.verdict is Verdict.UNKNOWN
        assert result.snapshot.reason == "cancelled"

    def test_sequential_calls_share_one_account(self):
        budget = Budget(max_solver_calls=200)
        first = is_class_satisfiable(meeting_schema(), "Speaker", budget=budget)
        after_first = budget.solver_calls
        second = is_class_satisfiable(meeting_schema(), "Talk", budget=budget)
        assert first.satisfiable and second.satisfiable
        assert budget.solver_calls > after_first


class TestTypedLimits:
    def test_expansion_guard_raises_typed_error(self):
        schema = meeting_schema()
        limits = ExpansionLimits(max_all_compound_classes=1)
        with pytest.raises(LimitExceededError):
            list(Expansion(schema, limits).all_compound_classes())

    def test_limit_error_is_a_repro_error(self):
        # Backward compatibility: callers catching ReproError still work.
        assert issubclass(LimitExceededError, ReproError)
        assert issubclass(BudgetExceededError, LimitExceededError)

    def test_naive_limit_parameter(self):
        schema = meeting_schema()
        with pytest.raises(LimitExceededError) as excinfo:
            is_class_satisfiable(schema, "Speaker", engine="naive", naive_limit=1)
        assert "naive_limit of 1" in str(excinfo.value)
        # A permissive limit lets the naive engine run to completion.
        result = is_class_satisfiable(
            schema, "Speaker", engine="naive", naive_limit=32
        )
        assert result.satisfiable


class TestVerdictEnums:
    def test_truthiness(self):
        assert Verdict.SAT
        assert not Verdict.UNSAT
        assert not Verdict.UNKNOWN
        assert ImplicationVerdict.IMPLIED
        assert not ImplicationVerdict.NOT_IMPLIED
        assert not ImplicationVerdict.UNKNOWN

    def test_from_bool_and_decided(self):
        assert Verdict.from_bool(True) is Verdict.SAT
        assert Verdict.from_bool(False) is Verdict.UNSAT
        assert Verdict.SAT.decided and Verdict.UNSAT.decided
        assert not Verdict.UNKNOWN.decided
        assert ImplicationVerdict.from_bool(True) is ImplicationVerdict.IMPLIED
        assert not ImplicationVerdict.UNKNOWN.decided
