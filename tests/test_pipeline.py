"""The staged pipeline IR: stage timing, budget-phase interplay, CLI.

The IR has two independent halves — the ambient :class:`PipelineRun`
collector (timing) and the budget-phase bookkeeping inside
:func:`stage` — and the contract that neither does anything when its
ambient object is absent.  The CLI tests check the end of the wire:
``repro batch --stats`` prints a per-stage table and ``--json`` embeds
the same numbers.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dsl import serialize_schema
from repro.paper import meeting_schema
from repro.errors import BudgetExceededError
from repro.pipeline import (
    CANONICAL_STAGES,
    STAGE_EXPAND,
    STAGE_SOLVE,
    STAGE_VERDICT,
    PipelineRun,
    activate_run,
    current_run,
    stage,
)
from repro.runtime.budget import Budget, activate, current_budget


@pytest.fixture
def meeting_file(tmp_path):
    path = tmp_path / "meeting.cr"
    path.write_text(serialize_schema(meeting_schema()))
    return str(path)


class FakeClock:
    """A clock advanced by hand, so stage timings are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestPipelineRun:
    def test_record_accumulates_runs_and_seconds(self):
        run = PipelineRun()
        run.record(STAGE_SOLVE, 0.25)
        run.record(STAGE_SOLVE, 0.5)
        timing = run.stages[STAGE_SOLVE]
        assert timing.runs == 2
        assert timing.seconds == pytest.approx(0.75)
        assert run.total_seconds() == pytest.approx(0.75)

    def test_as_dict_reports_in_pipeline_order(self):
        run = PipelineRun()
        run.record(STAGE_VERDICT, 0.1)
        run.record("custom", 0.2)
        run.record(STAGE_EXPAND, 0.3)
        names = list(run.as_dict())
        # Canonical stages first, in pipeline order; extras trail.
        assert names == [STAGE_EXPAND, STAGE_VERDICT, "custom"]

    def test_canonical_order_matches_the_pipeline(self):
        assert CANONICAL_STAGES == (
            "normalize",
            "decompose",
            "analyze",
            "expand",
            "build-system",
            "solve",
            "verdict",
            "combine",
        )

    def test_pretty_formats_milliseconds(self):
        run = PipelineRun()
        run.record(STAGE_SOLVE, 0.0124)
        assert run.pretty() == "solve: 1 run(s), 12.4ms"

    def test_pretty_on_an_empty_run(self):
        assert PipelineRun().pretty() == "(no stages ran)"


class TestStage:
    def test_stage_charges_wall_clock_to_the_active_run(self):
        clock = FakeClock()
        run = PipelineRun(clock=clock)
        with activate_run(run):
            with stage(STAGE_EXPAND):
                clock.now += 2.0
        assert run.stages[STAGE_EXPAND].runs == 1
        assert run.stages[STAGE_EXPAND].seconds == pytest.approx(2.0)

    def test_stage_records_even_when_the_block_raises(self):
        clock = FakeClock()
        run = PipelineRun(clock=clock)
        with activate_run(run):
            with pytest.raises(RuntimeError):
                with stage(STAGE_SOLVE):
                    clock.now += 1.0
                    raise RuntimeError("solver died")
        assert run.stages[STAGE_SOLVE].seconds == pytest.approx(1.0)

    def test_stage_without_a_run_or_budget_is_a_no_op(self):
        assert current_run() is None
        assert current_budget() is None
        with stage(STAGE_SOLVE):
            pass  # nothing to assert: must simply not fail

    def test_stage_sets_and_restores_the_budget_phase(self):
        budget = Budget()
        with activate(budget):
            budget.enter_phase("outer")
            with stage(STAGE_SOLVE, phase="decide:fixpoint"):
                assert budget.phase == "decide:fixpoint"
            assert budget.phase == "outer"

    def test_stage_phase_entry_checks_the_budget(self):
        # An exhausted budget refuses the stage at the door, like
        # Budget.enter_phase; no timing is charged for work that never
        # ran.
        run = PipelineRun(clock=FakeClock())
        budget = Budget(timeout=0)
        with activate(budget), activate_run(run):
            with pytest.raises(BudgetExceededError):
                with stage(STAGE_SOLVE, phase="decide:fixpoint"):
                    pass
        assert STAGE_SOLVE not in run.stages

    def test_stage_with_phase_none_leaves_the_budget_alone(self):
        budget = Budget()
        with activate(budget):
            budget.enter_phase("outer")
            with stage(STAGE_VERDICT):
                assert budget.phase == "outer"
            assert budget.phase == "outer"


class TestActivateRun:
    def test_activate_none_keeps_the_enclosing_run(self):
        outer = PipelineRun()
        with activate_run(outer):
            with activate_run(None):
                assert current_run() is outer

    def test_nested_runs_shadow_and_restore(self):
        outer, inner = PipelineRun(), PipelineRun()
        with activate_run(outer):
            with activate_run(inner):
                assert current_run() is inner
            assert current_run() is outer
        assert current_run() is None

    def test_decision_procedures_report_through_the_ambient_run(
        self, meeting
    ):
        from repro.cr.satisfiability import satisfiable_classes

        run = PipelineRun()
        with activate_run(run):
            verdicts = satisfiable_classes(meeting)
        assert all(verdicts.values())
        for name in ("expand", "build-system", "solve", "verdict"):
            assert run.stages[name].runs >= 1
        assert run.total_seconds() > 0


class TestBatchStats:
    def test_stats_prints_the_per_stage_table(self, meeting_file, capsys):
        code = main(
            [
                "batch",
                meeting_file,
                "--query",
                "sat Talk",
                "--query",
                "Discussant isa Speaker",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("normalize", "expand", "build-system", "solve", "verdict"):
            assert f"# stage {name}: " in out
        # One schema parse, one expansion, one system build for the batch.
        assert "# stage expand: 1 run(s)" in out
        assert "# stage build-system: 1 run(s)" in out

    def test_json_report_embeds_the_stage_timings(self, meeting_file, capsys):
        code = main(
            ["batch", meeting_file, "--query", "sat Speaker", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        stages = report["stages"]
        assert set(stages) >= {"normalize", "expand", "solve", "verdict"}
        for timing in stages.values():
            assert timing["runs"] >= 1
            assert timing["seconds"] >= 0
