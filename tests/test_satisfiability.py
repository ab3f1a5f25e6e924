"""Unit tests for class satisfiability (Theorems 3.3 / 3.4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cr.builder import SchemaBuilder
from repro.cr.constraints import MaxCardinalityStatement
from repro.cr.construction import witness_violation
from repro.cr.expansion import Expansion
from repro.cr.implication import implies_max_cardinality, reduce_query
from repro.cr.satisfiability import (
    acceptable_support,
    is_acceptable,
    is_class_satisfiable,
    is_schema_fully_satisfiable,
    satisfiable_classes,
    support_verdicts,
)
from repro.cr.system import build_system
from repro.dsl import parse_schema
from repro.errors import ReproError
from repro.paper import figure1_schema, meeting_schema, refined_meeting_schema
from repro.runtime.budget import Budget, activate
from repro.solver import core
from repro.solver.homogeneous import integerize
from repro.solver.linear import Relation
from tests.strategies import (
    implication_queries_for,
    property_max_examples,
    schemas,
)

ENGINES = ["fixpoint", "naive"]


class TestMeetingSchema:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("cls", ["Speaker", "Discussant", "Talk"])
    def test_every_class_satisfiable(self, meeting, engine, cls):
        result = is_class_satisfiable(meeting, cls, engine=engine)
        assert result.satisfiable
        assert result.engine == engine
        assert result.solution is not None

    def test_witness_is_acceptable_solution(self, meeting):
        result = is_class_satisfiable(meeting, "Speaker")
        solution = result.solution
        cr_system = result.cr_system
        full = {name: solution.get(name, 0) for name in cr_system.system.variables}
        assert cr_system.system.is_satisfied_by(full)
        assert is_acceptable(solution, cr_system.dependencies)

    def test_witness_populates_the_class(self, meeting):
        result = is_class_satisfiable(meeting, "Discussant")
        populated = sum(
            result.witness_count(result.cr_system.class_var[cc])
            for cc in result.cr_system.expansion.consistent_classes_containing(
                "Discussant"
            )
        )
        assert populated > 0

    def test_satisfiable_classes_in_one_run(self, meeting):
        assert satisfiable_classes(meeting) == {
            "Speaker": True,
            "Discussant": True,
            "Talk": True,
        }
        assert is_schema_fully_satisfiable(meeting)


class TestFigure1:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_both_classes_finitely_unsatisfiable(self, figure1, engine):
        for cls in ("C", "D"):
            result = is_class_satisfiable(figure1, cls, engine=engine)
            assert not result.satisfiable
            assert result.solution is None

    def test_ratio_one_is_the_satisfiability_boundary(self):
        assert satisfiable_classes(figure1_schema(1)) == {"C": True, "D": True}
        assert satisfiable_classes(figure1_schema(2)) == {"C": False, "D": False}
        assert satisfiable_classes(figure1_schema(5)) == {"C": False, "D": False}

    def test_unsatisfiable_witness_raises(self, figure1):
        result = is_class_satisfiable(figure1, "C")
        with pytest.raises(ReproError):
            result.witness_count("anything")


class TestRefinedMeeting:
    """Section 3.3: adding minc(Discussant, Holds, U1) = 2 kills the schema."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_speaker_unsatisfiable(self, refined_meeting, engine):
        assert not is_class_satisfiable(
            refined_meeting, "Speaker", engine=engine
        ).satisfiable

    def test_every_class_unsatisfiable(self, refined_meeting):
        verdicts = satisfiable_classes(refined_meeting)
        assert verdicts == {
            "Speaker": False,
            "Discussant": False,
            "Talk": False,
        }
        assert not is_schema_fully_satisfiable(refined_meeting)

    def test_refinement_disequations_present(self, refined_meeting):
        # The paper: the new constraint is reflected by
        # 2*ci <= hi3 + hi5 + hi7 for i in {4, 7}.
        cr_system = build_system(Expansion(refined_meeting), mode="pruned")
        for index in (4, 7):
            row = next(
                c
                for c in cr_system.system
                if c.label == f"min:Holds:U1:{index}"
            )
            assert row.expr.coefficient(f"c{index}") == 2


class TestFixpointCounts:
    """The fixpoint engine's exact LP work, pinned.  Each count is
    ``(Budget.solver_calls, Budget.pivots, _SparseTableau.pivot calls)``,
    under the invariant ``Budget.pivots == _SparseTableau.pivot`` calls:
    the budget is charged once per tableau pivot, artificial eviction
    included.  The solves cover phase 1, eviction and the maximising
    phase 2 of the maximal-support LPs."""

    @pytest.fixture
    def pivot_calls(self, monkeypatch):
        calls: list[int] = []
        pivot = core._SparseTableau.pivot

        def spy(tableau, row_index, col_index):
            calls.append(col_index)
            pivot(tableau, row_index, col_index)

        monkeypatch.setattr(core._SparseTableau, "pivot", spy)
        return calls

    @staticmethod
    def counted(pivot_calls, decide):
        pivot_calls.clear()
        budget = Budget()
        with activate(budget):
            answer = decide()
        return answer, (budget.solver_calls, budget.pivots, len(pivot_calls))

    @pytest.mark.parametrize(
        ("schema", "satisfiable", "counts"),
        [
            (figure1_schema, False, (1, 6, 6)),
            (meeting_schema, True, (1, 37, 37)),
            (refined_meeting_schema, False, (1, 23, 23)),
        ],
    )
    def test_every_class(self, pivot_calls, schema, satisfiable, counts):
        for cls in sorted(schema().classes):
            result, measured = self.counted(
                pivot_calls, lambda: is_class_satisfiable(schema(), cls)
            )
            assert result.satisfiable is satisfiable
            assert measured == counts

    def test_section4_cardinality_implication(self, pivot_calls):
        result, measured = self.counted(
            pivot_calls,
            lambda: implies_max_cardinality(
                meeting_schema(), "Talk", "Participates", "U4", 1
            ),
        )
        assert result.implied
        assert measured == (1, 57, 57)


def converged_support(cr_system):
    """The acceptability fixpoint run until no unknown is newly forced:
    one maximal-support LP per round, each round forcing to zero every
    relationship unknown that depends on a class outside the support.
    Returns ``(support, solution, rounds)``."""
    table = cr_system.interned.table
    class_unknowns = tuple(cr_system.class_var.values())
    forced: set[str] = set()
    rounds = 0
    while True:
        rounds += 1
        support, solution = core.interned_maximal_support(
            cr_system.interned.with_rows(
                core.SparseRow.make({table.index(name): 1}, Relation.EQ)
                for name in sorted(forced)
            ),
            class_unknowns,
        )
        newly_forced = {
            rel_unknown
            for rel_unknown, depends_on in cr_system.dependencies.items()
            if rel_unknown not in forced
            and any(c not in support for c in depends_on)
        }
        if not newly_forced:
            return support, solution, rounds
        forced |= newly_forced


def assert_stops_on_the_converged_answer(cr_system):
    """The fixpoint's answer on ``cr_system`` against
    :func:`converged_support`; returns the fixpoint's LP count."""
    budget = Budget()
    with activate(budget):
        support, solution = acceptable_support(cr_system)
    expected, _solution, rounds = converged_support(cr_system)
    class_unknowns = set(cr_system.class_var.values())
    assert support & class_unknowns == expected & class_unknowns
    assert support_verdicts(cr_system, support) == support_verdicts(
        cr_system, expected
    )
    assert support == {name for name, value in solution.items() if value > 0}
    witness = integerize(solution)
    assert is_acceptable(witness, cr_system.dependencies)
    assert witness_violation(cr_system, witness) is None
    assert budget.solver_calls <= rounds
    return budget.solver_calls


RESOLVE_SCHEMA = """
schema Cold179 {
  class KC0;
  class KC1 isa KC0;
  class KE isa KC1;
  relationship KR0(KR0a: KC1, KR0b: KC1);
  relationship KR1(KR1a: KC1, KR1b: KC0);
  cardinality KC1 in KR0.KR0a: (1, *);
  cardinality KC1 in KR0.KR0b: (1, 1);
  cardinality KC1 in KR1.KR1a: (2, 3);
  cardinality KC0 in KR1.KR1b: (1, *);
  cardinality KE in KR0.KR0b: (2, 1);
}
"""
"""Schema 179 of perfbench's cold-batch workload at seed 3.  Its
Section-4 extension for ``maxc(KC1, KR0, KR0a) = 0`` is the one
schema in that workload's first 200 ops whose first LP solution,
with the newly forced unknowns zeroed, breaks a row of ``Ψ_S``."""


class TestFixpointStopRule:
    """The fixpoint stops on a checked witness instead of a confirming
    LP, and answers what the loop run to convergence answers."""

    @settings(max_examples=property_max_examples())
    @given(data=st.data())
    def test_stopped_fixpoint_matches_the_converged_loop(self, data):
        schema = data.draw(schemas(allow_ternary=True, allow_extensions=True))
        query = data.draw(implication_queries_for(schema))
        reduction = reduce_query(schema, query)
        deciding = [schema]
        if reduction is not None and reduction.strip is not None:
            deciding.append(reduction.schema)  # S + C_exc
        for decided in deciding:
            assert_stops_on_the_converged_answer(
                build_system(Expansion(decided), mode="pruned")
            )

    @pytest.mark.parametrize(
        "schema", [figure1_schema, meeting_schema, refined_meeting_schema]
    )
    def test_paper_schemas_stop_after_one_lp(self, schema):
        cr_system = build_system(Expansion(schema()), mode="pruned")
        assert assert_stops_on_the_converged_answer(cr_system) == 1
        # The converged loop pays a second, confirming LP.
        assert converged_support(cr_system)[2] == 2

    def test_a_zeroed_solution_that_breaks_a_row_is_solved_again(self):
        schema = parse_schema(RESOLVE_SCHEMA)
        reduction = reduce_query(
            schema, MaxCardinalityStatement("KC1", "KR0", "KR0a", 0)
        )
        cr_system = build_system(Expansion(reduction.schema), mode="pruned")
        support, solution = core.interned_maximal_support(
            cr_system.interned, tuple(cr_system.class_var.values())
        )
        zeroed = {
            name: 0
            if any(c not in support for c in cr_system.dependencies.get(name, ()))
            else value
            for name, value in solution.items()
        }
        assert zeroed != solution
        assert witness_violation(cr_system, integerize(zeroed)) is not None
        assert assert_stops_on_the_converged_answer(cr_system) == 2


class TestAcceptability:
    def test_acceptable_solution(self):
        deps = {"r": ("c1", "c2")}
        assert is_acceptable({"r": 1, "c1": 1, "c2": 2}, deps)
        assert is_acceptable({"r": 0, "c1": 0, "c2": 0}, deps)

    def test_unacceptable_solution(self):
        deps = {"r": ("c1", "c2")}
        assert not is_acceptable({"r": 1, "c1": 0, "c2": 2}, deps)

    def test_missing_entries_default_to_zero(self):
        deps = {"r": ("c1",)}
        assert not is_acceptable({"r": 3}, deps)

    def test_acceptability_matters(self):
        # A schema where the plain LP has a solution but no acceptable
        # one: R's role U2 is tied to class B, which must be empty
        # (B <= A and B disjoint from A is impossible), while A needs an
        # R tuple each.  The naive LP could still set Var(R-tuples) > 0
        # with Var(B-compounds) = 0 — acceptability forbids exactly that.
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .isa("B", "A")
            .disjoint("A", "B")
            .relationship("R", U1="A", U2="B")
            .card("A", "R", "U1", minc=1)
            .build()
        )
        verdicts = satisfiable_classes(schema)
        assert verdicts == {"A": False, "B": False}


class TestAcceptableSupport:
    def test_support_and_witness_agree(self, meeting_system):
        support, solution = acceptable_support(meeting_system)
        assert support == {
            name for name, value in solution.items() if value > 0
        }

    def test_fixpoint_forces_dependent_relationships(self):
        schema = (
            SchemaBuilder()
            .classes("A", "B")
            .isa("B", "A")
            .disjoint("A", "B")
            .relationship("R", U1="A", U2="B")
            .build()
        )
        cr_system = build_system(Expansion(schema), mode="pruned")
        support, _ = acceptable_support(cr_system)
        # No consistent compound class contains B, so every relationship
        # unknown (each depends on a B-compound in role U2) is forced out.
        assert not any(name in support for name in cr_system.rel_var.values())
        # A alone is still satisfiable.
        a_vars = {
            cr_system.class_var[cc]
            for cc in cr_system.expansion.consistent_classes_containing("A")
        }
        assert a_vars & support


class TestEngines:
    def test_unknown_engine_rejected(self, meeting):
        with pytest.raises(ReproError):
            is_class_satisfiable(meeting, "Speaker", engine="quantum")

    def test_naive_engine_size_guard(self):
        builder = SchemaBuilder().classes(*[f"K{i}" for i in range(5)])
        builder.relationship("R", U1="K0", U2="K1")
        schema = builder.build()  # 31 consistent compound classes
        with pytest.raises(ReproError, match="zero-sets"):
            is_class_satisfiable(schema, "K0", engine="naive")

    def test_expansion_can_be_reused(self, meeting, meeting_expansion):
        result = is_class_satisfiable(
            meeting, "Talk", expansion=meeting_expansion
        )
        assert result.satisfiable

    def test_unknown_class_rejected(self, meeting):
        with pytest.raises(Exception):
            is_class_satisfiable(meeting, "Ghost")
