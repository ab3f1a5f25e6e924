"""Unit tests for the engine switch of :mod:`repro.solver.registry`.

Covers selection precedence (pin > ``REPRO_BACKEND`` > ``fixpoint``),
loud failure on unknown names, the certificate an infeasible
:func:`positive_witness` carries, the acceptability fixpoint, the naive
walk's agreement with it, and the walks' size gate.
"""

from __future__ import annotations

import pytest

from repro.errors import LimitExceededError, ReproError
from repro.solver.core import InternedSystem, VariableTable, sharpened_rows
from repro.solver.linear import Relation
from repro.solver.registry import (
    DEFAULT_NAIVE_LIMIT,
    ENGINES,
    AcceptabilityProblem,
    active_backend_name,
    decide_acceptable,
    fixpoint_support,
    pin_backend,
    positive_witness,
)


class TestPositiveWitness:
    def test_an_infeasible_sparse_answer_carries_its_certificate(self):
        # x = y, 2x = y, x > 0: the sharpened rows are infeasible.
        table = VariableTable(["x", "y"])
        system = InternedSystem(table)
        system.add({0: 1, 1: -1}, Relation.EQ)
        system.add({0: 2, 1: -1}, Relation.EQ)
        system.add({0: 1}, Relation.GT)
        sharpened = InternedSystem(table, sharpened_rows(system)).to_linear()
        witness = positive_witness(system)
        assert not witness.feasible
        assert witness.certificate is not None
        assert witness.certificate.verify(sharpened)


class TestSelection:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert active_backend_name() == "fixpoint" == ENGINES[0]

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "naive")
        assert active_backend_name() == "naive"

    def test_invalid_environment_variable_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "no-such-engine")
        with pytest.raises(ReproError, match="unknown solver backend"):
            active_backend_name()

    def test_pin_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "naive")
        with pin_backend("pruned") as engine:
            assert engine == "pruned"
            assert active_backend_name() == "pruned"
        assert active_backend_name() == "naive"

    def test_nested_pins_restore(self):
        with pin_backend("pruned"):
            with pin_backend("naive"):
                assert active_backend_name() == "naive"
            assert active_backend_name() == "pruned"

    def test_pinning_an_unknown_backend_fails_before_entering(self):
        with pytest.raises(ReproError, match="fixpoint, naive, pruned"):
            with pin_backend("fourier-motzkin"):
                pass  # pragma: no cover - must not be reached


def _problem(targets=frozenset({"c1"})):
    """A two-class problem where c2 is forced empty and r1 depends on it.

    The fixpoint must force r1 out (its dependency c2 leaves the
    support) while c1 stays.
    """
    system = InternedSystem(VariableTable(["c1", "c2", "r1"]))
    system.add({1: 1}, Relation.LE)  # c2 <= 0
    return AcceptabilityProblem(
        system=system,
        class_unknowns=("c1", "c2"),
        dependencies={"r1": ("c2",)},
        targets=targets,
    )


class TestAcceptability:
    def test_fixpoint_forces_dependent_unknowns_out(self):
        support, solution = fixpoint_support(_problem())
        assert support == frozenset({"c1"})
        assert solution["r1"] == 0
        assert solution["c1"] > 0

    def test_decide_acceptable_found(self):
        found, witness, support = decide_acceptable(_problem())
        assert found
        assert witness["c1"] > 0
        assert support == frozenset({"c1"})

    def test_decide_acceptable_not_found(self):
        found, witness, support = decide_acceptable(
            _problem(targets=frozenset({"c2"}))
        )
        assert not found
        assert witness is None

    def test_naive_backend_agrees(self):
        found, witness, support = decide_acceptable(_problem(), "naive")
        assert found
        assert witness["c1"] > 0
        assert witness["c2"] == 0 and witness["r1"] == 0


class TestNaiveBackend:
    def test_the_size_gate_fires(self):
        wide = InternedSystem(
            VariableTable([f"c{i}" for i in range(DEFAULT_NAIVE_LIMIT + 1)])
        )
        problem = AcceptabilityProblem(
            system=wide,
            class_unknowns=wide.table.names(),
            dependencies={},
            targets=frozenset({"c0"}),
        )
        with pytest.raises(LimitExceededError, match="naive_limit"):
            decide_acceptable(problem, "naive")
