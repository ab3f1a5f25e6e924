"""Unit tests for the pluggable backend registry.

Covers the registry mechanics (lookup, registration, selection
precedence: pin > ``REPRO_BACKEND`` > default), the declared
capabilities of the built-in backends, the chain degradation contract
(a :class:`SolverError` moves along, budget exhaustion propagates),
the generic acceptability fixpoint, and the naive backend's refusal of
LP primitives and its size gate.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BudgetExceededError,
    LimitExceededError,
    ReproError,
    SolverError,
)
from repro.solver.core import InternedSystem, VariableTable, sharpened_rows
from repro.solver.linear import Relation
from repro.solver.registry import (
    DEFAULT_BACKEND,
    DEFAULT_NAIVE_LIMIT,
    AcceptabilityProblem,
    BackendCapabilities,
    SolverBackend,
    active_backend,
    active_backend_name,
    available_backends,
    backend_names,
    chain_maximal_support,
    chain_positive_solution,
    fixpoint_support,
    get_backend,
    pin_backend,
    register_backend,
)


class TestRegistry:
    def test_the_four_engines_are_registered(self):
        assert set(backend_names()) >= {
            "sparse-simplex",
            "fourier-motzkin",
            "naive",
            "pruned",
        }

    def test_get_backend_unknown_name(self):
        with pytest.raises(ReproError, match="unknown solver backend"):
            get_backend("cutting-planes")

    def test_available_backends_matches_names(self):
        assert tuple(b.name for b in available_backends()) == backend_names()

    def test_duplicate_registration_is_refused(self):
        with pytest.raises(ReproError, match="already registered"):
            register_backend(get_backend("sparse-simplex"))

    def test_replace_allows_reregistration(self):
        backend = get_backend("sparse-simplex")
        register_backend(backend, replace=True)
        assert get_backend("sparse-simplex") is backend


class TestCapabilities:
    def test_only_the_sparse_simplex_certifies(self):
        certifying = {
            b.name for b in available_backends() if b.capabilities.certificates
        }
        assert certifying == {"sparse-simplex"}

    def test_an_infeasible_sparse_answer_carries_its_certificate(self):
        # x = y, 2x = y, x > 0: the sharpened rows are infeasible.
        table = VariableTable(["x", "y"])
        system = InternedSystem(table)
        system.add({0: 1, 1: -1}, Relation.EQ)
        system.add({0: 2, 1: -1}, Relation.EQ)
        system.add({0: 1}, Relation.GT)
        sharpened = InternedSystem(table, sharpened_rows(system)).to_linear()
        for backend in available_backends():
            if backend.capabilities.exponential:
                continue
            witness = backend.positive_solution(system)
            assert not witness.feasible
            if backend.capabilities.certificates:
                assert witness.certificate is not None
                assert witness.certificate.verify(sharpened)
            else:
                assert witness.certificate is None

    def test_only_the_decision_procedures_are_exponential(self):
        exponential = {
            b.name for b in available_backends() if b.capabilities.exponential
        }
        assert exponential == {"naive", "pruned"}

    def test_capability_defaults(self):
        caps = BackendCapabilities()
        assert caps.equalities and caps.strict
        assert not caps.certificates and not caps.exponential


class TestSelection:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert active_backend_name() == DEFAULT_BACKEND

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fourier-motzkin")
        assert active_backend_name() == "fourier-motzkin"
        assert active_backend().name == "fourier-motzkin"

    def test_invalid_environment_variable_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "no-such-engine")
        with pytest.raises(ReproError, match="unknown solver backend"):
            active_backend_name()

    def test_pin_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fourier-motzkin")
        with pin_backend("sparse-simplex") as backend:
            assert backend.name == "sparse-simplex"
            assert active_backend_name() == "sparse-simplex"
        assert active_backend_name() == "fourier-motzkin"

    def test_nested_pins_restore(self):
        with pin_backend("fourier-motzkin"):
            with pin_backend("naive"):
                assert active_backend_name() == "naive"
            assert active_backend_name() == "fourier-motzkin"

    def test_pinning_an_unknown_backend_fails_before_entering(self):
        with pytest.raises(ReproError, match="unknown solver backend"):
            with pin_backend("no-such-engine"):
                pass  # pragma: no cover - must not be reached


def _homogeneous_system():
    """x - y >= 0 over non-negative x, y: support {x, y} via x = y."""
    system = InternedSystem(VariableTable(["x", "y"]))
    system.add({0: 1, 1: -1}, Relation.GE)
    return system


class FaultingBackend(SolverBackend):
    """Raises the given error from every LP primitive."""

    capabilities = BackendCapabilities()

    def __init__(self, name: str, error: Exception) -> None:
        self.name = name
        self.error = error
        self.calls = 0

    def maximal_support(self, system, candidates):
        self.calls += 1
        raise self.error

    def positive_solution(self, system):
        self.calls += 1
        raise self.error


class TestChains:
    def test_solver_error_moves_to_the_next_backend(self):
        faulty = FaultingBackend("faulty", SolverError("numeric trouble"))
        system = _homogeneous_system()
        support, _ = chain_maximal_support(
            system, ["x", "y"], [faulty, get_backend("sparse-simplex")]
        )
        assert faulty.calls == 1
        assert support == frozenset({"x", "y"})

    def test_budget_exhaustion_propagates_immediately(self):
        first = FaultingBackend("first", BudgetExceededError("out of gas"))
        second = FaultingBackend("second", SolverError("unreached"))
        with pytest.raises(BudgetExceededError):
            chain_maximal_support(
                _homogeneous_system(), ["x"], [first, second]
            )
        assert second.calls == 0

    def test_the_last_error_surfaces_when_every_backend_faults(self):
        first = FaultingBackend("first", SolverError("first fault"))
        second = FaultingBackend("second", SolverError("second fault"))
        with pytest.raises(SolverError, match="second fault"):
            chain_positive_solution(_homogeneous_system(), [first, second])

    def test_positive_solution_chain_degrades_too(self):
        faulty = FaultingBackend("faulty", SolverError("numeric trouble"))
        system = _homogeneous_system()
        witness = chain_positive_solution(
            system, [faulty, get_backend("sparse-simplex")]
        )
        assert witness.feasible


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
    @pytest.mark.parametrize("name", ["sparse-simplex", "fourier-motzkin"])
    def test_fixpoint_forces_dependent_unknowns_out(self, name):
        support, solution = fixpoint_support(
            _problem(), [get_backend(name)]
        )
        assert support == frozenset({"c1"})
        assert solution["r1"] == 0
        assert solution["c1"] > 0

    def test_decide_acceptable_found(self):
        backend = get_backend("sparse-simplex")
        found, witness, support = backend.decide_acceptable(_problem())
        assert found
        assert witness["c1"] > 0
        assert support == frozenset({"c1"})

    def test_decide_acceptable_not_found(self):
        backend = get_backend("sparse-simplex")
        found, witness, support = backend.decide_acceptable(
            _problem(targets=frozenset({"c2"}))
        )
        assert not found
        assert witness is None

    def test_naive_backend_agrees(self):
        found, witness, support = get_backend("naive").decide_acceptable(
            _problem(), chain=[get_backend("sparse-simplex")]
        )
        assert found
        assert witness["c1"] > 0
        assert witness["c2"] == 0 and witness["r1"] == 0


class TestNaiveBackend:
    def test_refuses_the_lp_primitives(self):
        naive = get_backend("naive")
        with pytest.raises(SolverError, match="no LP primitives"):
            naive.maximal_support(_homogeneous_system(), ["x"])
        with pytest.raises(SolverError, match="no LP primitives"):
            naive.positive_solution(_homogeneous_system())

    def test_chains_skip_over_the_naive_backend(self):
        support, _ = chain_maximal_support(
            _homogeneous_system(),
            ["x", "y"],
            [get_backend("naive"), get_backend("sparse-simplex")],
        )
        assert support == frozenset({"x", "y"})

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
            get_backend("naive").decide_acceptable(problem)
