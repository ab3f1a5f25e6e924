"""Unit and property tests for Farkas certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solver.certificates import (
    FarkasCertificate,
    farkas_certificate,
    support_is_certified,
)
from repro.solver.fourier_motzkin import fm_solve
from repro.solver.homogeneous import maximal_support
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation, term


class TestExtraction:
    def test_feasible_system_has_no_certificate(self):
        x = term("x")
        assert farkas_certificate(LinearSystem([x <= 5])) is None

    def test_simple_infeasible_interval(self):
        x = term("x")
        system = LinearSystem([x >= 3, x <= 2])
        certificate = farkas_certificate(system)
        assert certificate is not None
        assert certificate.verify(system)

    def test_figure1_style_cone(self):
        c, r = term("c"), term("r")
        system = LinearSystem([2 * c <= r, c >= r, c >= 1])
        certificate = farkas_certificate(system)
        assert certificate is not None
        assert certificate.verify(system)
        # The proof must use the positivity row: without it the cone has
        # the zero solution.
        used = {index for index, _ in certificate.weights}
        assert 2 in used

    def test_equality_infeasibility(self):
        x, y = term("x"), term("y")
        system = LinearSystem([(x + y + 1).equals(0)])
        certificate = farkas_certificate(system)
        assert certificate is not None
        assert certificate.verify(system)

    def test_nonnegativity_driven_infeasibility(self):
        x = term("x")
        system = LinearSystem([x <= -1])
        certificate = farkas_certificate(system)
        assert certificate is not None
        assert certificate.verify(system)

    def test_strict_constraints_rejected(self):
        with pytest.raises(SolverError):
            farkas_certificate(LinearSystem([term("x") > 0]))

    def test_pretty_includes_labels(self):
        x = term("x")
        system = LinearSystem(
            [
                (x >= 3).labelled("lower"),
                (x <= 2).labelled("upper"),
            ]
        )
        certificate = farkas_certificate(system)
        text = certificate.pretty(system)
        assert "[lower]" in text or "[upper]" in text
        assert "> 0 for all non-negative unknowns" in text


class TestVerification:
    def test_bogus_weights_rejected(self):
        x = term("x")
        system = LinearSystem([x >= 3, x <= 2])
        bogus = FarkasCertificate(((0, Fraction(1)),))  # wrong sign for GE
        assert not bogus.verify(system)

    def test_zero_combination_rejected(self):
        x = term("x")
        system = LinearSystem([x >= 3, x <= 2])
        assert not FarkasCertificate(()).verify(system)

    def test_out_of_range_index_rejected(self):
        system = LinearSystem([term("x") <= 2])
        assert not FarkasCertificate(((7, Fraction(1)),)).verify(system)

    def test_combination_with_negative_coefficient_rejected(self):
        # Weighting only "x - y <= 0" gives combination x - y, whose y
        # coefficient is negative: not a proof.
        x, y = term("x"), term("y")
        system = LinearSystem([x - y <= 0, y <= 1])
        candidate = FarkasCertificate(((0, Fraction(1)),))
        assert not candidate.verify(system)


class TestSupportCertification:
    # y <= x, 2x <= y: only the origin, so x and y are both dead; z is
    # unconstrained.
    SYSTEM = LinearSystem(
        [term("y") <= term("x"), 2 * term("x") <= term("y"), term("z") >= 0]
    )

    def test_a_maximal_support_is_certified(self):
        support, solution = maximal_support(self.SYSTEM)
        assert support == {"z"}
        assert support_is_certified(
            self.SYSTEM, ["x", "y", "z"], support, solution
        )

    def test_a_missed_positive_unknown_is_not_certified(self):
        # z can be positive, so no Farkas proof refutes z >= 1.
        solution = {"x": Fraction(0), "y": Fraction(0), "z": Fraction(0)}
        assert not support_is_certified(
            self.SYSTEM, ["x", "y", "z"], frozenset(), solution
        )

    def test_a_witness_off_its_support_is_not_certified(self):
        solution = {"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)}
        assert not support_is_certified(
            self.SYSTEM, ["z"], frozenset(), solution
        )

    def test_a_witness_violating_the_system_is_not_certified(self):
        solution = {"x": Fraction(1), "y": Fraction(1), "z": Fraction(0)}
        assert not support_is_certified(
            self.SYSTEM, ["x", "y"], frozenset({"x", "y"}), solution
        )


NUM_VARS = 3
VARIABLES = [f"x{i}" for i in range(NUM_VARS)]


@st.composite
def random_systems(draw) -> LinearSystem:
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = {name: draw(st.integers(-3, 3)) for name in VARIABLES}
        constant = draw(st.integers(-4, 4))
        relation = draw(
            st.sampled_from([Relation.LE, Relation.GE, Relation.EQ])
        )
        constraints.append(Constraint(LinExpr(coeffs, constant), relation))
    return LinearSystem(constraints, variables=VARIABLES)


@settings(max_examples=120, deadline=None)
@given(random_systems())
def test_certificate_exists_iff_infeasible(system):
    """Farkas' lemma, executably: certificate ⟺ infeasible, with
    feasibility decided independently by Fourier–Motzkin."""
    certificate = farkas_certificate(system)
    feasible = fm_solve(system).feasible
    if feasible:
        assert certificate is None
    else:
        assert certificate is not None
        assert certificate.verify(system)
