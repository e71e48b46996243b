"""Tests for the dense two-phase simplex; acceptance criterion 9
(``harness.check_simplex_oracle``) checks it against vertex enumeration."""

import numpy as np
import pytest

from spacing_auctions.harness import random_bounded_lp
from spacing_auctions.rng import SplitMix64
from spacing_auctions.simplex import LinearProgram, LpSolution, solve_lp


def test_max_x_upper_bound():
    lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)


def test_infeasible_negative_equality():
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[-1.0])
    assert solve_lp(lp).status == "infeasible"


def test_two_variable_vertex():
    lp = LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(2.0)
    assert sol.x == pytest.approx([0.0, 1.0])


def test_unbounded_detected():
    lp = LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[0.0])
    assert solve_lp(lp).status == "unbounded"


def test_redundant_equality_rows_are_dropped():
    # x + y = 1 written twice, plus its double: rank 1 system
    lp = LinearProgram(
        c=[1.0, 0.5],
        a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 1.0, 2.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)


def test_inconsistent_redundant_rows_infeasible():
    lp = LinearProgram(c=[1.0, 0.5], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.5])
    assert solve_lp(lp).status == "infeasible"


def test_degenerate_lp_terminates():
    # many ties: Bland's rule must not cycle
    lp = LinearProgram(
        c=[1.0, 1.0, 1.0],
        a_ub=[[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        b_ub=[0.0, 0.0, 0.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, 0.0]], b_ub=[1.0, 2.0])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        LinearProgram(c=[np.inf], a_ub=[[1.0]], b_ub=[1.0])


def test_resolve_identical_input_identical_result():
    rng = SplitMix64(5)
    lp = random_bounded_lp(rng)
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.status == s2.status == "optimal"
    assert s1.basis == s2.basis
    assert np.array_equal(s1.x, s2.x)
