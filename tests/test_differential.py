"""The structured occupancy simplex against HiGHS at the sizes FKORS solves.

Each program is written out as the full occupancy LP of the benchmark
module's docstring, from its (W, P, r) curves alone, and solved by HiGHS
(``scipy.optimize.linprog``).  The structured solver's objective must match
for dual-restart solves on programs captured from a FKORS run on a 500-atom
market, and on adversarial markets: tied ratios, p = 0 and c = 0 atoms, and
rho at the edge of feasibility, where both solvers must report infeasible.
"""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from spacing_auctions import fkors
from spacing_auctions.benchmark import (
    InfeasibleOccupancyError,
    _basic_values,
    _basis_matrix,
    _column,
    _crash_bases,
    _dual_phase,
    _inverse,
    _objective_coeffs,
    _primal_values,
    _reduced_costs,
    _update_inverse,
    occupancy_problem,
    solve_occupancy_problem,
    verify_basis,
)
from spacing_auctions.fkors import FkorsConfig, run_fkors
from spacing_auctions.market import (
    MarketDistribution,
    candidate_multipliers,
    mean_conversion,
    win_pay_curve,
)
from spacing_auctions.rewards import cap_linear_reward, sqrt_reward
from test_fkors import wide_market

# HiGHS works to primal and dual feasibility tolerances of 1e-7
HIGHS_TOL = 1e-7


def occupancy_lp(prob):
    """(c, A_eq, b_eq, A_ub) of the occupancy LP with the complete flow-row
    set; columns are (state, action) pairs, state m bids 1 when forced."""
    m, n = prob.m, prob.n_actions
    state = np.repeat(np.arange(1, m + 1), n)
    act = np.tile(np.arange(n), m)
    if prob.bid1_at_m:
        keep = (state < m) | (act == prob.bid1_idx)
        state, act = state[keep], act[keep]
    k = state.shape[0]
    cols = np.arange(k)
    wi = prob.w[act]
    # flow row of state l is row l-1; state 1's row takes every conversion
    rows = np.concatenate([state - 1, np.zeros(k, dtype=int), np.minimum(state, m - 1), np.full(k, m)])
    vals = np.concatenate([np.ones(k), -wi, -(1.0 - wi), np.ones(k)])
    a_eq = coo_matrix((vals, (rows, np.tile(cols, 4))), shape=(m + 1, k)).tocsr()
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    return prob.r[state - 1] * wi, a_eq, b_eq, prob.p[act][None, :]


def highs(prob, objective=True):
    """HiGHS optimum of `prob` (or its least budget use when `objective` is
    False); None when HiGHS finds the program infeasible."""
    c, a_eq, b_eq, a_ub = occupancy_lp(prob)
    if objective:
        res = linprog(-c, A_ub=a_ub, b_ub=[prob.rho], A_eq=a_eq, b_eq=b_eq, method="highs-ipm")
    else:
        res = linprog(a_ub[0], A_eq=a_eq, b_eq=b_eq, method="highs-ipm")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun if objective else res.fun


def dual_restarted(prob, starts, sol):
    """Whether `sol` began from starts[0] through the dual phase."""
    return sol.start == 0 and _basic_values(prob, _basis_matrix(prob, starts[0]))[0].min() < -1e-9


@pytest.fixture(scope="module")
def captured():
    """(prob, starts, sol) of every solve of FKORS seed 1 on the 500-atom
    market at T=300."""
    market = wide_market()
    cfg = FkorsConfig.from_defaults(0.2, 300, mean_conversion(market), seed=1)
    out = []
    solve = fkors.solve_occupancy_problem

    def recording(prob, tol=1e-9, starts=()):
        starts = [list(s) for s in starts]
        sol = solve(prob, tol, starts)
        out.append((prob, starts, sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fkors, "solve_occupancy_problem", recording)
        run_fkors(market, sqrt_reward(), cfg)
    assert all(prob.m == cfg.m for prob, _, _ in out)
    return out


def test_dual_restarts_on_captured_fkors_programs_match_highs(captured):
    restarted = [(prob, sol) for prob, starts, sol in captured if dual_restarted(prob, starts, sol)]
    assert len(restarted) >= 20
    # every fourth one, across the run: m = 90, a few hundred actions
    checked = restarted[::4]
    assert max(prob.n_actions for prob, _ in checked) >= 200
    for prob, sol in checked:
        assert sol.objective == pytest.approx(highs(prob), abs=HIGHS_TOL)
        assert verify_basis(prob, sol.basis) is not None


def full_width_dual_phase(prob, basis, tol):
    """Reference dual phase that prices every column: the pivot row through
    the pricing identity A^T z = -reduced_costs(z, phase1) and reduced costs
    carried across pivots, clipped at zero."""
    B = _basis_matrix(prob, basis)
    b_inv = _inverse(B)
    x_b = b_inv @ prob.b
    basic = np.zeros(prob.n_cols + 1, dtype=bool)
    basic[basis] = True
    d = np.minimum(_reduced_costs(prob, b_inv.T @ _objective_coeffs(prob, basis), False), 0.0)
    for _ in range(4 * prob.n_rows):
        leave = int(np.argmin(x_b))
        if x_b[leave] >= -tol:
            return _primal_values(prob, B, tol) is not None
        row = -_reduced_costs(prob, b_inv[leave], phase1=True)
        cand = np.nonzero((row < -1e-9) & ~basic)[0]
        if cand.size == 0:
            return False
        ratios = d[cand] / row[cand]
        tie = cand[ratios <= ratios.min() + 1e-15]
        j = int(tie[np.argmin(row[tie])])
        a_j = _column(prob, j)
        direction = b_inv @ a_j
        if np.abs(B @ direction - a_j).max() > 1e-8 or abs(direction[leave]) < 1e-9:
            b_inv = _inverse(B)
            x_b = b_inv @ prob.b
            continue
        d = np.minimum(d - d[j] / row[j] * row, 0.0)
        d[j] = 0.0
        theta = x_b[leave] / direction[leave]
        x_b -= theta * direction
        x_b[leave] = theta
        basic[basis[leave]], basic[j] = False, True
        basis[leave] = j
        B[:, leave] = a_j
        _update_inverse(b_inv, direction, leave)
    return False


def test_neighbour_pricing_keeps_the_restarts_full_pricing_makes(captured):
    # the dual phase prices only the basis's neighbouring multipliers; on
    # the captured programs it must succeed where pricing every column does
    full = neighbour = 0
    for prob, starts, _ in captured:
        values = _basic_values(prob, _basis_matrix(prob, starts[0])) if starts else None
        if values is None or values[0].min() >= -1e-9:
            continue
        ok = full_width_dual_phase(prob, list(starts[0]), 1e-9)
        full += ok
        start = (_basis_matrix(prob, starts[0]), *values)
        neighbour += ok and _dual_phase(prob, list(starts[0]), start, 1e-9) is not None
    print(f"{neighbour} of {full} restarts")
    assert full >= 20
    assert neighbour >= 0.95 * full


def test_a_start_whose_entering_column_is_no_neighbour_falls_back_to_a_crash_vertex():
    # m = 2, start: action 2 in both states, paying more than rho.  The
    # slack's row of B^-1 A is P_j - P_2, so only the skip column enters;
    # action 2's neighbours (1 and 3) pay more than it does
    mus = np.array([0.0, 1.0, 2.0, 3.0, np.inf])
    w = np.array([1.0, 0.9, 0.7, 0.6, 0.0])
    p = np.array([0.9, 0.95, 0.8, 0.85, 0.0])
    prob = occupancy_problem((mus, w, p), sqrt_reward(), 2, 0.5, False)
    start = [2, prob.n_actions + 2, prob.slack_id]
    assert _basic_values(prob, _basis_matrix(prob, start))[0].min() < -0.1
    assert full_width_dual_phase(prob, list(start), 1e-9)
    assert _dual_phase(
        prob, list(start), _primal_values(prob, _basis_matrix(prob, start), np.inf), 1e-9) is None
    assert _primal_values(prob, _basis_matrix(prob, _crash_bases(prob)[0]), 1e-9) is not None
    sol = solve_occupancy_problem(prob, starts=[start])
    assert sol.start == -1
    assert sol.objective == pytest.approx(highs(prob), abs=HIGHS_TOL)
    assert verify_basis(prob, sol.basis) is not None


ADVERSARIAL = {
    # several atoms share each ratio c/p, so candidates tie in the ratio test
    "tied_ratios": [(0.2, 0.4, 0.2), (0.3, 0.6, 0.2), (0.1, 0.2, 0.1), (0.5, 0.5, 0.2),
                    (0.25, 0.25, 0.1), (0.4, 0.8, 0.2)],
    # free wins that never convert, and converting atoms that cost nothing
    "free_and_dead": [(0.0, 0.0, 0.2), (0.0, 0.7, 0.1), (0.4, 0.0, 0.2), (0.6, 0.9, 0.3),
                      (0.3, 0.3, 0.2)],
    # one ratio for every atom: candidates mu = 0, 2, skip
    "single_ratio": [(0.1, 0.2, 0.25), (0.2, 0.4, 0.25), (0.3, 0.6, 0.25), (0.45, 0.9, 0.25)],
}


def problem(market, reward, m, rho):
    actions = candidate_multipliers(market)
    return occupancy_problem((actions, *win_pay_curve(market, actions)), reward, m, rho, True)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_dual_restarts_on_adversarial_markets_match_highs(name):
    market = MarketDistribution.from_tuples(ADVERSARIAL[name])
    restarts = 0
    for m in (1, 2, 4, 9):
        for reward in (sqrt_reward(), cap_linear_reward(2)):
            loose = problem(market, reward, m, 1.0)
            edge = highs(loose, objective=False)
            # rho falls from slack towards the feasibility edge; each solve
            # starts from the previous optimum, which overspends the new rho
            start = solve_occupancy_problem(loose).basis
            for rho in (0.6, 0.35, 0.2, edge + 0.25 * (0.2 - edge), edge * (1 + 1e-6) + 1e-9):
                if rho <= edge:
                    continue
                prob = problem(market, reward, m, rho)
                sol = solve_occupancy_problem(prob, starts=[start])
                assert sol.objective == pytest.approx(highs(prob), abs=HIGHS_TOL)
                assert sol.budget_used <= rho + 1e-9
                restarts += dual_restarted(prob, [start], sol)
                start = sol.basis
            if edge > 1e-3:
                # just beyond the edge no basis is feasible: the dual phase
                # from the nonsingular start fails, and phase 1 reports the
                # program infeasible
                prob = problem(market, reward, m, edge * (1 - 1e-3))
                assert highs(prob) is None
                assert _basic_values(prob, _basis_matrix(prob, start)) is not None
                with pytest.raises(InfeasibleOccupancyError):
                    solve_occupancy_problem(prob, starts=[start])
    assert restarts >= 10
