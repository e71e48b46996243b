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


def test_dual_restarts_on_captured_fkors_programs_match_highs(monkeypatch):
    market = wide_market()
    cfg = FkorsConfig.from_defaults(0.2, 300, mean_conversion(market), seed=1)
    captured = []
    solve = fkors.solve_occupancy_problem

    def recording(prob, tol=1e-9, starts=()):
        starts = [list(s) for s in starts]
        sol = solve(prob, tol, starts)
        captured.append((prob, starts, sol))
        return sol

    monkeypatch.setattr(fkors, "solve_occupancy_problem", recording)
    run_fkors(market, sqrt_reward(), cfg)
    restarted = [(prob, sol) for prob, starts, sol in captured if dual_restarted(prob, starts, sol)]
    assert len(restarted) >= 20
    # every fourth one, across the run: m = 90, a few hundred actions
    checked = restarted[::4]
    assert max(prob.n_actions for prob, _ in checked) >= 200
    for prob, sol in checked:
        assert prob.m == cfg.m
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
