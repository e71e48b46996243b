"""The structured occupancy simplex against HiGHS at the sizes FKORS solves.

Each program is written out as the full occupancy LP of the benchmark
module's docstring, from its (W, P, r) curves alone, and solved by HiGHS
(``scipy.optimize.linprog``).  The structured solver's objective must match
for dual-restart solves on programs captured from a FKORS run on a 500-atom
market, and on adversarial markets: tied ratios, p = 0 and c = 0 atoms, and
rho at the edge of feasibility, where both solvers must report infeasible.
So must cold solves, from the crash vertices or phase 1, on random and
adversarial markets.  A plan the learner reuses because verification
certified it must lie within the reuse tolerance of HiGHS's optimum.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from spacing_auctions import benchmark, fkors
from spacing_auctions.benchmark import (
    InfeasibleOccupancyError,
    _chain_basis,
    _column,
    _crash_bases,
    _dual_phase,
    _objective_coeffs,
    _update_inverse,
    occupancy_problem,
    solve_occupancy_problem,
    verify_basis,
)
from spacing_auctions.fkors import FkorsConfig, run_fkors
from spacing_auctions.harness import random_market as harness_random_market
from spacing_auctions.market import (
    MarketDistribution,
    candidate_multipliers,
    market_from_config,
    mean_conversion,
    win_pay_curve,
)
from spacing_auctions.rewards import cap_linear_reward, sqrt_reward
from spacing_auctions.rng import SplitMix64
from dense_pricing import basis_matrix, dense_inverse, reduced_costs, zero_reward
from test_benchmark import GRID, checked_start, problem_on, random_problem, split_check
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
    return sol.start == 0 and split_check(prob, starts[0])[0].min() < -1e-9


@pytest.fixture(scope="module")
def captured():
    """(prob, starts, sol) of every solve of FKORS seed 1 on the 500-atom
    market at T=300."""
    market = wide_market()
    cfg = FkorsConfig.from_defaults(0.2, 300, mean_conversion(market), seed=1)
    out = []
    solve = fkors.solve_occupancy_problem

    def recording(prob, starts=()):
        sol = solve(prob, starts)
        out.append((prob, [layout.ids.tolist() for layout in starts], sol))
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


def verified_plans(market, cfg):
    """(prob, layout, x_B) of every plan that verification certified in a
    FKORS run."""
    out = []
    verify = fkors.verify_basis_values

    def recording(prob, layout, **tols):
        x_b = verify(prob, layout, **tols)
        if x_b is not None:
            out.append((prob, layout, x_b))
        return x_b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fkors, "verify_basis_values", recording)
        run_fkors(market, sqrt_reward(), cfg)
    return out


def test_verify_accepted_plans_match_highs():
    # a certified plan's reduced costs are at most reuse_tolerance, and every
    # feasible point has unit mass and a budget slack of at most rho, so by
    # weak duality the plan lies at most reuse_tolerance (1 + rho) below the
    # optimum
    wide = wide_market()
    wide_cfg = FkorsConfig.from_defaults(0.2, 300, mean_conversion(wide), seed=1)
    wide_plans = verified_plans(wide, wide_cfg)
    grid = market_from_config({"type": "uniform_grid", "K": 50})
    grid_cfg = FkorsConfig.from_defaults(0.2, 8000, mean_conversion(grid), seed=7001)
    grid_plans = verified_plans(grid, grid_cfg)
    assert len(wide_plans) >= 20 and len(grid_plans) >= 1000
    # every wide plan, and about 60 across the grid run
    for cfg, plans in ((wide_cfg, wide_plans), (grid_cfg, grid_plans[:: len(grid_plans) // 60])):
        bound = cfg.reuse_tolerance * (1.0 + cfg.rho) + HIGHS_TOL
        for prob, layout, x_b in plans:
            assert highs(prob) - _objective_coeffs(prob, layout.ids) @ x_b <= bound


@pytest.fixture
def dense_entering(monkeypatch):
    """Checks, at every pivot of the primal loop, both entering rules
    against the dense pass over every nonbasic column: Dantzig's choice is
    the first maximum, Bland's the first id above tol.  The loop goes on
    with the rule it is in.  Yields the Bland flag of each choice."""
    choices = []
    entering = benchmark._entering_column

    def checked(prob, y, basic, bland, tol):
        d = reduced_costs(prob, y)
        d[basic] = -np.inf
        above = np.flatnonzero(d > tol)
        dantzig = int(np.argmax(d)) if above.size else -1
        first = int(above[0]) if above.size else -1
        assert entering(prob, y, basic, False, tol) == dantzig
        assert entering(prob, y, basic, True, tol) == first
        choices.append(bland)
        return first if bland else dantzig

    monkeypatch.setattr(benchmark, "_entering_column", checked)
    return choices


def test_entering_columns_are_the_dense_choice_on_captured_programs(captured, dense_entering):
    for prob, starts, sol in captured:
        assert solve_occupancy_problem(prob, starts=starts).basis == sol.basis
    assert len(dense_entering) >= 400


def test_entering_columns_are_the_dense_choice_on_random_markets(dense_entering):
    # harness random markets, m in 3..14: solved from the crash vertices (or
    # phase 1), then warm from that optimum after rho moves
    rng = SplitMix64(83)
    for _ in range(60):
        prob, sol, reward = random_problem(rng)
        for scale in (0.7, 1.3):
            moved = occupancy_problem(
                (prob.mus, prob.w, prob.p), reward, prob.m, min(1.0, prob.rho * scale),
                prob.bid1_at_m)
            try:
                solve_occupancy_problem(moved, starts=[sol.basis])
            except InfeasibleOccupancyError:
                pass
    assert len(dense_entering) >= 500


def full_width_dual_phase(prob, basis, tol):
    """Reference dual phase that prices every column: the pivot row through
    the pricing identity A^T z = -reduced_costs(zero_reward(prob), z) and
    reduced costs carried across pivots, clipped at zero."""
    B = basis_matrix(prob, basis)
    b_inv = dense_inverse(B)
    x_b = b_inv @ prob.b
    basic = np.zeros(prob.n_cols + 1, dtype=bool)
    basic[basis] = True
    d = np.minimum(reduced_costs(prob, b_inv.T @ _objective_coeffs(prob, basis)), 0.0)
    zero = zero_reward(prob)
    for _ in range(4 * prob.n_rows):
        leave = int(np.argmin(x_b))
        if x_b[leave] >= -tol:
            return split_check(prob, basis, tol) is not None
        row = -reduced_costs(zero, b_inv[leave])
        cand = np.nonzero((row < -1e-9) & ~basic)[0]
        if cand.size == 0:
            return False
        ratios = d[cand] / row[cand]
        tie = cand[ratios <= ratios.min() + 1e-15]
        j = int(tie[np.argmin(row[tie])])
        a_j = _column(prob, j)
        direction = b_inv @ a_j
        if np.abs(B @ direction - a_j).max() > 1e-8 or abs(direction[leave]) < 1e-9:
            b_inv = dense_inverse(B)
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
        values = split_check(prob, starts[0]) if starts else None
        if values is None or values[0].min() >= -1e-9:
            continue
        ok = full_width_dual_phase(prob, list(starts[0]), 1e-9)
        full += ok
        neighbour += ok and _dual_phase(checked_start(prob, starts[0]), 1e-9) is not None
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
    assert split_check(prob, start)[0].min() < -0.1
    assert full_width_dual_phase(prob, list(start), 1e-9)
    assert _dual_phase(checked_start(prob, start), 1e-9) is None
    assert split_check(prob, _crash_bases(prob)[0], 1e-9) is not None
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
                assert split_check(prob, start) is not None
                with pytest.raises(InfeasibleOccupancyError):
                    solve_occupancy_problem(prob, starts=[start])
    assert restarts >= 10


def test_cold_solves_from_crash_vertices_and_phase1_match_highs(monkeypatch, dense_entering):
    # a cold solve starts from the crash vertices, or from phase 1 when even
    # the all-skip chain overspends.  Harness random markets, with m from 1
    # to 14 and budgets down to 0.01, and the adversarial markets, forced
    # bid-1 on and off.  Each program is also solved with its budget just
    # below its least spending, where no basis is feasible (at 0 when that is
    # 0), and between that and the all-skip chain's spending, where the
    # chain overspends on a feasible program: free conversions
    # (free_and_dead) or cheap ones make that gap under forced bid-1, and
    # without it the least spending is 0
    reached = []
    phase1 = benchmark._phase1
    monkeypatch.setattr(
        benchmark, "_phase1", lambda prob, tol: reached.append(prob) or phase1(prob, tol))
    rng = SplitMix64(41)
    markets = [
        (harness_random_market(rng), 1 + int(rng.uniform() * 14), 0.01 + 0.4 * rng.uniform())
        for _ in range(100)
    ]
    markets += [
        (MarketDistribution.from_tuples(ADVERSARIAL[name]), m, 0.2)
        for name in sorted(ADVERSARIAL) for m in (1, 2, 4, 9)
    ]
    seen = {"crash": 0, "phase1": 0, "phase1, forced bid-1": 0, "infeasible": 0}
    for k, (market, m, rho) in enumerate(markets):
        actions = candidate_multipliers(market)
        curves = (actions, *win_pay_curve(market, actions))
        reward = sqrt_reward() if k % 2 else cap_linear_reward(3)
        for bid1_at_m in (False, True):
            loose = occupancy_problem(curves, reward, m, 1.0, bid1_at_m)
            edge = highs(loose, objective=False)
            i = loose.bid1_idx
            chain = loose.p[i] / (1.0 + (m - 1) * loose.w[i])
            rhos = [rho, edge + 0.05 * (chain - edge)] if chain > edge * (1 + 1e-3) else [rho]
            rhos += [edge * (1 - 1e-3)] if edge > 1e-3 else [0.0]
            for prob in (replace(loose, rho=r) for r in rhos):
                want = highs(prob)
                before = len(reached)
                if want is None:
                    with pytest.raises(InfeasibleOccupancyError):
                        solve_occupancy_problem(prob)
                    assert len(reached) == before + 1
                    seen["infeasible"] += 1
                    continue
                sol = solve_occupancy_problem(prob)
                assert sol.objective == pytest.approx(want, abs=HIGHS_TOL)
                assert sol.budget_used <= prob.rho + 1e-9
                if len(reached) == before:
                    seen["crash"] += 1
                else:
                    seen["phase1, forced bid-1" if bid1_at_m else "phase1"] += 1
    assert min(seen.values()) >= 50, seen


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(GRID), st.sampled_from(GRID), st.integers(1, 4)),
             min_size=1, max_size=6),
    st.sampled_from((1, 2, 3, 8, 40)),
    st.sampled_from((0.0, 0.01, 0.3, 1.0)),
    st.booleans(),
)
def test_all_skip_chain_is_nonsingular_and_only_its_slack_can_be_negative(
        atoms, m, rho, bid1_at_m):
    # skip in states 1..m-1 and bid 1 in state m: the flow block is unit
    # bidiagonal and the (mass, budget) Schur complement has determinant
    # 1 + (m - 1) W_bid1, so |det B| is that; q_m = 1 / (1 + (m - 1) W_bid1)
    # and q_l = W_bid1 q_m, and the slack is rho - P_bid1 q_m
    total = sum(weight for *_, weight in atoms)
    market = MarketDistribution.from_tuples([(p, c, weight / total) for p, c, weight in atoms])
    prob = problem_on(market, m, bid1_at_m, rho)
    basis = _crash_bases(prob)[-1]
    assert basis == _chain_basis(prob, prob.skip_idx)
    # the split's A is unit triangular, so |det B| is that of the Schur
    # complement, the product of its |U diagonal|
    x_b, (*_, lu, _) = split_check(prob, basis)
    w1, p1 = prob.w[prob.bid1_idx], prob.p[prob.bid1_idx]
    q_m = 1.0 / (1.0 + (m - 1) * w1)
    assert np.prod(np.abs(lu.diagonal())) == pytest.approx(1.0 + (m - 1) * w1, rel=1e-12)
    np.testing.assert_allclose(
        x_b, np.append(np.full(m - 1, w1 * q_m), [q_m, rho - p1 * q_m]), rtol=0.0, atol=1e-12)
    assert x_b[:-1].min() >= -1e-15
