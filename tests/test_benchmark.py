"""Tests for the occupancy-LP benchmark, renewal formulas and the DP oracle."""

import math
import subprocess
import sys
import warnings
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import spacing_auctions
from spacing_auctions import benchmark, fkors
from spacing_auctions.benchmark import (
    InfeasibleOccupancyError,
    BenchResult,
    MixtureTemplate,
    _basic_values,
    _basis_matrix,
    _chain_basis,
    _column,
    _crash_bases,
    _dual_phase,
    _neighbour_offsets,
    _objective_coeffs,
    _ratio_test,
    _reduced_costs,
    basis_layout,
    verify_basis_values,
    CycleStats,
    OccupancyProblem,
    PolicyVec,
    build_occupancy_lp,
    candidate_multipliers,
    check_monotone,
    check_win_floor,
    cycle_stats,
    cycle_stats_wp,
    finite_horizon_dp,
    occupancy_problem,
    policy_from_occupancy,
    reach_probabilities,
    solve_benchmark,
    solve_occupancy_problem,
    StateMixtures,
    state_mixtures,
    stationary,
    verify_basis,
)
from spacing_auctions.market import (
    SKIP,
    MarketDistribution,
    discretize_uniform,
    market_from_config,
    mean_conversion,
    win_pay_curve,
)
from spacing_auctions.fkors import FkorsConfig, default_params, run_fkors
from spacing_auctions.harness import random_market as harness_random_market
from spacing_auctions.rewards import cap_linear_reward, sqrt_reward, table_reward
from spacing_auctions.rng import SplitMix64
from spacing_auctions.simplex import solve_lp


def atoms_market(*tuples):
    return MarketDistribution.from_tuples(list(tuples))


def random_market(rng: SplitMix64, max_atoms: int = 6, p_grid=None) -> MarketDistribution:
    n = 1 + int(rng.uniform() * max_atoms)
    tuples = []
    for _ in range(n):
        if p_grid is not None:
            p = p_grid[int(rng.uniform() * len(p_grid))]
        else:
            p = 0.02 + 0.98 * rng.uniform()
        c = 0.05 + 0.95 * rng.uniform()
        tuples.append((p, c, 1.0 + rng.uniform()))
    total = sum(t[2] for t in tuples)
    return MarketDistribution.from_tuples([(p, c, w / total) for p, c, w in tuples])


# ---------------------------------------------------------------------------
# LP construction


def test_lp_shape_matches_chain_structure():
    # 2 states x 3 actions = 6 variables; flow rows + mass + one budget row
    m = atoms_market((0.5, 1.0, 1.0))
    lp = build_occupancy_lp(m, cap_linear_reward(2), m=2, rho=0.5)
    assert lp.n == 6
    assert lp.a_eq.shape[0] + lp.a_ub.shape[0] == 4  # m + 2 constraints
    assert lp.a_ub.shape[0] == 1


def test_lp_flow_rows_sum_to_zero():
    # the flow rows are linearly dependent by construction
    m = atoms_market((0.5, 1.0, 0.5), (0.25, 0.5, 0.5))
    lp = build_occupancy_lp(m, sqrt_reward(), m=5, rho=0.3)
    flow = lp.a_eq[:-1]  # all but the mass row
    assert np.max(np.abs(flow.sum(axis=0))) < 1e-12


def test_lp_bid1_at_m_eliminates_state_m_columns():
    m = atoms_market((0.5, 1.0, 0.5), (0.25, 0.5, 0.5))
    n_actions = len(candidate_multipliers(m))
    lp_off = build_occupancy_lp(m, sqrt_reward(), m=3, rho=0.3, bid1_at_m=False)
    lp_on = build_occupancy_lp(m, sqrt_reward(), m=3, rho=0.3, bid1_at_m=True)
    assert lp_off.n == 3 * n_actions
    assert lp_on.n == 2 * n_actions + 1


def test_lp_rejects_bad_m():
    m = atoms_market((0.5, 1.0, 1.0))
    with pytest.raises(ValueError):
        build_occupancy_lp(m, sqrt_reward(), m=0, rho=0.5)


def test_lp_requires_endpoint_actions():
    m = atoms_market((0.5, 1.0, 1.0))
    with pytest.raises(ValueError):
        build_occupancy_lp(m, sqrt_reward(), m=2, rho=0.5, actions=np.array([1.0, 2.0]))


@pytest.mark.parametrize("bid1_at_m", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_column_encoding_round_trips(m, bid1_at_m):
    prob = mixture_problem(m, bid1_at_m, 3)
    ids = np.arange(prob.n_cols)
    states, actions = prob.decode(ids)
    assert prob.encode(states, actions).tolist() == ids.tolist()
    assert [prob.decode_one(int(col)) for col in ids] == list(zip(states.tolist(), actions.tolist()))
    # every (state, action) pair has one column, except that forced bid-1
    # leaves state m the bid-1 column only
    pairs = {(l, i) for l in range(1, m + 1) for i in range(prob.n_actions)}
    if bid1_at_m:
        pairs = {(l, i) for l, i in pairs if l < m or i == prob.bid1_idx}
        with pytest.raises(ValueError):
            prob.encode([m], [prob.skip_idx])
    assert set(zip(states.tolist(), actions.tolist())) == pairs
    assert ids.shape[0] == len(pairs)


def test_with_curves_equals_a_fresh_build():
    market = atoms_market((0.2, 0.4, 0.3), (0.5, 0.6, 0.3), (0.8, 0.5, 0.4))
    actions = candidate_multipliers(market)
    w, p = win_pay_curve(market, actions)
    prob = occupancy_problem((actions, w, p), sqrt_reward(), 5, 0.3, True)
    w2, p2 = w * 0.9, p * 1.1
    fresh = occupancy_problem((actions, w2, p2), sqrt_reward(), 5, 0.3, True)
    twin = prob.with_curves(w2, p2)
    assert twin.__dict__.keys() == fresh.__dict__.keys()
    for name, value in fresh.__dict__.items():
        assert np.asarray(getattr(twin, name)).tobytes() == np.asarray(value).tobytes(), name
    assert prob.w is w and prob.p is p
    with pytest.raises(ValueError):
        prob.with_curves(w2[:-1], p2)


def test_chain_basis_ids():
    market = atoms_market((0.2, 0.4, 0.3), (0.5, 0.6, 0.3), (0.8, 0.5, 0.4))
    actions = candidate_multipliers(market)  # 0, 0.625, 1.2, 2, skip
    curves = (actions, *win_pay_curve(market, actions))
    on = occupancy_problem(curves, sqrt_reward(), 4, 0.3, bid1_at_m=True)
    off = occupancy_problem(curves, sqrt_reward(), 4, 0.3, bid1_at_m=False)
    assert _chain_basis(on, 2) == [2, 7, 12, 15, 16]
    assert _chain_basis(on, on.skip_idx) == [4, 9, 14, 15, 16]
    assert _chain_basis(off, 2) == [2, 7, 12, 15, 20]
    assert _chain_basis(off, off.skip_idx) == [4, 9, 14, 15, 20]


def test_budget_row_slack_for_cheap_market():
    m = atoms_market((0.3, 1.0, 1.0))
    res = solve_benchmark(m, cap_linear_reward(1), m=3, rho=1.0)
    assert res.slack > 0.5  # always-bid-1 costs 0.3 per round


# ---------------------------------------------------------------------------
# solve_benchmark against independent oracles


def grid_search_two_state(reward, rho, step=0.01):
    """Spec-style oracle for the single atom (p=1, c=1) instance: scan
    (W1, W2) on a grid; P(W) = W since winning probability w costs w."""
    best = 0.0
    r1 = reward(1)
    r2 = reward(2)
    for w1 in np.arange(0.0, 1.0 + 1e-12, step):
        for w2 in np.arange(step, 1.0 + 1e-12, step):
            reach2 = 1.0 - w1
            L = 1.0 + reach2 / w2
            rew = r1 + (r2 - r1) * reach2
            pay = w1 + (w2 / w2) * reach2  # P(W) = W for the unit atom
            if pay / L <= rho + 1e-12:
                best = max(best, rew / L)
    return best


def test_two_state_unit_atom_matches_grid_search():
    market = atoms_market((1.0, 1.0, 1.0))
    reward = cap_linear_reward(2)
    res = solve_benchmark(market, reward, m=2, rho=0.5)
    oracle = grid_search_two_state(reward, 0.5)
    assert res.opt_value == pytest.approx(1.0, abs=1e-9)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    # state 1 skips, state 2 bids 1
    assert res.policy.states[0] == ((SKIP, 1.0),)
    assert res.policy.states[1] == ((0.0, 1.0),)
    assert res.avg_payment == pytest.approx(0.5, abs=1e-9)


def test_slack_budget_always_bid_one():
    market = atoms_market((0.3, 1.0, 1.0))
    res = solve_benchmark(market, cap_linear_reward(1), m=4, rho=0.5)
    assert res.opt_value == pytest.approx(1.0, abs=1e-9)
    assert res.avg_payment == pytest.approx(0.3, abs=1e-9)
    # state 1 wins surely, so the chain never leaves it; the unreachable
    # tail inherits its mixture
    assert res.win_vec[0] == pytest.approx(1.0, abs=1e-9)
    assert all(mix == res.policy.states[0] for mix in res.policy.states[1:])


def test_suboptimality_example_value_and_bids():
    rho = math.sqrt(3.0) - 1.5
    market = discretize_uniform(1000)
    res = solve_benchmark(market, cap_linear_reward(2), m=20, rho=rho)
    assert res.opt_value == pytest.approx(1.0, abs=0.01)
    # state-1 bid at c=1 is 1/mu ~ 2 - sqrt(3); state 2 bids 1
    bids = [1.0 / mu if mu > 0 else 1.0 for mu, _ in res.policy.states[0]]
    avg_bid = sum(b * w for b, (_, w) in zip(bids, res.policy.states[0]))
    assert avg_bid == pytest.approx(2.0 - math.sqrt(3.0), abs=0.005)
    # state 2 bids 1 (up to vertex-degenerate dust on equally good actions)
    weights = dict(res.policy.states[1])
    assert weights.get(0.0, 0.0) > 0.999
    assert res.win_vec[1] == pytest.approx(1.0, abs=1e-4)


def test_specialized_solver_matches_dense_simplex():
    rng = SplitMix64(77)
    for _ in range(25):
        market = random_market(rng)
        m = 2 + int(rng.uniform() * 6)
        rho = 0.05 + 0.6 * rng.uniform()
        bid1 = rng.uniform() < 0.5
        reward = sqrt_reward() if rng.uniform() < 0.5 else cap_linear_reward(2)
        lp = build_occupancy_lp(market, reward, m=m, rho=rho, bid1_at_m=bid1)
        dense = solve_lp(lp)
        if dense.status == "infeasible":
            # forcing bid-1 in a short chain can outspend rho outright
            with pytest.raises(InfeasibleOccupancyError):
                solve_benchmark(market, reward, m=m, rho=rho, bid1_at_m=bid1)
            continue
        res = solve_benchmark(market, reward, m=m, rho=rho, bid1_at_m=bid1)
        assert dense.status == "optimal"
        assert res.opt_value == pytest.approx(dense.objective, abs=1e-7)
        assert res.avg_payment <= rho + 1e-8


def test_occupancy_solution_satisfies_flow_rows():
    rng = SplitMix64(3)
    for _ in range(10):
        market = random_market(rng)
        m = 3 + int(rng.uniform() * 5)
        rho = 0.1 + 0.5 * rng.uniform()
        res = solve_benchmark(market, sqrt_reward(), m=m, rho=rho)
        lp = build_occupancy_lp(market, sqrt_reward(), m=m, rho=rho)
        x = np.zeros(lp.n)
        actions = candidate_multipliers(market)
        n = len(actions)
        for (s, mu), v in res.occupancy.items():
            i = int(np.searchsorted(actions, mu))
            x[(s - 1) * n + i] += v
        assert np.max(np.abs(lp.a_eq @ x - lp.b_eq)) < 1e-9
        assert float((lp.a_ub @ x)[0]) <= rho + 1e-9


def test_lp_value_equals_cycle_stats_of_extracted_policy():
    rng = SplitMix64(11)
    for _ in range(15):
        market = random_market(rng)
        m = 2 + int(rng.uniform() * 8)
        rho = 0.05 + 0.6 * rng.uniform()
        reward = sqrt_reward()
        res = solve_benchmark(market, reward, m=m, rho=rho)
        if np.max(res.win_vec) <= 0.0:
            assert res.opt_value == pytest.approx(0.0, abs=1e-9)
            continue
        stats = cycle_stats(res.policy, market, reward)
        assert res.opt_value == pytest.approx(stats.reward_avg, abs=1e-7)
        assert res.avg_payment == pytest.approx(stats.pay_avg, abs=1e-7)


def test_opt_value_monotone_in_rho_and_m():
    market = atoms_market((0.6, 1.0, 0.4), (0.2, 0.5, 0.6))
    reward = sqrt_reward()
    vals_rho = [solve_benchmark(market, reward, m=6, rho=r).opt_value for r in (0.05, 0.1, 0.2, 0.4)]
    assert all(b >= a - 1e-9 for a, b in zip(vals_rho, vals_rho[1:]))
    vals_m = [solve_benchmark(market, reward, m=m, rho=0.15).opt_value for m in (2, 4, 8, 16)]
    assert all(b >= a - 1e-9 for a, b in zip(vals_m, vals_m[1:]))


# ---------------------------------------------------------------------------
# verified basis reuse


def test_ratio_test_reads_round_off_as_zero_and_breaks_ties_by_pivot():
    # a round-off negative basic value over a tiny entry must not undercut
    # the degenerate ties at zero; ties leave by the largest entry, or by
    # the smallest basis id under Bland's rule
    x_b = np.array([-1e-17, 0.0, 0.0, 0.5])
    direction = np.array([2e-9, 0.25, 0.5, 1.0])
    ids = np.array([4, 1, 9, 2])
    assert _ratio_test(x_b, direction, ids, bland=False) == 2
    assert _ratio_test(x_b, direction, ids, bland=True) == 1
    assert _ratio_test(x_b, -direction, ids, bland=False) == -1


def test_ratio_test_with_slack_passes_over_a_tiny_entry():
    # a primal cleanup after a dual restart met this: a basic value at
    # -1e-11 over a 1.4e-8 entry undercuts every other row, and pivoting on
    # it made the basis singular; with slack the next row ties and leaves
    x_b = np.array([-1.1e-11, 1.03e-5, 0.05])
    direction = np.array([1.44e-8, 1.0, 1.67])
    ids = np.array([3, 7, 5])
    assert _ratio_test(x_b, direction, ids, bland=False) == 0
    assert _ratio_test(x_b, direction, ids, bland=False, slack=1e-9) == 1


def test_verify_basis_accepts_optimal_and_rejects_after_change():
    market = atoms_market((0.6, 1.0, 0.4), (0.2, 0.5, 0.6))
    reward = sqrt_reward()
    actions = candidate_multipliers(market)
    w, p = win_pay_curve(market, actions)
    prob = occupancy_problem((actions, w, p), reward, 5, 0.2, False)
    sol = solve_occupancy_problem(prob)
    again = verify_basis(prob, sol.basis)
    assert again is not None
    assert again.objective == pytest.approx(sol.objective, abs=1e-12)
    # a wildly different budget makes the old basis primal infeasible
    prob2 = occupancy_problem((actions, w, p), reward, 5, 0.0, False)
    assert verify_basis(prob2, sol.basis) is None


def test_verify_basis_tracks_small_coefficient_drift():
    market = atoms_market((0.6, 1.0, 0.5), (0.2, 0.5, 0.5))
    drifted = atoms_market((0.6, 1.0, 0.501), (0.2, 0.5, 0.499))
    reward = sqrt_reward()
    actions = candidate_multipliers(market)
    prob = occupancy_problem((actions, *win_pay_curve(market, actions)), reward, 5, 0.2, False)
    sol = solve_occupancy_problem(prob)
    prob2 = occupancy_problem((actions, *win_pay_curve(drifted, actions)), reward, 5, 0.2, False)
    reused = verify_basis(prob2, sol.basis, dual_tol=1e-6)
    if reused is not None:
        fresh = solve_occupancy_problem(prob2)
        assert reused.objective == pytest.approx(fresh.objective, abs=1e-6)


def random_problem(rng: SplitMix64):
    """A random occupancy problem and its solution: harness market, m in
    3..14, bid-1 forced at m unless that makes the program infeasible."""
    market = harness_random_market(rng)
    actions = candidate_multipliers(market)
    w0, p0 = win_pay_curve(market, actions)
    m = 3 + int(rng.uniform() * 12)
    rho = 0.05 + 0.4 * rng.uniform()
    reward = sqrt_reward() if rng.uniform() < 0.5 else cap_linear_reward(1 + int(rng.uniform() * 6))
    prob = occupancy_problem((actions, w0, p0), reward, m, rho, True)
    try:
        sol = solve_occupancy_problem(prob)
    except InfeasibleOccupancyError:
        prob = occupancy_problem((actions, w0, p0), reward, m, rho, False)
        sol = solve_occupancy_problem(prob)
    return prob, sol, reward


def with_curves(prob, reward, w, p):
    return occupancy_problem((prob.mus, w, p), reward, prob.m, prob.rho, prob.bid1_at_m)


def test_warm_start_from_stale_optimal_basis_reaches_crash_optimum():
    # perturb W/P until the old optimal basis is primal feasible but no
    # longer dual optimal; the solve started there must reach the optimum
    rng = SplitMix64(2024)
    warm_solves = 0
    for _ in range(50):
        prob, sol, reward = random_problem(rng)
        n = prob.n_actions
        for eps in (0.01, 0.03, 0.1, 0.3, 0.3, 0.3):
            noise = np.array([rng.uniform() - 0.5 for _ in range(2 * n)])
            prob2 = with_curves(
                prob, reward, np.clip(prob.w * (1 + eps * noise[:n]), 0.0, 1.0),
                prob.p * (1 + eps * noise[n:]),
            )
            feasible = verify_basis(prob2, sol.basis, dual_tol=np.inf) is not None
            if feasible and verify_basis(prob2, sol.basis) is None:
                break
        else:
            continue
        warm = solve_occupancy_problem(prob2, starts=[sol.basis])
        cold = solve_occupancy_problem(prob2)
        assert warm.start == 0 and cold.start == -1
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert verify_basis(prob2, warm.basis) is not None
        warm_solves += 1
    assert warm_solves >= 40


def test_unusable_starts_are_skipped():
    rng = SplitMix64(77)
    checked = 0
    for _ in range(30):
        prob, sol, _ = random_problem(rng)
        good = list(sol.basis)
        singular = [good[0]] + good[:-1]  # duplicate column
        short = good[:-1]
        out_of_range = good[:-1] + [prob.slack_id + 1]
        infeasible = [
            b for b in (_chain_basis(prob, i) for i in range(prob.n_actions))
            if verify_basis(prob, b, dual_tol=np.inf) is None
            and np.linalg.matrix_rank(_basis_matrix(prob, b)) == prob.n_rows
        ]
        bad = [singular, short, out_of_range] + infeasible[:1]
        cold = solve_occupancy_problem(prob)
        skipped = solve_occupancy_problem(prob, starts=bad)
        assert skipped.start == -1
        assert skipped.objective == pytest.approx(cold.objective, abs=1e-9)
        # a usable start after the bad ones is taken, and left unmodified
        starts = bad + [good]
        assert solve_occupancy_problem(prob, starts=starts).start == len(bad)
        assert starts[-1] == list(sol.basis)
        checked += bool(infeasible)
    assert checked >= 10


def test_dual_restart_from_infeasible_optimal_basis_reaches_crash_optimum():
    # perturb W/P until the old optimal basis is nonsingular but primal
    # infeasible; the dual phase makes it feasible and the solve started
    # there must reach the crash-start optimum
    rng = SplitMix64(2025)
    restarts = dual = 0
    for _ in range(50):
        prob, sol, reward = random_problem(rng)
        n = prob.n_actions
        for eps in (0.01, 0.03, 0.1, 0.3, 0.3, 0.3):
            noise = np.array([rng.uniform() - 0.5 for _ in range(2 * n)])
            prob2 = with_curves(
                prob, reward, np.clip(prob.w * (1 + eps * noise[:n]), 0.0, 1.0),
                prob.p * (1 + eps * noise[n:]),
            )
            values = _basic_values(prob2, _basis_matrix(prob2, sol.basis))
            if values is not None and values[0].min() < -1e-9:
                break
        else:
            continue
        warm = solve_occupancy_problem(prob2, starts=[sol.basis])
        cold = solve_occupancy_problem(prob2)
        assert cold.start == -1
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert verify_basis(prob2, warm.basis) is not None
        restarts += 1
        dual += warm.start == 0
    assert restarts >= 30
    assert dual >= 0.9 * restarts


def test_failed_dual_restart_falls_back_to_the_crash_vertex():
    # a primal-infeasible constant chain start is dual feasible, but the
    # dual phase from it sometimes runs into its pivot limit
    rng = SplitMix64(4242)
    fallbacks = 0
    for _ in range(50):
        prob, sol, _ = random_problem(rng)
        for action in range(prob.n_actions):
            start = _chain_basis(prob, action)
            values = _basic_values(prob, _basis_matrix(prob, start))
            if values is None or values[0].min() >= -1e-9:
                continue
            if _dual_phase(prob, list(start), (_basis_matrix(prob, start), *values), 1e-9):
                continue
            solved = solve_occupancy_problem(prob, starts=[start])
            assert solved.start == -1
            assert solved.objective == pytest.approx(sol.objective, abs=1e-9)
            assert start == _chain_basis(prob, action)  # left unmodified
            fallbacks += 1
    assert fallbacks >= 2


def test_neighbour_offsets_pass_over_twins():
    # the dual phase prices each basic column's nearest multipliers below
    # and above whose (W, P) differs; without c = 0 atoms, mu = 0 and the
    # smallest ratio win and pay alike, so a basic mu = 0 column's upper
    # neighbour is the first action after that run of twins
    rng = SplitMix64(61)
    markets = [discretize_uniform(20), atoms_market((0.1, 0.2, 0.5), (0.3, 0.6, 0.5))]
    markets += [random_market(rng, p_grid=[0.2, 0.4, 0.6]) for _ in range(20)]
    curves = []
    for market in markets:
        mus = candidate_multipliers(market)
        curves.append((mus, *win_pay_curve(market, mus)))
    # longer runs of twins, and twins that are not adjacent
    curves.append((np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, np.inf]),
                   np.array([1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 0.0]),
                   np.array([0.6, 0.6, 0.6, 0.2, 0.2, 0.6, 0.0])))
    for mus, w, p in curves:
        prob = occupancy_problem((mus, w, p), sqrt_reward(), 3, 0.2, True)
        lo, hi = _neighbour_offsets(prob)
        pairs = list(zip(w.tolist(), p.tolist()))
        for i, pair in enumerate(pairs):
            below = [k for k in range(i) if pairs[k] != pair]
            above = [k for k in range(i + 1, len(pairs)) if pairs[k] != pair]
            assert lo[i] == (below[-1] - i if below else 0)
            assert hi[i] == (above[0] - i if above else 0)
    for mus, w, p in curves[: len(markets)]:
        assert (w[0], p[0]) == (w[1], p[1])  # mu = 0 and the smallest ratio


def test_dual_phase_enters_the_slack_when_the_budget_loosens():
    # m = 1, basis: bid 1 and mu = 1 mixed to spend rho = 0.7, beyond what
    # bid 1 pays.  The mu = 1 mass goes negative, and only the slack has a
    # negative entry in its row of B^-1 A
    mus = np.array([0.0, 1.0, 2.0, np.inf])
    w = np.array([1.0, 0.6, 0.3, 0.0])
    p = np.array([0.5, 0.3, 0.1, 0.0])
    prob = occupancy_problem((mus, w, p), sqrt_reward(), 1, 0.7, False)
    basis = [0, 1]
    assert _basic_values(prob, _basis_matrix(prob, basis))[0].min() < -0.5
    assert _dual_phase(
        prob, basis, benchmark._primal_values(prob, _basis_matrix(prob, basis), np.inf), 1e-9)
    assert basis == [0, prob.slack_id]


def random_bases(rng: SplitMix64, prob, sol):
    """Optimal, crash, duplicate-column and random bases of `prob`."""
    bases = [list(sol.basis), [sol.basis[0]] + list(sol.basis[:-1])]
    bases += _crash_bases(prob)
    for _ in range(4):
        bases.append([int(rng.uniform() * (prob.slack_id + 1)) for _ in range(prob.n_rows)])
    return bases


def test_basis_layout_fills_the_basis_matrix_bitwise():
    rng = SplitMix64(31)
    for _ in range(40):
        prob, sol, reward = random_problem(rng)
        art_base = prob.slack_id + 1
        for basis in random_bases(rng, prob, sol):
            ids = list(basis)
            ids[int(rng.uniform() * len(ids))] = art_base + int(rng.uniform() * prob.n_rows)
            for b, art in ((basis, -1), (ids, art_base)):
                ref = np.column_stack([_column(prob, c, art) for c in b])
                B = _basis_matrix(prob, b, art)
                assert B.tobytes() == ref.tobytes()
            # one layout refills the matrix for drifted coefficients
            layout = basis_layout(prob, basis)
            w2 = np.array([min(1.0, x * (1 + 0.1 * rng.uniform())) for x in prob.w])
            p2 = np.array([x * (1 + 0.1 * rng.uniform()) for x in prob.p])
            prob2 = with_curves(prob, reward, w2, p2)
            filled = layout.fill(prob2, np.zeros((prob.n_rows, prob.n_rows), order="F"))
            assert np.ascontiguousarray(filled).tobytes() == _basis_matrix(prob2, basis).tobytes()


def lu_factor_route(prob, ids, cb, primal_tol=1e-9, dual_tol=1e-9):
    """Basis verification through scipy's lu_factor/lu_solve wrappers."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(_basis_matrix(prob, ids), check_finite=False)
    if np.any(np.abs(np.diagonal(lu)) < 1e-13):
        return None
    x_b = sla.lu_solve((lu, piv), prob.b, check_finite=False)
    y = sla.lu_solve((lu, piv), cb, trans=1, check_finite=False)
    if not np.all(np.isfinite(x_b)) or x_b.min() < -primal_tol:
        return None
    d = _reduced_costs(prob, y, phase1=False)
    d[np.asarray(ids)] = -np.inf
    if d.max() > dual_tol:
        return None
    return np.maximum(x_b, 0.0)


def test_verify_basis_values_matches_lu_factor_route():
    rng = SplitMix64(59)
    verdicts = {"accepted": 0, "singular": 0, "rejected": 0}
    for _ in range(40):
        prob, sol, reward = random_problem(rng)
        prob2 = with_curves(
            prob, reward, np.clip(prob.w * (1 + 0.02 * (rng.uniform() - 0.5)), 0.0, 1.0), prob.p
        )
        for problem in (prob, prob2):
            for basis in random_bases(rng, problem, sol):
                cb = _objective_coeffs(problem, basis)
                for tol in (1e-9, 1e-5):
                    want = lu_factor_route(problem, basis, cb, 1e-7, tol)
                    got = verify_basis_values(problem, basis_layout(problem, basis), 1e-7, tol)
                    assert (want is None) == (got is None)
                    if got is not None:
                        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
                        verdicts["accepted"] += 1
                    elif len(set(basis)) < len(basis):
                        verdicts["singular"] += 1
                    else:
                        verdicts["rejected"] += 1
        duplicate = [sol.basis[0]] + list(sol.basis[:-1])
        layout = basis_layout(prob, duplicate)
        assert verify_basis_values(prob, layout) is None
    assert min(verdicts.values()) >= 40, verdicts


def getrf_route(prob, layout):
    """(x_B, y) of the refilled basis matrix through getrf and getrs; None
    when it is singular or x_B is not finite."""
    values = _basic_values(prob, layout.fill(prob, np.zeros((prob.n_rows,) * 2, order="F")))
    if values is None:
        return None
    x_b, lu, piv = values
    cb = np.zeros(prob.n_rows)
    cb[layout.struct] = prob.objective(layout.states, layout.actions)
    return x_b, sla.lapack.dgetrs(lu, piv, cb, trans=1)[0]


def assert_chain_parity(prob, layout):
    """The chain split of `layout` solves as getrf does: the same verdict,
    and x_B and y within 1e-12 (relative once an entry exceeds 1).  Returns
    whether the basis was accepted as nonsingular."""
    assert layout.chain is not None
    got = layout.chain.solve(prob, layout, np.inf)
    want = getrf_route(prob, layout)
    assert (got is None) == (want is None)
    if got is None:
        return False
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * max(1.0, np.abs(w).max()))
    return True


def test_chain_split_matches_getrf_on_optimal_bases():
    rng = SplitMix64(97)
    seen = {"bid1_at_m": 0, "free_m": 0, "slack": 0, "two_columns": 0}
    for _ in range(60):
        prob, _, reward = random_problem(rng)
        for bid1 in (True, False):
            problem = occupancy_problem(
                (prob.mus, prob.w, prob.p), reward, prob.m, prob.rho, bid1)
            try:
                sol = solve_occupancy_problem(problem)
            except InfeasibleOccupancyError:
                continue
            drifted = problem.with_curves(
                np.clip(problem.w * (1 + 0.05 * (rng.uniform() - 0.5)), 0.0, 1.0), problem.p)
            layout = basis_layout(problem, sol.basis)
            if layout.chain is None:
                continue
            assert assert_chain_parity(problem, layout)
            assert_chain_parity(drifted, layout)
            seen["bid1_at_m" if bid1 else "free_m"] += 1
            seen["slack"] += problem.slack_id in sol.basis
            chain_states = layout.states[(layout.states >= 2) & (layout.states < problem.m)]
            seen["two_columns"] += len(set(chain_states.tolist())) < len(chain_states)
    assert min(seen.values()) >= 10, seen


def test_chain_split_matches_getrf_on_captured_grid_bases(monkeypatch):
    # the bases FKORS checks at m = 90 on the README's uniform_grid config
    market = market_from_config({"type": "uniform_grid", "K": 50})
    m, k = default_params(8000, 0.2, mean_conversion(market))
    verify = fkors.verify_basis_values
    captured = []

    def capture(prob, layout, *args, **kwargs):
        captured.append((prob, layout))
        return verify(prob, layout, *args, **kwargs)

    monkeypatch.setattr(fkors, "verify_basis_values", capture)
    run_fkors(market, sqrt_reward(), FkorsConfig(rho=0.2, T=2000, m=m, k=k, seed=3))
    assert m == 90 and len(captured) > 500
    checked = [(prob, layout) for prob, layout in captured[::5] if layout.chain is not None]
    assert len(checked) > 0.9 * len(captured[::5])
    assert sum(assert_chain_parity(prob, layout) for prob, layout in checked) == len(checked)


def chain_problem(bid1_at_m=True):
    """A program with five multipliers on a three-atom market and m = 6,
    and the map from (state, action) to its column id."""
    market = atoms_market((0.2, 0.4, 0.3), (0.5, 0.6, 0.3), (0.8, 0.5, 0.4))
    actions = candidate_multipliers(market)
    prob = occupancy_problem(
        (actions, *win_pay_curve(market, actions)), sqrt_reward(), 6, 0.3, bid1_at_m)
    return prob, lambda state, action: int(prob.encode(np.array([state]), np.array([action]))[0])


@pytest.mark.parametrize("bid1_at_m", [True, False])
def test_chain_split_adversarial_bases(bid1_at_m):
    prob, col = chain_problem(bid1_at_m)
    accepted = 0
    # every constant chain holds the slack; W = 1 zeroes the subdiagonal
    # (skip, W = 0, makes it -1)
    for action in range(prob.n_actions):
        for w in (prob.w, np.where(np.arange(prob.n_actions) == action, 1.0, prob.w)):
            problem = prob.with_curves(w, prob.p)
            basis = _chain_basis(problem, action)
            accepted += assert_chain_parity(problem, basis_layout(problem, basis))
            # state 3 holds two columns, the second one on the border
            basis[-1] = col(3, (action + 1) % prob.n_actions)
            accepted += assert_chain_parity(problem, basis_layout(problem, basis))
    assert accepted >= 2 * prob.n_actions
    # a duplicate column, pivot or border, is exactly singular
    basis = _chain_basis(prob, 1)
    for dup in (col(3, 1), col(1, 1)):
        layout = basis_layout(prob, basis[:-1] + [dup])
        assert not assert_chain_parity(prob, layout)
        assert verify_basis_values(prob, layout, dual_tol=np.inf) is None
    # two state-1 columns whose multipliers have W and P a gap apart: the
    # Schur complement is singular at gap 0, near-singular at 1e-14 and
    # regular at 1e-3
    for gap, regular in ((0.0, False), (1e-14, False), (1e-3, True)):
        w, p = prob.w.copy(), prob.p.copy()
        w[2], p[2] = w[1] + gap, p[1] + gap
        problem = prob.with_curves(w, p)
        layout = basis_layout(problem, _chain_basis(problem, 1)[:-1] + [col(1, 2)])
        assert assert_chain_parity(problem, layout) == regular


def test_layouts_missing_a_chain_state_take_the_getrf_route(monkeypatch):
    prob, col = chain_problem()
    covered = _chain_basis(prob, 1)
    uncovered = list(covered)
    uncovered[2] = col(1, 2)  # state 3 loses its only column
    assert basis_layout(prob, covered).chain is not None
    assert basis_layout(prob, uncovered).chain is None
    for m in (1, 2):  # no chain rows
        small = occupancy_problem((prob.mus, prob.w, prob.p), sqrt_reward(), m, 0.3, False)
        assert basis_layout(small, _chain_basis(small, 1)[-small.n_rows:]).chain is None
    calls = []
    primal_values = benchmark._primal_values
    monkeypatch.setattr(
        benchmark, "_primal_values", lambda *args: calls.append(1) or primal_values(*args))
    for basis, lu_calls in ((covered, []), (uncovered, [1])):
        got = verify_basis_values(prob, basis_layout(prob, basis), np.inf, np.inf)
        want = lu_factor_route(prob, basis, _objective_coeffs(prob, basis), np.inf, np.inf)
        assert calls == lu_calls
        assert got is not None and want is not None
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_import_leaves_linalg_warnings_alone():
    # importing the package must not change the host's warning filters
    src = str(Path(spacing_auctions.__file__).resolve().parents[1])
    code = (
        "import sys, warnings, scipy.linalg as sla; sys.path.insert(0, sys.argv[1]); "
        "before = list(warnings.filters); import spacing_auctions; "
        "added = [f for f in warnings.filters if f not in before]; "
        "assert not [f for f in added if issubclass(sla.LinAlgWarning, f[2])], added"
    )
    subprocess.run([sys.executable, "-c", code, src], check=True, timeout=120)


# ---------------------------------------------------------------------------
# stationary distribution and cycle statistics


def test_stationary_single_state():
    assert stationary(np.array([0.7])).tolist() == [1.0]


def test_stationary_constant_half():
    pi = stationary(np.array([0.5, 0.5, 0.5]))
    assert pi == pytest.approx([0.5, 0.25, 0.25])


def test_stationary_zero_then_one():
    pi = stationary(np.array([0.0, 1.0]))
    assert pi == pytest.approx([0.5, 0.5])


def test_stationary_rejects_absorbing_chain():
    with pytest.raises(ValueError):
        stationary(np.array([0.5, 0.0]))


def test_stationary_satisfies_balance_equations():
    rng = SplitMix64(21)
    for _ in range(50):
        m = 2 + int(rng.uniform() * 10)
        w = np.array([rng.uniform() for _ in range(m)])
        w[-1] = max(w[-1], 1e-3)
        pi = stationary(w)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        # balance: pi_1 = sum W pi; pi_l = (1-W_{l-1}) pi_{l-1}; state m loops
        assert pi[0] == pytest.approx(float(np.dot(w, pi)), abs=1e-9)
        for l in range(1, m - 1):
            assert pi[l] == pytest.approx((1.0 - w[l - 1]) * pi[l - 1], abs=1e-9)
        if m >= 2:
            inflow_m = (1.0 - w[m - 2]) * pi[m - 2] + (1.0 - w[m - 1]) * pi[m - 1]
            assert pi[m - 1] == pytest.approx(inflow_m, abs=1e-9)


def test_cycle_stats_skip_then_bid_unit_atom():
    market = atoms_market((1.0, 1.0, 1.0))
    policy = PolicyVec(2, (((SKIP, 1.0),), ((0.0, 1.0),)))
    stats = cycle_stats(policy, market, cap_linear_reward(2))
    assert stats.length == pytest.approx(2.0)
    assert stats.reward_conv == pytest.approx(2.0)
    assert stats.reward_avg == pytest.approx(1.0)
    assert stats.pay_conv == pytest.approx(1.0)
    assert stats.pay_avg == pytest.approx(0.5)


def test_cycle_stats_constant_win_matches_geometric_closed_form():
    rng = SplitMix64(5)
    for _ in range(30):
        m = 1 + int(rng.uniform() * 12)
        w = 0.05 + 0.9 * rng.uniform()
        stats = cycle_stats_wp(np.full(m, w), np.zeros(m), cap_linear_reward(m), m)
        closed = (1.0 - (1.0 - w) ** m) / w
        assert stats.reward_conv == pytest.approx(closed, abs=1e-12)
        assert stats.length == pytest.approx(1.0 / w, abs=1e-9)


def test_cycle_stats_all_skip_is_degenerate():
    stats = cycle_stats_wp(np.zeros(4), np.zeros(4), sqrt_reward(), 4)
    assert stats.degenerate
    assert stats.reward_avg == 0.0 and stats.pay_avg == 0.0
    assert math.isinf(stats.length)


def test_cycle_stats_ratio_identities():
    rng = SplitMix64(9)
    for _ in range(20):
        m = 2 + int(rng.uniform() * 8)
        w = np.array([rng.uniform() for _ in range(m)])
        w[-1] = max(w[-1], 0.05)
        p = np.array([rng.uniform() * 0.5 for _ in range(m)])
        stats = cycle_stats_wp(w, p, sqrt_reward(), m)
        assert stats.reward_avg == pytest.approx(stats.reward_conv / stats.length, abs=1e-12)
        assert stats.pay_avg == pytest.approx(stats.pay_conv / stats.length, abs=1e-12)
        # time-average reward also equals sum r(l) W_l pi_l
        r = np.array([math.sqrt(l) for l in range(1, m + 1)])
        assert stats.reward_avg == pytest.approx(float(np.sum(r * w * stats.pi)), abs=1e-9)


def test_reach_probabilities():
    assert reach_probabilities(np.array([0.5, 0.5, 0.5])) == pytest.approx([1.0, 0.5, 0.25])


# ---------------------------------------------------------------------------
# finite-horizon oracle


def test_dp_single_round():
    market = atoms_market((0.5, 1.0, 1.0))
    assert finite_horizon_dp(market, sqrt_reward(), T=1, B=1.0, price_grid_K=2) == pytest.approx(1.0)


def test_dp_budget_forces_waiting():
    market = atoms_market((0.5, 1.0, 1.0))
    # skip round 1, win round 2 at gap 2
    val = finite_horizon_dp(market, sqrt_reward(), T=2, B=0.5, price_grid_K=2)
    assert val == pytest.approx(math.sqrt(2.0))


def test_dp_two_round_tie():
    market = atoms_market((0.5, 1.0, 1.0))
    val = finite_horizon_dp(market, cap_linear_reward(2), T=2, B=1.0, price_grid_K=2)
    assert val == pytest.approx(2.0)


def test_dp_rejects_off_grid():
    market = atoms_market((0.3, 1.0, 1.0))
    with pytest.raises(ValueError):
        finite_horizon_dp(market, sqrt_reward(), T=2, B=1.0, price_grid_K=2)
    with pytest.raises(ValueError):
        finite_horizon_dp(atoms_market((0.5, 1.0, 1.0)), sqrt_reward(), T=2, B=0.3, price_grid_K=2)
    with pytest.raises(ValueError):
        finite_horizon_dp(atoms_market((0.5, 1.0, 1.0)), sqrt_reward(), T=40, B=1.0, price_grid_K=2)


def test_dp_value_below_infinite_horizon_benchmark():
    # the average-budget relaxation dominates the hard-budget optimum
    rng = SplitMix64(31)
    for _ in range(12):
        K = 2 + int(rng.uniform() * 3)
        grid = [i / K for i in range(K + 1)]
        market = random_market(rng, max_atoms=4, p_grid=grid)
        T = 4 + int(rng.uniform() * 8)
        budget_units = 1 + int(rng.uniform() * (T * K))
        B = min(budget_units / K, float(T))
        total = finite_horizon_dp(market, sqrt_reward(), T=T, B=B, price_grid_K=K)
        bench = solve_benchmark(market, sqrt_reward(), m=T, rho=B / T)
        assert total / T <= bench.opt_value + 1e-9


# ---------------------------------------------------------------------------
# structural checks


def test_check_monotone():
    assert check_monotone(np.array([0.1, 0.2, 0.3])) is None
    assert check_monotone(np.array([0.3, 0.1])) == 1


def test_check_win_floor():
    w = np.full(6, 0.25)
    assert check_win_floor(w, 1.0, 0.5) == []
    w2 = w.copy()
    w2[4] = 0.1
    assert check_win_floor(w2, 1.0, 0.5) == [5]


def test_policy_from_occupancy_defaults():
    market = atoms_market((1.0, 1.0, 1.0))
    actions = candidate_multipliers(market)
    w, p = win_pay_curve(market, actions)
    prob = occupancy_problem((actions, w, p), cap_linear_reward(2), 3, 0.4, True)
    # mass only in state 1: state 2 inherits it, state 3 is pinned to bid 1
    i0 = int(np.nonzero(actions == 0.0)[0][0])
    policy = policy_from_occupancy(prob, {(1, i0): 1.0})
    assert policy.states[1] == policy.states[0] == ((0.0, 1.0),)
    assert policy.states[2] == ((0.0, 1.0),)  # bid1_at_m
    # an all-skip plan stays all-skip
    empty = policy_from_occupancy(
        occupancy_problem((actions, w, p), cap_linear_reward(2), 3, 0.4, False), {}
    )
    assert all(mix == ((SKIP, 1.0),) for mix in empty.states)


# ---------------------------------------------------------------------------
# mass-to-mixture rule


def reference_state_mixtures(prob, states, actions, masses):
    """The rule as a single pass over all states, written out directly."""
    by_state = {}
    for s, a, v in zip(
        np.asarray(states).tolist(), np.asarray(actions).tolist(), np.asarray(masses).tolist()
    ):
        if v > 1e-12:
            by_state.setdefault(s, []).append((float(prob.mus[a]), v))
    per_state = []
    for state in range(1, prob.m + 1):
        entries = by_state.get(state)
        if not entries:
            per_state.append(None)
            continue
        entries.sort()
        total = sum(v for _, v in entries)
        per_state.append(([mu for mu, _ in entries], [v / total for _, v in entries]))
    if all(mix is None for mix in per_state):
        per_state = [([SKIP], [1.0])] * prob.m
    else:
        first = next(i for i, mix in enumerate(per_state) if mix is not None)
        for i in range(first):
            per_state[i] = per_state[first]
        for i in range(first + 1, prob.m):
            if per_state[i] is None:
                per_state[i] = per_state[i - 1]
    if prob.bid1_at_m:
        per_state[-1] = ([0.0], [1.0])
    return per_state


def reference_cumulative(mixture):
    mus, wts = mixture
    if len(wts) > 1:
        wts = list(accumulate(wts))
        wts[-1] = 1.0
    return mus, wts


_TOL = 1e-12
# masses just below, at and above the drop threshold, zero and ordinary ones
_MASS = st.one_of(
    st.sampled_from([0.0, np.nextafter(_TOL, 0.0), _TOL, np.nextafter(_TOL, 1.0), 1e-9]),
    st.floats(1e-6, 1.0),
)


def mixture_problem(m, bid1_at_m, n_mid):
    mus = np.array([0.0, *np.linspace(0.5, 3.0, n_mid), math.inf])
    w = np.linspace(1.0, 0.0, mus.shape[0])
    return occupancy_problem((mus, w, 0.5 * w), sqrt_reward(), m, 0.3, bid1_at_m)


@st.composite
def mixture_cases(draw):
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    prob = mixture_problem(m, draw(st.booleans()), draw(st.integers(0, 3)))
    cols = draw(st.lists(
        st.tuples(st.integers(1, m), st.integers(0, prob.n_actions - 1)),
        unique=True, max_size=3 * m,
    ))
    masses = [draw(_MASS) for _ in cols]
    order = draw(st.permutations(range(1, m + 1)))
    return prob, [s for s, _ in cols], [a for _, a in cols], masses, order


def assert_one_rule(prob, states, actions, masses, order):
    want = reference_state_mixtures(prob, states, actions, masses)
    assert repr(state_mixtures(prob, states, actions, masses)) == repr(want)
    # states consulted lazily, in any order, draw what the full rule gives
    lazy = StateMixtures(MixtureTemplate(prob, states, actions), np.asarray(masses, dtype=float))
    for state in order:
        assert repr(lazy.draw_table(state)) == repr(reference_cumulative(want[state - 1]))
        assert repr(lazy.mixture(state)) == repr(want[state - 1])


@settings(max_examples=400, deadline=None)
@given(mixture_cases())
def test_mixture_template_matches_the_one_pass_rule(case):
    assert_one_rule(*case)


@pytest.mark.parametrize("bid1_at_m", [False, True])
@pytest.mark.parametrize(
    "m, masses_by_state",
    [
        (1, {}),                                  # all empty: skip
        (1, {1: [0.3]}),
        (2, {2: [0.7]}),                          # mass only in state m
        (2, {1: [0.25, 0.75]}),                   # trailing empty state
        (5, {3: [0.4, 0.1]}),                     # leading and trailing empties
        (5, {1: [0.5], 4: [0.2, 0.3]}),           # interior empties
        (5, {2: [1e-12], 3: [np.nextafter(1e-12, 1.0)]}),  # at / above the drop
        (5, {5: [0.6, 0.4]}),                     # mass only in state m
        (5, {s: [0.0] for s in range(1, 6)}),     # columns, but all empty
    ],
)
def test_mixture_template_edge_cases(bid1_at_m, m, masses_by_state):
    prob = mixture_problem(m, bid1_at_m, 3)
    states, actions, masses = [], [], []
    for s, vals in masses_by_state.items():
        for a, v in enumerate(vals, start=1):
            states.append(s)
            actions.append(a)
            masses.append(v)
    assert_one_rule(prob, states, actions, masses, list(range(m, 0, -1)))


def test_mixture_template_rejects_states_outside_the_chain():
    prob = mixture_problem(3, False, 1)
    with pytest.raises(ValueError):
        MixtureTemplate(prob, [4], [0])
    with pytest.raises(ValueError):
        MixtureTemplate(prob, [0], [0])
