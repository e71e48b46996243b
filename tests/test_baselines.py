"""Tests for static baselines, closed forms, and baseline simulators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacing_auctions import baselines, fkors
from spacing_auctions.baselines import (
    StaticPolicy,
    fixed_bid_average_utility,
    fixed_bid_policy,
    fixed_interval_run,
    geometric_reward_mean,
    optimal_static,
    polylog_half_neg,
    reverse_jensen_check,
    static_run,
    warmup_ratio,
)
from spacing_auctions.benchmark import solve_benchmark
from spacing_auctions.fkors import FkorsConfig, run_fkors
from spacing_auctions.market import MarketDistribution, bid_for, discretize_uniform
from spacing_auctions.rewards import cap_linear_reward, sqrt_reward, table_reward
from spacing_auctions.rng import SplitMix64


def atoms_market(*tuples):
    return MarketDistribution.from_tuples(list(tuples))


# ---------------------------------------------------------------------------
# optimal static mixtures


def test_static_policy_validation():
    with pytest.raises(ValueError):
        StaticPolicy(((1.0, 0.4), (2.0, 0.4)), 0.5, 0.1)
    with pytest.raises(ValueError):
        StaticPolicy(((1.0, 0.4), (2.0, 0.3), (3.0, 0.3)), 0.5, 0.1)


def test_optimal_static_unit_atom_budget_half():
    market = atoms_market((1.0, 1.0, 1.0))
    policy, value = optimal_static(market, cap_linear_reward(2), m=20, rho=0.5)
    assert value == pytest.approx(0.75, abs=1e-9)
    assert policy.win_prob == pytest.approx(0.5, abs=1e-9)
    assert policy.exp_pay <= 0.5 + 1e-12
    # strictly below the state-dependent optimum
    bench = solve_benchmark(market, cap_linear_reward(2), m=20, rho=0.5)
    assert value < bench.opt_value - 0.2


def test_optimal_static_cheap_market_bids_one():
    market = atoms_market((0.3, 1.0, 1.0))
    policy, value = optimal_static(market, cap_linear_reward(1), m=20, rho=0.5)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert policy.mixture == ((0.0, 1.0),)


def test_optimal_static_uniform_grid_closed_form():
    rho = math.sqrt(3.0) - 1.5
    market = discretize_uniform(1000)
    _, value = optimal_static(market, cap_linear_reward(2), m=30, rho=rho)
    closed = (2.0 - math.sqrt(2.0 * rho)) * math.sqrt(2.0 * rho)
    assert value == pytest.approx(closed, abs=0.01)


def test_optimal_static_never_beats_benchmark():
    rng = SplitMix64(99)
    for _ in range(10):
        n = 1 + int(rng.uniform() * 5)
        tuples = [(0.05 + 0.95 * rng.uniform(), rng.uniform(), 1.0) for _ in range(n)]
        total = sum(t[2] for t in tuples)
        market = MarketDistribution.from_tuples([(p, c, w / total) for p, c, w in tuples])
        rho = 0.05 + 0.5 * rng.uniform()
        _, value = optimal_static(market, sqrt_reward(), m=25, rho=rho)
        bench = solve_benchmark(market, sqrt_reward(), m=25, rho=rho)
        assert value <= bench.opt_value + 1e-8


# ---------------------------------------------------------------------------
# geometric means and the reverse Jensen bound


def test_geometric_reward_mean_examples():
    assert geometric_reward_mean(cap_linear_reward(2), 2, 0.5) == pytest.approx(1.5)
    assert geometric_reward_mean(sqrt_reward(), 17, 1.0) == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(w=st.floats(0.01, 1.0), m=st.integers(1, 60))
def test_geometric_reward_mean_capped_closed_form(w, m):
    got = geometric_reward_mean(cap_linear_reward(m), m, w)
    closed = (1.0 - (1.0 - w) ** m) / w
    assert got == pytest.approx(closed, abs=1e-12)


def test_reverse_jensen_point_mass():
    # X geometric with mean 4 (p = 3/4), capped at m = 10:
    # E[min(X, m)] = (1 - p^m) * mu
    lhs, rhs, ok = reverse_jensen_check(cap_linear_reward(10), 10, [4], [1.0])
    assert ok
    assert lhs == pytest.approx((1.0 - 0.75**10) * 4.0)
    assert rhs == pytest.approx((1.0 - 1.0 / math.e) * 4.0)
    # the uncapped-mean bound already clears the threshold
    assert (1.0 - 0.75**4) * 4.0 > rhs


def test_reverse_jensen_degenerate_one():
    lhs, rhs, ok = reverse_jensen_check(sqrt_reward(), 5, [1], [1.0])
    assert ok
    assert lhs == pytest.approx(1.0)


def test_reverse_jensen_input_validation():
    with pytest.raises(ValueError):
        reverse_jensen_check(sqrt_reward(), 5, [0], [1.0])
    with pytest.raises(ValueError):
        reverse_jensen_check(sqrt_reward(), 5, [1, 2], [0.7, 0.7])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reverse_jensen_random_instances(data):
    m = data.draw(st.integers(1, 50))
    # random concave capped reward via sorted decreasing increments
    k = data.draw(st.integers(1, 8))
    incs = sorted(
        (data.draw(st.floats(0.0, 1.0)) for _ in range(k)), reverse=True
    )
    vals = [0.0]
    for i in range(m):
        vals.append(vals[-1] + (incs[i] if i < k else incs[-1]))
    reward = table_reward(vals)
    support = data.draw(
        st.lists(st.integers(1, 100), min_size=1, max_size=6, unique=True)
    )
    weights = [data.draw(st.floats(0.01, 1.0)) for _ in support]
    total = sum(weights)
    probs = [wt / total for wt in weights]
    lhs, rhs, ok = reverse_jensen_check(reward, m, support, probs)
    assert ok, f"reverse Jensen violated: {lhs} < {rhs}"


# ---------------------------------------------------------------------------
# polylogarithm and the warm-up curve


def test_polylog_at_zero():
    assert polylog_half_neg(0.0) == 0.0


def test_polylog_half():
    # direct series to 1e-12 as the oracle
    oracle = sum(math.sqrt(n) * 0.5**n for n in range(1, 80))
    assert polylog_half_neg(0.5) == pytest.approx(oracle, abs=1e-10)
    assert polylog_half_neg(0.5) == pytest.approx(1.3474, abs=5e-4)


def test_polylog_monotone():
    assert polylog_half_neg(0.6) > polylog_half_neg(0.5)


def test_polylog_rejects_divergent_input():
    with pytest.raises(ValueError):
        polylog_half_neg(1.0)


def test_warmup_ratio_endpoints():
    assert warmup_ratio(1e-4) == pytest.approx(0.8862, abs=0.005)
    assert warmup_ratio(0.25) == pytest.approx(0.973, abs=0.005)


def test_warmup_ratio_monotone_grid():
    grid = np.linspace(0.005, 0.25, 50)
    vals = [warmup_ratio(float(r)) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_warmup_ratio_domain():
    with pytest.raises(ValueError):
        warmup_ratio(0.3)
    with pytest.raises(ValueError):
        warmup_ratio(0.0)


# ---------------------------------------------------------------------------
# baseline simulators


def test_static_run_skip_policy_never_spends():
    market = discretize_uniform(4)
    policy = StaticPolicy(((math.inf, 1.0),), 0.0, 0.0)
    rec = static_run(market, sqrt_reward(), policy, rho=0.2, T=500, rng=SplitMix64(1))
    assert rec.utility_true == 0.0
    assert rec.spend == 0.0
    assert rec.wins == 0


def test_static_run_deterministic():
    market = discretize_uniform(16)
    policy = fixed_bid_policy(market, 0.5)
    a = static_run(market, sqrt_reward(), policy, rho=0.2, T=400, rng=SplitMix64(7), trace=True)
    b = static_run(market, sqrt_reward(), policy, rho=0.2, T=400, rng=SplitMix64(7), trace=True)
    assert a.rounds == b.rounds
    assert a.utility_true == b.utility_true


def test_static_run_budget_hard_cap():
    market = discretize_uniform(8)
    policy = fixed_bid_policy(market, 1.0)  # always bid 1: spends fast
    rec = static_run(market, sqrt_reward(), policy, rho=0.05, T=300, rng=SplitMix64(3))
    assert rec.spend <= 0.05 * 300 + 1e-12


def test_static_run_matches_closed_form_at_moderate_scale():
    rho = 0.1
    market = discretize_uniform(1000)
    policy = fixed_bid_policy(market, math.sqrt(2.0 * rho))
    total = 0.0
    T = 40_000
    n_seeds = 4
    for s in range(n_seeds):
        rec = static_run(market, sqrt_reward(), policy, rho=rho, T=T, rng=SplitMix64(100 + s))
        total += rec.utility_true / T
    closed = fixed_bid_average_utility(rho)
    assert total / n_seeds == pytest.approx(closed, rel=0.02)


def test_fixed_interval_free_market_wins_every_round():
    market = atoms_market((0.0, 1.0, 1.0))
    rec = fixed_interval_run(market, sqrt_reward(), period=1, rho=0.5, T=50, rng=SplitMix64(2))
    assert rec.wins == 50
    assert rec.conversions == 50
    assert rec.spend == 0.0
    assert rec.utility_true == pytest.approx(50.0)  # every gap is 1


def test_fixed_interval_expected_wins():
    rho = 1.0 / 8.0
    market = discretize_uniform(100)
    period = math.ceil(1.0 / (2.0 * rho))
    rec = fixed_interval_run(market, sqrt_reward(), period, rho=rho, T=4000, rng=SplitMix64(5))
    assert rec.wins == pytest.approx(2 * rho * 4000, rel=0.05)


def test_fixed_interval_longer_than_horizon():
    market = discretize_uniform(4)
    rec = fixed_interval_run(market, sqrt_reward(), period=100, rho=1.0, T=30, rng=SplitMix64(6))
    assert rec.wins <= 1


def test_fixed_interval_rejects_bad_period():
    with pytest.raises(ValueError):
        fixed_interval_run(discretize_uniform(2), sqrt_reward(), 0, 0.5, 10, SplitMix64(1))


# ---------------------------------------------------------------------------
# the round loop every simulator shares


class CountingRng(SplitMix64):
    """SplitMix64 that counts its uniform draws."""

    __slots__ = ("draws",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws = 0

    def uniform(self) -> float:
        self.draws += 1
        return super().uniform()


def test_round_loop_draws_atom_mixture_and_coin(monkeypatch):
    """Uniform draws = T atom draws + one per policy consultation + one
    conversion coin per win, for every simulator."""
    consultations = 0

    def counting_bid_for(mu, c):
        nonlocal consultations
        consultations += 1
        return bid_for(mu, c)

    monkeypatch.setattr(baselines, "bid_for", counting_bid_for)
    monkeypatch.setattr(fkors, "bid_for", counting_bid_for)
    market = discretize_uniform(8)
    reward = sqrt_reward()
    rho, T = 0.15, 1500
    two_action, _ = optimal_static(market, reward, m=20, rho=rho)
    assert len(two_action.mixture) == 2
    skip = StaticPolicy(((math.inf, 1.0),), 0.0, 0.0)
    runs = {
        "fkors": lambda rng: run_fkors(
            market, reward, FkorsConfig(rho=rho, T=T, m=12, k=16), rng=rng
        ),
        "static two-action": lambda rng: static_run(market, reward, two_action, rho, T, rng),
        "static skip": lambda rng: static_run(market, reward, skip, rho, T, rng),
        "fixed interval": lambda rng: fixed_interval_run(market, reward, 3, rho, T, rng),
    }
    for name, run in runs.items():
        consultations = 0
        rng = CountingRng(9)
        rec = run(rng)
        assert rng.draws == T + consultations + rec.wins, name
        if name == "fkors":
            assert 0 < consultations <= T - 16  # no consultation in the warm-up
        elif name.startswith("static"):
            assert consultations > 0
        else:
            assert consultations == 0 and rec.wins > 0
