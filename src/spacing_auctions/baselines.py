"""State-independent baselines and closed-form analytics.

A static policy bids from one fixed mixture of multiplier actions every
round, ignoring the time since the last conversion.  Such policies cannot be
optimal in general, but the best of them is never far off: an averaging
argument over a geometric spacing variable guarantees at least a (1 - 1/e)
fraction of the optimal time-average reward.  This module finds the best
static mixture, evaluates the closed forms used to sanity-check it, and
simulates static and fixed-interval bidding under the hard budget guard.

`_simulate` is the round loop of every simulator in the package: the
static and fixed-interval runs pass it a bid rule, and FKORS passes a bid
rule plus a per-round hook for its epoch bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benchmark import cycle_stats_wp
from .market import (
    MarketDistribution,
    SKIP,
    bid_for,
    candidate_multipliers,
    win_pay_curve,
)
from .records import RoundEntry, RunRecord
from .rewards import RewardFn, eval_r, eval_r_capped
from .rng import SplitMix64


@dataclass(frozen=True)
class StaticPolicy:
    """Per-round mixture over at most two multiplier actions."""

    mixture: tuple[tuple[float, float], ...]  # ((mu, weight), ...)
    win_prob: float
    exp_pay: float

    def __post_init__(self):
        total = sum(wt for _, wt in self.mixture)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total}, not 1")
        if len(self.mixture) > 2:
            raise ValueError("static mixtures use at most two actions")


def fixed_bid_policy(market: MarketDistribution, bid: float) -> StaticPolicy:
    """The static policy bidding `bid` at conversion rate 1 (mu = 1/bid)."""
    if not 0.0 < bid <= 1.0:
        raise ValueError(f"bid must lie in (0, 1], got {bid}")
    mu = 1.0 / bid
    w, p = win_pay_curve(market, np.array([mu]))
    return StaticPolicy(((mu, 1.0),), float(w[0]), float(p[0]))


def optimal_static(
    market: MarketDistribution, reward: RewardFn, m: int, rho: float
) -> tuple[StaticPolicy, float]:
    """Best state-independent mixture and its time-average reward.

    Evaluates every affordable candidate multiplier via the constant-chain
    renewal value, plus, for each adjacent candidate pair straddling the
    budget, the mixture spending exactly rho per round."""
    if m < 1:
        raise ValueError("cap m must be >= 1")
    mus = candidate_multipliers(market)
    w, p = win_pay_curve(market, mus)

    def constant_value(win: float, pay: float) -> float:
        stats = cycle_stats_wp(np.full(m, win), np.full(m, pay), reward, m)
        return 0.0 if stats.degenerate else stats.reward_avg

    best: tuple[float, StaticPolicy] = (
        0.0,
        StaticPolicy(((SKIP, 1.0),), 0.0, 0.0),
    )
    for i in range(mus.shape[0]):
        if p[i] <= rho + 1e-12:
            val = constant_value(w[i], p[i])
            if val > best[0]:
                best = (val, StaticPolicy(((float(mus[i]), 1.0),), float(w[i]), float(p[i])))
    # mixtures on adjacent candidates straddling the budget: P is
    # non-increasing in mu, so mu_lo < mu_hi means P(lo) >= P(hi)
    for i in range(mus.shape[0] - 1):
        lo, hi = i, i + 1
        if p[lo] > rho >= p[hi] and p[lo] > p[hi]:
            q = (rho - p[hi]) / (p[lo] - p[hi])
            win = q * w[lo] + (1.0 - q) * w[hi]
            val = constant_value(win, rho)
            if val > best[0]:
                best = (
                    val,
                    StaticPolicy(
                        ((float(mus[lo]), q), (float(mus[hi]), 1.0 - q)), float(win), float(rho)
                    ),
                )
    return best[1], best[0]


def geometric_reward_mean(reward: RewardFn, m: int, w: float) -> float:
    """E[r_m(X)] for X geometric with success probability w:
    sum_{l=1..m} (r(l) - r(l-1)) (1-w)^(l-1)."""
    if not 0.0 < w <= 1.0:
        raise ValueError(f"success probability w must lie in (0, 1], got {w}")
    total = 0.0
    weight = 1.0
    prev = 0.0
    for l in range(1, m + 1):
        cur = eval_r_capped(reward, l, m)
        total += (cur - prev) * weight
        prev = cur
        weight *= 1.0 - w
    return total


def reverse_jensen_check(
    reward: RewardFn,
    m: int,
    y_support: Sequence[int],
    y_probs: Sequence[float],
    slack: float = 1e-12,
) -> tuple[float, float, bool]:
    """(E[r_m(X)], (1-1/e) E[r_m(Y)], lhs >= rhs - slack) where X is geometric
    with the same mean as the integer-valued Y."""
    ys = np.asarray(y_support, dtype=float)
    ps = np.asarray(y_probs, dtype=float)
    if ys.shape != ps.shape or ys.size == 0:
        raise ValueError("support and probabilities must align and be non-empty")
    if np.any(ys < 1) or np.any(ys != np.round(ys)):
        raise ValueError("Y must be supported on positive integers")
    if np.any(ps < 0) or abs(ps.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must be a distribution")
    mean_y = float(np.dot(ys, ps))
    if mean_y < 1.0:
        raise ValueError("E[Y] must be at least 1")
    lhs = geometric_reward_mean(reward, m, 1.0 / mean_y)
    rhs = (1.0 - 1.0 / math.e) * float(
        sum(pr * eval_r_capped(reward, int(y), m) for y, pr in zip(ys, ps))
    )
    return lhs, rhs, lhs >= rhs - slack


def polylog_half_neg(x: float, tol: float = 1e-12) -> float:
    """Li_{-1/2}(x) = sum_{n>=1} sqrt(n) x^n by direct summation.

    Terms grow by at most x*(1 + 1/(2n)), so once that ratio is below 1 the
    tail is geometric and the truncation error is bounded by
    term * q / (1 - q); summation stops when that bound is below tol."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"series diverges for x >= 1, got {x}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if x == 0.0:
        return 0.0
    total = 0.0
    power = 1.0
    n = 0
    while True:
        n += 1
        power *= x
        term = math.sqrt(n) * power
        total += term
        q = x * (1.0 + 1.0 / (2.0 * n))
        if q < 1.0 and term * q / (1.0 - q) < tol:
            return total
        if n > 10_000_000:  # pragma: no cover
            raise RuntimeError("polylog summation failed to converge")


def warmup_ratio(rho: float) -> float:
    """Fixed-bid competitive ratio for uniform prices and sqrt rewards:
    (2 rho)^(3/4) / (1 - sqrt(2 rho)) * Li_{-1/2}(1 - sqrt(2 rho))."""
    if not 0.0 < rho <= 0.25:
        raise ValueError(f"rho must lie in (0, 1/4], got {rho}")
    b = math.sqrt(2.0 * rho)
    x = 1.0 - b
    return (2.0 * rho) ** 0.75 / x * polylog_half_neg(x)


def fixed_bid_average_utility(rho: float) -> float:
    """Closed-form per-round utility of the fixed bid sqrt(2 rho) on uniform
    prices with sqrt rewards: 2 rho / (1 - b) * Li_{-1/2}(1 - b)."""
    if not 0.0 < rho <= 0.25:
        raise ValueError(f"rho must lie in (0, 1/4], got {rho}")
    b = math.sqrt(2.0 * rho)
    return 2.0 * rho / (1.0 - b) * polylog_half_neg(1.0 - b)


# ---------------------------------------------------------------------------
# baseline simulators

_WIN_EPS = 1e-12  # ties survive the float round trip bid = c / (c/p)


def _simulate(
    market: MarketDistribution,
    reward: RewardFn,
    rng: SplitMix64,
    record: RunRecord,
    choose_bid,
    trace: bool,
    settle=None,
) -> RunRecord:
    """The round loop of every simulator, run for `record.T` rounds at budget
    `record.rho * record.T`; fills and returns `record`.

    Per round: draw the atom (p, c), ask `choose_bid(t, c)` for a bid (None =
    skip; only called when the budget guard passes), settle the auction, and
    draw the conversion coin on wins.  The optional hook `settle(t, p, c, gap,
    conv)` then books the round for a learner and returns (epoch, planner
    state, accounted reward) for the trace row and `utility_accounted`;
    without it a round is epoch 0, its state the true gap, and the accounted
    reward the true one.

    RNG order per round: atom draw, then whatever `choose_bid` consumes, then
    one conversion coin if the auction was won.  `settle` draws nothing."""
    T = record.T
    if T < 1:
        raise ValueError("T must be >= 1")
    budget = record.rho * T
    rounds: Optional[list[RoundEntry]] = [] if trace else None
    spend = 0.0
    utility = 0.0
    accounted = 0.0
    wins = 0
    conversions = 0
    last_conv = 0
    for t in range(1, T + 1):
        p, c = market.sample(rng)
        gap = t - last_conv
        bid = choose_bid(t, c) if budget - spend >= 1.0 else None
        win = 0
        conv = 0
        pay = 0.0
        rew = 0.0
        if bid is not None and bid >= p - _WIN_EPS:
            win = 1
            pay = p
            spend += p
            wins += 1
            if rng.uniform() < c:
                conv = 1
                conversions += 1
                rew = eval_r(reward, gap)
                utility += rew
                last_conv = t
        if settle is not None:
            epoch, state, rew_acc = settle(t, p, c, gap, conv)
            accounted += rew_acc
        if rounds is not None:
            if settle is None:
                epoch, state, rew_acc = 0, gap, rew
            rounds.append(
                RoundEntry(t, epoch, state, gap, c, bid, p, win, conv, pay, rew, rew_acc)
            )
    record.utility_true = utility
    record.utility_accounted = utility if settle is None else accounted
    record.spend = spend
    record.wins = wins
    record.conversions = conversions
    record.rounds = rounds
    if spend > budget + 1e-9:
        raise AssertionError("budget guard failed to cap spending")
    return record


def static_run(
    market: MarketDistribution,
    reward: RewardFn,
    policy: StaticPolicy,
    rho: float,
    T: int,
    rng: SplitMix64,
    seed: int = 0,
    trace: bool = False,
) -> RunRecord:
    """Simulate the static mixture under the hard budget guard."""
    mixture = policy.mixture
    single = mixture[0][0] if len(mixture) == 1 else None
    cut = mixture[0][1] if len(mixture) == 2 else 1.0

    def choose(_t: int, c: float) -> Optional[float]:
        if single is not None:
            mu = single
            rng.uniform()  # mixture draw always consumed, for a fixed order
        else:
            u = rng.uniform()
            mu = mixture[0][0] if u < cut else mixture[1][0]
        return bid_for(mu, c)

    record = RunRecord(algorithm="static", seed=seed, T=T, rho=rho)
    return _simulate(market, reward, rng, record, choose, trace)


def fixed_interval_run(
    market: MarketDistribution,
    reward: RewardFn,
    period: int,
    rho: float,
    T: int,
    rng: SplitMix64,
    seed: int = 0,
    trace: bool = False,
) -> RunRecord:
    """Bid 1 on rounds t = 1 (mod period) when the budget guard allows."""
    if period < 1:
        raise ValueError("period must be >= 1")

    def choose(t: int, _c: float) -> Optional[float]:
        return 1.0 if (t - 1) % period == 0 else None

    name = "always_one" if period == 1 else "fixed_interval"
    record = RunRecord(algorithm=name, seed=seed, T=T, rho=rho)
    return _simulate(market, reward, rng, record, choose, trace)
