"""Acceptance suite: every gate criterion at its stated scale and tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (run pytest
with -s to watch them stream).  Runtime budgets are asserted alongside the
numeric tolerances.
"""

import math
import os
import time

import numpy as np
import pytest

from spacing_auctions.baselines import (
    fixed_bid_average_utility,
    fixed_bid_policy,
    optimal_static,
    static_run,
    warmup_ratio,
)
from spacing_auctions.benchmark import solve_benchmark
from spacing_auctions.harness import (
    run_batch_groups,
    check_dp_dominance,
    check_gc_scaling,
    check_monotone_win_floor,
    check_reverse_jensen,
    check_simplex_oracle,
    check_state_reduction,
    load_config,
    reference_opt,
)
from spacing_auctions.market import discretize_uniform
from spacing_auctions.rewards import cap_linear_reward, sqrt_reward
from spacing_auctions.rng import SplitMix64

WORKERS = min(2, os.cpu_count() or 1)

RHO_GAP = math.sqrt(3.0) - 1.5  # the suboptimality example's budget per round


def _report(num: int, name: str, ok: bool, seconds: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status} ({seconds:.1f}s) {detail}")


def test_criterion_1_suboptimality_gap():
    t0 = time.perf_counter()
    market = discretize_uniform(1000)
    reward = cap_linear_reward(2)
    bench = solve_benchmark(market, reward, m=20, rho=RHO_GAP)
    _, static_value = optimal_static(market, reward, m=30, rho=RHO_GAP)
    ratio = bench.opt_value / static_value
    dt = time.perf_counter() - t0
    ok = (
        abs(bench.opt_value - 1.0) <= 0.010
        and abs(static_value - 0.8984) <= 0.010
        and abs(ratio - 1.11) <= 0.02
        and dt < 10.0
    )
    _report(1, "suboptimality_gap", ok, dt,
            f"bench={bench.opt_value:.4f} static={static_value:.4f} ratio={ratio:.4f}")
    assert abs(bench.opt_value - 1.0) <= 0.010
    assert abs(static_value - 0.8984) <= 0.010
    assert abs(ratio - 1.11) <= 0.02
    assert dt < 10.0


def test_criterion_2_warmup_curve():
    t0 = time.perf_counter()
    lo = warmup_ratio(1e-4)
    hi = warmup_ratio(0.25)
    grid = np.linspace(0.25 / 50, 0.25, 50)
    vals = [warmup_ratio(float(r)) for r in grid]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))
    # simulation cross-check: fixed bid sqrt(2 rho) at rho = 0.1
    rho = 0.1
    market = discretize_uniform(1000)
    policy = fixed_bid_policy(market, math.sqrt(2.0 * rho))
    T = 1_000_000
    means = []
    for seed in range(10):
        rec = static_run(market, sqrt_reward(), policy, rho, T, SplitMix64(seed), seed=seed)
        means.append(rec.utility_true / T)
    sim = sum(means) / len(means)
    closed = fixed_bid_average_utility(rho)
    rel = abs(sim - closed) / closed
    dt = time.perf_counter() - t0
    ok = (
        abs(lo - 0.8862) <= 0.005
        and abs(hi - 0.973) <= 0.005
        and monotone
        and rel <= 0.01
        and dt < 120.0
    )
    _report(2, "warmup_curve", ok, dt,
            f"ratio(1e-4)={lo:.4f} ratio(0.25)={hi:.4f} sim={sim:.5f} closed={closed:.5f} rel={rel:.4f}")
    assert abs(lo - 0.8862) <= 0.005
    assert abs(hi - 0.973) <= 0.005
    assert monotone
    assert rel <= 0.01
    assert dt < 120.0


def test_criterion_3_reverse_jensen():
    res = check_reverse_jensen(1000)
    _report(3, "reverse_jensen", res.ok, res.seconds, res.detail)
    assert res.ok, res.detail
    assert res.seconds < 30.0


def test_criterion_4_monotone_win_floor():
    res = check_monotone_win_floor(200, m=25, tol=1e-6)
    _report(4, "monotone_win_floor", res.ok, res.seconds, res.detail)
    assert res.ok, res.detail
    assert res.seconds < 120.0


def test_criterion_5_benchmark_dominance():
    res = check_dp_dominance(100)
    _report(5, "benchmark_dominance", res.ok, res.seconds, res.detail)
    assert res.ok, res.detail
    assert res.seconds < 300.0


def test_criterion_6_state_reduction():
    res = check_state_reduction(50, M=200)
    _report(6, "state_reduction", res.ok, res.seconds, res.detail)
    assert res.ok, res.detail
    assert res.seconds < 180.0


def test_criterion_7_gc_scaling():
    res = check_gc_scaling(50)
    _report(7, "gc_scaling", res.ok, res.seconds, res.detail)
    assert res.ok, res.detail
    assert res.seconds < 60.0


@pytest.mark.slow
def test_criterion_8_fkors_behavior():
    t0 = time.perf_counter()
    seeds = list(range(1, 21))
    horizons = (2000, 8000, 32000)
    market_a = discretize_uniform(50)
    opt = {T: reference_opt(market_a, sqrt_reward(), 0.2, T) for T in horizons}
    doc_a = {
        "market": {"type": "uniform_grid", "K": 50},
        "reward": {"type": "sqrt"},
        "rho": 0.2,
        "algorithms": ["fkors"],
        "seeds": seeds,
    }
    # (d) runs on the suboptimality-gap instance at T = 32000
    doc_b = {
        "market": {"type": "uniform_grid", "K": 1000},
        "reward": {"type": "cap_linear", "cap": 2},
        "rho": RHO_GAP,
        "T": 32000,
        "algorithms": ["fkors"],
        "seeds": seeds,
    }
    groups = [({**doc_a, "T": T}, "fkors", seeds) for T in horizons]
    groups.append((doc_b, "fkors", seeds))
    groups.append((doc_b, "static_opt", seeds))
    results = run_batch_groups(groups, workers=WORKERS)

    spend_ok = True
    mean_regret = {}
    noconv_frac = {}
    for T, stats in zip(horizons, results[:3]):
        regrets = [T * opt[T] - s["utility_true"] for s in stats]
        mean_regret[T] = sum(regrets) / len(regrets)
        spend_ok &= all(s["spend"] <= 0.2 * T + 1e-9 for s in stats)
        total_epochs = sum(s["epochs"] for s in stats)
        total_noconv = sum(s["epochs_without_conversion"] for s in stats)
        noconv_frac[T] = total_noconv / total_epochs
    growth1 = mean_regret[8000] / mean_regret[2000]
    growth2 = mean_regret[32000] / mean_regret[8000]

    fkors_stats, static_stats = results[3], results[4]
    spend_ok &= all(s["spend"] <= RHO_GAP * 32000 + 1e-9 for s in fkors_stats)
    fkors_mean = sum(s["utility_true"] for s in fkors_stats) / len(fkors_stats)
    static_mean = sum(s["utility_true"] for s in static_stats) / len(static_stats)

    dt = time.perf_counter() - t0
    ok = (
        spend_ok
        and mean_regret[2000] > 0
        and growth1 <= 3.0
        and growth2 <= 3.0
        and all(f <= 0.02 for f in noconv_frac.values())
        and fkors_mean > static_mean
        and dt < 600.0
    )
    _report(
        8, "fkors_behavior", ok, dt,
        f"regret={mean_regret[2000]:.1f}/{mean_regret[8000]:.1f}/{mean_regret[32000]:.1f} "
        f"growth={growth1:.2f},{growth2:.2f} "
        f"noconv={max(noconv_frac.values()):.2e} "
        f"fkors={fkors_mean:.0f} static={static_mean:.0f}")
    assert spend_ok, "hard budget violated"
    assert growth1 <= 3.0 and growth2 <= 3.0, f"regret growth {growth1:.2f}, {growth2:.2f}"
    assert all(f <= 0.02 for f in noconv_frac.values()), noconv_frac
    assert fkors_mean > static_mean, (fkors_mean, static_mean)
    assert dt < 600.0


def test_criterion_9_simplex_oracle():
    res = check_simplex_oracle(500)
    _report(9, "simplex_oracle", res.ok, res.seconds, res.detail)
    assert res.ok, res.detail
    assert res.seconds < 30.0
