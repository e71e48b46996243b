"""Tests for the FKORS online learner."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spacing_auctions
from spacing_auctions.fkors import FkorsConfig, default_params, regret, run_fkors
from spacing_auctions.market import MarketDistribution, discretize_uniform, mean_conversion
from spacing_auctions.records import trace_lines
from spacing_auctions.rewards import cap_linear_reward, eval_r, sqrt_reward
from spacing_auctions.rng import SplitMix64


def atoms_market(*tuples):
    return MarketDistribution.from_tuples(list(tuples))


# ---------------------------------------------------------------------------
# parameter defaults


def test_default_params_reference_values():
    assert default_params(10_000, 0.25, 1.0) == (74, 84)
    assert default_params(8, 1.0, 1.0) == (5, 8)
    assert default_params(2, 1.0, 1.0) == (2, 3)


def test_default_params_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        default_params(100, 0.0, 1.0)
    with pytest.raises(ValueError):
        default_params(100, 0.5, 0.0)
    with pytest.raises(ValueError):
        default_params(1, 0.5, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FkorsConfig(rho=0.5, T=10, m=11, k=5)
    with pytest.raises(ValueError):
        FkorsConfig(rho=0.0, T=10, m=5, k=5)
    with pytest.raises(ValueError):
        FkorsConfig(rho=0.5, T=10, m=5, k=0)
    cfg = FkorsConfig.from_defaults(0.25, 10_000, 1.0)
    assert (cfg.m, cfg.k) == (74, 84)


# ---------------------------------------------------------------------------
# degenerate free market: every post-warm-up round wins at price zero


def test_free_market_full_conversion_stream():
    market = atoms_market((0.0, 1.0, 1.0))
    T = 200
    cfg = FkorsConfig(rho=0.5, T=T, m=10, k=12, seed=5)
    rec = run_fkors(market, sqrt_reward(), cfg)
    k = cfg.k
    assert rec.spend == 0.0
    assert rec.wins == T - k
    assert rec.conversions == T - k
    # first conversion happens at gap k+1, every later one at gap 1
    expected = math.sqrt(k + 1) + (T - k - 1) * 1.0
    assert rec.utility_true == pytest.approx(expected)
    assert rec.utility_accounted <= rec.utility_true


def test_single_atom_full_budget_wins_nearly_everything():
    market = atoms_market((1.0, 1.0, 1.0))
    T = 1000
    m, k = default_params(T, 1.0, 1.0)
    cfg = FkorsConfig(rho=1.0, T=T, m=m, k=k, seed=9)
    rec = run_fkors(market, sqrt_reward(), cfg)
    assert rec.utility_true >= 0.9 * T
    assert rec.spend <= T + 1e-9
    assert rec.wins == T - k


def test_same_seed_bit_identical_runs():
    market = discretize_uniform(10)
    cfg = FkorsConfig(rho=0.3, T=400, m=20, k=26, seed=1234)
    a = run_fkors(market, sqrt_reward(), cfg, trace=True)
    b = run_fkors(market, sqrt_reward(), cfg, trace=True)
    assert a.rounds == b.rounds
    assert a.epochs == b.epochs
    assert a.utility_true == b.utility_true
    assert a.spend == b.spend


def test_budget_is_hard_capped():
    market = discretize_uniform(8)
    for seed in range(5):
        cfg = FkorsConfig(rho=0.05, T=300, m=15, k=20, seed=seed)
        rec = run_fkors(market, sqrt_reward(), cfg)
        assert rec.spend <= 0.05 * 300 + 1e-9


def test_epoch_lengths_bounded_by_k():
    market = discretize_uniform(8)
    cfg = FkorsConfig(rho=0.2, T=600, m=12, k=15, seed=3)
    rec = run_fkors(market, sqrt_reward(), cfg)
    body = [e for e in rec.epochs if e.index >= 1]
    assert body, "run should produce epochs"
    assert all(1 <= e.length <= cfg.k for e in body)
    assert all(e.by_conversion or e.length == cfg.k for e in body)


def test_accounted_reward_never_exceeds_true():
    market = discretize_uniform(6)
    cfg = FkorsConfig(rho=0.15, T=800, m=18, k=24, seed=11)
    rec = run_fkors(market, sqrt_reward(), cfg, trace=True)
    assert rec.utility_accounted <= rec.utility_true + 1e-12
    for e in rec.rounds:
        if e.conversion:
            assert e.reward_acc <= e.reward_true + 1e-12
            assert e.state_fake <= e.state_true


def test_reuse_matches_always_resolve():
    # reuse_tolerance=0 re-solves the plan every epoch; identical utilities
    market = discretize_uniform(5)
    base = dict(rho=0.3, T=300, m=10, k=14, seed=21)
    fast = run_fkors(market, sqrt_reward(), FkorsConfig(**base), trace=True)
    slow = run_fkors(
        market, sqrt_reward(), FkorsConfig(**base, reuse_tolerance=0.0), trace=True
    )
    assert fast.config["reused_plans"] > 0
    assert slow.config["reused_plans"] == 0
    assert fast.utility_true == pytest.approx(slow.utility_true, rel=0.05)
    # the certified-reuse path must stay within tolerance of exact optimality
    # per epoch; over a short horizon the trajectories agree almost surely
    agree = sum(a == b for a, b in zip(fast.rounds, slow.rounds)) / len(fast.rounds)
    assert agree > 0.95


def test_no_conversion_epochs_are_rare_with_default_margin():
    # with bid-1 at state m and k - m >= ln(T), an epoch missing a conversion
    # has probability <= 1/T; the budget here never binds
    market = atoms_market((0.2, 1.0, 0.5), (0.4, 1.0, 0.5))
    T = 3000
    m, k = default_params(T, 0.9, 1.0)
    total_epochs = 0
    bad = 0
    for seed in range(6):
        cfg = FkorsConfig(rho=0.9, T=T, m=m, k=k, seed=seed)
        rec = run_fkors(market, sqrt_reward(), cfg)
        body = [e for e in rec.epochs if e.index >= 1]
        total_epochs += len(body)
        bad += sum(1 for e in body if not e.by_conversion)
    assert bad / total_epochs <= 2.0 / T


def test_trace_lines_format():
    market = discretize_uniform(4)
    cfg = FkorsConfig(rho=0.4, T=30, m=5, k=6, seed=2)
    rec = run_fkors(market, sqrt_reward(), cfg, trace=True)
    lines = trace_lines(rec)
    assert lines[0] == (
        "t,epoch,state_fake,state_true,conv_rate,bid,price,win,conversion,payment,reward_true"
    )
    assert len(lines) == 31
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert first[5] == ""  # warm-up rounds skip: empty bid field


def test_diagnostics_populated():
    market = discretize_uniform(6)
    cfg = FkorsConfig(rho=0.3, T=200, m=8, k=11, seed=4)
    rec = run_fkors(market, sqrt_reward(), cfg, diagnostics=True)
    assert rec.diagnostics, "diagnostics requested but missing"
    for d in rec.diagnostics:
        assert d.eps_r >= 0.0 and d.eps_c >= 0.0


def test_regret_definition():
    market = discretize_uniform(4)
    cfg = FkorsConfig(rho=0.4, T=50, m=5, k=6, seed=8)
    rec = run_fkors(market, sqrt_reward(), cfg)
    assert regret(rec, 0.5) == pytest.approx(50 * 0.5 - rec.utility_true)
    rec.utility_true = 25.0
    assert regret(rec, 0.5) == 0.0


def test_eps_c_diagnostic_shrinks_with_horizon():
    # plans computed from more samples overspend less on the true market
    market = atoms_market((0.3, 0.9, 0.4), (0.6, 0.7, 0.3), (0.9, 0.4, 0.3))
    means = []
    for T in (400, 1600, 6400):
        per_seed = []
        for seed in (1, 2, 3):
            m, k = default_params(T, 0.3, 1.0)
            cfg = FkorsConfig(rho=0.3, T=T, m=min(m, T), k=k, seed=seed)
            rec = run_fkors(market, sqrt_reward(), cfg, diagnostics=True)
            eps_c = [d.eps_c for d in rec.diagnostics]
            per_seed.append(sum(eps_c) / len(eps_c))
        means.append(sum(per_seed) / len(per_seed))
    assert means[0] > means[1] > means[2]


def test_quantization_bounds_support():
    # force the threshold low: the planner's support must stay on the grid
    market = discretize_uniform(50)
    cfg = FkorsConfig(
        rho=0.3, T=300, m=8, k=11, seed=6, quantization_grid=10, quantize_threshold=5
    )
    rec = run_fkors(market, sqrt_reward(), cfg)
    assert rec.wins > 0  # still learns something


def test_wide_market_degenerate_ties_keep_basis_nonsingular():
    # on this 500-atom market the 20th cold solve of seed 49 meets degenerate
    # ratio-test ties whose smallest entries are round-off of zero; leaving
    # by the smallest basis id pivoted on one and made the basis singular
    rng = SplitMix64(5)
    atoms = []
    for _ in range(500):
        p = 0.02 + 0.98 * rng.uniform()
        c = 0.3 + 0.7 * rng.uniform()
        atoms.append((p, c, 1.0 / 500))
    market = MarketDistribution.from_tuples(atoms)
    cfg = FkorsConfig.from_defaults(0.2, 300, mean_conversion(market), seed=49)
    rec = run_fkors(market, sqrt_reward(), cfg)
    assert rec.spend <= 0.2 * 300 + 1e-9
    assert rec.config["cold_solves"] > 20
    assert rec.utility_true > 0.0


def test_warm_starts_count_cold_solves_begun_from_cached_bases():
    # a 20-atom support keeps growing for a while, so the cache misses
    market = discretize_uniform(20)
    base = dict(rho=0.3, T=1000, m=10, k=14, seed=3)
    fast = run_fkors(market, sqrt_reward(), FkorsConfig(**base))
    slow = run_fkors(market, sqrt_reward(), FkorsConfig(**base, reuse_tolerance=0.0))
    assert 0 < fast.config["warm_starts"] <= fast.config["cold_solves"]
    # with reuse off every epoch solves from the crash vertices
    assert slow.config["warm_starts"] == 0


def wide_market():
    """The 500-atom market of the benchmark's wide_market workload."""
    rng = SplitMix64(5)
    atoms = []
    for _ in range(500):
        p = 0.02 + 0.98 * rng.uniform()
        c = 0.3 + 0.7 * rng.uniform()
        atoms.append((p, c, 1.0 / 500))
    return MarketDistribution.from_tuples(atoms)


def wide_runs(seeds=(1, 49), T=300):
    market = wide_market()
    return [
        run_fkors(market, sqrt_reward(), FkorsConfig.from_defaults(0.2, T, mean_conversion(market), seed=s))
        for s in seeds
    ]


def test_wide_market_misses_restart_from_cached_bases():
    # nearly every epoch on this market misses the cache; apart from each
    # run's first solve, the re-solves begin from a cached basis, primal
    # feasible or made so by the dual phase
    runs = wide_runs()
    cold = sum(rec.config["cold_solves"] for rec in runs)
    warm = sum(rec.config["warm_starts"] for rec in runs)
    assert cold > 90
    assert warm >= 0.9 * cold


def test_wide_market_cleanup_after_dual_restart_passes_over_tiny_pivots():
    # seed 48's 36th solve restarts from a basis whose primal cleanup met a
    # 1.4e-8 pivot entry over a basic value of -1e-11; pivoting on it made
    # the basis singular
    (rec,) = wide_runs((48,))
    assert rec.config["cold_solves"] > 36


def test_wide_market_runs_do_not_depend_on_blas_threads():
    # at T=1000 (m=107) a basis inverse from numpy's LAPACK changed with the
    # thread count, and seed 1 made 145 or 146 solves
    src = str(Path(spacing_auctions.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; from test_fkors import wide_runs; "
        "print([(repr(r.utility_true), r.config['cold_solves']) "
        "for r in wide_runs() + wide_runs((1,), 1000)])"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code, src, str(Path(__file__).resolve().parent)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True, timeout=600,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0].startswith("[('")
    assert outputs[0] == outputs[1]
