"""Tests for the FKORS online learner."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spacing_auctions
from spacing_auctions import benchmark, fkors
from spacing_auctions.benchmark import (
    ChainSplit,
    _chain_basis,
    _crash_bases,
    basis_layout,
    occupancy_problem,
    solve_occupancy_problem,
)
from spacing_auctions.fkors import (
    FkorsConfig,
    _CachedBasis,
    _EmpiricalCurves,
    default_params,
    regret,
    run_fkors,
)
from spacing_auctions.market import (
    MarketDistribution,
    candidate_multipliers,
    candidate_set,
    curve_positions,
    discretize_uniform,
    market_from_config,
    mean_conversion,
    suffix_sums,
    win_pay_curve,
)
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


def test_diagnostics_do_not_change_the_run():
    # diagnostics evaluate every state's mixture each epoch, while the run
    # itself normalizes only the states it consults: both must play alike
    market = market_from_config({"type": "uniform_grid", "K": 50})
    cfg = FkorsConfig.from_defaults(0.2, 1000, mean_conversion(market), seed=11)
    plain, diagnosed = (
        run_fkors(market, sqrt_reward(), cfg, trace=True, diagnostics=flag) for flag in (False, True)
    )
    assert plain.diagnostics is None and diagnosed.diagnostics
    assert repr(diagnosed.utility_true) == repr(plain.utility_true)
    assert diagnosed.rounds == plain.rounds and diagnosed.epochs == plain.epochs
    for key in ("cold_solves", "warm_starts", "reused_plans"):
        assert diagnosed.config[key] == plain.config[key]
    assert plain.config["reused_plans"] > plain.config["cold_solves"] > 0


def test_planner_builds_one_program_per_candidate_set(monkeypatch):
    # epochs on an unchanged candidate set swap W and P into the program
    # built for it; the run matches one that builds a program every epoch
    market = market_from_config({"type": "uniform_grid", "K": 50})
    cfg = FkorsConfig.from_defaults(0.2, 1000, mean_conversion(market), seed=5)
    built, versions = [], []
    build, plan = fkors.occupancy_problem, fkors._EpochPlanner.plan
    rebuild = False

    def recording_plan(self, curves, version):
        versions.append(version)
        if rebuild:
            self._version = -1  # forget the program, so the epoch builds one
        return plan(self, curves, version)

    monkeypatch.setattr(fkors, "occupancy_problem", lambda *a, **kw: built.append(1) or build(*a, **kw))
    monkeypatch.setattr(fkors._EpochPlanner, "plan", recording_plan)
    rec = run_fkors(market, sqrt_reward(), cfg)
    assert len(built) == len(set(versions)) < len(versions) / 10
    built.clear()
    versions.clear()
    rebuild = True
    again = run_fkors(market, sqrt_reward(), cfg)
    assert len(built) == len(versions)
    assert repr(again.utility_true) == repr(rec.utility_true)
    for key in ("cold_solves", "warm_starts", "reused_plans"):
        assert again.config[key] == rec.config[key]


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


def sorted_rule(counts):
    """The empirical curves' arrays by the rule they were built with before:
    pairs sorted, then stably by ratio c/p (inf for p = 0)."""
    pairs = sorted(counts)
    p = np.array([pc[0] for pc in pairs])
    c = np.array([pc[1] for pc in pairs])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0.0, c / p, math.inf)
    order = np.argsort(ratio, kind="stable")
    p, c, ratio = p[order], c[order], ratio[order]
    cands = candidate_set(p, c)
    counts_vec = np.array([float(counts[pairs[i]]) for i in order])
    return p, c, cands, curve_positions(ratio, cands), counts_vec


def test_empirical_pairs_keep_the_sorted_order():
    rng = SplitMix64(23)
    grid = (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)
    for _ in range(60):
        curves = _EmpiricalCurves(grid=0, threshold=10**9)
        # tied ratios, p = 0 and c = 0 pairs, repeats
        for _ in range(1 + int(rng.uniform() * 40)):
            curves.add(grid[int(rng.uniform() * 8)], grid[int(rng.uniform() * 8)])
        cands, w, p = curves.curves()
        want = sorted_rule(curves.counts)
        got = (curves._p, curves._c, curves._cands, curves._positions, curves._count_vec)
        for g, x in zip(got, want):
            assert g.dtype == x.dtype and g.tobytes() == x.tobytes()
        # the slots follow the order, so new samples count where they belong
        pair = next(iter(curves.counts))
        curves.add(*pair)
        assert curves._count_vec[curves._slot[pair]] == curves.counts[pair]
        wc, wp = suffix_sums(curves._count_vec / curves.n, curves._p, curves._c)
        assert np.array_equal(curves.curves()[1], wc[curves._positions])


# ---------------------------------------------------------------------------
# the planner's cache of bases across candidate-set changes


def program(atoms, m=6, rho=0.3):
    market = MarketDistribution.from_tuples([(p, c, 1.0 / len(atoms)) for p, c in atoms])
    actions = candidate_multipliers(market)
    return occupancy_problem((actions, *win_pay_curve(market, actions)), sqrt_reward(), m, rho, True)


def column_pairs(prob, ids):
    """(state, multiplier) of each id, None for the slack."""
    pairs = []
    for col in ids.tolist():
        if col == prob.slack_id:
            pairs.append(None)
        else:
            state, action = prob.decode_one(col)
            pairs.append((state, float(prob.mus[action])))
    return pairs


def test_cached_basis_remaps_onto_a_grown_candidate_set():
    rng = SplitMix64(17)
    moved = dropped = 0
    for _ in range(20):
        atoms = [(0.05 + 0.9 * rng.uniform(), 0.2 + 0.8 * rng.uniform()) for _ in range(9)]
        small, grown = program(atoms[:5]), program(atoms)
        assert set(small.mus.tolist()) < set(grown.mus.tolist())
        drifted = grown.with_curves(
            np.clip(grown.w * (1 + 0.05 * (rng.uniform() - 0.5)), 0.0, 1.0),
            grown.p * (1 + 0.05 * (rng.uniform() - 0.5)),
        )
        for basis in [solve_occupancy_problem(small).basis] + _crash_bases(small):
            entry = _CachedBasis(small, basis_layout(small, basis))
            want = column_pairs(small, entry.layout.ids)
            chain = entry.layout.chain
            entry.remap(grown)
            assert column_pairs(grown, entry.layout.ids) == want
            moved += entry.layout.ids.tolist() != list(basis)
            # the re-keyed layout fills as a fresh one does, its ids hold
            # the grown program's slack id, and it keeps the chain split
            fresh = basis_layout(grown, entry.layout.ids)
            for prob in (grown, drifted):
                shape = (prob.n_rows, prob.n_rows)
                got = entry.layout.fill(prob, np.zeros(shape, order="F"))
                assert got.tobytes() == fresh.fill(prob, np.zeros(shape, order="F")).tobytes()
            slack = np.asarray(basis) == small.slack_id
            assert np.array_equal(entry.layout.ids == grown.slack_id, slack)
            assert entry.layout.chain is chain
            assert np.array_equal(chain.flat, ChainSplit.of(fresh).flat)
            assert np.array_equal(chain.new_col, ChainSplit.of(fresh).new_col)
        # a basis playing a multiplier the small set lacks has no ids there
        for action, mu in enumerate(grown.mus.tolist()):
            if mu in small.mus.tolist():
                continue
            entry = _CachedBasis(grown, basis_layout(grown, _chain_basis(grown, action)))
            entry.remap(small)
            assert entry.layout is None
            dropped += 1
    assert moved >= 20 and dropped >= 20


def test_requantization_skips_cached_bases_whose_multiplier_left(monkeypatch):
    # the Q=10 config of test_quantization_bounds_support, with a threshold
    # that its warm-up (k=11 rounds) stays under: the 28th sample snaps the
    # pairs to the 1/10 lattice, removing multipliers that cached bases play
    events = []
    remap, verify = _CachedBasis.remap, fkors.verify_basis_values

    def recording_remap(entry, prob):
        remap(entry, prob)
        if entry.layout is None:
            assert not np.isin(entry.mus, prob.mus).all()
            events.append("drop")

    def recording_verify(prob, layout, *args, **kwargs):
        x_b = verify(prob, layout, *args, **kwargs)
        events.append("miss" if x_b is None else "hit")
        return x_b

    monkeypatch.setattr(_CachedBasis, "remap", recording_remap)
    monkeypatch.setattr(fkors, "verify_basis_values", recording_verify)
    cfg = FkorsConfig(
        rho=0.3, T=300, m=8, k=11, seed=6, quantization_grid=10, quantize_threshold=20
    )
    rec = run_fkors(discretize_uniform(50), sqrt_reward(), cfg)
    # the cache serves plans again once the dropped bases are passed over
    _, dropped, after = " ".join(events).partition("drop")
    assert dropped and "hit" in after
    assert rec.wins > 0


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


def wide_market(n_atoms=500):
    """The 500-atom market of the benchmark's wide_market workload, or as
    many atoms drawn the same way."""
    rng = SplitMix64(5)
    atoms = []
    for _ in range(n_atoms):
        p = 0.02 + 0.98 * rng.uniform()
        c = 0.3 + 0.7 * rng.uniform()
        atoms.append((p, c, 1.0 / n_atoms))
    return MarketDistribution.from_tuples(atoms)


def wide_runs(seeds=(1, 49), T=300, m=None):
    """FKORS on `wide_market`, with the default m unless `m` is given."""
    market = wide_market()
    runs = []
    for s in seeds:
        cfg = FkorsConfig.from_defaults(0.2, T, mean_conversion(market), seed=s)
        runs.append(run_fkors(market, sqrt_reward(), cfg if m is None else replace(cfg, m=m)))
    return runs


def grid_runs(seeds=(1,), T=2000):
    """FKORS on the README's uniform_grid K=50 config, the planner's hit path."""
    market = market_from_config({"type": "uniform_grid", "K": 50})
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


# (utility_true by repr, cold_solves, warm_starts, reused_plans) of FKORS on
# the 500-atom market at T=300, where nearly every epoch misses the cache
WIDE_PINNED = {
    1: ("125.97078739886372", 46, 45, 32),
    2: ("136.86317266842616", 62, 61, 27),
    3: ("129.7388043829863", 45, 44, 35),
    4: ("130.16620714918704", 49, 48, 33),
}


def test_wide_market_miss_path_is_pinned():
    for rec in wide_runs(tuple(WIDE_PINNED)):
        c = rec.config
        got = (repr(rec.utility_true), c["cold_solves"], c["warm_starts"], c["reused_plans"])
        assert got == WIDE_PINNED[rec.seed]


@pytest.mark.slow
def test_large_market_is_pinned():
    # 5,000 atoms, m = 124 and 1,200 epochs: the miss path at a width where
    # pricing each state at its threshold replaces passes over every column
    market = wide_market(5000)
    cfg = FkorsConfig.from_defaults(0.2, 3000, mean_conversion(market), seed=1)
    assert cfg.m == 124
    rec = run_fkors(market, sqrt_reward(), cfg)
    c = rec.config
    got = (repr(rec.utility_true), c["cold_solves"], c["warm_starts"], c["reused_plans"])
    assert got == ("1777.8725772914695", 471, 469, 729)


def pinned(rec):
    """(utility_true by repr, cold_solves, warm_starts, reused_plans)."""
    c = rec.config
    return repr(rec.utility_true), c["cold_solves"], c["warm_starts"], c["reused_plans"]


def small_budget_run():
    """FKORS seed 1 on the README's uniform_grid K=50 config at rho=0.05 and
    T=8000, where m = ceil(2 ln T / (c_bar rho)) is 360."""
    market = market_from_config({"type": "uniform_grid", "K": 50})
    cfg = FkorsConfig.from_defaults(0.05, 8000, mean_conversion(market), seed=1)
    assert cfg.m == 360
    return run_fkors(market, sqrt_reward(), cfg)


@pytest.mark.slow
def test_small_budget_run_is_pinned():
    # the paper holds rho fixed as T grows; a small budget makes the chain,
    # and the basis, four times the default run's
    assert pinned(small_budget_run()) == ("4061.8741973518313", 91, 90, 2297)


@pytest.mark.slow
def test_wide_grid_run_is_pinned():
    # acceptance criterion 8's K=1000 cap_linear instance, seed 3: epochs
    # of under two rounds, so about 18,000 cache checks for 13 solves
    market = market_from_config({"type": "uniform_grid", "K": 1000})
    rho = math.sqrt(3.0) - 1.5
    cfg = FkorsConfig.from_defaults(rho, 32000, mean_conversion(market), seed=3)
    assert cfg.m == 90
    assert pinned(run_fkors(market, cap_linear_reward(2), cfg)) == ("31900.0", 13, 12, 18195)


def test_each_cached_basis_is_derived_once(monkeypatch):
    # a basis's layout entries and chain split depend only on its columns'
    # states and multipliers, so a change of the candidate set re-keys the
    # cached bases instead of deriving them again.  The solver derives the
    # final basis's layout and split, and hands them to the cache, so the
    # planner derives none
    derived = {"solver": 0, "planner": 0}
    where = ["planner"]
    make_layout, split_of = benchmark.basis_layout, ChainSplit.of
    solve = fkors.solve_occupancy_problem

    def count(fn):
        def counted(*args):
            derived[where[-1]] += 1
            return fn(*args)
        return counted

    def solving(prob, starts=()):
        where.append("solver")
        try:
            return solve(prob, starts)
        finally:
            where.pop()

    monkeypatch.setattr(benchmark, "basis_layout", count(make_layout))
    monkeypatch.setattr(fkors, "basis_layout", count(make_layout), raising=False)
    monkeypatch.setattr(ChainSplit, "of", staticmethod(count(split_of)))
    monkeypatch.setattr(fkors, "solve_occupancy_problem", solving)
    (rec,) = wide_runs((1,))
    assert derived["planner"] == 0
    assert derived["solver"] >= 2 * rec.config["cold_solves"]


def test_miss_starts_are_screened_without_a_basis_matrix(monkeypatch):
    # the planner hands its cached layouts to the solver, which screens
    # them by their chain split; a solve fills its basis matrix B once, in
    # its one pivot state, which a dual restart hands to the primal loop,
    # and no screened start is filled
    fills, restarts, solves = [], [], []
    pivots, dual = benchmark._Pivots, benchmark._dual_phase
    solve = fkors.solve_occupancy_problem

    class Counted(pivots):
        def __init__(self, *args):
            fills.append(1)
            super().__init__(*args)

    def recording_solve(prob, starts=()):
        before = len(fills), len(restarts)
        sol = solve(prob, starts=starts)
        solves.append((len(starts), len(fills) - before[0], len(restarts) - before[1]))
        return sol

    monkeypatch.setattr(benchmark, "_Pivots", Counted)
    monkeypatch.setattr(benchmark, "_dual_phase", lambda *a: restarts.append(1) or dual(*a))
    monkeypatch.setattr(fkors, "solve_occupancy_problem", recording_solve)
    (rec,) = wide_runs((1,))
    assert len(solves) == rec.config["cold_solves"] == 46
    assert sum(n_starts for n_starts, _, _ in solves) > 200
    assert all(n_fills == 1 for _, n_fills, _ in solves)
    assert len(fills) == len(solves) and len(restarts) > 10


def test_wide_market_cleanup_after_dual_restart_passes_over_tiny_pivots():
    # seed 48's 36th solve restarts from a basis whose primal cleanup met a
    # 1.4e-8 pivot entry over a basic value of -1e-11; pivoting on it made
    # the basis singular
    (rec,) = wide_runs((48,))
    assert rec.config["cold_solves"] > 36


def test_wide_market_runs_do_not_depend_on_blas_threads():
    # at T=1000 (m=107) a basis inverse from numpy's LAPACK changed with the
    # thread count, and seed 1 made 145 or 146 solves; the grid run's cache
    # checks take the chain elimination (banded solves and a 3x3 LU).  At
    # m=170 the basis has 171 rows, where scipy's getrf gives other bits with
    # two OpenBLAS threads than with one on random matrices, and the dual
    # phase's products run on 171 x 343 neighbour matrices
    src = str(Path(spacing_auctions.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; from test_fkors import grid_runs, wide_runs; "
        "print([(repr(r.utility_true), r.config['cold_solves'], r.config['reused_plans']) "
        "for r in wide_runs() + wide_runs((1,), 1000) + wide_runs((1,), 600, 170) + grid_runs()])"
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


@pytest.mark.slow
def test_small_budget_run_does_not_depend_on_blas_threads():
    # 361 rows: scipy's getrf gives other bits with two OpenBLAS threads
    # than with one on random matrices from about 150 rows on
    src = str(Path(spacing_auctions.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; from test_fkors import pinned, small_budget_run; "
        "print(pinned(small_budget_run()))"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code, src, str(Path(__file__).resolve().parent)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True, timeout=600,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0].startswith("('4061.")
    assert outputs[0] == outputs[1]
