"""Experiment orchestration: configs, reference optimum, sweeps, validation.

Configuration is a JSON document combining the per-module fragments:

    {
      "market": {"type": "uniform_grid", "K": 50} |
                {"type": "atoms", "atoms": [[p, c, prob], ...]},
      "reward": {"type": "sqrt" | "cap_linear" | "power" | "table", ...},
      "rho": 0.2,
      "T": 8000,
      "algorithms": ["fkors", "static_opt", "always_one",
                     {"name": "fixed_interval", "period": 4}],
      "seeds": [1, 2, 3] | {"base": 1, "count": 20},
      "m": null, "k": null,          # optional FKORS overrides
      "m_ref": null,                 # optional reference-optimum override
      "static_m": 30                 # cap used by the static baseline
    }

The environment variable SPACING_SEED overrides the base seed.  All outputs
are CSV with '.' decimals, '\\n' line endings and a header row; identical
configs produce byte-identical files.

Every run goes through ``run_batch_groups``: it takes (config, algorithm,
seeds) groups, runs them in one process pool (largest T first) and returns
each run's statistics, grouped and seed-sorted.  The statistics stay data
until ``write_summary`` writes summary.csv and the trace files.
``run_experiment`` is one config's groups plus ``reference_opt`` and that
writer; the CLI's regret-sweep sends every horizon's groups through one
call and writes each horizon's summary with the same writer.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import (
    fixed_interval_run,
    optimal_static,
    reverse_jensen_check,
    static_run,
)
from .benchmark import (
    check_monotone,
    check_win_floor,
    finite_horizon_dp,
    solve_benchmark,
)
from .estimation import empirical_market, sup_error
from .fkors import FkorsConfig, default_params, run_fkors
from .market import (
    MarketDistribution,
    market_from_config,
    mean_conversion,
)
from .records import RunRecord, _fmt, trace_lines
from .rewards import (
    RewardFn,
    cap_linear_reward,
    perturb_strictly_concave,
    power_reward,
    reward_from_config,
    sqrt_reward,
    table_reward,
    validate_reward,
)
from .rng import SplitMix64
from .simplex import LinearProgram, solve_lp

SEED_ENV = "SPACING_SEED"

SUMMARY_HEADER = (
    "algorithm,seed,T,rho,utility_true,utility_accounted,spend,wins,"
    "conversions,opt_per_round,regret"
)


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str  # "fkors" | "static_opt" | "fixed_interval" | "always_one"
    period: Optional[int] = None

    def label(self) -> str:
        if self.name == "fixed_interval" and self.period is not None:
            return f"fixed_interval:{self.period}"
        return self.name


@dataclass
class ExperimentConfig:
    market: MarketDistribution
    reward: RewardFn
    rho: float
    T: int
    algorithms: list[AlgorithmSpec]
    seeds: list[int]
    m: Optional[int] = None
    k: Optional[int] = None
    m_ref: Optional[int] = None
    static_m: int = 30
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if not self.seeds:
            raise ValueError("at least one seed is required")


def _parse_algorithms(entries) -> list[AlgorithmSpec]:
    out = []
    for e in entries:
        if isinstance(e, str):
            if ":" in e:
                name, _, per = e.partition(":")
                out.append(AlgorithmSpec(name, int(per)))
            else:
                out.append(AlgorithmSpec(e))
        else:
            out.append(AlgorithmSpec(e["name"], e.get("period")))
    known = {"fkors", "static_opt", "fixed_interval", "always_one"}
    for spec in out:
        if spec.name not in known:
            raise ValueError(f"unknown algorithm {spec.name!r} (known: {sorted(known)})")
    return out


def load_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a dict, JSON text, or file path."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        doc = json.loads(text)
    elif isinstance(source, dict):
        doc = source
    else:
        raise TypeError("config source must be a path or a dict")
    try:
        market = market_from_config(doc["market"])
        reward = reward_from_config(doc["reward"])
        rho = float(doc["rho"])
        T = int(doc["T"])
        algorithms = _parse_algorithms(doc.get("algorithms", ["fkors"]))
    except KeyError as exc:
        raise ValueError(f"config is missing required field {exc}") from exc
    seeds_doc = doc.get("seeds", {"base": 1, "count": 1})
    env = os.environ.get(SEED_ENV)
    if isinstance(seeds_doc, dict):
        base = int(env) if env is not None else int(seeds_doc.get("base", 1))
        count = int(seeds_doc.get("count", 1))
        seeds = [base + i for i in range(count)]
    else:
        seeds = [int(s) for s in seeds_doc]
        if env is not None:
            base = int(env)
            seeds = [base + i for i in range(len(seeds))]
    return ExperimentConfig(
        market=market,
        reward=reward,
        rho=rho,
        T=T,
        algorithms=algorithms,
        seeds=seeds,
        m=doc.get("m"),
        k=doc.get("k"),
        m_ref=doc.get("m_ref"),
        static_m=int(doc.get("static_m", 30)),
        raw=doc,
    )


# ---------------------------------------------------------------------------
# reference optimum and experiment runs


def reference_m(T: int, rho: float, c_bar: float) -> int:
    return min(T, math.ceil(4.0 / (c_bar * rho) * math.log(T)))


def reference_opt(
    market: MarketDistribution, reward: RewardFn, rho: float, T: int, m_ref: Optional[int] = None
) -> float:
    """Per-round value of the chain benchmark used as the regret baseline:
    m_ref = min(T, ceil(4 ln T / (c_bar rho))), no forced bid-1."""
    c_bar = mean_conversion(market)
    if rho <= 0.0 or c_bar <= 0.0:
        return 0.0
    if m_ref is None:
        m_ref = reference_m(T, rho, c_bar)
    return solve_benchmark(market, reward, m=m_ref, rho=rho, bid1_at_m=False).opt_value


def _fkors_config(cfg: ExperimentConfig, seed: int) -> FkorsConfig:
    if cfg.m is not None and cfg.k is not None:
        m, k = cfg.m, cfg.k
    else:
        m, k = default_params(cfg.T, cfg.rho, mean_conversion(cfg.market))
        m = min(m, cfg.T)
        if cfg.m is not None:
            m = cfg.m
        if cfg.k is not None:
            k = cfg.k
    return FkorsConfig(rho=cfg.rho, T=cfg.T, m=m, k=k, seed=seed)


def run_algorithm(
    cfg: ExperimentConfig, spec: AlgorithmSpec, seed: int, trace: bool = False
) -> RunRecord:
    """One (algorithm, seed) simulation."""
    rng = SplitMix64(seed)
    if spec.name == "fkors":
        return run_fkors(cfg.market, cfg.reward, _fkors_config(cfg, seed), rng=rng, trace=trace)
    if spec.name == "static_opt":
        policy, _ = optimal_static(cfg.market, cfg.reward, m=cfg.static_m, rho=cfg.rho)
        rec = static_run(cfg.market, cfg.reward, policy, cfg.rho, cfg.T, rng, seed=seed, trace=trace)
        rec.algorithm = "static_opt"
        return rec
    if spec.name in ("fixed_interval", "always_one"):
        period = 1 if spec.name == "always_one" else (
            spec.period if spec.period is not None else math.ceil(1.0 / (2.0 * cfg.rho))
        )
        rec = fixed_interval_run(cfg.market, cfg.reward, period, cfg.rho, cfg.T, rng, seed=seed, trace=trace)
        rec.algorithm = spec.label()
        return rec
    raise ValueError(f"unknown algorithm {spec.name!r}")


def summary_row(stats: dict, opt_per_round: float) -> str:
    reg = stats["T"] * opt_per_round - stats["utility_true"]
    return (
        f"{stats['algorithm']},{stats['seed']},{stats['T']},{_fmt(stats['rho'])},"
        f"{_fmt(stats['utility_true'])},{_fmt(stats['utility_accounted'])},"
        f"{_fmt(stats['spend'])},{stats['wins']},{stats['conversions']},"
        f"{_fmt(opt_per_round)},{_fmt(reg)}"
    )


def _run_payload(payload: dict) -> dict:
    """Worker entry: rebuilds everything from primitives (picklable) and
    returns the run's statistics, plus its trace lines under "trace" when
    the payload asks for them."""
    cfg = load_config(payload["config"])
    spec = AlgorithmSpec(payload["name"], payload.get("period"))
    trace = payload.get("trace", False)
    rec = run_algorithm(cfg, spec, payload["seed"], trace=trace)
    body = [e for e in rec.epochs if e.index >= 1]
    stats = {
        "algorithm": spec.label(),
        "seed": payload["seed"],
        "T": rec.T,
        "rho": rec.rho,
        "utility_true": rec.utility_true,
        "utility_accounted": rec.utility_accounted,
        "spend": rec.spend,
        "wins": rec.wins,
        "conversions": rec.conversions,
        "epochs": len(body),
        "epochs_without_conversion": sum(1 for e in body if not e.by_conversion),
    }
    if trace:
        stats["trace"] = trace_lines(rec)
    return stats


def run_batch_groups(
    groups: Sequence[tuple[dict, str, Sequence[int]]], workers: int = 1, trace: bool = False
) -> list[list[dict]]:
    """Run (config, algorithm, seeds) groups, each run's statistics from
    ``_run_payload``; with more than one worker and more than one run they
    share one process pool of `workers`.

    The pool takes the heaviest runs (largest T) first, but results are
    grouped and seed-sorted, so the output is independent of the pool layout."""
    jobs = []
    for g, (doc, algorithm, seeds) in enumerate(groups):
        spec = _parse_algorithms([algorithm])[0]
        for s in seeds:
            jobs.append(
                {"config": doc, "name": spec.name, "period": spec.period, "seed": s,
                 "trace": trace, "group": g}
            )
    jobs.sort(key=lambda j: -j["config"].get("T", 0))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(_run_payload, jobs))
    else:
        stats = [_run_payload(j) for j in jobs]
    out: list[list[dict]] = [[] for _ in groups]
    for job, st in zip(jobs, stats):
        out[job["group"]].append(st)
    return [sorted(g, key=lambda d: d["seed"]) for g in out]


def write_summary(out_dir, stats: list[dict], opt_per_round: float) -> list[str]:
    """Sort `stats` by (algorithm, seed) in place, write summary.csv (plus
    a trace file per run that carries its trace lines) to `out_dir` and
    return the summary rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats.sort(key=lambda st: (st["algorithm"], st["seed"]))
    rows = [summary_row(st, opt_per_round) for st in stats]
    (out / "summary.csv").write_text("\n".join([SUMMARY_HEADER, *rows]) + "\n")
    for st in stats:
        if "trace" in st:
            name = st["algorithm"].replace(":", "_")
            (out / f"trace_{name}_{st['seed']}.csv").write_text("\n".join(st["trace"]) + "\n")
    return rows


def run_experiment(
    cfg: ExperimentConfig, out_dir, trace: bool = False, workers: int = 1
) -> list[str]:
    """Run every (algorithm, seed) pair and write summary.csv (plus optional
    per-run trace files).  Returns the summary rows."""
    opt_per_round = reference_opt(cfg.market, cfg.reward, cfg.rho, cfg.T, cfg.m_ref)
    groups = [(cfg.raw, spec.label(), cfg.seeds) for spec in cfg.algorithms]
    results = run_batch_groups(groups, workers, trace)
    return write_summary(out_dir, [st for g in results for st in g], opt_per_round)


# ---------------------------------------------------------------------------
# random instances shared by the validation suite and the test suite


def random_market(
    rng: SplitMix64,
    max_atoms: int = 8,
    p_range: tuple[float, float] = (0.02, 1.0),
    c_range: tuple[float, float] = (0.05, 1.0),
    p_grid: Optional[Sequence[float]] = None,
) -> MarketDistribution:
    n = 1 + int(rng.uniform() * max_atoms)
    tuples = []
    for _ in range(n):
        if p_grid is not None:
            p = p_grid[int(rng.uniform() * len(p_grid))]
        else:
            p = p_range[0] + (p_range[1] - p_range[0]) * rng.uniform()
        c = c_range[0] + (c_range[1] - c_range[0]) * rng.uniform()
        tuples.append((p, c, 0.2 + rng.uniform()))
    total = sum(t[2] for t in tuples)
    return MarketDistribution.from_tuples([(p, c, w / total) for p, c, w in tuples])


def random_base_reward(rng: SplitMix64, min_table_len: int = 40) -> RewardFn:
    kind = int(rng.uniform() * 4)
    if kind == 0:
        return sqrt_reward()
    if kind == 1:
        return cap_linear_reward(1 + int(rng.uniform() * 6))
    if kind == 2:
        return power_reward(0.3 + 0.7 * rng.uniform())
    return random_concave_table(rng, min_table_len, min_table_len + 20)


def random_concave_table(rng: SplitMix64, min_len: int, max_len: int) -> RewardFn:
    """Random increasing concave table with increments in [0, 1]."""
    length = min_len + int(rng.uniform() * (max_len - min_len + 1))
    incs = sorted((rng.uniform() for _ in range(length)), reverse=True)
    vals = [0.0]
    for inc in incs:
        vals.append(vals[-1] + inc)
    return table_reward(vals)


def random_bounded_lp(rng: SplitMix64) -> LinearProgram:
    """Random LP with a bounding box, for the vertex-enumeration oracle."""
    n = 1 + int(rng.uniform() * 6)
    mi = 1 + int(rng.uniform() * 6)
    me = int(rng.uniform() * 2)
    c = np.array([rng.uniform() * 4 - 2 for _ in range(n)])
    a_ub = np.array([[rng.uniform() * 2 - 1 for _ in range(n)] for _ in range(mi)])
    b_ub = np.array([rng.uniform() * 2 for _ in range(mi)])
    a_ub = np.vstack([a_ub, np.eye(n)])
    b_ub = np.concatenate([b_ub, np.full(n, 1.0 + rng.uniform() * 3)])
    if me:
        x0 = np.array([rng.uniform() * 0.2 for _ in range(n)])
        a_eq = np.array([[rng.uniform() * 2 - 1 for _ in range(n)]])
        b_eq = a_eq @ x0
        return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
    return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub)


def enumerate_lp_vertices(lp: LinearProgram) -> Optional[float]:
    """Brute-force LP oracle: best objective over basic feasible points.
    Only valid when the feasible region is bounded."""
    n = lp.n
    rows = [(lp.a_eq[i], lp.b_eq[i], True) for i in range(lp.a_eq.shape[0])]
    rows += [(lp.a_ub[i], lp.b_ub[i], False) for i in range(lp.a_ub.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, 0.0, False))
    eq_idx = [k for k, r in enumerate(rows) if r[2]]
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        if any(k not in combo for k in eq_idx):
            continue
        A = np.array([rows[k][0] for k in combo])
        b = np.array([rows[k][1] for k in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.any(x < -1e-8):
            continue
        if lp.a_eq.size and np.max(np.abs(lp.a_eq @ x - lp.b_eq)) > 1e-8:
            continue
        if lp.a_ub.size and np.max(lp.a_ub @ x - lp.b_ub) > 1e-8:
            continue
        val = float(lp.c @ x)
        if best is None or val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# property checks (shared by `validate` and the acceptance tests)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def check_simplex_oracle(n_lps: int = 500, seed: int = 2024) -> CheckResult:
    """Random bounded LPs against vertex enumeration: the optimum, the point
    (rows within 1e-7, x > -1e-9), determinism, and 90% of draws feasible."""
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    worst = residual = 0.0
    solved = 0
    for _ in range(n_lps):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        oracle = enumerate_lp_vertices(lp)
        if oracle is None:
            if sol.status != "infeasible":
                return CheckResult("simplex_oracle", False,
                                   "solver found a solution on an infeasible LP",
                                   time.perf_counter() - t0)
            continue
        if sol.status != "optimal":
            return CheckResult("simplex_oracle", False,
                               f"status {sol.status} on a feasible LP",
                               time.perf_counter() - t0)
        err = abs(sol.objective - oracle)
        worst = max(worst, err)
        if err > 1e-7:
            return CheckResult("simplex_oracle", False,
                               f"objective off by {err:.2e}", time.perf_counter() - t0)
        rows = np.concatenate((abs(lp.a_eq @ sol.x - lp.b_eq), lp.a_ub @ sol.x - lp.b_ub))
        residual = max(residual, rows.max(initial=0.0))
        if residual >= 1e-7 or sol.x.min() <= -1e-9:
            return CheckResult("simplex_oracle", False, f"row residual {residual:.2e}, min x "
                               f"{sol.x.min():.2e}", time.perf_counter() - t0)
        again = solve_lp(lp)
        if again.basis != sol.basis or not np.array_equal(again.x, sol.x):
            return CheckResult("simplex_oracle", False, "re-solve not deterministic",
                               time.perf_counter() - t0)
        solved += 1
    return CheckResult("simplex_oracle", solved >= 0.9 * n_lps,
                       f"{solved}/{n_lps} solved, max objective error {worst:.2e}, "
                       f"max row residual {residual:.2e}",
                       time.perf_counter() - t0)


def check_reward_shapes(horizon: int = 10_000) -> CheckResult:
    t0 = time.perf_counter()
    for f in (sqrt_reward(), cap_linear_reward(5), power_reward(0.6), power_reward(1.0)):
        res = validate_reward(f, horizon)
        if not res.ok:
            return CheckResult("reward_shapes", False,
                               f"{f.kind} violates concavity at {res.violation_index}",
                               time.perf_counter() - t0)
    return CheckResult("reward_shapes", True, f"built-in kinds valid to {horizon}",
                       time.perf_counter() - t0)


def check_monotone_win_floor(
    n_markets: int = 200, m: int = 25, seed: int = 7, tol: float = 1e-6
) -> CheckResult:
    """Solved win curves are monotone; on binding budgets they clear the
    floor c_bar*rho/2 beyond state ceil(2/(c_bar rho)).

    The perturbation must stay numerically strictly concave through state m:
    its margin at depth l is eps * 2^-(l+1), so eps is drawn large enough to
    keep that above the solver's dual tolerance at l = m."""
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    binding = 0
    for i in range(n_markets):
        market = random_market(rng, max_atoms=8, c_range=(0.1, 1.0))
        rho = 0.05 + 0.45 * rng.uniform()
        base = random_base_reward(rng, min_table_len=m + 2)
        eps = 0.07 + 0.13 * rng.uniform()
        reward = perturb_strictly_concave(base, eps, max(m + 1, 2))
        res = solve_benchmark(market, reward, m=m, rho=rho)
        bad = check_monotone(res.win_vec, tol=tol)
        if bad is not None:
            return CheckResult(
                "monotone_win_floor", False,
                f"instance {i}: monotonicity fails at state {bad}", time.perf_counter() - t0)
        if abs(res.avg_payment - rho) <= 1e-7:
            binding += 1
            c_bar = mean_conversion(market)
            viol = check_win_floor(res.win_vec, c_bar, rho, tol=tol)
            if viol:
                return CheckResult(
                    "monotone_win_floor", False,
                    f"instance {i}: win floor fails at states {viol}",
                    time.perf_counter() - t0)
    return CheckResult("monotone_win_floor", True,
                       f"{n_markets} instances monotone, {binding} binding checked for the floor",
                       time.perf_counter() - t0)


def check_dp_dominance(n_instances: int = 100, seed: int = 31) -> CheckResult:
    """Finite-horizon hard-budget optimum never beats the chain benchmark."""
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    worst = -math.inf
    for i in range(n_instances):
        K = 2 + int(rng.uniform() * 3)
        grid = [j / K for j in range(K + 1)]
        market = random_market(rng, max_atoms=4, p_grid=grid)
        T = 4 + int(rng.uniform() * 9)
        units = 1 + int(rng.uniform() * (T * K))
        B = min(units / K, float(T))
        total = finite_horizon_dp(market, sqrt_reward(), T=T, B=B, price_grid_K=K)
        bench = solve_benchmark(market, sqrt_reward(), m=T, rho=B / T)
        gap = total / T - bench.opt_value
        worst = max(worst, gap)
        if gap > 1e-9:
            return CheckResult("dp_dominance", False,
                               f"instance {i}: DP exceeds benchmark by {gap:.2e}",
                               time.perf_counter() - t0)
    return CheckResult("dp_dominance", True,
                       f"{n_instances} instances, max (DP - LP) = {worst:.2e}",
                       time.perf_counter() - t0)


def check_state_reduction(n_instances: int = 50, M: int = 200, seed: int = 17) -> CheckResult:
    """opt(m, bid-1 at m) loses at most 1e-3 against opt(M) for
    m = ceil(2 ln M / (c_bar rho))."""
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    worst = -math.inf
    for i in range(n_instances):
        market = random_market(rng, max_atoms=6, c_range=(0.4, 1.0))
        rho = 0.3 + 0.4 * rng.uniform()
        c_bar = mean_conversion(market)
        m = math.ceil(2.0 / (c_bar * rho) * math.log(M))
        reward = random_base_reward(rng, min_table_len=M + 2)
        if reward.kind == "table" and len(reward.values) <= M:
            reward = sqrt_reward()
        big = solve_benchmark(market, reward, m=M, rho=rho)
        small = solve_benchmark(market, reward, m=m, rho=rho, bid1_at_m=True)
        gap = big.opt_value - small.opt_value
        worst = max(worst, gap)
        if gap > 1e-3:
            return CheckResult("state_reduction", False,
                               f"instance {i}: reduction gap {gap:.2e} (m={m})",
                               time.perf_counter() - t0)
    return CheckResult("state_reduction", True,
                       f"{n_instances} instances, max gap {worst:.2e}",
                       time.perf_counter() - t0)


def check_gc_scaling(trials: int = 50, seed: int = 4242) -> CheckResult:
    """Median sup-error of the empirical win curve shrinks like 1/sqrt(n):
    each 4x sample increase shrinks the median by a factor in [0.35, 0.7]."""
    t0 = time.perf_counter()
    truth = MarketDistribution.from_tuples(
        [
            (0.15, 0.9, 0.2),
            (0.3, 0.75, 0.2),
            (0.45, 0.6, 0.15),
            (0.6, 0.45, 0.15),
            (0.75, 0.3, 0.15),
            (0.9, 0.15, 0.15),
        ]
    )
    rng = SplitMix64(seed)
    medians = []
    for n in (100, 400, 1600, 6400):
        errs = []
        for _ in range(trials):
            samples = [truth.sample(rng) for _ in range(n)]
            dw, _ = sup_error(empirical_market(samples), truth)
            errs.append(dw)
        errs.sort()
        medians.append(errs[len(errs) // 2])
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    ok = all(0.35 <= r <= 0.7 for r in ratios)
    detail = "medians " + ", ".join(f"{v:.4f}" for v in medians) + \
             "; ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    return CheckResult("gc_scaling", ok, detail, time.perf_counter() - t0)


def check_reverse_jensen(n_instances: int = 1000, seed: int = 99) -> CheckResult:
    """Geometric spacing with a matched mean keeps at least (1 - 1/e) of any
    integer spacing's reward, for every random concave capped reward."""
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    worst = math.inf
    for i in range(n_instances):
        m = 1 + int(rng.uniform() * 50)
        reward = random_concave_table(rng, max(2, m), max(2, m) + 10)
        size = 1 + int(rng.uniform() * 6)
        support = sorted({1 + int(rng.uniform() * 100) for _ in range(size)})
        weights = [0.05 + rng.uniform() for _ in support]
        total = sum(weights)
        probs = [w / total for w in weights]
        lhs, rhs, ok = reverse_jensen_check(reward, m, support, probs)
        worst = min(worst, lhs - rhs)
        if not ok:
            return CheckResult("reverse_jensen", False,
                               f"instance {i}: {lhs} < {rhs}", time.perf_counter() - t0)
    return CheckResult("reverse_jensen", True,
                       f"{n_instances} instances, min margin {worst:.3e}",
                       time.perf_counter() - t0)


# (check, size at level quick, size at level full); a check's size is its
# first parameter
_CHECKS = (
    (check_simplex_oracle, 100, 500),
    (check_reward_shapes, 2000, 10_000),
    (check_monotone_win_floor, 30, 200),
    (check_dp_dominance, 20, 100),
    (check_state_reduction, 8, 50),
    (check_gc_scaling, 20, 50),
    (check_reverse_jensen, 200, 1000),
)


def validate_suite(level: str = "quick", emit: Callable[[str], None] = print) -> list[CheckResult]:
    """Run the module property suites and print one line per check."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = []
    for check, quick, full in _CHECKS:
        res = check(quick if level == "quick" else full)
        results.append(res)
        status = "PASS" if res.ok else "FAIL"
        emit(f"{status:4s}  {res.name:20s} {res.seconds:7.2f}s  {res.detail}")
    return results
