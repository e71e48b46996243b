"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (part
of the timed set-up), then runs numbered rounds.  A round is a fixed list of
operations, one operation being one (algorithm, seed) simulation, so every
run attempts whole rounds and the share of failed operations never depends
on how long the run was.  ``check`` compares the completed operations with
values derived in ``checks`` without trusting the package.
"""

from __future__ import annotations

import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import spacing_auctions as sa
from spacing_auctions import baselines, harness
from spacing_auctions.market import mean_conversion

import checks

SUMMARY_FIELDS = harness.SUMMARY_HEADER.split(",")


@dataclass
class Op:
    """One (algorithm, seed) simulation; `run` is None when it failed."""

    algorithm: str
    seed: int
    rounds: int
    seconds: float
    run: Optional[dict]


def _summary(rec, algorithm: str) -> dict:
    return {
        "algorithm": algorithm,
        "seed": rec.seed,
        "T": rec.T,
        "rho": rec.rho,
        "utility_true": rec.utility_true,
        "utility_accounted": rec.utility_accounted,
        "spend": rec.spend,
        "wins": rec.wins,
        "conversions": rec.conversions,
    }


def _timed(algorithm: str, seed: int, T: int, fn) -> Op:
    """Run one in-process operation; an exception marks it failed."""
    t0 = time.perf_counter()
    try:
        run = _summary(fn(), algorithm)
    except Exception as exc:  # counted as a failed operation and reported
        print(f"operation {algorithm} seed {seed} failed: "
              f"{traceback.format_exception_only(exc)[-1].strip()}", file=sys.stderr)
        run = None
    return Op(algorithm, seed, T, time.perf_counter() - t0, run)


def _shares(ops: list[Op], optimum: float, algorithms) -> dict:
    """Lowest and highest utility per round as a share of the optimum, per
    windowed algorithm, for reporting next to the windows."""
    out = {}
    for algorithm in algorithms:
        shares = [op.run["utility_true"] / op.run["T"] / optimum
                  for op in ops if op.algorithm == algorithm]
        if shares:
            out[algorithm] = [min(shares), max(shares)]
    return {"share_of_optimum": out}


def warm_up() -> None:
    """One small chain solve, so set-up ends with the solver paths loaded."""
    sa.solve_benchmark(sa.discretize_uniform(20), sa.sqrt_reward(), m=20, rho=0.2)


# ---------------------------------------------------------------------------


class GridSweep:
    """The README's `simulate` config through run_experiment and its pool.

    The support stays at 51 candidates, so nearly every FKORS epoch reuses
    a cached basis: the planner's hit path.  Four seeds per round; the pool
    round is timed as a whole, its wall shared evenly by its operations.
    """

    name = "grid_sweep"
    CONFIG = {
        "market": {"type": "uniform_grid", "K": 50},
        "reward": {"type": "sqrt"},
        "rho": 0.2,
        "T": 8000,
        "algorithms": ["fkors", "static_opt", "always_one",
                       {"name": "fixed_interval", "period": 4}],
    }
    SEEDS_PER_ROUND = 4
    # utility per round as a share of the reference optimum; measured ranges
    # and the reasons for each margin are in the benchmark's README
    WINDOWS = {"fkors": (0.95, 1.02), "static_opt": (0.95, 1.02)}

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        self.workers = workers
        self.out = out_dir / "sweep"
        self.market = harness.load_config({**self.CONFIG, "seeds": [1]}).market
        self.opts: set[float] = set()

    def run_round(self, j: int) -> list[Op]:
        base = self.seed * 1000 + j * self.SEEDS_PER_ROUND
        cfg = harness.load_config(
            {**self.CONFIG, "seeds": [base + i for i in range(self.SEEDS_PER_ROUND)]})
        t0 = time.perf_counter()
        try:
            rows = harness.run_experiment(cfg, self.out, workers=self.workers)
        except Exception:
            traceback.print_exc()
            rows = None
        dt = time.perf_counter() - t0
        shutil.rmtree(self.out, ignore_errors=True)
        labels = [spec.label() for spec in cfg.algorithms]
        n_ops = len(labels) * len(cfg.seeds)
        if rows is None:
            return [Op(a, s, cfg.T, dt / n_ops, None) for a in labels for s in cfg.seeds]
        ops = []
        for row in rows:
            run = dict(zip(SUMMARY_FIELDS, row.split(",")))
            for key in ("seed", "T", "wins", "conversions"):
                run[key] = int(run[key])
            for key in ("rho", "utility_true", "utility_accounted", "spend", "opt_per_round"):
                run[key] = float(run[key])
            self.opts.add(run["opt_per_round"])
            ops.append(Op(run["algorithm"], run["seed"], run["T"], dt / n_ops, run))
        return ops

    def check(self, ops: list[Op]) -> dict:
        checks.require(len(self.opts) == 1, f"reference optimum varies across rounds: {self.opts}")
        opt = next(iter(self.opts))
        m_ref = harness.reference_m(self.CONFIG["T"], self.CONFIG["rho"], 1.0)
        atoms = [(a.p, a.c, a.prob) for a in self.market.atoms]
        checks.check_reference(opt, checks.chain_lp_optimum(atoms, m_ref, self.CONFIG["rho"]))
        for op in ops:
            run = op.run
            checks.check_budget_and_accounting(run)
            if run["algorithm"] in self.WINDOWS:
                checks.check_window(run, opt, self.WINDOWS[run["algorithm"]])
            elif run["algorithm"] == "always_one":
                checks.check_unit_gap_utility(run)
            else:
                checks.check_fixed_interval(run, period=4)
        return _shares(ops, opt, self.WINDOWS)


class WideMarket:
    """FKORS on a 500-atom market whose empirical support keeps growing.

    The candidate set changes almost every epoch, so the planner's cache
    rarely certifies and nearly all time goes to cold structured-simplex
    solves: the planner's miss path.  Operations run in-process, one after
    another.
    """

    name = "wide_market"
    ATOMS = 500
    RHO = 0.2
    T = 300
    # FKORS seed 49 fails every time in the structured simplex (see the
    # README); every round runs it once, last.  The other seeds up to 64
    # were run to completion; a round takes GOOD_PER_ROUND of them, at an
    # offset set by the workload seed.
    FAILING_SEED = 49
    GOOD_SEEDS = tuple(range(1, 49)) + tuple(range(50, 65))
    GOOD_PER_ROUND = 12
    # all 63 good seeds fall in 0.654-0.785 of the optimum
    WINDOW = (0.61, 0.83)

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        rng = sa.SplitMix64(5)
        atoms = []
        for _ in range(self.ATOMS):
            p = 0.02 + 0.98 * rng.uniform()
            c = 0.3 + 0.7 * rng.uniform()
            atoms.append((p, c, 1.0 / self.ATOMS))
        self.atoms = atoms
        self.cfg = harness.load_config({
            "market": {"type": "atoms", "atoms": [list(a) for a in atoms]},
            "reward": {"type": "sqrt"},
            "rho": self.RHO,
            "T": self.T,
            "algorithms": ["fkors"],
            "seeds": [1],
        })
        self.opts: set[float] = set()

    def round_seeds(self, j: int) -> list[int]:
        n = len(self.GOOD_SEEDS)
        start = (self.seed + j) * self.GOOD_PER_ROUND
        return [self.GOOD_SEEDS[(start + i) % n] for i in range(self.GOOD_PER_ROUND)] + [
            self.FAILING_SEED]

    def run_round(self, j: int) -> list[Op]:
        self.opts.add(harness.reference_opt(self.cfg.market, self.cfg.reward, self.RHO, self.T))
        spec = self.cfg.algorithms[0]
        return [
            _timed("fkors", s, self.T, lambda s=s: harness.run_algorithm(self.cfg, spec, s))
            for s in self.round_seeds(j)
        ]

    def check(self, ops: list[Op]) -> dict:
        checks.require(len(self.opts) == 1, f"reference optimum varies across rounds: {self.opts}")
        opt = next(iter(self.opts))
        m_ref = harness.reference_m(self.T, self.RHO, mean_conversion(self.cfg.market))
        checks.check_reference(opt, checks.chain_lp_optimum(self.atoms, m_ref, self.RHO))
        for op in ops:
            checks.check_budget_and_accounting(op.run)
            checks.check_window(op.run, opt, self.WINDOW)
        return _shares(ops, opt, {"fkors": self.WINDOW})


class LongBaselines:
    """Two LP-free policies at T = 10^6: the per-round loop is the whole cost.

    The static fixed bid b = sqrt(2 rho) and bidding 1 every fifth round, on
    a 1000-point uniform price grid with conversion rate 1.
    """

    name = "long_baselines"
    K = 1000
    RHO = 0.1
    T = 1_000_000
    PERIOD = 5
    # statistical spread of the fixed-bid utility at T = 10^6 is about 0.1%
    FIXED_BID_TOL = 0.005

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        self.market = sa.discretize_uniform(self.K)
        self.reward = sa.sqrt_reward()
        self.bid = math.sqrt(2.0 * self.RHO)

    def run_round(self, j: int) -> list[Op]:
        s = self.seed * 1000 + j

        def fixed_bid():
            policy = baselines.fixed_bid_policy(self.market, self.bid)
            return baselines.static_run(
                self.market, self.reward, policy, self.RHO, self.T, sa.SplitMix64(s), seed=s)

        def fixed_interval():
            return baselines.fixed_interval_run(
                self.market, self.reward, self.PERIOD, self.RHO, self.T, sa.SplitMix64(s), seed=s)

        return [
            _timed("fixed_bid", s, self.T, fixed_bid),
            _timed("fixed_interval", s, self.T, fixed_interval),
        ]

    def check(self, ops: list[Op]) -> dict:
        for op in ops:
            checks.check_budget_and_accounting(op.run)
            if op.algorithm == "fixed_bid":
                checks.check_fixed_bid(op.run, self.RHO, self.FIXED_BID_TOL)
            else:
                checks.check_fixed_interval(op.run, self.PERIOD)
        return {}


WORKLOADS = {w.name: w for w in (GridSweep, WideMarket, LongBaselines)}
