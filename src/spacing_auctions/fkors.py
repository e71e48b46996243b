"""Follow the k-delayed Optimal Response Strategy (FKORS).

The learner splits the horizon into epochs of stochastic length.  Rounds
1..k are a skip-only warm-up that just records (price, conversion rate)
samples.  Each later epoch starts by solving the occupancy plan on every
sample seen so far (capped chain of m states, forced bid-1 in state m),
restarts its planner state at 1, and plays the resulting per-state mixtures
until a conversion ends the epoch or k rounds pass without one.  Bids are
placed only while the remaining budget is at least 1, which makes the budget
constraint hold surely, not just in expectation.

The planner state ("fake" gap) is reset at every epoch start even when the
previous epoch ended without a conversion, so the true gap is always at
least the fake gap and the realized reward r(true gap) dominates the
accounted reward r_m(fake gap) the plan was optimized for.

Rounds run in the baselines' round loop (``baselines._simulate``), which
owns the auction, the budget guard, the conversion coin and the trace rows;
FKORS supplies its bid rule and a per-round hook that records the sample,
moves the epoch and planner state on, and plans the next epoch at the end
of the round before it starts.  RNG consumption is therefore the loop's, so
a run is reproducible from its seed alone: each round draws (1) the market
atom, then (2) one mixture uniform whenever the policy is consulted (after
the warm-up, when the budget guard passes; also for single-action
mixtures), then (3) one conversion uniform if the auction was won.
Planning draws nothing.

Per-epoch plan reuse: consecutive epochs solve almost identical programs, so
the planner keeps a small cache of recently optimal bases and re-checks them
against the updated empirical curves (primal feasibility and reduced costs
within ``reuse_tolerance``).  When no cached basis certifies, it solves
again, starting in this order from: the first primal-feasible cached basis,
most recent first; the most recent cached basis made primal feasible by a
dual-simplex phase; the first primal-feasible crash vertex; a phase-1
basis.  Every epoch therefore plays a mixture that is optimal for its own
empirical program up to ``reuse_tolerance`` per round.  In a degenerate
program a warm start can end at another optimal vertex than a crash start,
so a run can differ from one with ``reuse_tolerance = 0``, which re-solves
from the crash vertices every epoch.

The planner keeps no copy of a rule another module owns: the empirical
curves use the market module's candidate rule and suffix sums, a cold solve
returns its basic values with its basis, and ``benchmark.state_mixtures``
turns the plan's occupancy mass into the per-state mixtures the sampler
draws from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .baselines import _simulate
from .benchmark import (
    Mixture,
    OccupancyProblem,
    basis_layout,
    cycle_stats_wp,
    occupancy_problem,
    policy_from_mixtures,
    reward_vector,
    solve_benchmark,
    solve_occupancy_problem,
    state_mixtures,
    verify_basis_values,
)
from .estimation import quantize_pair
from .market import (
    MarketDistribution,
    bid_for,
    candidate_set,
    curve_positions,
    ratio_order,
    suffix_sums,
)
from .records import EpochDiagnostic, EpochEntry, RunRecord
from .rewards import RewardFn, eval_r
from .rng import SplitMix64


def default_params(T: int, rho: float, c_bar: float) -> tuple[int, int]:
    """Chain length and epoch cap: m = ceil(2 ln T / (c_bar rho)) and
    k = ceil(m + ln T / c_bar), natural logarithm."""
    if T < 2:
        raise ValueError("T must be >= 2")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if not 0.0 < c_bar <= 1.0:
        raise ValueError(f"c_bar must lie in (0, 1], got {c_bar}")
    log_t = math.log(T)
    m = math.ceil(2.0 / (c_bar * rho) * log_t)
    k = math.ceil(m + log_t / c_bar)
    return m, k


@dataclass(frozen=True)
class FkorsConfig:
    rho: float
    T: int
    m: int
    k: int
    quantization_grid: int = 1000      # Q; 0 disables
    quantize_threshold: int = 2000     # distinct samples before quantizing
    reuse_tolerance: float = 1e-5      # 0 re-solves the plan every epoch
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not 1 <= self.m <= self.T:
            raise ValueError(f"need 1 <= m <= T, got m={self.m}, T={self.T}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.quantization_grid < 0:
            raise ValueError("quantization grid must be >= 0")
        if self.reuse_tolerance < 0.0:
            raise ValueError("reuse tolerance must be >= 0")

    @classmethod
    def from_defaults(cls, rho: float, T: int, c_bar: float, **kw) -> "FkorsConfig":
        m, k = default_params(T, rho, c_bar)
        return cls(rho=rho, T=T, m=m, k=k, **kw)


class _EmpiricalCurves:
    """Incrementally maintained empirical action curves.

    Distinct (p, c) pairs are kept in the market's ratio order; candidate
    multipliers and their suffix-sum positions only change when a new pair
    appears, while the suffix sums behind W and P are recomputed per epoch
    from the sample counts, all with the market module's rules.  Pairs are
    snapped to the 1/Q lattice by ``estimation.quantize_pair`` once the
    distinct count passes the threshold.
    """

    def __init__(self, grid: int, threshold: int):
        self.grid = grid
        self.threshold = threshold
        self.quantizing = False
        self.counts: dict[tuple[float, float], int] = {}
        self.n = 0
        self.version = 0  # bumped whenever the candidate set changes
        self._stale = True
        self._cands: Optional[np.ndarray] = None

    def add(self, p: float, c: float) -> None:
        key = quantize_pair(p, c, self.grid) if self.quantizing else (p, c)
        if key in self.counts:
            self.counts[key] += 1
            if not self._stale:
                self._count_vec[self._slot[key]] += 1.0
        else:
            self.counts[key] = 1
            self._stale = True
            if (
                not self.quantizing
                and self.grid > 0
                and len(self.counts) > self.threshold
            ):
                self._requantize()
        self.n += 1

    def _requantize(self) -> None:
        self.quantizing = True
        old = self.counts
        self.counts = {}
        for (p, c), k in old.items():
            key = quantize_pair(p, c, self.grid)
            self.counts[key] = self.counts.get(key, 0) + k
        self._stale = True

    def _rebuild(self) -> None:
        pairs = sorted(self.counts.keys())
        p = np.array([pc[0] for pc in pairs])
        c = np.array([pc[1] for pc in pairs])
        order, ratio = ratio_order(p, c)
        self._pairs = [pairs[i] for i in order]
        self._p = p[order]
        self._c = c[order]
        self._cands = candidate_set(self._p, self._c)
        self._positions = curve_positions(ratio, self._cands)
        self._slot = {pc: i for i, pc in enumerate(self._pairs)}
        self._count_vec = np.fromiter(
            (self.counts[pc] for pc in self._pairs), dtype=float, count=len(self._pairs)
        )
        self._stale = False
        self.version += 1

    def curves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(candidates, W, P) of the current empirical distribution."""
        if self.n == 0:
            raise ValueError("no samples recorded yet")
        if self._stale:
            self._rebuild()
        wc, wp = suffix_sums(self._count_vec / self.n, self._p, self._c)
        return self._cands, wc[self._positions], wp[self._positions]


class _EpochPlanner:
    """Per-epoch plan: verified reuse of recently optimal bases, else cold.

    The optimum tends to wander among a handful of neighbouring vertices as
    the empirical curves drift, so a tiny move-to-front cache of bases
    absorbs most re-solves; every plan served is certified optimal for the
    current epoch's program within the configured tolerance.  Cached bases
    are stored as (state, multiplier value) labels and re-resolved to column
    ids only when the candidate set changes.  A miss re-solves warm, from
    the cached bases that still map to column ids: a primal-feasible one, or
    the most recent one through the dual-simplex phase.
    """

    _CACHE = 6

    def __init__(self, reward: RewardFn, cfg: FkorsConfig):
        self.reward = reward
        self.cfg = cfg
        self.cache: list[dict] = []  # {"labels", "ids", "version", decoded arrays}
        self.cold_solves = 0  # every solve_occupancy_problem call, warm or not
        self.warm_starts = 0  # solves that began from a cached basis, by either route
        self.reuses = 0
        self._r_vec = reward_vector(reward, cfg.m)
        self._d_buf: Optional[np.ndarray] = None

    @staticmethod
    def _map_labels(labels: list, cands: np.ndarray, prob: OccupancyProblem) -> Optional[list[int]]:
        mus = [lab[2] for lab in labels if lab[0] == "s"]
        pos = np.searchsorted(cands, np.array(mus))
        if np.any(pos >= cands.shape[0]) or np.any(cands[np.minimum(pos, cands.shape[0] - 1)] != mus):
            return None
        it = iter(pos.tolist())
        ids = []
        for lab in labels:
            if lab[0] == "s":
                col = prob.col_of(lab[1], next(it))
                if col is None:
                    return None
                ids.append(col)
            else:
                ids.append(prob.slack_id)
        return ids

    @staticmethod
    def _decorate(entry: dict, prob: OccupancyProblem) -> None:
        """Cache the decoded structure and the basis-matrix layout of an
        entry's basis ids; `cb` is refilled before each check."""
        layout = basis_layout(prob, entry["ids"])
        struct = layout.ids != prob.slack_id
        states, actions = prob.decode(layout.ids[struct])
        entry["layout"] = layout
        entry["struct"] = struct
        entry["states"] = states
        entry["actions"] = actions
        entry["cb"] = np.zeros(layout.ids.shape[0])

    def plan(
        self, curves: tuple[np.ndarray, np.ndarray, np.ndarray], version: int
    ) -> tuple[OccupancyProblem, np.ndarray, np.ndarray, np.ndarray]:
        """Plan for the coming epoch; returns (problem, states, actions,
        masses) with one entry per structural basis column."""
        cands, w, p = curves
        prob = occupancy_problem(
            (cands, w, p), self.reward, self.cfg.m, self.cfg.rho, bid1_at_m=True,
            r_vec=self._r_vec,
        )
        if self._d_buf is None or self._d_buf.shape[0] != prob.n_cols + 1:
            self._d_buf = np.empty(prob.n_cols + 1)
        x_b = None
        hit = -1
        entry = None
        if self.cfg.reuse_tolerance > 0.0:
            for idx, cand_entry in enumerate(self.cache):
                if cand_entry["version"] != version:
                    cand_entry["ids"] = self._map_labels(cand_entry["labels"], cands, prob)
                    cand_entry["version"] = version
                    if cand_entry["ids"] is not None:
                        self._decorate(cand_entry, prob)
                if cand_entry["ids"] is None:
                    continue
                # objective coefficients track the fresh W values
                cand_entry["cb"][cand_entry["struct"]] = (
                    prob.r[cand_entry["states"] - 1] * prob.w[cand_entry["actions"]]
                )
                x_b = verify_basis_values(
                    prob,
                    cand_entry["layout"],
                    cand_entry["cb"],
                    primal_tol=1e-7,
                    dual_tol=self.cfg.reuse_tolerance,
                    d_buf=self._d_buf,
                )
                if x_b is not None:
                    hit = idx
                    entry = cand_entry
                    break
        if x_b is None:
            # with reuse off, every epoch solves from the crash vertices
            starts = (
                [e["ids"] for e in self.cache if e["ids"] is not None]
                if self.cfg.reuse_tolerance > 0.0 else []
            )
            sol = solve_occupancy_problem(prob, starts=starts)
            self.cold_solves += 1
            self.warm_starts += sol.start >= 0
            ids = np.asarray(sol.basis)
            struct = ids != prob.slack_id
            states, actions = prob.decode(ids[struct])
            struct_labels = iter(
                ("s", int(s), float(cands[i]))
                for s, i in zip(states.tolist(), actions.tolist())
            )
            labels = [
                ("slack",) if col == prob.slack_id else next(struct_labels)
                for col in sol.basis
            ]
            entry = {"labels": labels, "ids": list(sol.basis), "version": version}
            self._decorate(entry, prob)
            self.cache.insert(0, entry)
            del self.cache[self._CACHE:]
            x_b = sol.x_b
        else:
            self.reuses += 1
            self.cache.insert(0, self.cache.pop(hit))
        return prob, entry["states"], entry["actions"], x_b[entry["struct"]]


def _sampler(mixtures: list[Mixture]) -> list[Mixture]:
    """Per-state (mus, cumulative weights) for fast action draws; the last
    cumulative weight is exactly 1, as a lone weight already is."""
    sampler = []
    for mus, wts in mixtures:
        if len(wts) > 1:
            wts = list(accumulate(wts))
            wts[-1] = 1.0
        sampler.append((mus, wts))
    return sampler


def run_fkors(
    market: MarketDistribution,
    reward: RewardFn,
    cfg: FkorsConfig,
    rng: Optional[SplitMix64] = None,
    trace: bool = False,
    diagnostics: bool = False,
    opt_ref: Optional[float] = None,
) -> RunRecord:
    """Simulate one full run; see the module docstring for the protocol."""
    if rng is None:
        rng = SplitMix64(cfg.seed)
    T, m, k, rho = cfg.T, cfg.m, cfg.k, cfg.rho
    curves = _EmpiricalCurves(cfg.quantization_grid, cfg.quantize_threshold)
    planner = _EpochPlanner(reward, cfg)
    record = RunRecord(
        algorithm="fkors",
        seed=cfg.seed,
        T=T,
        rho=rho,
        config={
            "m": m,
            "k": k,
            "quantization_grid": cfg.quantization_grid,
            "reuse_tolerance": cfg.reuse_tolerance,
        },
    )
    diags: Optional[list[EpochDiagnostic]] = [] if diagnostics else None
    if diagnostics and opt_ref is None:
        opt_ref = solve_benchmark(market, reward, m, rho, bid1_at_m=False).opt_value

    fake = 1
    epoch = 0
    epoch_start = 0          # rounds before this epoch
    sampler: list[Mixture] = []
    uniform = rng.uniform

    def plan() -> None:
        nonlocal sampler, fake
        prob, p_states, p_actions, p_masses = planner.plan(curves.curves(), curves.version)
        mixtures = state_mixtures(prob, p_states, p_actions, p_masses)
        sampler = _sampler(mixtures)
        fake = 1
        if diags is not None:
            w_vec, p_vec = policy_from_mixtures(prob, mixtures).action_curves(market)
            stats = cycle_stats_wp(w_vec, p_vec, reward, m)
            r_avg = 0.0 if stats.degenerate else stats.reward_avg
            c_avg = 0.0 if stats.degenerate else stats.pay_avg
            diags.append(
                EpochDiagnostic(
                    epoch,
                    r_avg,
                    c_avg,
                    max(0.0, (opt_ref or 0.0) - r_avg),
                    max(0.0, c_avg - rho),
                )
            )

    def choose(_t: int, c: float) -> Optional[float]:
        if epoch == 0:
            return None
        mus, cums = sampler[fake - 1]
        u = uniform()  # one mixture draw whenever the policy is consulted
        j = 0
        while cums[j] < u:
            j += 1
        return bid_for(mus[j], c)

    def settle(t: int, p: float, c: float, _gap: int, conv: int) -> tuple[int, int, float]:
        nonlocal epoch, epoch_start, fake
        # fake never exceeds m, so the capped reward r_m(fake) is r(fake)
        row = (epoch, fake, eval_r(reward, fake) if conv else 0.0)
        curves.add(p, c)
        if epoch == 0:
            fake = min(m, fake + 1)
            if t >= min(k, T):
                record.epochs.append(EpochEntry(0, t, t, False))
                epoch = 1
                epoch_start = t
        elif conv:
            record.epochs.append(EpochEntry(epoch, t, t - epoch_start, True))
            epoch += 1
            epoch_start = t
            fake = 1
        else:
            fake = min(m, fake + 1)
            if t - epoch_start >= k:
                record.epochs.append(EpochEntry(epoch, t, k, False))
                epoch += 1
                epoch_start = t
        # planning draws no randomness, so the next epoch's plan is made now
        if epoch_start == t and t < T:
            plan()
        return row

    _simulate(market, reward, rng, record, choose, trace, settle)
    record.diagnostics = diags
    record.config["cold_solves"] = planner.cold_solves
    record.config["warm_starts"] = planner.warm_starts
    record.config["reused_plans"] = planner.reuses
    return record


def regret(record: RunRecord, opt_per_round: float) -> float:
    """T * opt_per_round minus the realized (true) utility."""
    return record.T * opt_per_round - record.utility_true
