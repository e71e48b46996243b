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
returns its basic values with its basis, and the benchmark module's mixture
rule turns the plan's occupancy mass into per-state mixtures, and the
benchmark module's ``OccupancyProblem`` encodes (state, action) columns as
ids.  Each cached basis keeps its ``benchmark.BasisLayout`` across changes
of the candidate set, and a ``benchmark.MixtureTemplate`` built when it
first serves a plan; an epoch binds its basic values to it, and a state's
mixture and cumulative weights are normalized on the epoch's first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import _simulate
from .benchmark import (
    BasisLayout,
    MixtureTemplate,
    OccupancyProblem,
    StateMixtures,
    cycle_stats_wp,
    occupancy_problem,
    policy_from_mixtures,
    reward_vector,
    solve_benchmark,
    solve_occupancy_problem,
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
        pairs = list(self.counts)
        pc = np.array(pairs)
        order, ratio = ratio_order(pc[:, 0], pc[:, 1])
        self._p = pc[order, 0]
        self._c = pc[order, 1]
        self._cands = candidate_set(self._p, self._c)
        self._positions = curve_positions(ratio, self._cands)
        slot = np.empty_like(order)
        slot[order] = np.arange(order.shape[0])
        self._slot = dict(zip(pairs, slot.tolist()))
        self._count_vec = np.fromiter(self.counts.values(), dtype=float, count=len(pairs))[order]
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


class _CachedBasis:
    """A recently optimal basis: its `layout` on the current candidate set
    (None while one of its multipliers `mus` is not a candidate), the last
    `live` layout, and the mixture `template`, built when it first serves a
    plan.  The first layout is the one ``solve_occupancy_problem`` hands back
    with its solution.
    Layout entries, chain split and template depend only on the columns'
    states and multipliers, so a remap re-keys the layout alone."""

    __slots__ = ("layout", "live", "mus", "template")

    def __init__(self, prob: OccupancyProblem, layout: BasisLayout):
        self.layout = self.live = layout
        self.mus = prob.mus[self.live.actions]
        self.template: Optional[MixtureTemplate] = None

    def remap(self, prob: OccupancyProblem) -> None:
        """Move the basis onto `prob`'s candidate set."""
        pos = np.searchsorted(prob.mus, self.mus)
        if np.array_equal(prob.mus[np.minimum(pos, prob.mus.shape[0] - 1)], self.mus):
            self.layout = self.live = self.live.rekey(prob, pos)
        else:
            self.layout = None


class _EpochPlanner:
    """Per-epoch plan: verified reuse of recently optimal bases, else cold.

    The optimum tends to wander among a handful of neighbouring vertices as
    the empirical curves drift, so a tiny move-to-front cache of bases
    absorbs most re-solves; every plan served is certified optimal for the
    current epoch's program within the configured tolerance.  The epoch's
    program is built once per candidate set, and each epoch swaps in its W
    and P; when the set changes, every cached basis (``_CachedBasis``) is
    re-keyed onto it.  Verification builds the basis costs itself.  A miss
    re-solves warm from the layouts of the cached bases whose multipliers
    are all still candidates: a primal-feasible one, or the most recent one
    through the dual-simplex phase.
    """

    _CACHE = 6

    def __init__(self, reward: RewardFn, cfg: FkorsConfig):
        self.reward = reward
        self.cfg = cfg
        self.cache: list[_CachedBasis] = []
        self.cold_solves = 0  # every solve_occupancy_problem call, warm or not
        self.warm_starts = 0  # solves that began from a cached basis, by either route
        self.reuses = 0
        self._r_vec = reward_vector(reward, cfg.m)
        # the program of the candidate set `_version`, into which epochs swap
        # W and P
        self._prob: Optional[OccupancyProblem] = None
        self._version = -1

    def plan(
        self, curves: tuple[np.ndarray, np.ndarray, np.ndarray], version: int
    ) -> tuple[OccupancyProblem, StateMixtures]:
        """Plan for the coming epoch: its program and the per-state
        mixtures of the plan's basis, bound to its basic values."""
        cands, w, p = curves
        if version != self._version:
            self._prob = occupancy_problem(
                (cands, w, p), self.reward, self.cfg.m, self.cfg.rho, bid1_at_m=True,
                r_vec=self._r_vec,
            )
            self._version = version
            for entry in self.cache:
                entry.remap(self._prob)
        prob = self._prob.with_curves(w, p)
        x_b = None
        if self.cfg.reuse_tolerance > 0.0:
            for idx, entry in enumerate(self.cache):
                if entry.layout is None:
                    continue
                x_b = verify_basis_values(
                    prob, entry.layout, primal_tol=1e-7, dual_tol=self.cfg.reuse_tolerance
                )
                if x_b is not None:
                    self.reuses += 1
                    self.cache.insert(0, self.cache.pop(idx))
                    break
        if x_b is None:
            # with reuse off, every epoch solves from the crash vertices
            starts = (
                [e.layout for e in self.cache if e.layout is not None]
                if self.cfg.reuse_tolerance > 0.0 else []
            )
            sol = solve_occupancy_problem(prob, starts=starts)
            self.cold_solves += 1
            self.warm_starts += sol.start >= 0
            self.cache.insert(0, _CachedBasis(prob, sol.layout))
            del self.cache[self._CACHE:]
            x_b = sol.x_b
        entry = self.cache[0]
        if entry.template is None:
            entry.template = MixtureTemplate(prob, entry.layout.states, entry.layout.actions)
        return prob, StateMixtures(entry.template, x_b[entry.layout.struct])


def run_fkors(
    market: MarketDistribution,
    reward: RewardFn,
    cfg: FkorsConfig,
    rng: Optional[SplitMix64] = None,
    trace: bool = False,
    diagnostics: bool = False,
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
    if diagnostics:
        opt_ref = solve_benchmark(market, reward, m, rho, bid1_at_m=False).opt_value

    fake = 1
    epoch = 0
    epoch_start = 0          # rounds before this epoch
    mixtures: Optional[StateMixtures] = None
    uniform = rng.uniform

    def plan() -> None:
        nonlocal mixtures, fake
        prob, mixtures = planner.plan(curves.curves(), curves.version)
        fake = 1
        if diags is not None:
            w_vec, p_vec = policy_from_mixtures(prob, mixtures.all()).action_curves(market)
            stats = cycle_stats_wp(w_vec, p_vec, reward, m)
            r_avg = 0.0 if stats.degenerate else stats.reward_avg
            c_avg = 0.0 if stats.degenerate else stats.pay_avg
            diags.append(
                EpochDiagnostic(
                    epoch,
                    r_avg,
                    c_avg,
                    max(0.0, opt_ref - r_avg),
                    max(0.0, c_avg - rho),
                )
            )

    def choose(_t: int, c: float) -> Optional[float]:
        if epoch == 0:
            return None
        mus, cums = mixtures.draw_table(fake)
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
