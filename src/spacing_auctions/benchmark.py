"""Infinite-horizon constrained-chain benchmark for budgeted spaced bidding.

The chain has states 1..m (rounds since the last conversion, capped at m).
In state l the bidder picks a multiplier action; winning a conversion pays
the reward r(l) and resets the state to 1, otherwise the state advances to
min(m, l+1).  The expected time-average payment must stay below the per-round
budget rho.  Maximizing the time-average reward over per-state mixtures of
candidate multipliers is a linear program in the occupancy measure
q[state, action]:

    max  sum_l r(l) sum_i W_i q[l,i]
    s.t. sum_{l,i} P_i q[l,i] <= rho
         sum_i q[1,i]  = sum_{l,i} W_i q[l,i]          (conversions restart)
         sum_i q[l,i]  = sum_i (1-W_i) q[l-1,i]        (l = 2..m-1)
         sum_i q[m,i]  = sum_{l=m-1,m} sum_i (1-W_i) q[l,i]
         sum q = 1,  q >= 0

The flow rows sum to zero, so one of them is redundant; the internal solver
works on the reduced full-rank system (state-m row dropped) while
``build_occupancy_lp`` exposes the complete set.

Two solution paths exist on purpose:

* ``build_occupancy_lp`` + ``simplex.solve_lp``: the generic dense route,
  kept as a cross-check in the test suite.
* ``solve_occupancy_problem``: a revised primal simplex that prices
  columns from the (state, action) structure without ever materializing the
  constraint matrix.  Its ratio test reads round-off negative basic values
  as zero, and ties leave by the largest pivot entry (the smallest basis id
  once it falls back to Bland's rule; Harris's two-pass test when a tiny
  pivot survives a refactorization).  Same algorithm, orders of magnitude
  faster on the wide LPs the online learner solves per epoch; the solution
  carries its basis and basic values x_B.  It starts from the first
  primal-feasible basis among the caller's `starts` (the learner passes
  its recently optimal bases, most recent first).  When none is feasible, a
  dual-simplex phase pivots the first start, if nonsingular, back to
  primal feasibility.  It prices only each basic column's nearest
  multipliers with another (W, P) in the same state, plus the slack: a
  dual step nearly always moves one state's threshold by one candidate, so
  a pivot takes a few products with an R x (2R + 1) matrix instead of
  passes over every column.  Failing that, the solve starts from the crash
  vertices.  When none of them is feasible, phase 1 maximizes the budget
  slack from the last of them, the all-skip chain, whose other basic
  values are never negative, on a zero-reward twin of the program; it
  needs no artificial column, and it proves the program infeasible when
  the slack stays negative.  Every start, a ``basis_layout`` or ids, is
  checked by its chain split, and a solve pivots one state (``_Pivots``),
  built from that check's x_B and factors, through all its loops.  The
  primal loop's entering column is the first maximum over every nonbasic
  column, found by pricing each state at its threshold
  (``_threshold_pricing``): on a market's curves a state's reduced costs
  peak at the first multiplier with mu >= y_budget / a_l, the bid rule
  min(1, c / mu) applied to the duals.  So each solution is certified
  optimal on the full program.  Bland's rule, the first nonbasic id above
  the tolerance, prices every action of the one state that holds it.  The
  state keeps the explicit inverse of its basis, formed from a chain
  split's factors (``ChainSplit.inverse``), and x_B, solved by the split,
  at the start and at each refactorization; the solution's x_B comes from
  the split of the final basis, whose layout it hands back.  Start checks,
  refactorizations and that final split share one singularity rule
  (``ChainSplit.checked``).
  ``verify_basis`` re-checks a stored basis against fresh coefficients,
  letting the learner keep its policy when it is still optimal; only when
  no stored basis certifies does the learner solve again, warm-started from
  those bases.  A check refills the basis from its ``basis_layout``
  (Fortran-order flat positions with values affine in W or P) and builds
  the basis costs from the columns the layout decoded.  Every basis is
  solved by elimination along the chain (``ChainSplit``): unit pivots on
  the flow rows of the states 2..m-1 that hold a column, banded triangular
  solves and an LU of a Schur complement over the other rows, 3x3 when
  each of those states holds a column (nearly every basis the learner
  checks).  Its dual check prices each state at its threshold as well.
  ``OccupancyProblem`` is the one home of the column encoding (``encode``,
  ``decode``) and of a column's objective coefficient r(l) W_i.

One rule turns occupancy mass into per-state mixtures.  Its
mass-independent part, each state's columns in ascending multiplier order,
is a ``MixtureTemplate``; ``StateMixtures`` binds masses to it and
normalizes a state's mixture (and its cumulative weights, for draws) on
first use.  ``state_mixtures`` evaluates it for every state, for
``solve_benchmark``; the learner keeps one template per cached basis.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.blas import dger as _ger
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs, dtbtrs as _tbtrs

from .market import (
    MarketDistribution,
    SKIP,
    candidate_multipliers,
    win_pay_curve,
    win_pay_mu,
)
from .rewards import RewardFn, eval_r, eval_r_capped
from .simplex import LinearProgram

_MASS_TOL = 1e-12
_ZERO = np.zeros(1)
Mixture = tuple[list[float], list[float]]  # (multipliers, weights) of one state
_MAX_PIVOTS = 100_000
_TOL = 1e-9  # the solver's primal feasibility and reduced-cost tolerance


class InfeasibleOccupancyError(ValueError):
    """The occupancy LP has no feasible point.

    Only possible when bid1_at_m forces a minimum trickle of spending that
    already exceeds rho; with the chain long enough (the intended regime)
    the all-skip-then-bid-1 point is feasible and this never triggers.
    """


# ---------------------------------------------------------------------------
# problem container


@dataclass(frozen=True)
class OccupancyProblem:
    """Reduced occupancy LP; columns are (state, action) pairs plus a slack.

    Rows (m >= 2): state-1 inflow, chain rows for states 2..m-1, total mass,
    budget.  For m = 1 only mass and budget remain.  ``own_row[l]`` is the
    flow row owned by state l and ``next_row[l]`` the row fed by its no-win
    transition (-1 when the row was dropped as redundant).  ``b`` is the
    right-hand side (zero flow rows, unit mass, budget rho), read-only.

    The problem owns the column encoding: column (l, i) has id
    (l - 1) * n_actions + i, except that under forced bid-1 state m has the
    single column (m - 1) * n_actions, for bid 1.  The slack comes last.
    Everything after ``bid1_at_m`` is derived from the fields before it.
    """

    m: int
    rho: float
    mus: np.ndarray     # ascending, inf last
    w: np.ndarray
    p: np.ndarray
    r: np.ndarray       # r(1..m)
    bid1_at_m: bool
    bid1_idx: int = field(init=False)  # the first mu = 0
    skip_idx: int = field(init=False)  # the first mu = inf
    own_row: np.ndarray = field(init=False, repr=False)
    next_row: np.ndarray = field(init=False, repr=False)
    n_actions: int = field(init=False, repr=False)
    n_rows: int = field(init=False, repr=False)
    n_cols: int = field(init=False, repr=False)
    slack_id: int = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        zero = np.nonzero(self.mus == 0.0)[0]
        skip = np.nonzero(np.isinf(self.mus))[0]
        if zero.size == 0 or skip.size == 0:
            raise ValueError("action set must include mu = 0 and mu = inf")
        object.__setattr__(self, "bid1_idx", int(zero[0]))
        object.__setattr__(self, "skip_idx", int(skip[0]))
        m = self.m
        own = np.full(m + 1, -1, dtype=int)
        nxt = np.full(m + 1, -1, dtype=int)
        if m >= 2:
            own[1:m] = np.arange(m - 1)  # state 1 owns row 0, state l row l - 1
            nxt[1 : m - 1] = np.arange(1, m - 1)
        n_rows = m + 1 if m >= 2 else 2
        # per-state dual gather indices: row id, or n_rows for "dropped
        # row" (y gets padded with a trailing zero)
        own_sel = np.where(own[1:] >= 0, own[1:], n_rows)
        next_sel = np.where(nxt[1:] >= 0, nxt[1:], n_rows)
        object.__setattr__(self, "own_row", own)
        object.__setattr__(self, "next_row", nxt)
        n = self.mus.shape[0]
        n_cols = (m - 1) * n + (1 if self.bid1_at_m else n)
        object.__setattr__(self, "n_actions", n)
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "slack_id", n_cols)
        object.__setattr__(self, "_own_sel", own_sel)
        object.__setattr__(self, "_next_sel", next_sel)
        # column (l, i) has id state_base[l - 1] + i, as ``encode`` says
        base = np.arange(m) * n
        if self.bid1_at_m:
            base[-1] -= self.bid1_idx
        object.__setattr__(self, "state_base", base)
        # it depends on the actions alone, so ``with_curves`` twins share it
        object.__setattr__(self, "threshold_table", _threshold_table(self))
        rhs = np.zeros(n_rows)
        rhs[-2] = 1.0
        rhs[-1] = self.rho
        rhs.flags.writeable = False
        object.__setattr__(self, "b", rhs)

    def encode(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Vectorized (state, action index) -> column id; inverse of ``decode``."""
        states = np.asarray(states, dtype=int)
        actions = np.asarray(actions, dtype=int)
        if self.bid1_at_m:
            last = states == self.m
            if np.any(actions[last] != self.bid1_idx):
                raise ValueError("under forced bid-1, state m has only the bid-1 column")
            actions = np.where(last, 0, actions)
        return (states - 1) * self.n_actions + actions

    def decode(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized column id -> (state, action index); slack not allowed."""
        states, actions = np.divmod(np.asarray(cols, dtype=int), self.n_actions)
        states += 1
        if self.bid1_at_m:
            actions[states == self.m] = self.bid1_idx
        return states, actions

    def decode_one(self, col: int) -> tuple[int, int]:
        """Scalar ``decode``, for the pivot loop."""
        state, action = divmod(col, self.n_actions)
        if self.bid1_at_m and state == self.m - 1:
            action = self.bid1_idx
        return state + 1, action

    def objective(self, states, actions):
        """Objective coefficients r(l) W_i of columns (l, i): arrays or scalars."""
        return self.r[states - 1] * self.w[actions]

    def with_curves(self, w: np.ndarray, p: np.ndarray) -> "OccupancyProblem":
        """The same program on new win and pay curves over the same
        multipliers; everything derived from m, rho, r and the multipliers
        is shared, not rebuilt."""
        w = np.asarray(w, dtype=float)
        p = np.asarray(p, dtype=float)
        if w.shape != self.mus.shape or p.shape != self.mus.shape:
            raise ValueError("curves must hold one entry per multiplier")
        twin = object.__new__(OccupancyProblem)
        twin.__dict__.update(self.__dict__, w=w, p=p)
        twin.__dict__.pop("market_curves", None)
        return twin

    @cached_property
    def market_curves(self) -> bool:
        """``_market_curves`` of the program, built on first use."""
        return _market_curves(self)


def reward_vector(reward: RewardFn, m: int) -> np.ndarray:
    """The capped rewards r_m(1..m)."""
    return np.array([eval_r_capped(reward, l, m) for l in range(1, m + 1)])


def occupancy_problem(
    action_curves: tuple[np.ndarray, np.ndarray, np.ndarray],
    reward: RewardFn,
    m: int,
    rho: float,
    bid1_at_m: bool,
    r_vec: Optional[np.ndarray] = None,
) -> OccupancyProblem:
    """Assemble the reduced problem from (mus, W, P) action curves."""
    mus, w, p = action_curves
    if m < 1:
        raise ValueError(f"state count m must be >= 1, got {m}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"budget per round rho must lie in [0, 1], got {rho}")
    return OccupancyProblem(
        m=m,
        rho=float(rho),
        mus=np.asarray(mus, dtype=float),
        w=np.asarray(w, dtype=float),
        p=np.asarray(p, dtype=float),
        r=reward_vector(reward, m) if r_vec is None else r_vec,
        bid1_at_m=bid1_at_m,
    )


# ---------------------------------------------------------------------------
# structured revised simplex


@dataclass(frozen=True)
class BasisLayout:
    """Nonzero entries of a basis matrix with n_rows rows.  Entry j sits at
    the Fortran-order flat position flat[j] (row + column * n_rows) and
    equals const[j] + coef[j] * v[src[j]], where v holds the W of the K
    structural columns, their P, then a 0 that constant entries read.

    It keeps the decoded structural columns: `struct` masks them among the
    ids, and column k of them is (states[k], actions[k]).  All but the ids
    and actions depend only on the states, so one layout refills the matrix
    for any W and P, and ``rekey`` moves it onto another candidate set along
    with its ``ChainSplit`` (``chain``, for a square layout), which is
    derived on first use."""

    n_rows: int
    ids: np.ndarray
    flat: np.ndarray
    src: np.ndarray
    const: np.ndarray
    coef: np.ndarray
    struct: np.ndarray
    states: np.ndarray
    actions: np.ndarray

    def values(self, prob: OccupancyProblem) -> np.ndarray:
        """The entries for `prob`'s coefficients, in layout order."""
        v = np.concatenate((prob.w[self.actions], prob.p[self.actions], _ZERO))
        return self.const + self.coef * v[self.src]

    def fill(self, prob: OccupancyProblem, out: np.ndarray) -> np.ndarray:
        """Write the entries into the zeroed Fortran-ordered matrix `out`
        (the layout LAPACK factors in place) and return it."""
        if not out.flags.f_contiguous:
            raise ValueError("basis layouts fill Fortran-ordered matrices")
        out.reshape(-1, order="F")[self.flat] = self.values(prob)
        return out

    def rekey(self, prob: OccupancyProblem, actions: np.ndarray) -> "BasisLayout":
        """The same columns on `prob`, where structural column k plays action
        actions[k]; everything but the ids and actions is shared."""
        ids = np.full(self.ids.shape[0], prob.slack_id)
        ids[self.struct] = prob.encode(self.states, actions)
        twin = object.__new__(BasisLayout)
        twin.__dict__.update(self.__dict__, ids=ids, actions=actions)
        return twin

    @cached_property
    def chain(self) -> "ChainSplit":
        """The layout's ``ChainSplit``."""
        return ChainSplit.of(self)


def basis_layout(prob: OccupancyProblem, basis: Sequence[int]) -> BasisLayout:
    """Layout of the reduced system's columns for the given ids, slack included.

    A structural column (state l, action i) holds -W_i in the state-1 row
    (1 - W_i for l = 1), 1 in its own row, -(1 - W_i) in the row its no-win
    transition feeds, 1 in the mass row and P_i in the budget row.
    """
    R = prob.n_rows
    ids = np.asarray(basis, dtype=int)
    ks = np.arange(ids.shape[0])
    struct = ids != prob.slack_id
    s_ks = ks[struct]
    states, actions = prob.decode(ids[struct])
    K = s_ks.shape[0]
    w_src = np.arange(K)  # v[k] is W of structural column k, v[K + k] its P
    zero_src = np.full(K, 2 * K)  # the trailing 0 that constant entries read
    ones = np.ones(K)
    zeros = np.zeros(K)
    # (rows, cols, src, const, coef) per block of entries
    blocks = [
        (np.full(K, R - 2), s_ks, zero_src, ones, zeros),
        (np.full(K, R - 1), s_ks, w_src + K, zeros, ones),
    ]
    if prob.m >= 2:
        blocks.append((np.zeros(K, dtype=int), s_ks, w_src, (states == 1).astype(float), -ones))
        own = prob.own_row[states]
        ok = own >= 1
        blocks.append((own[ok], s_ks[ok], zero_src[ok], ones[ok], zeros[ok]))
        nxt = prob.next_row[states]
        ok = nxt >= 0
        blocks.append((nxt[ok], s_ks[ok], w_src[ok], -ones[ok], ones[ok]))
    slacks = ks[~struct]
    n_s = slacks.shape[0]
    blocks.append((np.full(n_s, R - 1), slacks, np.full(n_s, 2 * K), np.ones(n_s), np.zeros(n_s)))
    rows, cols, src, const, coef = (np.concatenate(part) for part in zip(*blocks))
    return BasisLayout(R, ids, rows + cols * R, src, const, coef, struct, states, actions)


def _column(prob: OccupancyProblem, col: int) -> np.ndarray:
    """Single constraint column (scalar fast path for the pivot loop)."""
    a = np.zeros(prob.n_rows)
    if col == prob.slack_id:
        a[-1] = 1.0
        return a
    _write_column(prob, a, *prob.decode_one(col))
    return a


def _write_column(prob: OccupancyProblem, a: np.ndarray, state: int, action: int) -> None:
    """Write structural column (state, action) into the zeroed vector `a`."""
    wi = prob.w[action]
    if prob.m >= 2:
        a[0] -= wi
        own = prob.own_row[state]
        if own >= 0:
            a[own] += 1.0
        nxt = prob.next_row[state]
        if nxt >= 0:
            a[nxt] -= 1.0 - wi
    a[-2] += 1.0
    a[-1] += prob.p[action]


def _state_duals(prob: OccupancyProblem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(ya, yb, y0): per-state dual of the own row, of the fed row, and the
    state-1 row's dual (0 when m = 1)."""
    if prob.m == 1:
        return np.zeros(1), np.zeros(1), 0.0
    y_pad = np.concatenate((y, _ZERO))
    return y_pad[prob._own_sel], y_pad[prob._next_sel], float(y[0])


def _pricing_terms(prob: OccupancyProblem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(a, beta, gamma) of the duals y: column (l, i) has the reduced cost
    a[l-1] W_i + beta[l-1] - gamma P_i, and the slack -gamma."""
    ya, yb, y0 = _state_duals(prob, y)
    y_mass = float(y[-2])
    return prob.r + y0 - yb, yb - ya - y_mass, float(y[-1])


def _threshold_table(prob: OccupancyProblem) -> np.ndarray:
    """Row i: the actions ``_threshold_pricing`` prices in a state whose
    threshold is action i, namely bid 1 (action 0), i - 1, i and i + 1
    (clipped) and skip (action n - 1); row n: state m's forced bid-1."""
    n = prob.n_actions
    table = np.empty((n + 1, 5), dtype=int)
    table[:n] = np.clip(np.arange(n)[:, None] + (-n, -1, 0, 1, n), 0, n - 1)
    table[n] = prob.bid1_idx
    return table


def _market_curves(prob: OccupancyProblem) -> bool:
    """Whether W and P are a market's curves on the multipliers, within
    1e-12: P does not rise, W_{i+1} - W_i = mu_i (P_{i+1} - P_i) between
    finite multipliers, and W_skip - W_i <= mu_i (P_skip - P_i) for the
    last finite one (below it when zero-price atoms convert).  Then W does
    not rise either, and ``_threshold_pricing`` finds every state's best
    column among its threshold candidates."""
    dw = prob.w[1:] - prob.w[:-1]
    dp = prob.p[1:] - prob.p[:-1]
    gap = dw - prob.mus[:-1] * dp
    return bool(dp.max() <= 1e-12 and gap[-1] <= 1e-12 and abs(gap[:-1]).max(initial=0.0) <= 1e-12)


def _threshold_pricing(prob: OccupancyProblem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(actions, d): the actions each state prices, a row per state, and
    their reduced costs a W_i + beta - gamma P_i (``_pricing_terms``), the
    slack's last.  They hold every state's best column.

    On a market's curves (``_market_curves``) consecutive multipliers
    mu_i < mu_{i+1} differ by the atoms of ratio mu_i, so W_{i+1} - W_i =
    mu_i (P_{i+1} - P_i), and state l's reduced cost a W_i + beta - gamma P_i
    rises with i while mu_i < gamma / a and falls after.  With a > 0 and
    gamma >= 0 the best column is therefore the first multiplier with
    mu >= gamma / a (the bid rule min(1, c / mu) applied to the duals),
    otherwise bid 1 or skip.  Each state prices that threshold, its two
    neighbours, for round-off in gamma / a, and both endpoints
    (``_threshold_table``).  On other curves every state prices every
    action."""
    m, n = prob.m, prob.n_actions
    a, beta, gamma = _pricing_terms(prob, y)
    if not prob.market_curves:
        actions = np.tile(np.arange(n), (m, 1))
        if prob.bid1_at_m:
            actions[-1] = prob.bid1_idx
    else:
        if 0.0 <= gamma < math.inf:
            # with a at or below the floor (a <= 0 included) the threshold
            # is action 0 or lies past every finite multiplier, rows that
            # hold both endpoints; the floor keeps gamma / a finite
            at = prob.mus.searchsorted(gamma / np.maximum(a, max(gamma, 1.0) * 2.0**-1000))
        else:  # every state's best column is an endpoint
            at = np.zeros(m, dtype=int)
        if prob.bid1_at_m:
            at[-1] = n
        actions = prob.threshold_table.take(at, axis=0)
    d = np.empty(actions.size + 1)
    D = d[:-1].reshape(actions.shape)
    np.multiply(a[:, None], prob.w.take(actions), out=D)
    D += beta[:, None]
    D -= gamma * prob.p.take(actions)
    d[-1] = -gamma
    return actions, d


def _objective_coeffs(prob: OccupancyProblem, basis: Sequence[int]) -> np.ndarray:
    """Objective coefficients of the basis ids (0 for the slack)."""
    ids = np.asarray(basis, dtype=int)
    out = np.zeros(ids.shape[0])
    struct = ids < prob.slack_id
    if np.any(struct):
        out[struct] = prob.objective(*prob.decode(ids[struct]))
    return out


def _objective_coeff_one(prob: OccupancyProblem, col: int) -> float:
    if col >= prob.slack_id:
        return 0.0
    return float(prob.objective(*prob.decode_one(col)))


@dataclass(frozen=True)
class OccupancySolution:
    objective: float
    budget_used: float
    basis: tuple[int, ...]
    x_b: np.ndarray = field(repr=False, compare=False)  # basic values, clipped at 0
    layout: BasisLayout = field(repr=False, compare=False)  # the basis's, split derived
    # (states, actions, masses) of the structural basic columns with mass
    kept: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)
    start: int = -1  # index of the caller's start the simplex began from; -1: none


def _solution_from_basis(
    prob: OccupancyProblem, layout: BasisLayout, x_b: np.ndarray, start: int = -1
) -> OccupancySolution:
    ids = layout.ids
    keep = (ids != prob.slack_id) & (x_b > 0.0)
    states, actions = prob.decode(ids[keep])
    vals = x_b[keep]
    obj = float(np.sum(prob.objective(states, actions) * vals))
    pay = float(np.sum(prob.p[actions] * vals))
    return OccupancySolution(
        obj, pay, tuple(ids.tolist()), x_b, layout, (states, actions, vals), start)


@dataclass(frozen=True)
class ChainSplit:
    """Block elimination of a square basis along the chain.

    Each state 2..m-1 that holds a column of the basis pivots its first
    column, in basis order, on the state's own flow row, where that column
    holds exactly 1.  The other columns (state-1 and state-m columns, further
    columns of a state, the slack) form the border, and so do the other
    rows: the state-1 inflow row, the own rows of the k states 2..m-1 with
    no column, then the mass and budget rows, in row order.  With the n
    pivot rows and columns first, the basis matrix is

        B = [[A,  G ],
             [Dp, Dz]]

    where A is unit lower bidiagonal: below a pivot sits the -(1 - W) its
    state feeds into the next state's row, 0 where the next state holds no
    column (a gap breaks the chain) or is state m.  The Schur complement
    S = Dz - Dp A^-1 G is (3 + k) x (3 + k); for m = 1 and 2 there are no
    flow rows to pivot on, and S is the whole basis.  B x = b and B^T y = c
    take two banded triangular solves with A (LAPACK tbtrs) and an LU of S
    (getrf).  This is an LU of B in the pivot order the chain fixes: U's
    diagonal is 1 on the pivots and S's U diagonal on the border, so B is
    singular exactly when S is and the |U diagonal| >= 1e-13 rule keeps its
    meaning.  Growth is bounded: the entries of A^-1 are products of (1 - W)
    in [0, 1] (0 across a gap), and a column of G holds at most two nonzero
    entries, its own-row 1 and the -(1 - W) it feeds, so |A^-1 G| <= 2.  An
    uncovered state's own row holds at most one entry of Dp, the -(1 - W) of
    the previous state's pivot, so its row of Dp A^-1 G is at most 2 as well.

    `flat` maps the layout's entries into one buffer that holds, each in
    Fortran order, A in band storage (2 x n: diagonal, then subdiagonal), G
    (n x nb), Dp (nb x n) and Dz (nb x nb), where nb = 3 + k (2 for m = 1).
    Basis position j is column new_col[j] of the pivot-then-border order,
    row i is row new_row[i] of it, and `border` holds the border rows.
    """

    n: int
    flat: np.ndarray
    new_col: np.ndarray
    new_row: np.ndarray
    border: np.ndarray

    @staticmethod
    def of(layout: BasisLayout) -> "ChainSplit":
        """The split of a square `layout`."""
        R = layout.n_rows
        if layout.ids.shape[0] != R:
            raise ValueError("only a square basis splits along the chain")
        states, first = np.unique(layout.states, return_index=True)
        # state l in 2..m-1 owns row l - 1, as m = R - 1; m <= 2 has none
        lo, hi = np.searchsorted(states, (2, max(R - 1, 2)))
        n = hi - lo
        pivots = np.flatnonzero(layout.struct)[first[lo:hi]]
        border_col = np.ones(R, dtype=bool)
        border_col[pivots] = False
        new_col = np.empty(R, dtype=int)
        new_col[pivots] = np.arange(n)
        new_col[border_col] = np.arange(n, R)
        border_row = np.ones(R, dtype=bool)
        border_row[states[lo:hi] - 1] = False
        new_row = np.empty(R, dtype=int)
        new_row[~border_row] = np.arange(n)
        new_row[border_row] = np.arange(n, R)
        nb = R - n
        cols, rows = np.divmod(layout.flat, R)
        cols, rows = new_col[cols], new_row[rows]  # in the pivot-then-border order
        pivot = cols < n
        flat = np.where(
            rows < n,
            np.where(pivot, rows + cols, 2 * n + rows + n * (cols - n)),
            np.where(
                pivot,
                2 * n + n * nb + rows - n + nb * cols,
                2 * n + 2 * n * nb + rows - n + nb * (cols - n),
            ),
        )
        return ChainSplit(n, flat, new_col, new_row, np.flatnonzero(border_row))

    def factor(self, prob: OccupancyProblem, layout: BasisLayout) -> tuple:
        """(A in band storage, Dp, A^-1 G, getrf's LU of S, its pivots) of
        the basis `layout` fills for `prob`."""
        n = self.n
        nb = self.new_col.shape[0] - n
        buf = np.zeros(2 * n + 2 * n * nb + nb * nb)
        buf[self.flat] = layout.values(prob)
        ab = buf[: 2 * n].reshape(2, n, order="F")
        g = buf[2 * n : 2 * n + n * nb].reshape(n, nb, order="F")
        dp = buf[2 * n + n * nb : 2 * n + 2 * n * nb].reshape(nb, n, order="F")
        g_solved, _ = _tbtrs(ab, g, uplo="L", diag="U")
        lu, piv, _ = _getrf(
            buf[2 * n + 2 * n * nb :].reshape(nb, nb, order="F") - dp @ g_solved,
            overwrite_a=True,
        )
        return ab, dp, g_solved, lu, piv

    def x_b(self, factors: tuple, b: np.ndarray) -> np.ndarray:
        """B^-1 b in basis order, for a right-hand side `b` that is zero on
        the flow rows, as every program's is."""
        _, _, g_solved, lu, piv = factors
        x_z, _ = _getrs(lu, piv, b[self.border])
        return np.concatenate((-(g_solved @ x_z), x_z))[self.new_col]

    def inverse(self, factors: tuple) -> np.ndarray:
        """B^-1 in basis order (C-ordered) from ``factor``'s factors: A^-1 by
        tbtrs and S^-1 by getrs on the identity, X = S^-1 (Dp A^-1), then
        the blocks [[A^-1 + (A^-1 G) X, -(A^-1 G) S^-1], [-X, S^-1]]."""
        ab, dp, g_solved, lu, piv = factors
        s_inv, _ = _getrs(lu, piv, np.eye(lu.shape[0]))
        a_inv, _ = _tbtrs(ab, np.eye(self.n), uplo="L", diag="U")
        x = s_inv @ (dp @ a_inv)
        inv = np.block([[a_inv + g_solved @ x, -(g_solved @ s_inv)], [-x, s_inv]])
        return inv[np.ix_(self.new_col, self.new_row)]

    def checked(self, prob: OccupancyProblem, layout: BasisLayout) -> tuple[np.ndarray, tuple]:
        """(x_B, ``factor``'s factors) of B x_B = b; raises LinAlgError, with
        the cause, when B is singular (some |U diagonal| < 1e-13) or x_B is
        not finite.  Every split of a basis is held to this rule."""
        factors = self.factor(prob, layout)
        pivot = abs(factors[3].diagonal()).min()
        if pivot < 1e-13:
            raise np.linalg.LinAlgError(f"singular basis: Schur complement pivot {pivot:.3g}")
        x_b = self.x_b(factors, prob.b)
        if not np.isfinite(x_b).all():
            raise np.linalg.LinAlgError("basis solve gave a non-finite x_B")
        return x_b, factors

    def primal(
        self, prob: OccupancyProblem, layout: BasisLayout, primal_tol: float
    ) -> Optional[tuple[np.ndarray, tuple]]:
        """``checked``'s (x_B, factors); None when it raises or an entry of
        x_B lies below -primal_tol."""
        try:
            x_b, factors = self.checked(prob, layout)
        except np.linalg.LinAlgError:
            return None
        return None if x_b.min() < -primal_tol else (x_b, factors)

    def solve(
        self, prob: OccupancyProblem, layout: BasisLayout, primal_tol: float
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(x_B, y) of the square basis `layout`: B x_B = b and B^T y = c_B,
        the basis costs built from the layout's decoded columns and `prob`'s
        rewards and W.  None when ``primal`` is."""
        primal = self.primal(prob, layout, primal_tol)
        if primal is None:
            return None
        x_b, (ab, dp, g_solved, lu, piv) = primal
        n = self.n
        c = np.zeros(self.new_col.shape[0])
        c[self.new_col[layout.struct]] = prob.objective(layout.states, layout.actions)
        y_d, _ = _getrs(lu, piv, c[n:] - g_solved.T @ c[:n], trans=1)
        y_c, _ = _tbtrs(ab, c[:n] - dp.T @ y_d, uplo="L", trans="T", diag="U")
        return x_b, np.concatenate((y_c.ravel(), y_d))[self.new_row]


def verify_basis_values(
    prob: OccupancyProblem,
    layout: BasisLayout,
    primal_tol: float = 1e-9,
    dual_tol: float = 1e-9,
) -> Optional[np.ndarray]:
    """x_B of the basis `layout.ids` if it is primal feasible and within
    dual_tol of optimal for `prob`; None otherwise.  The primal and dual
    systems are solved by elimination along the chain (``ChainSplit.solve``).
    Each state's best column is priced (``_threshold_pricing``); basic
    columns price at round-off of zero, so they need no mask."""
    values = layout.chain.solve(prob, layout, primal_tol)
    if values is None:
        return None
    x_b, y = values
    if _threshold_pricing(prob, y)[1].max() > dual_tol:
        return None
    return np.maximum(x_b, 0.0)


def verify_basis(
    prob: OccupancyProblem,
    basis: Sequence[int],
    primal_tol: float = 1e-9,
    dual_tol: float = 1e-9,
) -> Optional[OccupancySolution]:
    """The basic solution of `basis` if it is primal feasible and within
    dual_tol of optimal for `prob`; None otherwise."""
    if not _valid_ids(prob, basis):
        return None
    layout = basis_layout(prob, basis)
    x_b = verify_basis_values(prob, layout, primal_tol, dual_tol)
    if x_b is None:
        return None
    return _solution_from_basis(prob, layout, x_b)


def _valid_ids(prob: OccupancyProblem, basis: Sequence[int]) -> bool:
    """Whether `basis` holds one column id in [0, slack_id] per row."""
    ids = np.asarray(basis, dtype=int)
    return ids.shape == (prob.n_rows,) and ids.min() >= 0 and ids.max() <= prob.slack_id


def _chain_basis(prob: OccupancyProblem, action: int) -> list[int]:
    """Play one action in states 1..m-1 and bid 1 in state m."""
    actions = np.full(prob.m, action)
    actions[-1] = prob.bid1_idx
    return prob.encode(np.arange(1, prob.m + 1), actions).tolist() + [prob.slack_id]


def _crash_bases(prob: OccupancyProblem) -> list[list[int]]:
    """Starting vertices to try, best first.

    The constant chain of the most valuable budget-feasible action starts
    near typical optima.  The all-skip chain comes last: it is nonsingular
    on every market, but it can overspend the budget on a feasible program,
    and then ``_phase1`` starts from it.
    """
    bases: list[list[int]] = []
    m, w, p = prob.m, prob.w, prob.p
    feas = np.nonzero((p <= prob.rho) & (w > 1e-12) & (w < 1.0 - 1e-9))[0]
    if feas.size and m >= 2:
        inc = np.diff(np.concatenate([[0.0], prob.r]))
        # E[r_m(X)] for X geometric(w): increments discounted by reach
        reach = np.ones((feas.size, m))
        np.cumprod(np.tile((1.0 - w[feas])[:, None], (1, m - 1)), axis=1, out=reach[:, 1:])
        values = w[feas] * (reach @ inc)
        bases.append(_chain_basis(prob, int(feas[np.argmax(values)])))
    bases.append(_chain_basis(prob, prob.skip_idx))
    return bases


def _ratio_test(
    x_b: np.ndarray, direction: np.ndarray, basis_arr: np.ndarray, bland: bool, slack: float = 0.0
) -> int:
    """Leaving position of the minimum-ratio test (-1: no positive entry).

    Ties leave by the largest pivot entry: in a degenerate step a tiny tied
    entry can be round-off of a zero, and pivoting on it leaves the basis
    singular.  Bland's rule takes the smallest basis id, keeping termination.
    Round-off negative basic values count as zero, so one over a tiny entry
    cannot undercut the ties at zero.  With `slack` > 0 (Harris's two-pass
    test, for the retry after a tiny pivot) every row whose ratio is within
    the step that drives some basic value `slack` below zero ties.
    """
    rows = np.nonzero(direction > 1e-9)[0]
    if rows.size == 0:
        return -1
    x_rows = np.maximum(x_b[rows], 0.0)
    ratios = x_rows / direction[rows]
    tie = rows[ratios <= ((x_rows + slack) / direction[rows]).min() + 1e-15]
    if bland:
        return int(tie[np.argmin(basis_arr[tie])])
    return int(tie[np.argmax(direction[tie])])


def _entering_column(
    prob: OccupancyProblem, y: np.ndarray, basic: np.ndarray, bland: bool, tol: float
) -> int:
    """The nonbasic column (`basic` flags ids 0..slack_id) that enters at
    duals y; -1 when none prices above tol.

    Dantzig's rule takes the first maximum in id order.  Within a state the
    reduced costs rise to the state's peak and fall after it, and a basic
    column prices at round-off of zero, so a column above tol lies in a
    state whose peak is nonbasic: the maximum over the columns
    ``_threshold_pricing`` prices is the maximum over every column, and it
    is taken at the first nonbasic column of its run of (W, P) twins, which
    price alike.  Bland's rule takes the first id above tol.  By the same
    argument it lies in the first state whose priced nonbasic maximum is
    above tol, so only that state prices every action; the slack, the
    last id, enters when no state has such a column."""
    actions, d = _threshold_pricing(prob, y)
    ids = np.empty(d.shape[0], dtype=int)
    np.add(actions, prob.state_base[:, None], out=ids[:-1].reshape(actions.shape))
    ids[-1] = prob.slack_id
    d[basic[ids]] = -np.inf
    if bland:
        states = np.flatnonzero(d[:-1].reshape(actions.shape).max(axis=1) > tol)
        if states.size == 0:
            return prob.slack_id if d[-1] > tol else -1
        l = int(states[0])
        # state m's forced bid-1 is its only column
        cols = actions[l, :1] if prob.bid1_at_m and l == prob.m - 1 else np.arange(prob.n_actions)
        a, beta, gamma = _pricing_terms(prob, y)
        ids = prob.state_base[l] + cols
        above = (a[l] * prob.w[cols] + beta[l] - gamma * prob.p[cols] > tol) & ~basic[ids]
        return int(ids[above][0])
    k = int(np.argmax(d))
    if d[k] <= tol:
        return -1
    j = int(ids[k])
    if j < prob.slack_id - prob.bid1_at_m:  # not the slack or state m's forced bid-1
        w, p = prob.w, prob.p
        i = j % prob.n_actions
        while i > 0 and w[i - 1] == w[i] and p[i - 1] == p[i]:
            i -= 1
            j -= 1
        while basic[j]:
            j += 1
    return j


class _Pivots:
    """The one pivot state of a solve, built from the layout, x_B and
    factors of the check that accepted its start: the basis ids, their
    matrix B (C-ordered, filled once, for the drift check), the explicit
    inverse B^-1 (``ChainSplit.inverse``), x_B, the costs c_B, the mask of
    basic columns among ids 0..slack_id and the count of product-form
    updates since B^-1 was formed."""

    def __init__(self, prob: OccupancyProblem, layout: BasisLayout, x_b: np.ndarray, factors):
        self.prob = prob
        self.ids = layout.ids.copy()
        self.B = np.ascontiguousarray(layout.fill(prob, np.zeros((prob.n_rows,) * 2, order="F")))
        self.inv = layout.chain.inverse(factors)
        self.x_b = x_b
        self.updates = 0
        self.cb = _objective_coeffs(prob, self.ids)
        self.basic = np.zeros(prob.n_cols + 1, dtype=bool)
        self.basic[self.ids] = True

    def refactor(self, clip: bool = False) -> None:
        """Form B^-1 and x_B again from the split of the current basis
        (``_split``), x_B clipped at zero if `clip`."""
        layout, x_b, factors = _split(self.prob, self.ids)
        self.inv = layout.chain.inverse(factors)
        self.x_b = np.maximum(x_b, 0.0) if clip else x_b
        self.updates = 0

    def pivot(self, leave: int, j: int, a_j, direction, theta, cost) -> None:
        """Column j, with constraint column a_j and B^-1 image `direction`,
        replaces basis position `leave` at step theta, with basis cost
        `cost`; B^-1 takes a product-form update (``_update_inverse``)."""
        self.x_b -= theta * direction
        self.x_b[leave] = theta
        self.basic[self.ids[leave]] = False
        self.basic[j] = True
        self.ids[leave] = j
        self.cb[leave] = cost
        self.B[:, leave] = a_j
        _update_inverse(self.inv, direction, leave)
        self.updates += 1


def _split(prob: OccupancyProblem, ids: np.ndarray) -> tuple[BasisLayout, np.ndarray, tuple]:
    """(layout, x_B, ``ChainSplit.factor``'s factors) of the basis ids;
    raises LinAlgError where ``ChainSplit.checked`` does."""
    layout = basis_layout(prob, ids)
    x_b, factors = layout.chain.checked(prob, layout)
    return layout, x_b, factors


def _simplex_loop(pv: _Pivots, tol: float) -> None:
    """Revised primal simplex pivots of the primal-feasible state `pv`
    until no column prices above tol.  B^-1 takes product-form updates;
    every 64 pivots, and when it drifts, B^-1 and x_B are formed again from
    the split of the current basis (``_Pivots.refactor``), with x_B clipped
    at zero.  Entering columns follow Dantzig's rule (first maximum,
    deterministic; ``_entering_column``) until a long streak of degenerate
    steps, after which the loop switches to Bland's rule for guaranteed
    termination."""
    prob = pv.prob
    R = prob.n_rows
    bland = False
    stall = 0
    for _ in range(_MAX_PIVOTS):
        j = _entering_column(prob, pv.inv.T @ pv.cb, pv.basic, bland, tol)
        if j < 0:
            break
        a_j = _column(prob, j)
        direction = pv.inv @ a_j
        if float(np.max(np.abs(pv.B @ direction - a_j))) > 1e-8:
            # the product-form inverse drifted: refactorize and recompute
            pv.refactor(clip=True)
            direction = pv.inv @ a_j
        leave = _ratio_test(pv.x_b, direction, pv.ids, bland)
        if leave < 0:
            raise RuntimeError("occupancy LP unbounded; the mass row should prevent this")
        piv = float(direction[leave])
        if abs(piv) < 1e-7:
            # numerically unreliable pivot: refresh the factorization and
            # retry from exact data; if the refreshed entry is still tiny,
            # price again with the refreshed inverse
            pv.refactor(clip=True)
            direction = pv.inv @ a_j
            if float(direction[leave]) < 1e-9:
                continue
            leave = _ratio_test(pv.x_b, direction, pv.ids, bland=False, slack=tol)
            if leave < 0:
                raise RuntimeError("occupancy LP unbounded after refresh")
            piv = float(direction[leave])
        theta = max(float(pv.x_b[leave] / piv), 0.0)
        if theta <= 1e-13:
            stall += 1
            if stall >= 2 * R and not bland:
                bland = True
        else:
            stall = 0
        pv.pivot(leave, j, a_j, direction, theta, _objective_coeff_one(prob, j))
        if pv.updates >= 64:
            pv.refactor(clip=True)
    else:
        raise RuntimeError("occupancy simplex pivot limit exceeded")


def _update_inverse(b_inv: np.ndarray, direction: np.ndarray, leave: int) -> None:
    """Product-form update of B^-1 in place: the column whose B^-1 image is
    `direction` replaces basis position `leave`.  The rank-one step is BLAS
    ger on the Fortran-ordered transpose; ger has no reduction, so its bits
    do not depend on the BLAS thread count."""
    piv = direction[leave]
    row = b_inv[leave].copy()
    _ger(-1.0, row, direction / piv, a=b_inv.T, overwrite_a=True)
    b_inv[leave] = row / piv


def _neighbour_offsets(prob: OccupancyProblem) -> np.ndarray:
    """Rows (lo, hi): per action i, the offsets from i to the nearest action
    below and above it whose (W, P) differs from (W_i, P_i); 0 where there
    is none.  Equal (W, P) twins, such as mu = 0 and the smallest ratio on a
    market without c = 0 atoms, are passed over: a run of equal neighbours
    is one candidate."""
    n = prob.n_actions
    new = np.ones(n + 1, dtype=bool)  # whether action i starts a run of twins
    new[1:n] = (prob.w[1:] != prob.w[:-1]) | (prob.p[1:] != prob.p[:-1])
    edges = np.flatnonzero(new)  # run starts, then n
    run = np.cumsum(new[:n]) - 1
    i = np.arange(n)
    return np.array((
        np.where(run > 0, edges[run] - 1 - i, 0),
        np.where(run < edges.shape[0] - 2, edges[run + 1] - i, 0),
    ))


def _dual_phase(pv: _Pivots, tol: float) -> Optional[_Pivots]:
    """Dual simplex pivots of the nonsingular, primal-infeasible pivot state
    `pv` until its basis is primal feasible.

    Meant for a recently optimal basis that the new program's coefficients
    made primal infeasible: its reduced costs are near dual feasible, so a
    few dual pivots restore primal feasibility close to the new optimum, and
    the primal simplex then certifies optimality with the true costs.  Each
    pivot leaves by the most negative basic value x_B[r].

    Only the basis's neighbours are priced.  W and P lie on a concave curve
    in multiplier order, so a dual step moves one state's threshold by one
    candidate: the entering column is nearly always the nearest multiplier
    below or above a basic column of the same state, skipping (W, P) twins
    (``_neighbour_offsets``).  Slot k and R + k of the R x (2R + 1) matrix N
    hold the constraint columns of basis position k's lower and upper
    neighbours, slot 2R the slack; a pivot refills the two slots of the
    position it changed.  Per pivot, y = c_B B^-1, the reduced costs
    d = min(c_N - y N, 0) read positive ones as zero (so a start within
    round-off of dual feasibility does not stall) and the pivot row is
    e_r^T B^-1 N.  The ratio test runs over live, nonbasic slots with a
    row entry below -1e-9 and breaks ties by the largest |entry|.

    B^-1 and x_B are formed again from the split of the current basis when
    they drift.  Once x_B >= -tol, `pv` is handed over if one more
    ``_Pivots.refactor`` raises no LinAlgError and leaves x_B >= -tol, the
    check a primal-feasible start passes.  On None (the start is then of no
    use, and the caller starts from its crash vertices) the basis is
    singular, a row has no negative entry among the neighbours (the program
    is infeasible, or the start too far off) or 4 pivots per row were spent.
    """
    prob = pv.prob
    R = prob.n_rows
    n = prob.n_actions
    table = _neighbour_offsets(prob)
    lo, hi = table.tolist()  # for the per-pivot refill
    # columns from `paired` on (state m's forced bid-1, the slack) have none
    paired = prob.n_cols - 1 if prob.bid1_at_m else prob.n_cols
    offsets = np.where(pv.ids < paired, table[:, pv.ids % n], 0).ravel()
    live = np.append(offsets != 0, True)
    ids = np.append(np.where(live[:-1], np.tile(pv.ids, 2) + offsets, prob.slack_id), prob.slack_id)
    N = basis_layout(prob, ids).fill(prob, np.zeros((R, 2 * R + 1), order="F"))
    c_n = _objective_coeffs(prob, ids)
    for _ in range(4 * R):
        leave = int(np.argmin(pv.x_b))
        if pv.x_b[leave] >= -tol:
            try:
                pv.refactor()
            except np.linalg.LinAlgError:
                return None
            return pv if pv.x_b.min() >= -tol else None
        row = pv.inv[leave] @ N
        cand = np.flatnonzero((row < -1e-9) & live & ~pv.basic[ids])
        if cand.size == 0:
            return None
        d = np.minimum(c_n - (pv.inv.T @ pv.cb) @ N, 0.0)
        ratios = d[cand] / row[cand]
        tie = cand[ratios <= ratios.min() + 1e-15]
        k = int(tie[np.argmin(row[tie])])
        j = int(ids[k])
        a_j = N[:, k]
        direction = pv.inv @ a_j
        if float(np.max(np.abs(pv.B @ direction - a_j))) > 1e-8 or abs(direction[leave]) < 1e-9:
            try:
                pv.refactor()
            except np.linalg.LinAlgError:
                return None
            continue
        pv.pivot(leave, j, a_j, direction, pv.x_b[leave] / direction[leave], c_n[k])
        # the entering column's neighbours share its state
        state, action = divmod(j, n)
        for slot, offset in ((leave, lo[action]), (R + leave, hi[action])):
            live[slot] = j < paired and offset != 0
            if live[slot]:
                ids[slot] = j + offset
                column = N[:, slot]
                column[:] = 0.0
                _write_column(prob, column, state + 1, action + offset)
                c_n[slot] = prob.objective(state + 1, action + offset)
    return None


def _phase1(prob: OccupancyProblem, tol: float) -> _Pivots:
    """A primal-feasible pivot state pivoted from the all-skip chain; raises
    ``InfeasibleOccupancyError`` when `prob` has none.

    The all-skip chain (skip in states 1..m-1, bid 1 in state m) is
    nonsingular on every market: its flow block is unit bidiagonal, and the
    Schur complement on the mass and budget rows has determinant
    1 + (m - 1) W_bid1.  Its masses q_m = 1 / (1 + (m - 1) W_bid1) and
    q_l = W_bid1 q_m are nonnegative, so only the slack, rho - P_bid1 q_m,
    can be negative.  Phase 1 maximizes the slack, which alone costs 1, on
    a zero-reward twin of `prob` whose budget is raised by the overspend, so
    that the chain is a feasible start, as ``_simplex_loop`` assumes.  The
    slack never leaves: a column entering at reduced cost d_j has the entry
    -d_j in its row.  B^-1 e_budget is the slack's unit vector, so lowering
    the budget back moves the slack alone: the final basis is feasible for
    `prob` exactly when its slack is, which the refactorization that
    rebinds the state to `prob` solves for."""
    layout = basis_layout(prob, _chain_basis(prob, prob.skip_idx))
    x_b, factors = layout.chain.primal(prob, layout, np.inf)
    twin = replace(prob, rho=prob.rho - x_b[-1], r=np.zeros(prob.m))
    pv = _Pivots(twin, layout, layout.chain.x_b(factors, twin.b), factors)
    pv.cb[-1] = 1.0  # the chain's slack
    _simplex_loop(pv, tol)
    pv.prob = prob  # same B; the true budget and costs
    pv.refactor()
    pv.cb = _objective_coeffs(prob, pv.ids)
    slack = float(pv.x_b[pv.ids.tolist().index(prob.slack_id)])
    if slack < -tol:
        raise InfeasibleOccupancyError(
            f"occupancy LP infeasible (residual {-slack:.3g}); "
            "bid1_at_m forces more spending than rho allows at this m"
        )
    if pv.x_b.min() < -tol:
        raise RuntimeError("phase 1 ended on a primal-infeasible basis")
    return pv


def solve_occupancy_problem(
    prob: OccupancyProblem, starts: Sequence[BasisLayout | Sequence[int]] = ()
) -> OccupancySolution:
    """Solve from the first primal-feasible basis among `starts` (in order);
    when none is, from `starts[0]` made primal feasible by ``_dual_phase``;
    then from the first primal-feasible crash vertex; from a phase-1 basis
    when none of these works.

    A start is a ``basis_layout`` or a sequence of ids.  A sequence of the
    wrong length or with an id out of range is skipped.  Each start is
    checked by its ``ChainSplit``, skipped when singular, and no start is
    factored twice.  `starts[0]` (the most recent basis, for the learner)
    serves the dual restart when it is nonsingular and no start is primal
    feasible.  One dual restart bounds the cost of a miss.  The solution's
    `start` is the index in `starts` of the basis it began from by either
    route, -1 for a crash vertex or phase 1; its x_B and `layout` are the
    final basis's split's.
    """
    pv, used = None, -1
    first = None  # starts[0]'s layout, x_B and factors, when it may serve the dual restart
    for i, layout in enumerate(starts):
        if not isinstance(layout, BasisLayout):
            if not _valid_ids(prob, layout):
                continue
            layout = basis_layout(prob, layout)
        checked = layout.chain.primal(prob, layout, np.inf)
        if checked is None:  # singular; any x_B passes a tolerance of inf
            continue
        if checked[0].min() >= -_TOL:
            pv, used = _Pivots(prob, layout, *checked), i
            break
        if i == 0:
            first = (layout, *checked)  # nonsingular but primal infeasible
    if pv is None and first is not None:
        pv = _dual_phase(_Pivots(prob, *first), _TOL)
        used = -1 if pv is None else 0
    if pv is None:
        for candidate in _crash_bases(prob):
            layout = basis_layout(prob, candidate)
            checked = layout.chain.primal(prob, layout, _TOL)
            if checked is not None:
                pv = _Pivots(prob, layout, *checked)
                break
        else:
            pv = _phase1(prob, _TOL)
    _simplex_loop(pv, _TOL)
    layout, x_b, _ = _split(prob, pv.ids)
    return _solution_from_basis(prob, layout, np.maximum(x_b, 0.0), used)


# ---------------------------------------------------------------------------
# public benchmark surface


@dataclass(frozen=True)
class PolicyVec:
    """Per-state mixtures over multiplier actions."""

    m: int
    states: tuple[tuple[tuple[float, float], ...], ...]  # ((mu, weight), ...)
    bid1_at_m: bool = False

    def __post_init__(self):
        if len(self.states) != self.m:
            raise ValueError("policy must carry one mixture per state")
        for mix in self.states:
            total = sum(wt for _, wt in mix)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"state mixture weights sum to {total}, not 1")
        if self.bid1_at_m and self.states[-1] != ((0.0, 1.0),):
            raise ValueError("bid1_at_m policies must bid 1 deterministically in state m")

    def action_curves(self, market: MarketDistribution) -> tuple[np.ndarray, np.ndarray]:
        """Mixture-weighted (W_l, P_l) per state on the given market."""
        W = np.zeros(self.m)
        P = np.zeros(self.m)
        for l, mix in enumerate(self.states):
            for mu, wt in mix:
                w, p = win_pay_mu(market, mu)
                W[l] += wt * w
                P[l] += wt * p
        return W, P


@dataclass(frozen=True)
class CycleStats:
    """Renewal quantities of one conversion-to-conversion cycle."""

    m: int
    length: float          # L, expected rounds between conversions
    reward_conv: float     # expected reward per conversion
    pay_conv: float        # expected payment per conversion
    reward_avg: float      # R = reward_conv / L
    pay_avg: float         # C = pay_conv / L
    reach: np.ndarray      # reach[l-1] = P(no conversion before reaching state l)
    pi: Optional[np.ndarray]
    degenerate: bool = False


@dataclass(frozen=True)
class BenchResult:
    policy: PolicyVec
    occupancy: dict[tuple[int, float], float]  # (state, mu) -> mass
    win_vec: np.ndarray
    pay_vec: np.ndarray
    opt_value: float
    avg_payment: float
    slack: float


def build_occupancy_lp(
    market: MarketDistribution,
    reward: RewardFn,
    m: int,
    rho: float,
    bid1_at_m: bool = False,
    actions: Optional[np.ndarray] = None,
) -> LinearProgram:
    """The occupancy LP with the complete flow-row set (one row is redundant
    by construction; the dense solver detects and drops it).  State-m columns
    other than mu = 0 are eliminated when bid1_at_m is set."""
    if actions is None:
        actions = candidate_multipliers(market)
    actions = np.asarray(actions, dtype=float)
    w, p = win_pay_curve(market, actions)
    prob = occupancy_problem((actions, w, p), reward, m, rho, bid1_at_m)
    n_cols = prob.n_cols
    ids = np.arange(n_cols)
    states, acts = prob.decode(ids)
    c = prob.objective(states, acts)
    a_ub = prob.p[acts][None, :].copy()
    b_ub = np.array([rho])
    if m == 1:
        return LinearProgram(
            c=c, a_eq=np.ones((1, n_cols)), b_eq=np.array([1.0]), a_ub=a_ub, b_ub=b_ub
        )
    a_eq = np.zeros((m + 1, n_cols))
    wi = prob.w[acts]
    a_eq[0] -= wi
    a_eq[0, states == 1] += 1.0
    for j in range(n_cols):
        s = states[j]
        if 2 <= s <= m - 1:
            a_eq[s - 1, j] += 1.0
        if s + 1 <= m - 1:
            a_eq[s, j] -= 1.0 - wi[j]
        if s >= m - 1:
            a_eq[m - 1, j] -= 1.0 - wi[j]
        if s == m:
            a_eq[m - 1, j] += 1.0
    a_eq[m] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


class MixtureTemplate:
    """The mass-independent part of turning occupancy columns into per-state
    mixtures: per state, its columns' positions in ascending multiplier order.

    Column j is (states[j], actions[j]); states must lie in 1..m.  One
    template serves every mass vector on the same columns, so the learner
    builds one per cached basis and binds each epoch's basic values to it
    in a ``StateMixtures``.
    """

    def __init__(self, prob: OccupancyProblem, states: Sequence[int], actions: Sequence[int]):
        states = np.asarray(states, dtype=int)
        mus = prob.mus[np.asarray(actions, dtype=int)]
        if states.size and (states.min() < 1 or states.max() > prob.m):
            raise ValueError(f"column states must lie in 1..{prob.m}")
        order = np.lexsort((mus, states))
        self.m = prob.m
        self.bid1_at_m = prob.bid1_at_m
        self.order = order
        self.states = states[order]   # column states, ascending
        self.mus = mus[order].tolist()
        self.positions = order.tolist()
        # state l's columns are entries start[l-1]:start[l] of the above
        self.start = np.searchsorted(self.states, np.arange(1, prob.m + 2)).tolist()


class StateMixtures:
    """Per-state mixtures of one mass vector on a ``MixtureTemplate``.

    Mass at or below 1e-12 is dropped, and a state's multipliers ascend,
    each weighted by its share of the state's mass (Python ``sum`` in that
    order).  States without mass carry no information of their own; they
    play the mixture of their source state: the nearest earlier state with
    mass, or the first state with mass when the solution parks all mass
    beyond them.  This constant continuation keeps solved win curves weakly
    increasing where a skip default would drop them to zero, and the
    inherited states are visited too rarely for the choice to affect value
    or spending materially.  When no state carries mass every state skips.
    State m stays pinned to bid-1 when forced.

    A source state's mixture is normalized when first asked for and kept,
    so an epoch that consults two states pays for two, not for m.
    """

    def __init__(self, template: MixtureTemplate, masses: Sequence[float]):
        masses = np.asarray(masses)
        self.template = template
        self._values = masses.tolist()
        # states carrying mass, ascending, with repeats
        self._massed = template.states[masses[template.order] > _MASS_TOL].tolist()
        self._mixtures: dict[int, Mixture] = {}
        self._draws: list[Optional[Mixture]] = [None] * (template.m + 1)

    def source(self, state: int) -> int:
        """The state whose mass `state` plays; 0 when no state has mass."""
        massed = self._massed
        if not massed:
            return 0
        i = bisect_right(massed, state)
        return massed[i - 1] if i else massed[0]

    def mixture(self, state: int) -> Mixture:
        """(mus, weights) played in `state`."""
        t = self.template
        if state == t.m and t.bid1_at_m:
            return ([0.0], [1.0])
        src = self.source(state)
        if src == 0:
            return ([SKIP], [1.0])
        mix = self._mixtures.get(src)
        if mix is None:
            values = self._values
            entries = [
                (t.mus[k], values[t.positions[k]])
                for k in range(t.start[src - 1], t.start[src])
                if values[t.positions[k]] > _MASS_TOL
            ]
            entries.sort()  # a no-op unless a multiplier repeats; then by mass
            total = sum(v for _, v in entries)
            mix = ([mu for mu, _ in entries], [v / total for _, v in entries])
            self._mixtures[src] = mix
        return mix

    def draw_table(self, state: int) -> Mixture:
        """(mus, cumulative weights) of `state`'s mixture, for drawing an
        action with one uniform; the last cumulative weight is exactly 1, as
        a lone weight already is."""
        table = self._draws[state]
        if table is None:
            mus, wts = self.mixture(state)
            if len(wts) > 1:
                wts = list(accumulate(wts))
                wts[-1] = 1.0
            table = self._draws[state] = (mus, wts)
        return table

    def all(self) -> list[Mixture]:
        """The mixtures of states 1..m."""
        return [self.mixture(state) for state in range(1, self.template.m + 1)]


def state_mixtures(
    prob: OccupancyProblem, states: Sequence[int], actions: Sequence[int], masses: Sequence[float]
) -> list[Mixture]:
    """Per-state (mus, weights) mixtures of occupancy mass: column
    (states[j], actions[j]) carries mass masses[j].  The rule is
    ``StateMixtures``'s, evaluated for every state."""
    return StateMixtures(MixtureTemplate(prob, states, actions), masses).all()


def policy_from_mixtures(prob: OccupancyProblem, mixtures: list[Mixture]) -> PolicyVec:
    """The policy playing `state_mixtures` output."""
    states = tuple(tuple(zip(mus, wts)) for mus, wts in mixtures)
    return PolicyVec(prob.m, states, bid1_at_m=prob.bid1_at_m)


def solve_benchmark(
    market: MarketDistribution,
    reward: RewardFn,
    m: int,
    rho: float,
    bid1_at_m: bool = False,
) -> BenchResult:
    """Optimal per-state multiplier mixtures for the m-state budgeted chain.

    The action set is the market's candidate multipliers; per state, the
    optimum mixes at most two of them."""
    actions = candidate_multipliers(market)
    w, p = win_pay_curve(market, actions)
    prob = occupancy_problem((actions, w, p), reward, m, rho, bid1_at_m)
    sol = solve_occupancy_problem(prob)
    states, acts, masses = sol.kept
    policy = policy_from_mixtures(prob, state_mixtures(prob, states, acts, masses))
    win_vec, pay_vec = policy.action_curves(market)
    occupancy = dict(zip(zip(states.tolist(), prob.mus[acts].tolist()), masses.tolist()))
    return BenchResult(
        policy=policy,
        occupancy=occupancy,
        win_vec=win_vec,
        pay_vec=pay_vec,
        opt_value=sol.objective,
        avg_payment=sol.budget_used,
        slack=rho - sol.budget_used,
    )


# ---------------------------------------------------------------------------
# renewal formulas


def reach_probabilities(win_vec: np.ndarray) -> np.ndarray:
    """reach[l-1] = prod_{i<l} (1 - W_i) for l = 1..m."""
    w = np.asarray(win_vec, dtype=float)
    out = np.ones(w.shape[0])
    if w.shape[0] > 1:
        out[1:] = np.cumprod(1.0 - w[:-1])
    return out


def _renewal(w: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(reach, L, pi) of the chain driven by W with W_m > 0 (L as in
    ``cycle_stats_wp``): pi_l = reach_l / L, but pi_m = reach_m / (W_m L)."""
    m = w.shape[0]
    reach = reach_probabilities(w)
    length = float(np.sum(reach[: m - 1]) + reach[m - 1] / w[m - 1])
    pi = reach / length
    pi[m - 1] = reach[m - 1] / (w[m - 1] * length)
    return reach, length, pi


def stationary(win_vec: np.ndarray) -> np.ndarray:
    """Stationary distribution of the capped chain driven by win_vec
    (``_renewal``); W_m must be positive, otherwise state m absorbs and no
    distribution exists."""
    w = np.asarray(win_vec, dtype=float)
    if w[-1] <= 0.0:
        raise ValueError("degenerate chain: state-m win probability is zero")
    return _renewal(w)[2]


def cycle_stats_wp(
    win_vec: np.ndarray, pay_vec: np.ndarray, reward: RewardFn, m: Optional[int] = None
) -> CycleStats:
    """Renewal quantities from per-state (W_l, P_l) curves.

    L       = sum_{l<m} reach_l + reach_m / W_m
    R_conv  = sum_{l=1..m} (r_m(l) - r_m(l-1)) reach_l
    C_conv  = sum_{l<m} P_l reach_l + (P_m / W_m) reach_m
    R = R_conv / L,  C = C_conv / L.
    An all-skip curve is flagged degenerate with R = C = 0 and L = inf.
    """
    w = np.asarray(win_vec, dtype=float)
    p = np.asarray(pay_vec, dtype=float)
    if m is None:
        m = w.shape[0]
    if w.shape[0] != m or p.shape[0] != m:
        raise ValueError("win/pay vectors must have one entry per state")
    if w[m - 1] <= 0.0:
        if np.max(w) <= 0.0 and np.max(p) <= 0.0:
            reach = reach_probabilities(w)
            return CycleStats(m, math.inf, 0.0, 0.0, 0.0, 0.0, reach, None, degenerate=True)
        raise ValueError("degenerate chain: state m never converts but earlier states act")
    reach, length, pi = _renewal(w)
    r_m = np.array([eval_r_capped(reward, l, m) for l in range(0, m + 1)])
    increments = np.diff(r_m)
    reward_conv = float(np.dot(increments, reach))
    pay_conv = float(np.dot(p[: m - 1], reach[: m - 1]) + (p[m - 1] / w[m - 1]) * reach[m - 1])
    return CycleStats(
        m, length, reward_conv, pay_conv, reward_conv / length, pay_conv / length, reach, pi
    )


def cycle_stats(policy: PolicyVec, market: MarketDistribution, reward: RewardFn) -> CycleStats:
    """Renewal quantities of running `policy` on `market`."""
    w, p = policy.action_curves(market)
    return cycle_stats_wp(w, p, reward, policy.m)


# ---------------------------------------------------------------------------
# finite-horizon oracle


def finite_horizon_dp(
    market: MarketDistribution,
    reward: RewardFn,
    T: int,
    B: float,
    price_grid_K: int,
    max_T: int = 30,
) -> float:
    """Exact optimum of the T-round problem with a hard budget, by backward
    induction over (round, spent budget, gap since last conversion).

    Prices and the budget must sit on the 1/K grid.  Each round the bidder
    observes the conversion rate, then bids one of the affordable atom prices
    of that context or skips; a win pays its price and converts with the
    observed rate, resetting the gap.  Returns the total expected reward.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if T > max_T:
        raise ValueError(f"T={T} exceeds the DP cap {max_T}")
    if price_grid_K < 1:
        raise ValueError("price grid K must be >= 1")
    K = price_grid_K
    units_f = B * K
    units = int(round(units_f))
    if abs(units_f - units) > 1e-9 or units < 0:
        raise ValueError(f"budget {B} is not on the 1/{K} grid")
    groups: dict[float, list[tuple[int, float]]] = {}
    group_prob: dict[float, float] = {}
    for a in market.atoms:
        pu_f = a.p * K
        pu = int(round(pu_f))
        if abs(pu_f - pu) > 1e-9:
            raise ValueError(f"price {a.p} is not on the 1/{K} grid")
        groups.setdefault(a.c, []).append((pu, a.prob))
        group_prob[a.c] = group_prob.get(a.c, 0.0) + a.prob
    # V[u, l-1] = reward-to-go next round with u units spent and gap l
    V = np.zeros((units + 1, T + 2))
    for t in range(T, 0, -1):
        newV = np.zeros((units + 1, T + 2))
        for l in range(1, t + 1):
            cont = V[:, l]       # next round, gap l+1
            reset = V[:, 0]      # next round, gap 1
            best = cont.copy()   # skip
            for c, atoms in sorted(groups.items()):
                g = group_prob[c]
                value_c = cont.copy()
                for bid_u in sorted({pu for pu, _ in atoms}):
                    afford = units - bid_u
                    if afford < 0:
                        continue
                    u_idx = np.arange(afford + 1)
                    acc = cont[u_idx].astype(float)
                    for pu, pr in atoms:
                        if pu > bid_u:
                            continue
                        win_val = (
                            c * (eval_r(reward, l) + reset[u_idx + pu])
                            + (1.0 - c) * cont[u_idx + pu]
                        )
                        acc = acc + (pr / g) * (win_val - cont[u_idx])
                    value_c[u_idx] = np.maximum(value_c[u_idx], acc)
                best += g * (value_c - cont)
            newV[:, l - 1] = best
        V = newV
    return float(V[0, 0])


# ---------------------------------------------------------------------------
# structural checks


def check_monotone(win_vec: np.ndarray, tol: float = 1e-9) -> Optional[int]:
    """First state l (1-based) with W_l > W_{l+1} + tol; None when monotone."""
    w = np.asarray(win_vec, dtype=float)
    for l in range(w.shape[0] - 1):
        if w[l] > w[l + 1] + tol:
            return l + 1
    return None


def check_win_floor(
    win_vec: np.ndarray, c_bar: float, rho: float, tol: float = 1e-9
) -> list[int]:
    """States l >= ceil(2/(c_bar rho)) whose win probability drops below
    c_bar*rho/2 - tol.  Meaningful only when the budget binds; callers check
    |C - rho| before drawing conclusions."""
    w = np.asarray(win_vec, dtype=float)
    if c_bar <= 0.0 or rho <= 0.0:
        return []
    start = math.ceil(2.0 / (c_bar * rho))
    floor = c_bar * rho / 2.0
    return [l for l in range(start, w.shape[0] + 1) if w[l - 1] < floor - tol]
