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
  primal-feasible basis among the caller's ``starts`` (the learner passes
  its recently optimal bases, most recent first).  When none is feasible, a
  dual-simplex phase pivots the first start, if nonsingular, back to
  primal feasibility; failing that, the solve starts from the crash
  vertices, and runs phase 1 only when none of them is feasible.
  ``verify_basis`` re-checks a stored basis against fresh coefficients,
  letting the learner keep its policy when it is still optimal; only when
  no stored basis certifies does the learner solve again, warm-started from
  those bases.  A check refills the basis matrix from its ``basis_layout``
  (nonzero positions with values affine in W and P) and solves the primal
  and dual systems with one LAPACK LU factorization.

``state_mixtures`` is the one rule turning occupancy mass into per-state
mixtures, for ``policy_from_occupancy`` and the learner's per-epoch sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

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
Mixture = tuple[list[float], list[float]]  # (multipliers, weights) of one state
_MAX_PIVOTS = 100_000
_ROW_STRUCT_CACHE: dict[int, tuple] = {}


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
    transition (-1 when the row was dropped as redundant).
    """

    m: int
    rho: float
    mus: np.ndarray     # ascending, inf last
    w: np.ndarray
    p: np.ndarray
    r: np.ndarray       # r(1..m)
    bid1_at_m: bool
    bid1_idx: int
    skip_idx: int
    own_row: np.ndarray = field(repr=False, default=None)
    next_row: np.ndarray = field(repr=False, default=None)

    # derived layout constants, filled in __post_init__
    n_actions: int = field(repr=False, default=0)
    n_rows: int = field(repr=False, default=0)
    n_cols: int = field(repr=False, default=0)
    slack_id: int = field(repr=False, default=0)

    def __post_init__(self):
        m = self.m
        cached = _ROW_STRUCT_CACHE.get(m)
        if cached is None:
            own = np.full(m + 1, -1, dtype=int)
            nxt = np.full(m + 1, -1, dtype=int)
            if m >= 2:
                own[1] = 0
                for j in range(2, m):
                    own[j] = j - 1
                for l in range(1, m - 1):
                    nxt[l] = l
            n_rows = m + 1 if m >= 2 else 2
            # per-state dual gather indices: row id, or n_rows for "dropped
            # row" (y gets padded with a trailing zero)
            own_sel = np.where(own[1:] >= 0, own[1:], n_rows)
            next_sel = np.where(nxt[1:] >= 0, nxt[1:], n_rows)
            cached = (own, nxt, own_sel, next_sel, n_rows)
            _ROW_STRUCT_CACHE[m] = cached
        own, nxt, own_sel, next_sel, n_rows = cached
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

    def decode(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized column id -> (state, action index); slack not allowed."""
        n = self.n_actions
        base = (self.m - 1) * n
        states = np.where(cols < base, cols // n + 1, self.m)
        if self.bid1_at_m:
            actions = np.where(cols < base, cols % n, self.bid1_idx)
        else:
            actions = np.where(cols < base, cols % n, cols - base)
        return states.astype(int), actions.astype(int)

    def col_of(self, state: int, action: int) -> Optional[int]:
        n = self.n_actions
        if state < self.m:
            return (state - 1) * n + action
        base = (self.m - 1) * n
        if self.bid1_at_m:
            return base if action == self.bid1_idx else None
        return base + action


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
    mus = np.asarray(mus, dtype=float)
    zero = np.nonzero(mus == 0.0)[0]
    skip = np.nonzero(np.isinf(mus))[0]
    if zero.size == 0 or skip.size == 0:
        raise ValueError("action set must include mu = 0 and mu = inf")
    return OccupancyProblem(
        m=m,
        rho=float(rho),
        mus=mus,
        w=np.asarray(w, dtype=float),
        p=np.asarray(p, dtype=float),
        r=reward_vector(reward, m) if r_vec is None else r_vec,
        bid1_at_m=bid1_at_m,
        bid1_idx=int(zero[0]),
        skip_idx=int(skip[0]),
    )


# ---------------------------------------------------------------------------
# structured revised simplex


def _rhs(prob: OccupancyProblem) -> np.ndarray:
    b = np.zeros(prob.n_rows)
    b[-2] = 1.0
    b[-1] = prob.rho
    return b


@dataclass(frozen=True)
class BasisLayout:
    """Nonzero entries of a basis matrix: entry j sits at (rows[j], cols[j])
    and equals const[j] + w_coef[j] * W[actions[j]] + p_coef[j] * P[actions[j]].

    The positions depend only on the basis ids, so one layout refills the
    matrix for any coefficients W, P on the same action set."""

    ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    actions: np.ndarray
    const: np.ndarray
    w_coef: np.ndarray
    p_coef: np.ndarray

    def fill(self, prob: OccupancyProblem, out: np.ndarray) -> np.ndarray:
        """Write the entries into the zeroed matrix `out` and return it."""
        a = self.actions
        out[self.rows, self.cols] = self.const + self.w_coef * prob.w[a] + self.p_coef * prob.p[a]
        return out


def basis_layout(prob: OccupancyProblem, basis: Sequence[int], art_base: int = -1) -> BasisLayout:
    """Layout of the reduced system's columns for the given ids (slack and,
    when art_base >= 0, artificial identity columns included).

    A structural column (state l, action i) holds -W_i in the state-1 row
    (1 - W_i for l = 1), 1 in its own row, -(1 - W_i) in the row its no-win
    transition feeds, 1 in the mass row and P_i in the budget row.
    """
    R = prob.n_rows
    ids = np.asarray(basis, dtype=int)
    ks = np.arange(ids.shape[0])
    art_mask = (ids > prob.slack_id) if art_base >= 0 else np.zeros(ids.shape[0], dtype=bool)
    slack_mask = ids == prob.slack_id
    struct = ~(art_mask | slack_mask)
    s_ks = ks[struct]
    states, actions = prob.decode(ids[struct])
    ones = np.ones(s_ks.shape[0])
    zeros = np.zeros(s_ks.shape[0])
    # (rows, cols, actions, const, w_coef, p_coef) per block of entries
    blocks = [
        (np.full(s_ks.shape[0], R - 2), s_ks, actions, ones, zeros, zeros),
        (np.full(s_ks.shape[0], R - 1), s_ks, actions, zeros, zeros, ones),
    ]
    if prob.m >= 2:
        blocks.append((np.zeros(s_ks.shape[0], dtype=int), s_ks, actions,
                       (states == 1).astype(float), -ones, zeros))
        own = prob.own_row[states]
        ok = own >= 1
        blocks.append((own[ok], s_ks[ok], actions[ok], ones[ok], zeros[ok], zeros[ok]))
        nxt = prob.next_row[states]
        ok = nxt >= 0
        blocks.append((nxt[ok], s_ks[ok], actions[ok], -ones[ok], ones[ok], zeros[ok]))
    identity = ks[art_mask | slack_mask]
    id_rows = np.where(slack_mask[identity], R - 1, ids[identity] - art_base)
    n_id = identity.shape[0]
    blocks.append((id_rows, identity, np.zeros(n_id, dtype=int),
                   np.ones(n_id), np.zeros(n_id), np.zeros(n_id)))
    rows, cols, acts, const, w_coef, p_coef = (np.concatenate(part) for part in zip(*blocks))
    return BasisLayout(ids, rows, cols, acts, const, w_coef, p_coef)


def _basis_matrix(prob: OccupancyProblem, basis: Sequence[int], art_base: int = -1) -> np.ndarray:
    """Columns of the reduced system for the given ids, filled from their
    ``basis_layout``."""
    layout = basis_layout(prob, basis, art_base)
    return layout.fill(prob, np.zeros((prob.n_rows, layout.ids.shape[0])))


def _column(prob: OccupancyProblem, col: int, art_base: int = -1) -> np.ndarray:
    """Single constraint column (scalar fast path for the pivot loop)."""
    R = prob.n_rows
    a = np.zeros(R)
    if art_base >= 0 and col > prob.slack_id:
        a[col - art_base] = 1.0
        return a
    if col == prob.slack_id:
        a[R - 1] = 1.0
        return a
    n = prob.n_actions
    base = (prob.m - 1) * n
    if col < base:
        state = col // n + 1
        action = col % n
    else:
        state = prob.m
        action = prob.bid1_idx if prob.bid1_at_m else col - base
    wi = prob.w[action]
    if prob.m >= 2:
        a[0] -= wi
        own = prob.own_row[state]
        if own >= 0:
            a[own] += 1.0
        nxt = prob.next_row[state]
        if nxt >= 0:
            a[nxt] -= 1.0 - wi
    a[R - 2] += 1.0
    a[R - 1] += prob.p[action]
    return a


def _state_duals(prob: OccupancyProblem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(ya, yb, y0): per-state dual of the own row, of the fed row, and the
    state-1 row's dual (0 when m = 1)."""
    if prob.m == 1:
        return np.zeros(1), np.zeros(1), 0.0
    y_pad = np.append(y, 0.0)
    return y_pad[prob._own_sel], y_pad[prob._next_sel], float(y[0])


def _reduced_costs(
    prob: OccupancyProblem, y: np.ndarray, phase1: bool, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Reduced costs for every structural column plus the slack, in id order."""
    m = prob.m
    w, p = prob.w, prob.p
    r = np.zeros(m) if phase1 else prob.r
    ya, yb, y0 = _state_duals(prob, y)
    y_mass, y_budget = float(y[-2]), float(y[-1])
    n = prob.n_actions
    rows = m if not prob.bid1_at_m else m - 1
    if out is None or out.shape[0] != prob.n_cols + 1:
        out = np.empty(prob.n_cols + 1)
    D = out[: rows * n].reshape(rows, n)
    np.multiply((r + y0 - yb)[:rows, None], w[None, :], out=D)
    D += (yb - ya - y_mass)[:rows, None]
    D -= (y_budget * p)[None, :]
    if prob.bid1_at_m:
        i = prob.bid1_idx
        out[rows * n] = (
            (r[m - 1] + y0 - yb[m - 1]) * w[i]
            + (yb[m - 1] - ya[m - 1] - y_mass)
            - y_budget * p[i]
        )
    out[-1] = -y_budget
    return out


def _objective_coeffs(prob: OccupancyProblem, basis: Sequence[int], art_base: int = -1) -> np.ndarray:
    ids = np.asarray(basis, dtype=int)
    out = np.zeros(ids.shape[0])
    struct = ids < prob.slack_id
    if np.any(struct):
        states, actions = prob.decode(ids[struct])
        out[struct] = prob.r[states - 1] * prob.w[actions]
    return out


def _objective_coeff_one(prob: OccupancyProblem, col: int) -> float:
    if col >= prob.slack_id:
        return 0.0
    n = prob.n_actions
    base = (prob.m - 1) * n
    if col < base:
        state, action = col // n + 1, col % n
    else:
        state = prob.m
        action = prob.bid1_idx if prob.bid1_at_m else col - base
    return float(prob.r[state - 1] * prob.w[action])


@dataclass(frozen=True)
class OccupancySolution:
    objective: float
    budget_used: float
    q: dict[tuple[int, int], float]   # (state, action index) -> mass
    basis: tuple[int, ...]
    x_b: np.ndarray = field(repr=False, compare=False)  # basic values, clipped at 0
    start: int = -1  # index of the caller's start the simplex began from; -1: none


def _solution_from_basis(
    prob: OccupancyProblem, basis: Sequence[int], x_b: np.ndarray, start: int = -1
) -> OccupancySolution:
    ids = np.asarray(basis, dtype=int)
    keep = (ids != prob.slack_id) & (x_b > 0.0)
    q: dict[tuple[int, int], float] = {}
    obj = 0.0
    pay = 0.0
    if np.any(keep):
        states, actions = prob.decode(ids[keep])
        vals = x_b[keep]
        obj = float(np.sum(prob.r[states - 1] * prob.w[actions] * vals))
        pay = float(np.sum(prob.p[actions] * vals))
        for s, i, v in zip(states.tolist(), actions.tolist(), vals.tolist()):
            key = (s, i)
            q[key] = q.get(key, 0.0) + v
    return OccupancySolution(float(obj), float(pay), q, tuple(basis), x_b, start)


def _basic_values(
    prob: OccupancyProblem, B: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(x_B, LU, pivots) of the square basis matrix B, which LAPACK getrf
    factors in place, if B is nonsingular (every |U diagonal| >= 1e-13) and
    x_B is finite; None otherwise."""
    lu, piv, _ = _getrf(B, overwrite_a=True)
    if np.abs(np.diagonal(lu)).min() < 1e-13:
        return None
    x_b, _ = _getrs(lu, piv, _rhs(prob))
    if not np.all(np.isfinite(x_b)):
        return None
    return x_b, lu, piv


def _primal_values(
    prob: OccupancyProblem, B: np.ndarray, primal_tol: float
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``_basic_values`` of B if no entry of x_B lies below -primal_tol."""
    values = _basic_values(prob, B)
    if values is None or values[0].min() < -primal_tol:
        return None
    return values


def verify_basis_values(
    prob: OccupancyProblem,
    layout: BasisLayout,
    cb: np.ndarray,
    primal_tol: float = 1e-9,
    dual_tol: float = 1e-9,
    d_buf: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """x_B of the basis `layout.ids` if it is primal feasible and within
    dual_tol of optimal for `prob`; None otherwise.  `cb` must hold the
    basis's objective coefficients.  One LU factorization of the refilled
    basis matrix serves both the primal and the dual solve."""
    R = prob.n_rows
    primal = _primal_values(prob, layout.fill(prob, np.zeros((R, R), order="F")), primal_tol)
    if primal is None:
        return None
    x_b, lu, piv = primal
    y, _ = _getrs(lu, piv, cb, trans=1)
    d = _reduced_costs(prob, y, phase1=False, out=d_buf)
    d[layout.ids] = -np.inf
    if d.max() > dual_tol:
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
    x_b = verify_basis_values(
        prob, basis_layout(prob, basis), _objective_coeffs(prob, basis), primal_tol, dual_tol
    )
    if x_b is None:
        return None
    return _solution_from_basis(prob, basis, x_b)


def _valid_ids(prob: OccupancyProblem, basis: Sequence[int]) -> bool:
    """Whether `basis` holds one column id in [0, slack_id] per row."""
    ids = np.asarray(basis, dtype=int)
    return ids.shape == (prob.n_rows,) and ids.min() >= 0 and ids.max() <= prob.slack_id


def _chain_basis(prob: OccupancyProblem, action: int) -> list[int]:
    """Play one action in states 1..m-1 and bid 1 in state m."""
    cols = [prob.col_of(state, action) for state in range(1, prob.m)]
    cols.append(prob.col_of(prob.m, prob.bid1_idx))
    cols.append(prob.slack_id)
    return cols


def _crash_bases(prob: OccupancyProblem) -> list[list[int]]:
    """Starting vertices to try, best first.

    The constant chain of the most valuable budget-feasible action starts
    near typical optima; the all-skip chain is feasible whenever forcing
    bid-1 in state m fits the budget at all.
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


def _simplex_loop(
    prob: OccupancyProblem, basis: list[int], phase1: bool, tol: float
) -> np.ndarray:
    """Revised primal simplex from a feasible basis; returns x_B.

    The basis inverse is maintained in product form with periodic
    refactorization by ``_inverse``.  Entering columns follow Dantzig's rule (first maximum,
    deterministic) until a long streak of degenerate steps, after which the
    loop switches to Bland's rule for guaranteed termination.  In phase 1
    artificial identity columns (ids slack_id + 1 + row) may sit in the
    basis; they price at -1 and may only leave.
    """
    R = prob.n_rows
    b = _rhs(prob)
    art_base = prob.slack_id + 1
    B = _basis_matrix(prob, basis, art_base)
    b_inv = _inverse(B)
    x_b = b_inv @ b
    refactor_left = 64
    bland = False
    stall = 0
    # basis ids, their objective coefficients and the mask of basic columns
    # are maintained incrementally across pivots
    basis_arr = np.asarray(basis, dtype=int)
    if phase1:
        cb = np.where(basis_arr >= art_base, -1.0, 0.0)
    else:
        cb = _objective_coeffs(prob, basis, art_base)
    d_buf = np.empty(prob.n_cols + 1)
    for _ in range(_MAX_PIVOTS):
        y = b_inv.T @ cb
        d = _reduced_costs(prob, y, phase1=phase1, out=d_buf)
        d[basis_arr[basis_arr <= prob.slack_id]] = -np.inf
        if bland:
            cand = np.nonzero(d > tol)[0]
            if cand.size == 0:
                break
            j = int(cand[0])
        else:
            j = int(np.argmax(d))
            if d[j] <= tol:
                break
        a_j = _column(prob, j, art_base)
        direction = b_inv @ a_j
        if float(np.max(np.abs(B @ direction - a_j))) > 1e-8:
            # the product-form inverse drifted: refactorize and recompute
            b_inv = _inverse(B)
            x_b = np.maximum(b_inv @ b, 0.0)
            refactor_left = 64
            direction = b_inv @ a_j
        leave = _ratio_test(x_b, direction, basis_arr, bland)
        if leave < 0:
            raise RuntimeError("occupancy LP unbounded; the mass row should prevent this")
        piv = float(direction[leave])
        if abs(piv) < 1e-7:
            # numerically unreliable pivot: refresh the factorization and
            # retry from exact data; if it persists, skip this column once
            b_inv = _inverse(B)
            x_b = np.maximum(b_inv @ b, 0.0)
            refactor_left = 64
            direction = b_inv @ a_j
            if float(direction[leave]) < 1e-9:
                continue
            leave = _ratio_test(x_b, direction, basis_arr, bland=False, slack=tol)
            if leave < 0:
                raise RuntimeError("occupancy LP unbounded after refresh")
            piv = float(direction[leave])
            if abs(piv) < 1e-9:
                continue
        theta = max(float(x_b[leave] / piv), 0.0)
        if theta <= 1e-13:
            stall += 1
            if stall >= 2 * R and not bland:
                bland = True
        else:
            stall = 0
        x_b -= theta * direction
        x_b[leave] = theta
        basis_arr[leave] = j
        basis[leave] = j
        cb[leave] = 0.0 if phase1 else _objective_coeff_one(prob, j)
        B[:, leave] = a_j
        refactor_left -= 1
        if refactor_left <= 0:
            b_inv = _inverse(B)
            x_b = np.maximum(b_inv @ b, 0.0)
            refactor_left = 64
        else:
            _update_inverse(b_inv, direction, leave)
    else:
        raise RuntimeError("occupancy simplex pivot limit exceeded")
    # refresh the solution from a clean factorization before returning
    x_b = _solve(_basis_matrix(prob, basis, art_base), b)
    return np.maximum(x_b, 0.0)


def _solve(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """B^-1 b through LAPACK getrf/getrs, the route basis checks take; raises
    LinAlgError when getrf meets an exactly zero pivot.  (numpy's solver,
    from its own OpenBLAS build, changed in its last bits with the BLAS
    thread count from about 108 rows on, and with it the learner's runs.)"""
    lu, piv, info = _getrf(B)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return _getrs(lu, piv, b)[0]


def _inverse(B: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(_solve(B, np.eye(B.shape[0])))


def _update_inverse(b_inv: np.ndarray, direction: np.ndarray, leave: int) -> None:
    """Product-form update of B^-1 in place: the column whose B^-1 image is
    `direction` replaces basis position `leave`."""
    row = b_inv[leave].copy()
    b_inv -= np.outer(direction / direction[leave], row)
    b_inv[leave] = row / direction[leave]


def _dual_phase(prob: OccupancyProblem, basis: list[int], tol: float) -> bool:
    """Dual simplex pivots on `basis`, in place, until it is primal feasible.

    Meant for a recently optimal basis that the new program's coefficients
    made primal infeasible: its reduced costs are near dual feasible, so a
    few dual pivots restore primal feasibility close to the new optimum, and
    the primal simplex then certifies optimality with the true costs.  Each
    pivot leaves by the most negative basic value x_B[r]; the pivot row
    e_r^T B^-1 A comes from the structured pricing identity
    A^T z = -reduced_costs(z, phase1) with z = B^-T e_r.  The ratio test runs
    over nonbasic columns with a negative row entry and breaks ties by the
    largest |entry|.  Reduced costs above zero read as zero (cost shifting),
    so a start within round-off of dual feasibility does not stall.

    The basis inverse is `_simplex_loop`'s: explicit, with product-form
    updates and a drift check.  The basis is handed over only if it passes
    the check a primal-feasible start passes, on a fresh factorization.
    Returns False (the basis is then of no use) on a singular basis, a row
    with no negative entry (the program is infeasible, or the start too far
    off) or after 4 pivots per row.
    """
    R = prob.n_rows
    b = _rhs(prob)
    B = _basis_matrix(prob, basis)
    b_inv = _inverse(B)  # the caller checked that B is nonsingular
    x_b = b_inv @ b
    basic = np.zeros(prob.n_cols + 1, dtype=bool)
    basic[basis] = True
    d = _reduced_costs(prob, b_inv.T @ _objective_coeffs(prob, basis), phase1=False)
    np.minimum(d, 0.0, out=d)
    row = np.empty(prob.n_cols + 1)
    for _ in range(4 * R):
        leave = int(np.argmin(x_b))
        if x_b[leave] >= -tol:
            return _primal_values(prob, _basis_matrix(prob, basis), tol) is not None
        _reduced_costs(prob, b_inv[leave], phase1=True, out=row)
        np.negative(row, out=row)
        cand = np.nonzero((row < -1e-9) & ~basic)[0]
        if cand.size == 0:
            return False
        ratios = d[cand] / row[cand]
        tie = cand[ratios <= ratios.min() + 1e-15]
        j = int(tie[np.argmin(row[tie])])
        a_j = _column(prob, j)
        direction = b_inv @ a_j
        if float(np.max(np.abs(B @ direction - a_j))) > 1e-8 or abs(direction[leave]) < 1e-9:
            try:
                b_inv = _inverse(B)
            except np.linalg.LinAlgError:
                return False
            x_b = b_inv @ b
            continue
        theta_d = d[j] / row[j]
        d -= theta_d * row
        np.minimum(d, 0.0, out=d)
        d[j] = 0.0
        theta_p = x_b[leave] / direction[leave]
        x_b -= theta_p * direction
        x_b[leave] = theta_p
        basic[basis[leave]] = False
        basic[j] = True
        basis[leave] = j
        B[:, leave] = a_j
        _update_inverse(b_inv, direction, leave)
    return False


def _phase1(prob: OccupancyProblem, tol: float) -> list[int]:
    """Feasible structural basis via artificial columns (the all-skip point
    always exists, so phase 1 cannot fail on valid data)."""
    n_rows = prob.n_rows
    art_base = prob.slack_id + 1
    basis = [prob.slack_id if i == n_rows - 1 else art_base + i for i in range(n_rows)]
    x_b = _simplex_loop(prob, basis, phase1=True, tol=tol)
    infeas = sum(v for c, v in zip(basis, x_b) if c >= art_base)
    if infeas > 10 * tol * n_rows:
        raise InfeasibleOccupancyError(
            f"occupancy LP infeasible (residual {infeas:.3g}); "
            "bid1_at_m forces more spending than rho allows at this m"
        )
    for i, c in enumerate(list(basis)):
        if c < art_base:
            continue
        # z = row i of B^-1; row entries over all columns via the structured
        # pricing identity A^T z = -reduced_costs(z, phase1) with zero costs
        B = _basis_matrix(prob, basis, art_base)
        e = np.zeros(n_rows)
        e[i] = 1.0
        z = _solve(B.T, e)
        row_vals = -_reduced_costs(prob, z, phase1=True)
        row_vals[np.asarray([c2 for c2 in basis if c2 < art_base], dtype=int)] = 0.0
        cand = np.nonzero(np.abs(row_vals) > 1e-7)[0]
        if cand.size:
            basis[i] = int(cand[0])
        else:
            raise RuntimeError("redundant row survived in reduced occupancy system")
    return basis


def solve_occupancy_problem(
    prob: OccupancyProblem, tol: float = 1e-9, starts: Sequence[Sequence[int]] = ()
) -> OccupancySolution:
    """Solve from the first primal-feasible basis among `starts` (in order);
    when none is, from `starts[0]` made primal feasible by ``_dual_phase``;
    then from the first primal-feasible crash vertex; from a phase-1 basis
    when none of these works.

    A start of the wrong length, with an id out of range or singular is
    skipped, and so is a primal-infeasible one other than `starts[0]` (the
    most recent basis, for the learner).  One dual restart bounds the cost
    of a miss.  The solution's `start` is the index in `starts` of the basis
    it began from by either route, -1 for a crash vertex or phase 1.
    """
    basis, used = None, -1
    restart = False  # whether starts[0] is nonsingular but primal infeasible
    for i, candidate in enumerate(starts):
        values = _basic_values(prob, _basis_matrix(prob, candidate)) if _valid_ids(
            prob, candidate) else None
        if values is None:
            continue
        if values[0].min() >= -tol:
            basis, used = list(candidate), i  # the simplex pivots it in place
            break
        restart |= i == 0
    if restart and basis is None:
        candidate = list(starts[0])
        if _dual_phase(prob, candidate, tol):
            basis, used = candidate, 0
    if basis is None:
        basis = next((
            candidate for candidate in _crash_bases(prob)
            if _primal_values(prob, _basis_matrix(prob, candidate), tol) is not None
        ), None) or _phase1(prob, tol)
    x_b = _simplex_loop(prob, basis, phase1=False, tol=tol)
    return _solution_from_basis(prob, basis, x_b, used)


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
    c = prob.r[states - 1] * prob.w[acts]
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


def state_mixtures(
    prob: OccupancyProblem, states: Sequence[int], actions: Sequence[int], masses: Sequence[float]
) -> list[Mixture]:
    """Normalize occupancy mass into per-state (mus, weights) mixtures.

    Column (states[j], actions[j]) carries mass masses[j]; mass at or below
    1e-12 is dropped, and a state's multipliers ascend, each weighted by its
    share of the state's mass.  States without mass carry no information of
    their own; they inherit the nearest earlier reachable state's mixture (or
    the first reachable one, when the solution parks all mass beyond them).
    This constant continuation keeps solved win curves weakly increasing
    where a skip default would drop them to zero, and the inherited states
    are visited too rarely for the choice to affect value or spending
    materially.  State m stays pinned to bid-1 when forced.
    """
    by_state: dict[int, list[tuple[float, float]]] = {}
    mus_all = prob.mus
    for s, a, v in zip(
        np.asarray(states).tolist(), np.asarray(actions).tolist(), np.asarray(masses).tolist()
    ):
        if v > _MASS_TOL:
            by_state.setdefault(s, []).append((float(mus_all[a]), v))
    per_state: list[Optional[Mixture]] = []
    for state in range(1, prob.m + 1):
        entries = by_state.get(state)
        if not entries:
            per_state.append(None)
            continue
        entries.sort()
        total = sum(v for _, v in entries)
        per_state.append(([mu for mu, _ in entries], [v / total for _, v in entries]))
    if all(m is None for m in per_state):
        per_state = [([SKIP], [1.0])] * prob.m
    else:
        first = next(i for i, m in enumerate(per_state) if m is not None)
        for i in range(first):
            per_state[i] = per_state[first]
        for i in range(first + 1, prob.m):
            if per_state[i] is None:
                per_state[i] = per_state[i - 1]
    if prob.bid1_at_m:
        per_state[-1] = ([0.0], [1.0])
    return per_state


def policy_from_mixtures(prob: OccupancyProblem, mixtures: list[Mixture]) -> PolicyVec:
    """The policy playing `state_mixtures` output."""
    states = tuple(tuple(zip(mus, wts)) for mus, wts in mixtures)
    return PolicyVec(prob.m, states, bid1_at_m=prob.bid1_at_m)


def policy_from_occupancy(prob: OccupancyProblem, q: dict[tuple[int, int], float]) -> PolicyVec:
    """Per-state mixtures of the occupancy q[(state, action index)]."""
    keys = list(q)
    mixtures = state_mixtures(prob, [s for s, _ in keys], [i for _, i in keys], list(q.values()))
    return policy_from_mixtures(prob, mixtures)


def solve_benchmark(
    market: MarketDistribution,
    reward: RewardFn,
    m: int,
    rho: float,
    bid1_at_m: bool = False,
    tol: float = 1e-9,
) -> BenchResult:
    """Optimal per-state multiplier mixtures for the m-state budgeted chain.

    The action set is the market's candidate multipliers; per state, the
    optimum mixes at most two of them."""
    actions = candidate_multipliers(market)
    w, p = win_pay_curve(market, actions)
    prob = occupancy_problem((actions, w, p), reward, m, rho, bid1_at_m)
    sol = solve_occupancy_problem(prob, tol)
    policy = policy_from_occupancy(prob, sol.q)
    win_vec, pay_vec = policy.action_curves(market)
    occupancy = {(s, float(prob.mus[i])): v for (s, i), v in sol.q.items()}
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


def stationary(win_vec: np.ndarray) -> np.ndarray:
    """Stationary distribution of the capped chain driven by win_vec.

    pi_l = reach_l / L for l < m and pi_m = reach_m / (W_m L); W_m must be
    positive, otherwise state m absorbs and no distribution exists."""
    w = np.asarray(win_vec, dtype=float)
    m = w.shape[0]
    if w[m - 1] <= 0.0:
        raise ValueError("degenerate chain: state-m win probability is zero")
    reach = reach_probabilities(w)
    length = float(np.sum(reach[: m - 1]) + reach[m - 1] / w[m - 1])
    pi = reach / length
    pi[m - 1] = reach[m - 1] / (w[m - 1] * length)
    return pi


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
    reach = reach_probabilities(w)
    length = float(np.sum(reach[: m - 1]) + reach[m - 1] / w[m - 1])
    r_m = np.array([eval_r_capped(reward, l, m) for l in range(0, m + 1)])
    increments = np.diff(r_m)
    reward_conv = float(np.dot(increments, reach))
    pay_conv = float(np.dot(p[: m - 1], reach[: m - 1]) + (p[m - 1] / w[m - 1]) * reach[m - 1])
    pi = reach / length
    pi[m - 1] = reach[m - 1] / (w[m - 1] * length)
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
