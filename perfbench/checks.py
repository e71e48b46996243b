"""Correctness checks that do not trust the package under test.

Nothing here imports ``spacing_auctions``.  The chain occupancy LP is rebuilt
from the market atoms and solved with HiGHS (``scipy.optimize.linprog``), the
polylogarithm behind the fixed-bid closed form is summed locally, and the
baseline identities are derived from the simulators' stated rules.  Every
check raises ``CheckError`` with a message naming the value that failed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """A program output disagrees with its independently derived value."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# chain LP, rebuilt from the atoms


def action_curves(atoms) -> tuple[np.ndarray, np.ndarray]:
    """(W, P) of every multiplier action: 0, each distinct ratio c/p, skip.

    Action mu wins atom (p, c) when c/p >= mu (p = 0 always wins a finite
    mu); W sums prob*c and P sums prob*p over the atoms won.  Skip wins
    nothing.  Inputs with free convertible atoms (p = 0, c > 0) would need an
    extra action and are not used by the workloads.
    """
    a = np.asarray(atoms, dtype=float)
    p, c, q = a[:, 0], a[:, 1], a[:, 2]
    require(not np.any((p == 0.0) & (c > 0.0)), "atoms with free conversions are unsupported")
    priced = (p > 0.0) & (c > 0.0)
    mus = np.concatenate([[0.0], np.unique(c[priced] / p[priced])])
    with np.errstate(divide="ignore"):
        ratio = np.where(p > 0.0, c / np.where(p > 0.0, p, 1.0), np.inf)
    wins = ratio[None, :] >= mus[:, None]
    w = np.concatenate([wins @ (q * c), [0.0]])
    pay = np.concatenate([wins @ (q * p), [0.0]])
    return w, pay


def chain_lp_optimum(atoms, m: int, rho: float) -> float:
    """Optimal time-average reward of the m-state chain with sqrt rewards and
    no forced bid in state m, solved by HiGHS on the full occupancy LP:

        max  sum_{l,i} sqrt(l) W_i q[l,i]
        s.t. sum_{l,i} P_i q[l,i] <= rho,   sum q = 1,   q >= 0
             sum_i q[1,i] = sum_{l,i} W_i q[l,i]
             sum_i q[l,i] = sum_{k : min(k+1, m) = l} sum_i (1 - W_i) q[k,i]   (l >= 2)
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix, vstack

    w, pay = action_curves(atoms)
    n = w.shape[0]
    state = np.repeat(np.arange(1, m + 1), n)
    act = np.tile(np.arange(n), m)
    cols = np.arange(m * n)
    wi = w[act]
    # row 0 is state 1's flow row, row l-1 the flow row of state l
    own = state >= 2
    rows = np.concatenate([np.zeros(m * n, dtype=int), state[own] - 1, np.minimum(state + 1, m) - 1])
    cidx = np.concatenate([cols, cols[own], cols])
    vals = np.concatenate([(state == 1) - wi, np.ones(own.sum()), -(1.0 - wi)])
    flow = coo_matrix((vals, (rows, cidx)), shape=(m, m * n))
    a_eq = vstack([flow, np.ones((1, m * n))]).tocsr()
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    res = linprog(
        -np.sqrt(state) * wi,
        A_ub=pay[act][None, :],
        b_ub=[rho],
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs-ipm",
    )
    require(res.status == 0, f"HiGHS did not solve the chain LP: {res.message}")
    return -float(res.fun)


def check_reference(program_opt: float, highs_opt: float, tol: float = 1e-7) -> None:
    require(
        abs(program_opt - highs_opt) <= tol,
        f"reference_opt {program_opt!r} differs from the HiGHS optimum {highs_opt!r} by more than {tol}",
    )


# ---------------------------------------------------------------------------
# per-run invariants


def check_budget_and_accounting(run: dict) -> None:
    """Hard budget guard and reward domination, for any simulated run."""
    T, rho = run["T"], run["rho"]
    require(
        run["spend"] <= rho * T + 1e-9,
        f"{run['algorithm']} seed {run['seed']}: spend {run['spend']} exceeds rho*T = {rho * T}",
    )
    require(
        run["utility_true"] >= run["utility_accounted"] - 1e-9,
        f"{run['algorithm']} seed {run['seed']}: utility_true {run['utility_true']} "
        f"< utility_accounted {run['utility_accounted']}",
    )


def check_window(run: dict, optimum: float, window: tuple[float, float]) -> None:
    """utility_true / T lies in [lo, hi] * optimum."""
    lo, hi = window
    ratio = run["utility_true"] / run["T"] / optimum
    require(
        lo <= ratio <= hi,
        f"{run['algorithm']} seed {run['seed']}: utility per round is {ratio:.4f} of the "
        f"optimum, outside [{lo}, {hi}]",
    )


def check_unit_gap_utility(run: dict) -> None:
    """Bidding 1 every round with c = 1 converts at gap 1 until the budget
    runs out, so utility equals conversions."""
    require(
        run["utility_true"] == float(run["conversions"]),
        f"always_one seed {run['seed']}: utility {run['utility_true']} != "
        f"conversions {run['conversions']}",
    )


def check_fixed_interval(run: dict, period: int) -> None:
    """Bidding 1 on rounds 1 (mod period) with c = 1: every bid wins and
    converts, the first at gap 1 and each later one at gap `period`, and
    bidding stops only when the budget guard (remaining budget >= 1) fails."""
    T, conv = run["T"], run["conversions"]
    slots = -(-T // period)
    expected = 1.0 + (conv - 1) * math.sqrt(period) if conv else 0.0
    tag = f"{run['algorithm']} seed {run['seed']}"
    require(run["wins"] == conv, f"{tag}: {run['wins']} wins but {conv} conversions")
    require(conv <= slots, f"{tag}: {conv} conversions exceed the {slots} bidding slots")
    require(
        abs(run["utility_true"] - expected) <= 1e-9 * max(1.0, expected),
        f"{tag}: utility {run['utility_true']} != 1 + (conversions - 1) * sqrt({period}) = {expected}",
    )
    if conv < slots:
        require(
            run["rho"] * T - run["spend"] < 1.0,
            f"{tag}: stopped after {conv} of {slots} slots with budget left "
            f"{run['rho'] * T - run['spend']}",
        )


def polylog_half_neg(x: float) -> float:
    """Li_{-1/2}(x) = sum_{n >= 1} sqrt(n) x^n, summed until terms vanish."""
    require(0.0 <= x < 1.0, f"series diverges at x = {x}")
    if x == 0.0:
        return 0.0
    n_max = int(math.ceil(60.0 / -math.log(x))) + 10   # x^n < e^-60
    n = np.arange(1, n_max + 1, dtype=float)
    return float(np.sum(np.sqrt(n) * x ** n))


def fixed_bid_utility(rho: float) -> float:
    """Per-round utility of bidding b = sqrt(2 rho) on uniform [0, 1] prices
    with c = 1 and sqrt rewards: wins are Bernoulli(b), gaps geometric, so
    E[sqrt(gap)] * b = b^2 / (1 - b) * Li_{-1/2}(1 - b) = 2 rho / (1 - b) * Li."""
    b = math.sqrt(2.0 * rho)
    return 2.0 * rho / (1.0 - b) * polylog_half_neg(1.0 - b)


def check_fixed_bid(run: dict, rho: float, rel_tol: float) -> None:
    want = fixed_bid_utility(rho)
    got = run["utility_true"] / run["T"]
    require(
        abs(got - want) <= rel_tol * want,
        f"fixed bid seed {run['seed']}: utility per round {got} is {abs(got / want - 1):.4%} "
        f"from the closed form {want}, beyond {rel_tol:.2%}",
    )


# ---------------------------------------------------------------------------
# trace cross-checks


def check_cold_solve_count(wrapped: int, from_records: int) -> None:
    require(
        wrapped == from_records,
        f"{wrapped} wrapped cold solves but the records count {from_records}",
    )


def check_rng_draws(draws: int, rounds: int, consultations: int, wins: int) -> None:
    """One draw per round for the atom, one per policy consultation, one per
    win for the conversion coin."""
    want = rounds + consultations + wins
    require(
        draws == want,
        f"{draws} uniform draws, expected rounds {rounds} + consultations {consultations} "
        f"+ wins {wins} = {want}",
    )
