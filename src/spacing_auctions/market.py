"""Finite-support joint price/conversion-rate distributions.

A bidding rule is indexed by a multiplier mu and bids min(1, c/mu) after
seeing the conversion rate c; mu = 0 means "always bid 1" and mu = inf means
"skip the auction" (a first-class action: bidding 0 could still win an atom
with price 0, skipping cannot).  The win indicator is c >= mu * p with ties
winning; we evaluate it as c/p >= mu (p > 0) so that a candidate multiplier
c_i/p_i wins its own atom exactly, in floating point, both here and in the
simulators.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .rng import SplitMix64

SKIP = math.inf  # the multiplier encoding "never participate"

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class MarketAtom:
    p: float
    c: float
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"price {self.p} outside [0, 1]")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"conversion rate {self.c} outside [0, 1]")
        if self.prob <= 0.0:
            raise ValueError(f"atom probability {self.prob} must be positive")


class MarketDistribution:
    """Immutable finite-support distribution over (price, conversion rate).

    Duplicate (p, c) pairs are merged by summing probability; probabilities
    must total 1 within 1e-12.
    """

    __slots__ = ("atoms", "_p", "_c", "_prob", "_cum", "_sorted_ratio", "_sorted_wc",
                 "_sorted_wp")

    def __init__(self, atoms: Iterable[MarketAtom]):
        merged: dict[tuple[float, float], float] = {}
        for a in atoms:
            key = (a.p, a.c)
            merged[key] = merged.get(key, 0.0) + a.prob
        if not merged:
            raise ValueError("market needs at least one atom")
        total = sum(merged.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total}, not 1")
        items = sorted(merged.items())
        self.atoms = tuple(MarketAtom(p, c, q) for (p, c), q in items)
        self._p = np.array([a.p for a in self.atoms])
        self._c = np.array([a.c for a in self.atoms])
        self._prob = np.array([a.prob for a in self.atoms])
        cum = np.cumsum(self._prob)
        cum[-1] = 1.0
        self._cum = cum.tolist()
        # Atoms sorted by bid-through ratio c/p: suffix sums give W(mu) and
        # P(mu) for any mu in O(log n).
        order, self._sorted_ratio = ratio_order(self._p, self._c)
        self._sorted_wc, self._sorted_wp = suffix_sums(
            self._prob[order], self._p[order], self._c[order]
        )

    @classmethod
    def from_tuples(cls, tuples: Sequence[tuple[float, float, float]]) -> "MarketDistribution":
        return cls(MarketAtom(p, c, q) for p, c, q in tuples)

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MarketDistribution({len(self.atoms)} atoms)"

    def sample(self, rng: SplitMix64) -> tuple[float, float]:
        """Draw one (price, conversion rate) atom; one uniform consumed."""
        i = bisect_right(self._cum, rng.uniform())
        if i >= len(self.atoms):
            i = len(self.atoms) - 1
        a = self.atoms[i]
        return a.p, a.c


def ratio_order(p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order sorting atoms by bid-through ratio c/p (inf for p = 0),
    and the ratios in that order."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(p > 0.0, c / p, math.inf)
    order = np.argsort(ratio, kind="stable")
    return order, ratio[order]


def suffix_sums(prob: np.ndarray, p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W and P suffix sums over ratio-sorted atoms: entry i sums prob*c (prob*p)
    over atoms i.., the ones won when mu <= the i-th ratio, and a trailing 0
    serves mu = inf.  Clipped: cumulative rounding must not leave [0, 1]."""
    wc = np.clip(np.concatenate((np.cumsum((prob * c)[::-1])[::-1], [0.0])), 0.0, 1.0)
    wp = np.clip(np.concatenate((np.cumsum((prob * p)[::-1])[::-1], [0.0])), 0.0, 1.0)
    return wc, wp


def curve_positions(sorted_ratio: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Index into `suffix_sums` for each multiplier: the first atom whose
    ratio is at least mu (ties win), and the trailing 0 for mu = inf."""
    mus = np.asarray(mus, dtype=float)
    finite = np.isfinite(mus)
    idx = np.searchsorted(sorted_ratio, np.where(finite, mus, 0.0), side="left")
    return np.where(finite, idx, sorted_ratio.shape[0])


def candidate_set(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sorted deduplicated {c/p : p > 0, c > 0} plus the endpoints 0 and inf.

    Atoms with p = 0 are won by every finite multiplier and atoms with c = 0
    never convert, so neither contributes a ratio.  When convertible
    zero-price atoms coexist with priced atoms, one extra candidate above all
    ratios represents "bid just above zero": it collects the free conversions
    without paying for anything, an action skip cannot replicate.
    """
    useful = (p > 0.0) & (c > 0.0)
    with np.errstate(over="ignore"):
        ratios = c[useful] / p[useful]
    extra = []
    if np.any((p == 0.0) & (c > 0.0)) and np.any(p > 0.0):
        extra.append(2.0 * float(ratios.max()) if ratios.size else 1.0)
    return np.unique(np.array([0.0, *ratios.tolist(), *extra, math.inf]))


def win_pay_mu(market: MarketDistribution, mu: float) -> tuple[float, float]:
    """(W, P) for multiplier mu: conversion mass and expected payment won.

    W = sum prob*c over atoms with c >= mu*p, P = sum prob*p over the same
    atoms; mu = inf skips everything and returns (0, 0).
    """
    if mu == SKIP:
        return 0.0, 0.0
    if mu < 0.0:
        raise ValueError(f"multiplier must be nonnegative, got {mu}")
    i = np.searchsorted(market._sorted_ratio, mu, side="left")
    return float(market._sorted_wc[i]), float(market._sorted_wp[i])


def win_pay_curve(market: MarketDistribution, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized win_pay_mu over an array of multipliers (inf allowed)."""
    idx = curve_positions(market._sorted_ratio, mus)
    return market._sorted_wc[idx], market._sorted_wp[idx]


def candidate_multipliers(market: MarketDistribution) -> np.ndarray:
    """The market's candidate multipliers; see `candidate_set`."""
    return candidate_set(market._p, market._c)


def mean_conversion(market: MarketDistribution) -> float:
    """c-bar, the per-round conversion mass of always bidding 1."""
    return min(1.0, max(0.0, float(np.dot(market._prob, market._c))))


def mean_price(market: MarketDistribution) -> float:
    return min(1.0, max(0.0, float(np.dot(market._prob, market._p))))


def bid_for(mu: float, c: float) -> Optional[float]:
    """Bid min(1, c/mu); None signals skip (mu = inf)."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"conversion rate {c} outside [0, 1]")
    if mu == SKIP:
        return None
    if mu < 0.0:
        raise ValueError(f"multiplier must be nonnegative, got {mu}")
    if mu == 0.0:
        return 1.0
    return min(1.0, c / mu)


def discretize_uniform(K: int) -> MarketDistribution:
    """Midpoint grid for uniform prices on [0, 1] with conversion rate 1.

    K atoms at p = (2i-1)/(2K) with probability 1/K each, so E[p] = 1/2
    exactly.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return MarketDistribution(
        MarketAtom((2 * i - 1) / (2 * K), 1.0, 1.0 / K) for i in range(1, K + 1)
    )


def market_from_config(fragment: dict) -> MarketDistribution:
    """Build a market from the config fragment {"type": ..., ...}."""
    kind = fragment.get("type")
    if kind == "atoms":
        return MarketDistribution.from_tuples([tuple(t) for t in fragment["atoms"]])
    if kind == "uniform_grid":
        return discretize_uniform(int(fragment["K"]))
    raise ValueError(f"unknown market type {kind!r}")
