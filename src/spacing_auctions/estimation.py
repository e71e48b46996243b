"""Empirical estimation of the win/payment curves from observed samples.

The online learner logs one (price, conversion rate) pair per round and
re-solves its plan on the empirical distribution; these helpers build that
distribution and quantify how far its curves sit from another market's.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .market import MarketDistribution, MarketAtom, candidate_multipliers, win_pay_curve, win_pay_mu

SamplePair = tuple[float, float]


def empirical_market(samples: Sequence[SamplePair]) -> MarketDistribution:
    """Each distinct (p, c) pair becomes an atom with probability count/n."""
    if not samples:
        raise ValueError("cannot build an empirical market from zero samples")
    counts = Counter((float(p), float(c)) for p, c in samples)
    n = len(samples)
    return MarketDistribution(
        MarketAtom(p, c, k / n) for (p, c), k in sorted(counts.items())
    )


def empirical_wp(samples: Sequence[SamplePair], mu: float) -> tuple[float, float]:
    """(W_n, P_n) of the sample set at multiplier mu; identical to evaluating
    the empirical market exactly."""
    return win_pay_mu(empirical_market(samples), mu)


def quantize_pair(p: float, c: float, grid: int) -> SamplePair:
    """Snap one (p, c) pair to the 1/grid lattice, the rule that bounds the
    empirical support when sample streams get very long."""
    return round(p * grid) / grid, round(c * grid) / grid


def quantize_samples(samples: Iterable[SamplePair], grid: int) -> list[SamplePair]:
    """``quantize_pair`` applied to every sample."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    return [quantize_pair(p, c, grid) for p, c in samples]


def _evaluation_grid(a: MarketDistribution, b: MarketDistribution) -> np.ndarray:
    """Multipliers that expose every step of both curves: the union of the
    candidate sets, midpoints between consecutive finite candidates, and one
    point beyond the largest (both curves are constant past it)."""
    cands = np.unique(np.concatenate([candidate_multipliers(a), candidate_multipliers(b)]))
    finite = cands[np.isfinite(cands)]
    pts = [finite]
    if finite.shape[0] > 1:
        pts.append((finite[:-1] + finite[1:]) / 2.0)
    pts.append(np.array([finite[-1] + 1.0, math.inf]))
    return np.unique(np.concatenate(pts))


def sup_error(a: MarketDistribution, b: MarketDistribution) -> tuple[float, float]:
    """(sup_mu |W_a - W_b|, sup_mu |P_a - P_b|), exact.

    Both curves are step functions jumping only at candidate multipliers, so
    evaluating on candidates plus midpoints covers every value either curve
    takes."""
    grid = _evaluation_grid(a, b)
    wa, pa = win_pay_curve(a, grid)
    wb, pb = win_pay_curve(b, grid)
    return float(np.max(np.abs(wa - wb))), float(np.max(np.abs(pa - pb)))
