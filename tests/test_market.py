"""Tests for the market distribution and multiplier bidding rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacing_auctions.market import (
    SKIP,
    MarketAtom,
    MarketDistribution,
    bid_for,
    candidate_multipliers,
    discretize_uniform,
    market_from_config,
    mean_conversion,
    mean_price,
    suffix_sums,
    win_pay_curve,
    win_pay_mu,
)
from spacing_auctions.rng import SplitMix64


def atoms_market(*tuples):
    return MarketDistribution.from_tuples(list(tuples))


@st.composite
def random_markets(draw, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    ps = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    cs = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    ws = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    total = sum(ws)
    return atoms_market(*[(p, c, w / total) for p, c, w in zip(ps, cs, ws)])


def test_win_pay_tie_counts_as_win():
    m = atoms_market((0.5, 1.0, 0.5), (0.25, 1.0, 0.5))
    w, p = win_pay_mu(m, 2.0)
    assert w == pytest.approx(1.0)
    assert p == pytest.approx(0.375)


def test_win_pay_skip():
    m = atoms_market((0.0, 1.0, 1.0))
    assert win_pay_mu(m, SKIP) == (0.0, 0.0)


def test_win_pay_uniform_grid_k4():
    m = discretize_uniform(4)
    w, p = win_pay_mu(m, 2.0)
    assert w == pytest.approx(0.5)
    assert p == pytest.approx(0.125)


def test_win_pay_mu_zero_is_means():
    m = atoms_market((0.5, 0.2, 0.5), (0.3, 0.8, 0.5))
    w, p = win_pay_mu(m, 0.0)
    assert w == pytest.approx(mean_conversion(m))
    assert p == pytest.approx(mean_price(m))


def test_candidates_basic():
    m = atoms_market((0.5, 1.0, 0.5), (0.25, 1.0, 0.5))
    assert candidate_multipliers(m).tolist() == [0.0, 2.0, 4.0, math.inf]


def test_candidates_zero_price_atom_contributes_nothing():
    m = atoms_market((0.0, 1.0, 1.0))
    assert candidate_multipliers(m).tolist() == [0.0, math.inf]


def test_candidates_equal_ratios_merge():
    m = atoms_market((0.5, 1.0, 0.5), (0.25, 0.5, 0.5))
    assert candidate_multipliers(m).tolist() == [0.0, 2.0, math.inf]


def test_mean_conversion_examples():
    assert mean_conversion(atoms_market((0.3, 1.0, 1.0))) == 1.0
    assert mean_conversion(atoms_market((0.5, 0.2, 0.5), (0.5, 0.8, 0.5))) == pytest.approx(0.5)
    assert mean_conversion(atoms_market((0.5, 0.0, 1.0))) == 0.0


def test_bid_for():
    assert bid_for(2.0, 1.0) == 0.5
    assert bid_for(0.5, 1.0) == 1.0
    assert bid_for(SKIP, 0.7) is None
    assert bid_for(0.0, 0.3) == 1.0


def test_discretize_uniform_values():
    m1 = discretize_uniform(1)
    assert [(a.p, a.c, a.prob) for a in m1.atoms] == [(0.5, 1.0, 1.0)]
    m2 = discretize_uniform(2)
    assert [(a.p, a.c, a.prob) for a in m2.atoms] == [(0.25, 1.0, 0.5), (0.75, 1.0, 0.5)]
    assert mean_price(m2) == pytest.approx(0.5)
    assert mean_price(discretize_uniform(4)) == pytest.approx(0.5)


def test_duplicate_atoms_merged():
    m = atoms_market((0.5, 1.0, 0.25), (0.5, 1.0, 0.25), (0.25, 1.0, 0.5))
    assert len(m) == 2
    probs = {(a.p, a.c): a.prob for a in m.atoms}
    assert probs[(0.5, 1.0)] == pytest.approx(0.5)


def test_bad_probability_sum_rejected():
    with pytest.raises(ValueError):
        atoms_market((0.5, 1.0, 0.6))


def test_atom_validation():
    with pytest.raises(ValueError):
        MarketAtom(1.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        MarketAtom(0.5, -0.1, 1.0)
    with pytest.raises(ValueError):
        MarketAtom(0.5, 0.5, 0.0)


def test_sample_single_atom():
    m = atoms_market((0.3, 0.7, 1.0))
    rng = SplitMix64(1)
    assert m.sample(rng) == (0.3, 0.7)


def test_sample_deterministic_given_seed():
    m = discretize_uniform(10)
    a = [m.sample(SplitMix64(99)) for _ in range(50)]
    rng = SplitMix64(99)
    b = [m.sample(rng) for _ in range(50)]
    # fresh generator per draw differs from a shared stream; same seed + same
    # consumption order must match exactly
    rng1, rng2 = SplitMix64(7), SplitMix64(7)
    assert [m.sample(rng1) for _ in range(200)] == [m.sample(rng2) for _ in range(200)]
    assert a[0] == b[0]


class FixedDraw:
    """A stand-in generator whose every draw is `u`."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def test_sample_returns_an_atom_at_both_ends_of_the_unit_interval():
    # the last cumulative probability is pinned to 1, whether the atoms sum
    # just below or just above it; a tiny last atom leaves the sum before
    # it above the pin
    for excess in (-(2.0**-52), 2.0**-52):
        for tail in (0.25, 2.0**-60):
            m = atoms_market((0.2, 0.5, 0.5), (0.4, 0.6, 0.5 - tail + excess), (0.9, 1.0, tail))
            atoms = [(a.p, a.c) for a in m.atoms]
            assert m.sample(FixedDraw(0.0)) == atoms[0]
            assert m.sample(FixedDraw(1.0 - 2.0**-53)) in atoms


def test_sample_frequencies_converge():
    m = atoms_market((0.2, 1.0, 0.5), (0.8, 1.0, 0.5))
    rng = SplitMix64(1234)
    n = 100_000
    hits = sum(1 for _ in range(n) if m.sample(rng)[0] == 0.2)
    assert abs(hits / n - 0.5) < 0.01


@settings(max_examples=40, deadline=None)
@given(m=random_markets(), mu=st.floats(0.0, 20.0))
def test_win_pay_matches_direct_sum(m, mu):
    # independent oracle: evaluate the indicator sum atom by atom
    w = sum(a.prob * a.c for a in m.atoms if a.p == 0.0 or a.c / a.p >= mu)
    p = sum(a.prob * a.p for a in m.atoms if a.p == 0.0 or a.c / a.p >= mu)
    got_w, got_p = win_pay_mu(m, mu)
    assert got_w == pytest.approx(w, abs=1e-12)
    assert got_p == pytest.approx(p, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(m=random_markets())
def test_win_pay_monotone_and_bounded(m):
    cands = candidate_multipliers(m)
    finite = cands[np.isfinite(cands)]
    grid = [0.0]
    for lo, hi in zip(finite[:-1], finite[1:]):
        grid.extend([float(lo), float(lo) + (float(hi) - float(lo)) / 2.0])
    grid.extend([float(finite[-1]), float(finite[-1]) + 1.0, math.inf])
    ws, ps = win_pay_curve(m, np.array(grid))
    assert np.all(np.diff(ws) <= 1e-12)
    assert np.all(np.diff(ps) <= 1e-12)
    assert np.all(ws <= mean_conversion(m) + 1e-12)
    assert np.all(ps <= mean_price(m) + 1e-12)


@settings(max_examples=30, deadline=None)
@given(m=random_markets())
def test_steps_only_at_candidates(m):
    # between consecutive candidates the curve is constant
    cands = candidate_multipliers(m)
    finite = cands[np.isfinite(cands)]
    for lo, hi in zip(finite[:-1], finite[1:]):
        a = float(lo) + (float(hi) - float(lo)) * 0.25
        b = float(lo) + (float(hi) - float(lo)) * 0.75
        if not (float(lo) < a <= b < float(hi)):
            continue  # candidate gap below float resolution
        assert win_pay_mu(m, a) == win_pay_mu(m, b)


def test_merged_market_matches_raw_atom_list():
    raw = [(0.5, 1.0, 0.2), (0.5, 1.0, 0.3), (0.25, 0.8, 0.5)]
    m = atoms_market(*raw)
    for mu in candidate_multipliers(m):
        if math.isinf(mu):
            continue
        w = sum(q * c for p, c, q in raw if p == 0.0 or c / p >= mu)
        pay = sum(q * p for p, c, q in raw if p == 0.0 or c / p >= mu)
        got_w, got_p = win_pay_mu(m, mu)
        assert abs(got_w - w) <= 1e-12
        assert abs(got_p - pay) <= 1e-12


def test_market_from_config():
    m = market_from_config({"type": "atoms", "atoms": [[0.5, 1.0, 1.0]]})
    assert len(m) == 1
    g = market_from_config({"type": "uniform_grid", "K": 3})
    assert len(g) == 3
    with pytest.raises(ValueError):
        market_from_config({"type": "gaussian"})


def reference_suffix_sums(prob, p, c):
    """Reversed cumulative sums with a trailing 0, clipped to [0, 1]."""
    wc = np.clip(np.concatenate((np.cumsum((prob * c)[::-1])[::-1], [0.0])), 0.0, 1.0)
    wp = np.clip(np.concatenate((np.cumsum((prob * p)[::-1])[::-1], [0.0])), 0.0, 1.0)
    return wc, wp


def test_suffix_sums_bitwise_equal_to_reference():
    rng = np.random.default_rng(17)
    ones = np.ones(3)
    # these probabilities sum to 1 + 2^-52 when accumulated from the end
    above = np.array([0.28571428571428575, 0.33333333333333337, 0.38095238095238104])
    assert np.cumsum(above[::-1])[-1] > 1.0
    cases = [
        (np.array([1.0]), np.array([0.4]), np.array([0.9])),        # single atom
        (np.array([0.0, 1.0, 0.0]), rng.random(3), rng.random(3)),  # zero probabilities
        (above, ones, ones),                                        # clipped to 1
    ]
    for n in (1, 2, 3, 51, 500):
        for _ in range(50):
            prob = rng.random(n)
            prob[rng.random(n) < 0.2] = 0.0
            prob /= max(prob.sum(), 1e-300)
            cases.append((prob, rng.random(n), rng.random(n)))
    for prob, p, c in cases:
        got, want = suffix_sums(prob, p, c), reference_suffix_sums(prob, p, c)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (prob.shape[0] + 1,)
            assert g.tobytes() == w.tobytes()
    wc, wp = suffix_sums(above, ones, ones)
    assert wc[0] == wp[0] == 1.0 and wc[-1] == wp[-1] == 0.0
