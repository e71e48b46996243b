"""The dense pricing pass: reduced costs of every column of an occupancy
program, the oracle the tests hold threshold pricing and the simplex's
entering choices against."""

import numpy as np

from spacing_auctions.benchmark import _pricing_terms


def reduced_costs(prob, y, phase1):
    """Reduced costs for every structural column plus the slack, in id
    order, each the float a W_i + beta - gamma P_i of ``_pricing_terms``."""
    m, n = prob.m, prob.n_actions
    w, p = prob.w, prob.p
    a, beta, gamma = _pricing_terms(prob, y, phase1)
    rows = m if not prob.bid1_at_m else m - 1
    out = np.empty(prob.n_cols + 1)
    D = out[: rows * n].reshape(rows, n)
    np.multiply(a[:rows, None], w[None, :], out=D)
    D += beta[:rows, None]
    D -= (gamma * p)[None, :]
    if prob.bid1_at_m:
        i = prob.bid1_idx
        out[rows * n] = a[m - 1] * w[i] + beta[m - 1] - gamma * p[i]
    out[-1] = -gamma
    return out
