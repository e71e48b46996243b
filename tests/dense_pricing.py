"""Dense oracles the tests hold the structured solver against: the
pricing pass over every column of an occupancy program (for threshold
pricing and the simplex's entering choices), and a basis matrix filled
column by column with its inverse through one LU of the whole matrix (for
the chain split)."""

from dataclasses import replace

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from spacing_auctions.benchmark import _pricing_terms, basis_layout


def zero_reward(prob):
    """The twin of `prob` with every reward 0, as phase 1 prices."""
    return replace(prob, r=np.zeros(prob.m))


def reduced_costs(prob, y):
    """Reduced costs for every structural column plus the slack, in id
    order, each the float a W_i + beta - gamma P_i of ``_pricing_terms``."""
    m, n = prob.m, prob.n_actions
    w, p = prob.w, prob.p
    a, beta, gamma = _pricing_terms(prob, y)
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


def basis_matrix(prob, basis):
    """Columns of the reduced system for the given ids, filled from their
    ``basis_layout`` (C-ordered)."""
    layout = basis_layout(prob, basis)
    return np.ascontiguousarray(
        layout.fill(prob, np.zeros((prob.n_rows, layout.ids.shape[0]), order="F")))


def dense_inverse(B):
    """B^-1 (C-ordered) through LAPACK getrf and getrs on the identity;
    raises LinAlgError when getrf meets an exactly zero pivot."""
    lu, piv, info = dgetrf(B)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.ascontiguousarray(dgetrs(lu, piv, np.eye(B.shape[0]))[0])
