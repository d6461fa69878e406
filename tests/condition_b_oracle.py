"""Condition b from its textbook statement: the reference that b's report and
the purified state's marginals are compared with.

Every Kraus pair gives one code-sector block M_jk = code† E_j† E_k code,
formed by plain matrix products. B_jk is its A-average, tr_A M_jk / dim_a,
and the pair residual is ||M_jk - 1_A tensor B_jk||_F, with the lifted
operator built by kron. Nothing here shares code with oqec.conditions.
"""

import numpy as np

from oqec.linalg import dag


def gram_blocks(dec, ch):
    """The (k, k, dim_code, dim_code) array of M_jk = code† E_j† E_k code."""
    code = dec.code_vectors()
    return np.array([[dag(code) @ dag(ej) @ ek @ code for ek in ch.kraus] for ej in ch.kraus])


def condition_b_oracle(dec, ch):
    """(b_blocks, pair_residuals, residual), pair by pair: B_jk and
    ||M_jk - 1_A tensor B_jk||_F, and the pair residuals in quadrature."""
    da, db, k = dec.dim_a, dec.dim_b, len(ch.kraus)
    g = gram_blocks(dec, ch)
    blocks = np.zeros((k, k, db, db), dtype=g.dtype)
    pair = np.zeros((k, k))
    for j in range(k):
        for l in range(k):
            blocks[j, l] = np.trace(g[j, l].reshape(da, db, da, db), axis1=0, axis2=2) / da
            pair[j, l] = np.linalg.norm(g[j, l] - np.kron(np.eye(da), blocks[j, l]))
    return blocks, pair, float(np.linalg.norm(pair))
