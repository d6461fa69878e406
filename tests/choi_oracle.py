"""Choi distance between Kraus channels: the reference the tests compare
channels with, since two Kraus lists describe the same map iff their Choi
matrices agree.
"""

import numpy as np

from oqec.channels import Channel, _vec_columns
from oqec.errors import DimensionError
from oqec.linalg import dag


def choi_distance(a: Channel, b: Channel) -> float:
    """Frobenius distance between Choi matrices; zero iff the maps agree.

    With W_a, W_b the vec-stacks of the Kraus operators, zero-padded to
    k = max(k_a, k_b) columns, the Choi difference W_a W_a† - W_b W_b† is
    (X Y† + Y X†)/2 for X = W_a + W_b and Y = W_a - W_b. A thin QR,
    [X | Y] = Q [R_X | R_Y], leaves its Frobenius norm as
    ||R_X R_Y† + R_Y R_X†||_F / 2, so memory stays O(k d_in d_out) and no
    d_in d_out square matrix is formed. Identical inputs give Y = 0 exactly,
    hence R_Y = 0 and a distance of exactly 0.0. The Kraus inner-product form
    sum |tr(A_i† A_j)|^2 + sum |tr(B_i† B_j)|^2 - 2 sum |tr(A_i† B_j)|^2 is
    not used: it subtracts squared norms of order one and cancels
    catastrophically when the channels nearly agree.
    """
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        raise DimensionError("channels act on different spaces")
    wa, wb = _vec_columns(a), _vec_columns(b)
    ka, kb = wa.shape[1], wb.shape[1]
    k = max(ka, kb)
    xy = np.zeros((wa.shape[0], 2 * k), dtype=np.result_type(wa, wb))
    xy[:, :ka] = xy[:, k : k + ka] = wa
    xy[:, :kb] += wb
    xy[:, k : k + kb] -= wb
    r = np.linalg.qr(xy, mode="r")
    m = r[:, :k] @ dag(r[:, k:])
    return float(np.linalg.norm(m + dag(m))) / 2
