"""Weight-one depolarizing noise on n qubits, built from its cells.

Its Kraus operators are sqrt(1 - 3 n p) 1 and sqrt(p) X, Y and Z on each
site, site 0 the most significant bit of a basis index: 1 + 3 n complex
operators with one nonzero per row, the Pauli noise subsystem codes face.
Row r of X or Y on a site holds its one cell in column r with that site's
bit flipped, and row r of Z in column r, so the channel is kept as those
cells and no (1 + 3 n, 2^n, 2^n) stack is formed.

kept_as_cells rebuilds any stack from its cells, as a builder that lists
them would: Channel(stack) itself never looks for them.
"""

import numpy as np

from oqec.channels import Channel


def weight_one_depolarizing(n: int, p: float) -> Channel:
    dim = 2**n
    x = np.arange(dim)
    cols = np.empty((1 + 3 * n, dim), np.intp)
    vals = np.empty((1 + 3 * n, dim), np.complex128)
    cols[0], vals[0] = x, np.sqrt(1 - 3 * n * p)
    for site in range(n):
        mask = 1 << (n - 1 - site)
        sign = 1 - 2 * ((x & mask) > 0)  # Z's eigenvalue on that site
        cols[1 + 3 * site], vals[1 + 3 * site] = x ^ mask, np.sqrt(p)  # X
        # Y|0> = i|1>, Y|1> = -i|0>: the sign is the column's
        cols[2 + 3 * site], vals[2 + 3 * site] = x ^ mask, 1j * np.sqrt(p) * sign[x ^ mask]
        cols[3 + 3 * site], vals[3 + 3 * site] = x, np.sqrt(p) * sign  # Z
    return Channel._from_cells((1 + 3 * n, dim, dim), cols.reshape(-1), vals.reshape(-1))


def kept_as_cells(stack: np.ndarray) -> Channel | None:
    """Channel._from_cells of the one nonzero cell of each row of a (k,
    dim_out, dim_in) stack: the channel kept as its store, or None when a
    row holds two cells or 64 nnz > size, where _from_cells keeps the stack.
    A zero of either sign is no cell."""
    flat = np.asarray(stack).reshape(-1, stack.shape[2])
    rows, cols = np.nonzero(flat)
    if np.bincount(rows, minlength=len(flat)).max(initial=0) > 1:
        return None
    at, vals = np.zeros(len(flat), np.intp), np.zeros(len(flat), flat.dtype)
    at[rows], vals[rows] = cols, flat[rows, cols]
    ch = Channel._from_cells(stack.shape, at, vals)
    return None if ch._cells is None else ch
