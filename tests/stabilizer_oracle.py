"""The stabilizer verdict on Pauli noise for the nine-qubit Bacon-Shor code.

Site (r, c) is qubit 3r + c, site 0 the most significant bit of a basis
index, as in oqec.codes. A Pauli i^|x & z| X^x Z^z, one of I, X, Y = iXZ or
Z on each site, is the pair of 9-bit masks (x, z). The gauge group G is
generated by X_{r,c} X_{r+1,c} and Z_{r,c} Z_{r,c+1}; the stabilizer group S
by X on rows (0, 1) and (1, 2) and Z on columns (0, 1) and (1, 2). Noise with
Kraus operators sqrt(w_j) P_j, every w_j > 0, is correctable on the logical
qubit iff no P_j† P_k lies in C(S) \\ G (Poulin, PRL 95, 230504 (2005);
Bacon, PRA 73, 012340 (2006)): commutation is the GF(2) symplectic form,
and membership in G a rank test.
"""

import numpy as np

from oqec.channels import Channel

N = 9
_PARITY = np.array([bin(i).count("1") & 1 for i in range(2**N)])


def mask(sites) -> int:
    return sum(1 << (N - 1 - (3 * r + c)) for r, c in sites)


GAUGE = [(mask([(r, c), (r + 1, c)]), 0) for r in range(2) for c in range(3)]
GAUGE += [(0, mask([(r, c), (r, c + 1)])) for r in range(3) for c in range(2)]
STABILIZERS = [(mask([(r, c) for r in rows for c in range(3)]), 0) for rows in ((0, 1), (1, 2))]
STABILIZERS += [(0, mask([(r, c) for r in range(3) for c in cols])) for cols in ((0, 1), (1, 2))]


def commute(p, q) -> bool:
    return not _PARITY[(p[0] & q[1]) ^ (p[1] & q[0])]


def _rank(paulis) -> int:
    """GF(2) rank of the 2N-bit vectors x z, by elimination on leading bits."""
    pivots = {}
    for x, z in paulis:
        v = int(x) << N | int(z)
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def correctable(paulis) -> bool:
    gauge_rank = _rank(GAUGE)
    for p in paulis:
        for q in paulis:
            prod = (p[0] ^ q[0], p[1] ^ q[1])  # P† Q up to a phase
            logical = all(commute(prod, s) for s in STABILIZERS)
            if logical and _rank(GAUGE + [prod]) > gauge_rank:
                return False
    return True


def pauli_channel(paulis, weights) -> Channel:
    """Kraus operators sqrt(w_j) P_j, built from their cells: row v of
    X^x Z^z holds (-1)^|z & u| in column u = v ^ x."""
    v = np.arange(2**N)
    cols = np.concatenate([v ^ x for x, _ in paulis])
    vals = np.concatenate([
        np.sqrt(w) * 1j ** bin(x & z).count("1") * (1 - 2 * _PARITY[(v ^ x) & z])
        for (x, z), w in zip(paulis, weights)
    ])
    if not np.count_nonzero(vals.imag):
        vals = vals.real
    return Channel._from_cells((len(paulis), 2**N, 2**N), cols, vals)
