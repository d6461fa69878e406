"""Weight-one depolarizing noise on n qubits, built by basis index.

Its Kraus operators are sqrt(1 - 3 n p) 1 and sqrt(p) X, Y and Z on each
site, site 0 the most significant bit of a basis index: 1 + 3 n complex
operators with one nonzero per row, the Pauli noise subsystem codes face.
"""

import numpy as np

from oqec.channels import Channel


def weight_one_depolarizing(n: int, p: float) -> Channel:
    dim = 2**n
    x = np.arange(dim)
    stack = np.zeros((1 + 3 * n, dim, dim), dtype=np.complex128)
    stack[0, x, x] = np.sqrt(1 - 3 * n * p)
    for site in range(n):
        mask = 1 << (n - 1 - site)
        sign = 1 - 2 * ((x & mask) > 0)  # Z's eigenvalue on that site
        stack[1 + 3 * site, x ^ mask, x] = np.sqrt(p)  # X
        stack[2 + 3 * site, x ^ mask, x] = 1j * np.sqrt(p) * sign  # Y|0> = i|1>, Y|1> = -i|0>
        stack[3 + 3 * site, x, x] = np.sqrt(p) * sign  # Z
    return Channel(stack)
