"""Approximately correctable instances, kept out of the catalog: their
verdicts depend on the tolerance, so no one expected verdict fits them.

* The 4-qubit amplitude-damping code of Leung, Nielsen, Chuang and
  Yamamoto, PRA 56, 2567 (1997): code words (|0000> + |1111>)/sqrt 2 and
  (|0011> + |1100>)/sqrt 2, so dim_a 2, dim_b 1 and dim_c 14, under
  independent amplitude damping of rate gamma on each qubit, 16 Kraus
  operators. b and c grow as gamma, d as gamma^2 log2(1/gamma).
* bit_flip_3's noise scaled by sqrt(1 - eps^2), plus eps Z on qubit 0,
  which maps the code to itself.

Qubit 0 is the most significant bit of a basis index, as in the catalog.
"""

from itertools import product

import numpy as np

from oqec.channels import PAULI_Z, Channel
from oqec.codes import get
from oqec.linalg import kron
from oqec.spaces import Decomposition


def amplitude_damping_code() -> Decomposition:
    frame = np.zeros((16, 2))
    frame[[0b0000, 0b1111], 0] = frame[[0b0011, 0b1100], 1] = 2**-0.5
    return Decomposition(2, 1, 14, frame=frame)


def amplitude_damping(n: int, gamma: float) -> Channel:
    """Damping of rate gamma on each of n qubits: operator j is the tensor
    product, qubit 0 first, of A_0 = diag(1, sqrt(1 - gamma)) where bit
    n - 1 - s of j is 0 and A_1 = sqrt(gamma) |0><1| where it is 1."""
    single = (np.diag([1.0, np.sqrt(1 - gamma)]), np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]))
    return Channel([kron(*ops) for ops in product(single, repeat=n)])


def z_leak(eps: float) -> tuple:
    """(decomposition, noise) of bit_flip_3 plus a Z error on qubit 0 at
    Kraus amplitude eps."""
    entry = get("bit_flip_3")
    flips = np.sqrt(1 - eps**2) * entry.noise.kraus
    return entry.dec, Channel([*flips, eps * kron(PAULI_Z, np.eye(4))])
