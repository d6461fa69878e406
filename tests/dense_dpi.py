"""Dense data-processing trace: the reference that oqec.conditions.dpi_trace
is checked against.

It builds the R_A V density matrix of the maximally entangled code-sector
input, lifts each channel to 1_{R_A} tensor E by Kronecker products, applies
it with channels.apply, and reads -S(R_A|V) from conditions.coherent_info,
which takes the dense partial trace. Memory grows as (dim_a dim_v)^2 per
matrix and dim_a^2 per Kraus operator, so it suits small dimensions only.
"""

import numpy as np

from oqec.channels import Channel, apply
from oqec.conditions import coherent_info
from oqec.linalg import kron


def dense_dpi_trace(dec, chain) -> list:
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    code = dec.code_vectors()
    rho = np.zeros((da * dv, da * dv), dtype=np.complex128)
    eye_a = np.eye(da, dtype=np.complex128)
    for b in range(db):
        w = np.zeros(da * dv, dtype=np.complex128)
        for a in range(da):
            w += kron(eye_a[a], code[:, a * db + b])
        rho += np.outer(w, w.conj())
    rho /= da * db
    values = [coherent_info(rho, da, dv)]
    for ch in chain:
        rho = apply(Channel(np.kron(eye_a, ch.kraus)), rho)
        values.append(coherent_info(rho, da, dv))
    return values
