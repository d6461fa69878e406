"""Subsystem decompositions V = (A tensor B) + C and code-sector plumbing.

A Decomposition fixes how a dim_v-dimensional space splits into a protected
factor A, a gauge factor B, and an orthogonal remainder C. In canonical
coordinates the first dim_a * dim_b basis vectors span A tensor B with the
row-major pairing (a, b) -> a * dim_b + b, and the last dim_c span C. An
optional unitary frame maps canonical coordinates into the working basis, so
column a * dim_b + b of the frame is the code vector for (a, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, SupportError
from .linalg import DEFAULT_ATOL, dag, kron, partial_trace, require_state, unitarity_defect

FRAME_ATOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """V = (A tensor B) + C with an optional unitary change of frame."""

    dim_a: int
    dim_b: int
    dim_c: int = 0
    frame: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1 or self.dim_c < 0:
            raise DimensionError(
                f"need dim_a >= 1, dim_b >= 1, dim_c >= 0, "
                f"got ({self.dim_a}, {self.dim_b}, {self.dim_c})"
            )
        if self.frame is not None:
            f = np.asarray(self.frame, dtype=np.complex128)
            if f.shape != (self.dim_v, self.dim_v):
                raise DimensionError(
                    f"frame shape {f.shape} does not match dim_v={self.dim_v}"
                )
            # an entry such as 1e300 overflows f† f; a nan defect fails too
            with np.errstate(over="ignore", invalid="ignore"):
                defect = unitarity_defect(f)
            if not defect <= FRAME_ATOL:
                raise DimensionError(f"frame is not unitary (defect {defect:.3e})")
            f = f.copy()
            f.flags.writeable = False
            object.__setattr__(self, "frame", f)

    @property
    def dim_v(self) -> int:
        return self.dim_a * self.dim_b + self.dim_c

    @property
    def dim_code(self) -> int:
        return self.dim_a * self.dim_b

    def code_vectors(self) -> np.ndarray:
        """dim_v x (dim_a*dim_b) matrix; column a*dim_b + b is the (a, b) code vector."""
        if self.frame is not None:
            return np.asarray(self.frame)[:, : self.dim_code].copy()
        out = np.zeros((self.dim_v, self.dim_code), dtype=np.complex128)
        out[: self.dim_code, :] = np.eye(self.dim_code)
        return out

    def code_vector(self, a: int, b: int) -> np.ndarray:
        if not (0 <= a < self.dim_a and 0 <= b < self.dim_b):
            raise DimensionError(f"code label ({a}, {b}) out of range")
        return self.code_vectors()[:, a * self.dim_b + b]


def projector_p(dec: Decomposition) -> np.ndarray:
    """Orthogonal projector onto the A tensor B sector of V."""
    code = dec.code_vectors()
    return code @ dag(code)


def embed_state(
    dec: Decomposition,
    rho_a: np.ndarray,
    sigma_b: np.ndarray,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """Place the product state rho_a tensor sigma_b on the code sector of V."""
    rho_a = np.asarray(rho_a, dtype=np.complex128)
    sigma_b = np.asarray(sigma_b, dtype=np.complex128)
    if rho_a.shape != (dec.dim_a, dec.dim_a):
        raise DimensionError(f"rho_a shape {rho_a.shape} does not match dim_a={dec.dim_a}")
    if sigma_b.shape != (dec.dim_b, dec.dim_b):
        raise DimensionError(f"sigma_b shape {sigma_b.shape} does not match dim_b={dec.dim_b}")
    require_state(rho_a, atol)
    require_state(sigma_b, atol)
    code = dec.code_vectors()
    return code @ kron(rho_a, sigma_b) @ dag(code)


def extract_a(dec: Decomposition, rho_v: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Restrict a code-supported state to A tensor B and trace out B.

    Raises SupportError when the state leaks outside the code sector:
    the norm of (1-P) rho (1-P) must stay within atol.
    """
    rho_v = np.asarray(rho_v, dtype=np.complex128)
    if rho_v.shape != (dec.dim_v, dec.dim_v):
        raise DimensionError(f"state shape {rho_v.shape} does not match dim_v={dec.dim_v}")
    q = np.eye(dec.dim_v) - projector_p(dec)
    leak = float(np.linalg.norm(q @ rho_v @ q))
    if leak > atol:
        raise SupportError(
            f"state leaks outside the code sector (norm {leak:.3e} > atol={atol})"
        )
    code = dec.code_vectors()
    block = dag(code) @ rho_v @ code
    return partial_trace(block, [dec.dim_a, dec.dim_b], keep=(0,))
