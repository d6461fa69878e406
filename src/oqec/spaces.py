"""Subsystem decompositions V = (A tensor B) + C and code-sector plumbing.

A Decomposition fixes how a dim_v-dimensional space splits into a protected
factor A, a gauge factor B, and an orthogonal remainder C. In canonical
coordinates the first dim_a * dim_b basis vectors span A tensor B with the
row-major pairing (a, b) -> a * dim_b + b, and the last dim_c span C. An
optional frame places the code sector in the working basis: a dim_v x k
matrix with orthonormal columns, dim_a * dim_b <= k <= dim_v, whose column
a * dim_b + b is the code vector for (a, b). Only those first dim_a * dim_b
columns are kept, float64 when every imaginary part is ±0.0 and complex128
otherwise; C is their orthogonal complement, which no condition reads.
The code vectors, read-only, and their linalg.Cells store, such as a CSS
code's frame of at most one nonzero per row, from their np.nonzero, are
each formed on first use and kept; the store lets purify compose E code
from the cells of Pauli noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionError
from .linalg import DEFAULT_ATOL, Cells, _isometry_defect, _most_cells, dag, kron, require_state, storage_stack


@dataclass(frozen=True, eq=False)
class Decomposition:
    """V = (A tensor B) + C with an optional frame, kept as its dim_v x dim_code code isometry,
    and, from first use, as that isometry's Cells store when the density
    rule admits one. Equality and hashing are by identity."""

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
            f = np.asarray(self.frame)
            if f.ndim != 2 or f.shape[0] != self.dim_v or not self.dim_code <= f.shape[1] <= self.dim_v:
                raise DimensionError(
                    f"frame shape {f.shape} is not ({self.dim_v}, k) with {self.dim_code} <= k <= dim_v"
                )
            defect = _isometry_defect(f)
            if not defect <= DEFAULT_ATOL:  # a nan defect fails too
                raise DimensionError(f"frame columns are not orthonormal (defect {defect:.3e})")
            f = storage_stack([f[:, : self.dim_code]])[0]
            f.flags.writeable = False
            object.__setattr__(self, "frame", f)

    @property
    def dim_v(self) -> int:
        return self.dim_a * self.dim_b + self.dim_c

    @property
    def dim_code(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def _cells(self) -> Optional[Cells]:
        """The store of code_vectors(), or None when 64 nnz > size: counted
        first, so a dense frame takes no index arrays."""
        code = self.code_vectors()
        if np.count_nonzero(code) > _most_cells(code.size):
            return None
        rows, cols = np.nonzero(code)
        return Cells.build(code.shape, rows, cols, code[rows, cols])

    @cached_property
    def _code(self) -> np.ndarray:
        """The kept frame, or the canonical code vectors, formed here once."""
        code = np.eye(self.dim_v, self.dim_code) if self.frame is None else self.frame
        code.flags.writeable = False
        return code

    def code_vectors(self) -> np.ndarray:
        """dim_v x (dim_a*dim_b) matrix, read-only and the same array on every
        call; column a*dim_b + b is the (a, b) code vector."""
        return self._code


def projector_p(dec: Decomposition) -> np.ndarray:
    """Orthogonal projector onto the A tensor B sector of V."""
    code = dec.code_vectors()
    return code @ dag(code)


def embed_state(dec: Decomposition, rho_a: np.ndarray, sigma_b: np.ndarray) -> np.ndarray:
    """Place the product state rho_a tensor sigma_b on the code sector of V;
    each factor must pass require_state."""
    rho_a = np.asarray(rho_a)
    sigma_b = np.asarray(sigma_b)
    if rho_a.shape != (dec.dim_a, dec.dim_a):
        raise DimensionError(f"rho_a shape {rho_a.shape} does not match dim_a={dec.dim_a}")
    if sigma_b.shape != (dec.dim_b, dec.dim_b):
        raise DimensionError(f"sigma_b shape {sigma_b.shape} does not match dim_b={dec.dim_b}")
    require_state(rho_a)
    require_state(sigma_b)
    code = dec.code_vectors()
    return code @ kron(rho_a, sigma_b) @ dag(code)
