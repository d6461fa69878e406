"""Dense complex linear algebra for finite-dimensional quantum systems.

Conventions used throughout the package:

* composite indices are row-major: the factor pair (a, b) maps to
  ``a * dim_b + b``, matching ``numpy.kron`` and C-order ``reshape``;
* eigenvalues and Schmidt coefficients are returned in descending order;
* spectrum entries at or below ``SPECTRUM_CUTOFF`` are treated as zero;
* eigenvector phases are fixed so the first component of magnitude above
  ``SPECTRUM_CUTOFF`` is real and nonnegative;
* entropies are in bits (log base 2);
* Gram matrices x†x come from ``gram``, one real product when x is real.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .errors import DimensionError, NotAStateError, NotHermitianError

DEFAULT_ATOL = 1e-9
SPECTRUM_CUTOFF = 1e-12


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not ops:
        raise DimensionError("kron needs at least one operand")
    out = np.asarray(ops[0], dtype=np.complex128)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=np.complex128))
    return out


def gram(x: np.ndarray) -> np.ndarray:
    """x†x as a complex matrix. A real x (imaginary parts all ±0.0) takes one
    real product r.T @ r: a quarter of the complex arithmetic, and an
    imaginary part exactly zero. Any other x takes dag(x) @ x."""
    x = np.asarray(x)
    if x.dtype.kind == "c" and np.count_nonzero(x.imag):
        return dag(x) @ x
    r = np.ascontiguousarray(x.real)
    return (r.T @ r).astype(np.complex128)


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius distance of m†m from the identity."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return float(np.linalg.norm(gram(m) - np.eye(m.shape[0])))


def partial_trace(m: np.ndarray, dims: Iterable[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out tensor factors of a square matrix.

    Parameters
    ----------
    m : square matrix on the tensor product of the listed factors.
    dims : dimension of each factor, in order.
    keep : indices of the factors to retain; all others are traced out.
        Kept factors stay in their original relative order.
    """
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise DimensionError(f"invalid factor dimensions {dims}")
    total = int(np.prod(dims))
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (total, total):
        raise DimensionError(f"matrix shape {m.shape} does not match factors {dims}")
    keep_set = set(int(i) for i in keep)
    if any(i < 0 or i >= len(dims) for i in keep_set):
        raise DimensionError(f"keep indices {sorted(keep_set)} out of range for {len(dims)} factors")
    traced = [i for i in range(len(dims)) if i not in keep_set]
    t = m.reshape(dims + dims)
    n = len(dims)
    for ax in reversed(traced):
        t = np.trace(t, axis1=ax, axis2=ax + n)
        n -= 1
    d_keep = int(np.prod([dims[i] for i in sorted(keep_set)])) if keep_set else 1
    return t.reshape(d_keep, d_keep)


def _fix_phases(vecs: np.ndarray, cutoff: float = SPECTRUM_CUTOFF) -> np.ndarray:
    """Rotate each column so its first significant entry is real nonnegative."""
    out = np.array(vecs, dtype=np.complex128, copy=True)
    for i in range(out.shape[1]):
        col = out[:, i]
        nz = np.flatnonzero(np.abs(col) > cutoff)
        if nz.size:
            pivot = col[nz[0]]
            out[:, i] = col * (pivot.conjugate() / abs(pivot))
    return out


def eig_hermitian(m: np.ndarray, atol: float = DEFAULT_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors): eigenvalues descending, eigenvectors
    as orthonormal columns with the phase convention above. Inside a
    degenerate eigenspace the basis is whichever one LAPACK returns: the same
    for the same input and build, but not canonical, so callers may rely only
    on the subspace it spans.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if np.linalg.norm(m - dag(m)) > atol:
        raise NotHermitianError(
            f"matrix is not Hermitian within atol={atol} "
            f"(defect {np.linalg.norm(m - dag(m)):.3e})"
        )
    w, v = np.linalg.eigh((m + dag(m)) / 2)
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


def schmidt(
    vec: np.ndarray, dim_left: int, dim_right: int, cutoff: float = SPECTRUM_CUTOFF
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a bipartite vector.

    The vector is reshaped row-major to (dim_left, dim_right). Returns
    (coeffs, left, right) with coefficients descending and > cutoff, and
    left/right orthonormal vectors as matrix columns, so that

        vec == sum_i coeffs[i] * kron(left[:, i], right[:, i]).
    """
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if dim_left < 1 or dim_right < 1 or vec.size != dim_left * dim_right:
        raise DimensionError(
            f"vector of size {vec.size} does not split as {dim_left} x {dim_right}"
        )
    u, s, vh = np.linalg.svd(vec.reshape(dim_left, dim_right), full_matrices=False)
    keep = s > cutoff
    coeffs = s[keep]
    left = u[:, keep]
    right = vh[keep, :].T.copy()
    for i in range(left.shape[1]):
        nz = np.flatnonzero(np.abs(left[:, i]) > cutoff)
        if nz.size:
            pivot = left[nz[0], i]
            phase = pivot.conjugate() / abs(pivot)
            left[:, i] *= phase
            right[:, i] *= phase.conjugate()
    return coeffs, left, right


def require_state(rho: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Check the density-matrix contract and return the spectrum, descending.

    Raises NotAStateError if rho is not Hermitian within atol, has an
    eigenvalue below -atol, or its trace differs from 1 by more than atol.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotAStateError(f"expected a square matrix, got shape {rho.shape}")
    herm_defect = float(np.linalg.norm(rho - dag(rho)))
    if herm_defect > atol:
        raise NotAStateError(f"not Hermitian within atol={atol} (defect {herm_defect:.3e})")
    w = np.linalg.eigvalsh((rho + dag(rho)) / 2)
    if float(w.min()) < -atol:
        raise NotAStateError(f"negative eigenvalue {w.min():.3e} below -atol")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > atol:
        raise NotAStateError(f"trace {tr!r} differs from 1 beyond atol={atol}")
    return np.sort(w)[::-1]


def von_neumann_entropy(rho: np.ndarray, atol: float = DEFAULT_ATOL) -> float:
    """Von Neumann entropy in bits; eigenvalues <= SPECTRUM_CUTOFF contribute 0."""
    w = require_state(rho, atol)
    w = w[w > SPECTRUM_CUTOFF]
    return float(-np.dot(w, np.log2(w)))


def complete_basis(cols: Optional[np.ndarray], dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns' span.

    The k input columns must be linearly independent but need not be
    orthonormal. Returns the last dim - k columns of the complete QR factor
    Q of cols, shape (dim, dim - k): the same for the same input, but not
    canonical. Raises DimensionError when k > dim or when a diagonal entry of
    R is at most 1e-7 in magnitude (dependent columns).
    """
    if cols is None:
        cols = np.zeros((dim, 0), dtype=np.complex128)
    cols = np.asarray(cols, dtype=np.complex128).reshape(dim, -1)
    k = cols.shape[1]
    if k > dim:
        raise DimensionError(f"cannot complete {k} columns in dimension {dim}")
    q, r = np.linalg.qr(cols, mode="complete")
    if k and np.abs(np.diagonal(r)).min() <= 1e-7:
        raise DimensionError("could not complete basis; input columns are linearly dependent")
    return q[:, k:]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary, deterministic for a given generator state."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph.conjugate()


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: Optional[int] = None) -> np.ndarray:
    """Random mixed state: normalized GG† with a (dim x rank) Gaussian G."""
    rank = dim if rank is None else int(rank)
    if rank < 1:
        raise DimensionError("rank must be >= 1")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ dag(g)
    return rho / np.real(np.trace(rho))
