"""Dense linear algebra for finite-dimensional quantum systems.

Conventions used throughout the package:

* arrays are float64 when their data is real (every imaginary part ±0.0)
  and complex128 otherwise: ``storage_dtype`` decides where operators enter
  (the Channel and Decomposition constructors, through ``storage_stack``,
  and the file reader), and later results keep the dtype numpy's promotion
  gives them;
* composite indices are row-major: the factor pair (a, b) maps to
  ``a * dim_b + b``, matching ``numpy.kron`` and C-order ``reshape``;
* eigenvalues are returned in descending order;
* ``eig_hermitian`` and ``require_state`` (so every entropy) take spectra,
  through one routine, per connected component of a matrix's exact nonzero
  pattern, symmetrized and with no threshold (labelled by ``_groups`` from
  the pattern's (i, j) lists, which a matrix kept as its nonzero entries
  gives directly), one batched LAPACK call per component size: the
  components are exact invariant subspaces, so the spectrum is the whole
  matrix's and each eigenvector is exactly zero outside its component. A
  matrix of at most ``_WHOLE_MAX`` rows, with no zero entry, or of one
  component is diagonalized whole;
* eigenvector phases are fixed so the first component of magnitude above
  ``SPECTRUM_CUTOFF`` is real and nonnegative (a sign for real vectors);
* entropies are in bits (log base 2), and every positive eigenvalue counts;
* Gram matrices x†x come from ``gram``, one real product when x is real,
  or, for a matrix held as a ``Cells`` store, from its cells: the diagonal
  vector (``Cells.gram``) at one cell per row, else the nonzero entries
  (``Cells.pairs``).

A matrix with few nonzeros, such as Pauli noise, a subsystem code's frame
and E code for them, is held as a ``Cells`` store in ELLPACK layout (Rice
and Boisvert, 1985): a (rows, w) array of columns and one of values, shorter
rows padded with value 0. The one density rule: a store is built or
composed only when 64 nnz <= size; else the matrix stays dense. Two
callers alone call Cells.build: Channel._from_cells, with the one cell
per row that a channel builder or the channel reader lists, and
Decomposition._cells, with its frame's np.nonzero, once. E code's store
is the composition (Cells.compose) of the channel's and the frame's, and
its Gram matrix, condition b's pair matrix, is kept as its nonzero
entries, whose spectra _entries_entropy takes per component. A store's
nonzero cells are read through Cells.entries alone, and its dense matrix
alone gives a cell channel's stack and a cell state's x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NotAStateError, NotHermitianError

DEFAULT_ATOL = 1e-9
SPECTRUM_CUTOFF = 1e-12
_WHOLE_MAX = 64  # up to this size, labelling costs about what it saves in LAPACK time


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def storage_dtype(imag_parts: Iterable[np.ndarray]) -> type:
    """The dtype data is stored in: float64 when every imaginary part given
    is ±0.0, complex128 otherwise."""
    return np.complex128 if any(np.count_nonzero(im) for im in imag_parts) else np.float64


def storage_stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """A new array stacking equal-shape arrays in their storage_dtype,
    built from their real parts directly when that is float64, so a
    real-valued complex input is never copied whole as complex."""
    if storage_dtype(a.imag for a in arrays if np.iscomplexobj(a)) is np.complex128:
        return np.array(arrays, dtype=np.complex128)
    return np.array([np.real(a) for a in arrays], dtype=np.float64)


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right; float64
    unless an operand is complex."""
    if not ops:
        raise DimensionError("kron needs at least one operand")
    out = np.asarray(ops[0])
    out = out.astype(np.result_type(out, np.float64))
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def gram(x: np.ndarray) -> np.ndarray:
    """x†x. A real-valued x (imaginary parts all ±0.0), whatever its dtype,
    takes one real product r.T @ r and gives a float64 matrix: a quarter of
    the complex arithmetic. Any other x takes dag(x) @ x, a complex matrix."""
    x = np.asarray(x)
    if x.dtype.kind == "c" and np.count_nonzero(x.imag):
        return dag(x) @ x
    r = np.ascontiguousarray(x.real, dtype=np.float64)
    return r.T @ r


def _most_cells(size: int) -> int:
    """The density rule, coded here alone: 64 nnz <= size."""
    return size // 64


@dataclass(frozen=True, eq=False)
class Cells:
    """A (rows, n) matrix as the (rows, w) cols and vals of the layout above,
    vals in its dtype; Cells(cols[i:j], vals[i:j], n) holds rows i to j."""

    cols: np.ndarray
    vals: np.ndarray
    n: int

    @classmethod
    def build(cls, shape: tuple, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Cells | None:
        """The store of the shape matrix holding vals[i] at (rows[i], cols[i]),
        nonzero cells sorted by row, then column, each row's cells in that
        order and padded with column 0; None when 64 nnz > size."""
        if len(vals) > _most_cells(math.prod(shape)):
            return None
        counts = np.bincount(rows, minlength=shape[0])
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        width = int(counts.max(initial=0))
        store = cls(np.zeros((shape[0], width), np.intp), np.zeros((shape[0], width), vals.dtype), shape[1])
        store.cols[rows, slot], store.vals[rows, slot] = cols, vals
        return store

    def product(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a dense (n, m) x: the rows of x the cells' columns
        pick, scaled in place when their dtype allows, summed per row."""
        cols, vals = self.cols, self.vals
        if cols.shape[1] == 1:  # the gathered rows are the result, with no sum
            cols, vals = cols[:, 0], vals[:, 0]
        rows = x[cols]
        if np.result_type(vals, rows) != rows.dtype:
            rows = vals[..., None] * rows
        else:
            np.multiply(vals[..., None], rows, out=rows)
        return rows if rows.ndim == 2 else rows.sum(1)

    def compose(self, other: Cells) -> Cells | None:
        """self @ other as a store, w1 w2 cells per row: cell (r, u, s) of
        self becomes s times each cell of other's row u, one product per
        cell, as the gathered product forms it; None when 64 nnz > size."""
        rows = len(self.cols)
        vals = (self.vals[..., None] * other.vals[self.cols]).reshape(rows, -1)
        if np.count_nonzero(vals) > _most_cells(rows * other.n):
            return None
        return Cells(other.cols[self.cols].reshape(rows, -1), vals, other.n)

    def pairs(self) -> tuple:
        """self† self as its nonzero entries (i, j, m), row-major: each row's
        nonzero cells paired, conj(v_p) v_q at (c_p, c_q), and equal (i, j)
        summed by _summed; m complex as gram's would be."""
        r, c, v = self.entries()  # row-major, so each row's cells are contiguous
        if v.dtype.kind == "c" and not np.count_nonzero(v.imag):
            v = v.real
        counts = np.bincount(r, minlength=len(self.cols))
        size = counts[r]  # cells in p's row: p heads the pairs (p, q), q in that row
        p = np.repeat(np.arange(len(r)), size)
        first = (np.cumsum(counts) - counts)[r]  # the first cell of p's row
        q = np.arange(len(p)) + np.repeat(first - (np.cumsum(size) - size), size)
        key, m = _summed(c[p] * self.n + c[q], v[p].conj() * v[q])
        return (*np.divmod(key, self.n), m)

    def gram(self) -> np.ndarray:
        """The diagonal of self† self, one bincount of |v|^2 by column: all
        of it at width <= 1, as for a channel's store; complex as gram's
        would be."""
        imaginary = np.iscomplexobj(self.vals) and np.count_nonzero(self.vals.imag)
        d = np.bincount(self.cols.reshape(-1), (self.vals.conj() * self.vals).real.reshape(-1), self.n)
        return d.astype(np.complex128 if imaginary else np.float64, copy=False)  # int64 if no cell

    def entries(self) -> tuple:
        """The nonzero cells as (rows, cols, vals), row by row, each row in
        slot order: row-major for a store build makes, and for one compose
        makes with such a store on the right and a channel's on the left."""
        rows, slot = np.nonzero(self.vals)
        return rows, self.cols[rows, slot], self.vals[rows, slot]

    def dense(self) -> np.ndarray:
        """The (rows, n) matrix, in vals' dtype: cells that compose put in
        one column of a row summed, as product and pairs sum them, and a
        cell listed once placed bit for bit."""
        out = np.zeros((len(self.cols), self.n), self.vals.dtype)
        rows, cols, vals = self.entries()
        if self.cols.shape[1] > 1:
            key, vals = _summed(rows * self.n + cols, vals)
            rows, cols = np.divmod(key, self.n)
        out[rows, cols] = vals
        return out


def _summed(key: np.ndarray, vals: np.ndarray) -> tuple:
    """(k, t): the distinct keys ascending and, for each, the sum of its
    vals in their given order, by one stable sort and reduceat; keys whose
    sum is exactly 0 are dropped."""
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, vals = key[first], np.add.reduceat(vals, first)
    kept = vals != 0
    return key[kept], vals[kept]


def _isometry_defect(m: np.ndarray) -> float:
    """||m†m - 1||_F for a matrix m, with no overflow warning: an entry such
    as 1e300 gives inf or nan, which no tolerance admits."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(gram(m) - np.eye(m.shape[1])))


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius distance of m†m from the identity."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return _isometry_defect(m)


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
    total = math.prod(dims)
    m = np.asarray(m)
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
    d_keep = math.prod(dims[i] for i in keep_set)
    return t.reshape(d_keep, d_keep)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry of magnitude above
    SPECTRUM_CUTOFF is real nonnegative; for real columns the rotation is a
    sign. A unit column of n entries has one of magnitude at least 1/sqrt(n)."""
    if not vecs.size:  # a 0 x 0 matrix has no pivot for argmax to find
        return vecs
    first = np.argmax(np.abs(vecs) > SPECTRUM_CUTOFF, axis=0)
    pivot = vecs[first, np.arange(vecs.shape[1])]
    # hypot rounds |pivot| as abs() of a scalar does; np.abs of a complex array may not
    return vecs * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def _components(m: np.ndarray) -> list[np.ndarray] | None:
    """_groups of a square matrix's exact nonzero pattern, symmetrized: i ~ j
    when m[i, j] or m[j, i] is not exactly 0, with no threshold; None at
    once when m has no zero entry."""
    mask = m != 0
    if mask.all():
        return None
    return _groups(m.shape[0], *np.divmod(np.flatnonzero(mask | mask.T), m.shape[0]))


def _groups(n: int, i: np.ndarray, j: np.ndarray) -> list[np.ndarray] | None:
    """Connected components of the pattern of an n x n matrix listed by its
    (i, j), symmetric and sorted by i. Returns one (count, size) array per
    distinct component size, sizes ascending, each row one component's
    indices in ascending order; None when the pattern is one component.

    Each sweep lowers every label to the least label among its pattern
    neighbours, one reduceat over the row-sorted list, and then replaces
    each label by its label's label until that is stable."""
    starts = np.flatnonzero(np.diff(i, prepend=-1))
    rows = i[starts]
    label = np.arange(n)
    while True:
        low = label.copy()
        low[rows] = np.minimum(label[rows], np.minimum.reduceat(label[j], starts))
        while not np.array_equal(low[low], low):
            low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    sizes = np.bincount(label)[label]
    if sizes[0] == len(label):
        return None
    order = np.lexsort((label, sizes))  # stable: indices ascend inside a component
    bounds = np.flatnonzero(np.diff(sizes[order])) + 1
    return [g.reshape(-1, sizes[g[0]]) for g in np.split(order, bounds)]


def _spectrum(m: np.ndarray, vectors: bool, error: type, what: str) -> tuple:
    """(w, v) of a square m Hermitian within DEFAULT_ATOL: its eigenvalues
    and eigenvectors, or (w ascending, None) unless vectors; m is taken
    whole, or per component of _components above _WHOLE_MAX rows."""
    groups = _components(m) if m.shape[0] > _WHOLE_MAX else None
    blocks = [m] if groups is None else [m[ix[:, :, None], ix[:, None, :]] for ix in groups]
    return _block_spectrum(blocks, groups, m.shape[0], vectors, error, what)


def _block_spectrum(blocks: list, groups, n: int, vectors: bool, error: type, what: str) -> tuple:
    """_spectrum of the n x n matrix given as [m] whole (groups None), w
    ascending, or as the (count, size, size) blocks of groups, one batched
    LAPACK call per component size, eigenpair k of component r of a group
    in column start + r size + k. ||m - m†||_F, summed per component, above
    DEFAULT_ATOL raises error; a nan defect needs a non-finite entry."""
    if groups is None:
        m = blocks[0]
        defect, blocks = np.linalg.norm(m - dag(m)), [(m + dag(m)) / 2]
    else:
        defect = np.linalg.norm([np.linalg.norm(b - dag(b)) for b in blocks])
        blocks = [(b + dag(b)) / 2 for b in blocks]
    if defect > DEFAULT_ATOL:
        raise error(f"{what}not Hermitian within atol={DEFAULT_ATOL} (defect {defect:.3e})")
    if groups is None:
        return np.linalg.eigh(blocks[0]) if vectors else (np.linalg.eigvalsh(blocks[0]), None)
    if not vectors:
        return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks])), None
    pairs = [np.linalg.eigh(b) for b in blocks]
    v, start = np.zeros((n, n), pairs[0][1].dtype), 0
    for ix, (_, vecs) in zip(groups, pairs):
        count, size = ix.shape
        v[ix[:, :, None], np.arange(start, start + count * size).reshape(count, 1, size)] = vecs
        start += count * size
    return np.concatenate([p[0].ravel() for p in pairs]), v


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix Hermitian within DEFAULT_ATOL.

    Returns (eigenvalues, eigenvectors): eigenvalues descending, eigenvectors
    as orthonormal columns with the phase convention above. Inside a
    degenerate eigenspace the basis is whichever one LAPACK returns: the same
    for the same input and build, but not canonical, so callers may rely only
    on the subspace it spans. Above _WHOLE_MAX rows, a matrix with a zero
    entry is diagonalized per connected component, as the module docstring
    says, so each eigenvector is exactly zero outside its component.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    w, v = _spectrum(m, True, NotHermitianError, "matrix is ")
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


def require_state(rho: np.ndarray) -> np.ndarray:
    """Check the density-matrix contract and return the spectrum, descending.

    Raises NotAStateError if an entry of rho is not finite (checked before
    any arithmetic), rho is not Hermitian within DEFAULT_ATOL, has an
    eigenvalue below -DEFAULT_ATOL, or its trace differs from 1 by more than
    DEFAULT_ATOL; a nan fails every check. As in eig_hermitian, the
    Hermiticity defect and the spectrum are taken per connected component;
    the finiteness and trace checks are on the whole matrix.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotAStateError(f"expected a square matrix, got shape {rho.shape}")
    finite = np.isfinite(rho)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NotAStateError(f"entry ({i}, {j}) is {rho[i, j]}, not finite")
    w = _spectrum(rho, False, NotAStateError, "")[0]
    return _state_spectrum(w, float(np.real(np.trace(rho))))


def _state_spectrum(w: np.ndarray, tr: float) -> np.ndarray:
    """require_state's last two checks on the ascending spectrum w of a
    matrix of trace tr; returns w descending."""
    if w.size and not w[0] >= -DEFAULT_ATOL:  # a 0 x 0 matrix has no eigenvalue, and trace 0
        raise NotAStateError(f"negative eigenvalue {w[0]:.3e} below -atol")
    if not abs(tr - 1.0) <= DEFAULT_ATOL:
        raise NotAStateError(f"trace {tr!r} differs from 1 beyond atol={DEFAULT_ATOL}")
    return w[::-1]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits. -w log2 w tends to 0 as w does, so every
    positive eigenvalue contributes, however small, and only w <= 0 gives 0.
    A pure state gives +0.0, never -0.0."""
    return _bits(require_state(rho))


def _bits(w: np.ndarray) -> float:
    w = w[w > 0]
    return float(0.0 - np.dot(w, np.log2(w)))


def _entries_entropy(n: int, i: np.ndarray, j: np.ndarray, vals: np.ndarray) -> float:
    """von_neumann_entropy of the n x n matrix holding vals at (i, j), each
    (i, j) listed once, with require_state's checks: its spectrum is taken
    per component of _groups of the pattern and its transpose (one block
    of n rows when that is one component), and its trace is the diagonal's."""
    finite = np.isfinite(vals)
    if not finite.all():
        p = int(np.argmin(finite))
        raise NotAStateError(f"entry ({i[p]}, {j[p]}) is {vals[p]}, not finite")
    pattern = np.divmod(np.sort(np.concatenate([i * n + j, j * n + i])), n)
    groups = _groups(n, *pattern) or [np.arange(n)[None]]
    at, blocks = np.empty((3, n), np.intp), []  # each index's group, component and slot
    for g, ix in enumerate(groups):
        at[0, ix], at[1, ix], at[2, ix] = g, np.arange(len(ix))[:, None], np.arange(ix.shape[1])
        blocks.append(np.zeros((len(ix), ix.shape[1], ix.shape[1]), vals.dtype))
    for g, b in enumerate(blocks):
        e = at[0, i] == g
        b[at[1, i[e]], at[2, i[e]], at[2, j[e]]] = vals[e]
    w = _block_spectrum(blocks, groups, n, False, NotAStateError, "")[0]
    return _bits(_state_spectrum(w, float(np.real(vals[i == j].sum()))))


def complete_basis(cols: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns' span.

    The k input columns must be linearly independent but need not be
    orthonormal. Returns the last dim - k columns of the complete QR factor
    Q of cols, shape (dim, dim - k): the same for the same input, but not
    canonical. Raises DimensionError when cols is not a (dim, k) matrix, when
    k > dim, or when a diagonal entry of R is at most 1e-7 in magnitude
    (dependent columns).
    """
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[0] != dim:
        raise DimensionError(f"expected a ({dim}, k) matrix of columns, got shape {cols.shape}")
    k = cols.shape[1]
    if k > dim:
        raise DimensionError(f"cannot complete {k} columns in dimension {dim}")
    q, r = np.linalg.qr(cols, mode="complete")
    if k and np.abs(np.diagonal(r)).min() <= 1e-7:
        raise DimensionError("could not complete basis; input columns are linearly dependent")
    return q[:, k:]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: the same bits for the same generator
    state, BLAS build and thread count (LAPACK's QR varies with the last)."""
    return _haar_isometry(dim, dim, rng)


def _haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed (rows, cols) isometry, rows >= cols: the Q factor of
    a complex Gaussian matrix, each column's phase fixed by R's diagonal."""
    g = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph.conjugate()
