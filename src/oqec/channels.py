"""Kraus-form quantum channels: validation, action, composition, Choi matrices.

A channel is a finite list of dim_out x dim_in Kraus operators E_j acting as
rho -> sum_j E_j rho E_j†, stored as one (k, dim_out, dim_in) array. Trace
preservation means sum_j E_j† E_j equals the identity; the Frobenius norm of
the difference is the completeness defect.

A channel is kept as the linalg.Cells store of its (k dim_out, dim_in)
flat stack only where its cells are listed: restricted_flip, identity,
depolarizing and the channel reader list those of monomial operators, at
most one nonzero per row. Its completeness Gram matrix is then the vector
of its diagonal, its stacked product scales rows, and its stack is formed
only when kraus is read. A channel built from a stack keeps it and never
looks for cells.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionError
from .linalg import DEFAULT_ATOL, Cells, _haar_isometry, dag, gram, kron, storage_stack, unitarity_defect

ID2 = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True, eq=False)
class Channel:
    """Immutable Kraus-form channel.

    Built from any non-empty sequence ops of equal-shape matrices (a tuple,
    a list, or a (k, dim_out, dim_in) array), passed by position; kraus holds
    a read-only copy as one (k, dim_out, dim_in) array, so len, iteration
    and indexing give the operators. The copy is float64 when every
    imaginary part is ±0.0, built from the real parts directly, and
    complex128 otherwise. Within oqec, a builder that has just allocated
    such a stack in its storage dtype, and keeps no other reference to it,
    passes _adopt=True: the stack itself is made read-only and kept, with
    no copy. A builder or reader that holds one cell per row calls
    Channel._from_cells, the one code that makes a store or chooses the
    stack instead; Channel(ops) keeps _cells None, so even a stack of one
    cell per row takes BLAS. kraus and the completeness Gram matrix are
    cached properties, each formed once; kraus is held from construction
    unless the channel is kept as its cells.
    Equality and hashing are by identity.
    """

    ops: InitVar[Sequence]
    _adopt: InitVar[bool] = False

    def __post_init__(self, ops, _adopt):
        if _adopt:
            stack = ops
        else:
            ops = [np.asarray(op) for op in ops]
            if not ops:
                raise DimensionError("channel needs at least one Kraus operator")
            for i, op in enumerate(ops):
                if op.ndim != 2:
                    raise DimensionError(f"Kraus operator {i} is not a matrix")
                if op.shape != ops[0].shape:
                    raise DimensionError(
                        f"Kraus operator {i} has shape {op.shape}, expected {ops[0].shape}"
                    )
            stack = storage_stack(ops)
        stack.flags.writeable = False
        vars(self).update(kraus=stack, _shape=stack.shape, _cells=None)

    @classmethod
    def _from_cells(cls, shape: tuple, cols: np.ndarray, vals: np.ndarray) -> Channel:
        """The channel of shape (k, dim_out, dim_in) whose flat stack holds
        vals[r] (storage dtype; a zero of either sign is no cell) at (r,
        cols[r]): kept as its store, with no stack, or, when the density
        rule refuses the store, as that stack, adopted."""
        rows = np.flatnonzero(vals)
        cols, vals = cols[rows], vals[rows]
        flat = (shape[0] * shape[1], shape[2])
        cells = Cells.build(flat, rows, cols, vals)
        if cells is None:  # 64 nnz > size
            stack = np.zeros(flat, vals.dtype)
            stack[rows, cols] = vals
            return cls(stack.reshape(shape), _adopt=True)
        ch = object.__new__(cls)
        vars(ch).update(_shape=tuple(shape), _cells=cells)
        return ch

    @cached_property
    def kraus(self) -> np.ndarray:
        """The read-only stack; reached only for a channel kept as its
        cells, whose store is densified here on first read."""
        stack = self._cells.dense().reshape(self._shape)
        stack.flags.writeable = False
        return stack

    @property
    def n_kraus(self) -> int:
        return self._shape[0]

    @property
    def dim_in(self) -> int:
        return self._shape[2]

    @property
    def dim_out(self) -> int:
        return self._shape[1]

    @cached_property
    def _gram(self) -> tuple:
        """(sum_j E_j† E_j, its defect ||. - 1||_F), one product of the stack
        or the vector of its diagonal from _cells; (None, inf) on overflow."""
        din = self.dim_in
        with np.errstate(over="ignore", invalid="ignore"):
            if self._cells is None:
                g, one = gram(self.kraus.reshape(-1, din)), np.eye(din)
            else:
                g, one = self._cells.gram(), 1.0
            if not np.isfinite(g).all():
                return None, np.inf
            sq = np.square((g - one).view(np.float64))  # summed as purify sums norm_in: by numpy, not BLAS
            return g, float(np.sqrt(np.sum(sq[sq != 0])))

    def stacked_product(self, x: np.ndarray) -> np.ndarray:
        """(E_1; ...; E_k) x for a (dim_in, n) matrix x: the (k dim_out, n)
        matrix whose block j is E_j x. One BLAS product, or, when _cells
        holds the stack, the store's gathered product."""
        if self._cells is None:
            return self.kraus.reshape(-1, self.dim_in) @ x
        return self._cells.product(x)


@dataclass(frozen=True)
class ChannelReport:
    trace_preserving: bool
    trace_nonincreasing: bool
    defect: float


def validate(ch: Channel) -> ChannelReport:
    """Completeness check: defect = ||sum E†E - 1||_F, trace preserving when
    it is at most DEFAULT_ATOL.

    The Gram matrix sum E†E is formed once per channel and reused by every
    later call: one product of the stacked operators, real for real
    operators, or, for a stack kept as its cells, the vector of its
    diagonal, whose largest entry is the top eigenvalue, with no
    dim_in x dim_in matrix. A Kraus set whose Gram matrix overflows is
    reported as trace increasing, defect inf.
    """
    g, defect = ch._gram
    if defect <= DEFAULT_ATOL:
        # No eigen-solve needed for a trace-preserving channel:
        # lambda_max((G+G†)/2) - 1 <= ||G - 1||_2 <= ||G - 1||_F = defect.
        return ChannelReport(trace_preserving=True, trace_nonincreasing=True, defect=defect)
    if g is None:
        top = np.inf
    elif g.ndim == 1:
        top = float(g.real.max())
    else:  # halves first: g + g† can overflow where g is finite
        top = float(np.linalg.eigvalsh(g / 2 + dag(g) / 2).max())
    return ChannelReport(
        trace_preserving=False,
        trace_nonincreasing=top <= 1.0 + DEFAULT_ATOL,
        defect=defect,
    )


def require_valid(ch: Channel, what: str, *, allow_trace_decreasing: bool = False) -> ChannelReport:
    """Gate for operations that assume a physical channel. With require_on it
    is the only code that words a channel refusal, as "<what>: <problem>":
    ValueError "<what>: Kraus set decreases|increases trace (completeness
    defect ...)", the defect "overflows" when sum E†E is not finite, or
    "<what>: Kraus entry (j, r, c) is <value>, not finite" for the first such.

    Trace-preserving channels always pass. Trace-decreasing ones pass only
    when explicitly allowed (downstream code renormalizes); trace-increasing
    Kraus sets, overflowing ones among them, are always rejected.
    """
    report = validate(ch)
    if report.trace_preserving or (allow_trace_decreasing and report.trace_nonincreasing):
        return report
    if ch._gram[0] is None:  # sum E†E is not finite: name the first non-finite entry, if any
        held = ch.kraus.reshape(-1, ch.dim_in) if ch._cells is None else ch._cells.vals  # a store: one cell a row
        bad = np.argwhere(~np.isfinite(held))
        if len(bad):
            row, at = bad[0]
            j, r = divmod(int(row), ch.dim_out)
            c = at if ch._cells is None else ch._cells.cols[row, at]
            raise ValueError(f"{what}: Kraus entry {(j, r, int(c))} is {held[row, at]}, not finite")
    change = "decreases" if report.trace_nonincreasing else "increases"
    defect = "overflows" if report.defect == np.inf else f"{report.defect:.3e}"
    raise ValueError(f"{what}: Kraus set {change} trace (completeness defect {defect})")


def require_on(ch: Channel, dim: int, what: str) -> None:
    """Gate for operations on V, worded as require_valid's refusals are:
    DimensionError "<what>: acts on <dim_in> -> <dim_out>, expected dim_v=<dim>"."""
    if ch.dim_in != dim or ch.dim_out != dim:
        raise DimensionError(f"{what}: acts on {ch.dim_in} -> {ch.dim_out}, expected dim_v={dim}")


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise DimensionError(
            f"state shape {rho.shape} does not match channel input {ch.dim_in}"
        )
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=np.result_type(ch.kraus, rho))
    for e in ch.kraus:
        out += e @ rho @ dag(e)
    return out


def compose(second: Channel, first: Channel) -> Channel:
    """Channel acting as second after first; Kraus products R_j E_k."""
    if first.dim_out != second.dim_in:
        raise DimensionError(
            f"cannot compose: first output {first.dim_out} != second input {second.dim_in}"
        )
    prods = second.kraus[:, None] @ first.kraus[None, :]  # (j, k) -> R_j E_k
    return Channel(prods.reshape(-1, second.dim_out, first.dim_in))


def _vec_columns(ch: Channel) -> np.ndarray:
    """The (dim_in * dim_out, k) matrix whose column j is E_j vectorized,
    component (i, a) = E_j[a, i]."""
    return ch.kraus.transpose(2, 1, 0).reshape(-1, len(ch.kraus))


def choi(ch: Channel) -> np.ndarray:
    """Unnormalized Choi matrix (1 tensor ch) applied to sum_ij |ii><jj|.

    One product W W† of the (d_in d_out, k) stack W of vectorized Kraus
    operators. The result is the d_in d_out square matrix itself.
    """
    w = _vec_columns(ch)
    return w @ dag(w)


def identity(dim: int) -> Channel:
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    return Channel._from_cells((1, dim, dim), np.arange(dim), np.ones(dim))


def unitary(u: np.ndarray) -> Channel:
    """Channel conjugating by a single unitary."""
    defect = unitarity_defect(u)  # DimensionError unless u is square
    if not defect <= DEFAULT_ATOL:  # a nan defect fails too
        raise DimensionError(f"matrix is not unitary (defect {defect:.3e})")
    return Channel((u,))


def bit_flip(p: float) -> Channel:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    return Channel((np.sqrt(1 - p) * ID2, np.sqrt(p) * PAULI_X))


def phase_flip(p: float) -> Channel:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    return Channel((np.sqrt(1 - p) * ID2, np.sqrt(p) * PAULI_Z))


def depolarizing(dim: int, p: float) -> Channel:
    """rho -> (1-p) rho + p * tr(rho) * 1/dim: Kraus sqrt(1 - p) 1, then
    sqrt(p)/dim X^j Z^k as operator 1 + j dim + k, with X|c> = |c+1> and
    Z|c> = w^c |c>, w = exp(2 pi i/dim). X^j Z^k|c> = w^(kc) |c+j>, so row
    r of that operator holds one cell, in column (r - j) mod dim; the cells
    are listed, and kept as a store from dim 64 on."""
    if dim < 2:
        raise DimensionError("depolarizing needs dim >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    r = np.arange(dim)
    j, k = np.divmod(np.arange(dim * dim)[:, None], dim)
    c = (r - j) % dim
    weyl = np.sqrt(p) / dim * np.exp(2j * np.pi * (k * c % dim) / dim)
    vals = np.concatenate([np.full(dim, np.sqrt(1 - p)), weyl.reshape(-1)])
    cols = np.concatenate([r, c.reshape(-1)])
    return Channel._from_cells((1 + dim * dim, dim, dim), cols, storage_stack([vals])[0])  # float64 at p = 0


def single_qubit_on(n: int, site: int, ch: Channel) -> Channel:
    """Lift a one-qubit channel to n qubits, acting on the given site.

    Site 0 is the leftmost (most significant) tensor factor.
    """
    if n < 1:
        raise DimensionError("need n >= 1 qubits")
    if not 0 <= site < n:
        raise DimensionError(f"site {site} out of range for {n} qubits")
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionError("channel to lift must act on a single qubit")
    return Channel(tuple(_on_site(n, site, e) for e in ch.kraus))


def _on_site(n: int, site: int, op: np.ndarray) -> np.ndarray:
    """op on qubit site of n (site 0 most significant), identity elsewhere."""
    return kron(np.eye(2**site), op, np.eye(2 ** (n - site - 1)))


def restricted_flip(n: int, p: float) -> Channel:
    """Single bit flips with no double events:
    Kraus {sqrt(1 - n p) 1, sqrt(p) X_1, ..., sqrt(p) X_n}."""
    if n < 1:
        raise DimensionError("need n >= 1 qubits")
    if not (0 <= p and n * p <= 1):
        raise ValueError(f"need 0 <= p and n*p <= 1, got n={n}, p={p}")
    dim = 2**n
    # row x of X on site holds its one cell in column x ^ 2^(n - 1 - site):
    # site 0 is the most significant bit of a basis index
    masks = np.array([0] + [1 << (n - 1 - site) for site in range(n)])
    cols = np.arange(dim) ^ masks[:, None]
    vals = np.repeat([np.sqrt(1 - n * p), np.sqrt(p)], [dim, n * dim])
    return Channel._from_cells((n + 1, dim, dim), cols.reshape(-1), vals)


def collective_unitary(n: int, terms: Sequence) -> Channel:
    """Random collective rotation: Kraus {sqrt(w_i) U_i^(tensor n)}.

    terms is a sequence of (weight, U) pairs with weights summing to 1 and
    each U unitary on a single subsystem.
    """
    if n < 1:
        raise DimensionError("need n >= 1 subsystems")
    if not terms:
        raise ValueError("need at least one (weight, unitary) term")
    weights = np.array([w for w, _ in terms], dtype=float)
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= DEFAULT_ATOL):
        raise ValueError(f"weights must be nonnegative and sum to 1, got {weights}")
    ops = []
    for w, u in terms:
        u = np.asarray(u)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or not unitarity_defect(u) <= DEFAULT_ATOL:
            raise ValueError("each term must carry a unitary matrix")
        ops.append(np.sqrt(w) * kron(*([u] * n)))
    return Channel(tuple(ops))


def random_channel(dim: int, k: int, seed: int) -> Channel:
    """Random trace-preserving channel with k Kraus operators: the same
    bits for the same seed, BLAS build and thread count, as haar_unitary.

    Stacks k Gaussian dim x dim blocks and orthonormalizes the stack into an
    isometry, so sum E†E = 1 holds exactly up to rounding.
    """
    if dim < 1 or k < 1:
        raise DimensionError(f"need dim >= 1 and k >= 1, got ({dim}, {k})")
    w = _haar_isometry(k * dim, dim, np.random.default_rng(seed))
    return Channel(w.reshape(k, dim, dim))
