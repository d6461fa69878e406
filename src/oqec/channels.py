"""Kraus-form quantum channels: validation, action, composition, Choi matrices.

A channel is a finite list of dim_out x dim_in Kraus operators E_j acting as
rho -> sum_j E_j rho E_j†, stored as one (k, dim_out, dim_in) array. Trace
preservation means sum_j E_j† E_j equals the identity; the Frobenius norm of
the difference is the completeness defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionError
from .linalg import DEFAULT_ATOL, dag, gram, kron, unitarity_defect

ID2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class Channel:
    """Immutable Kraus-form channel.

    Built from any non-empty sequence of equal-shape matrices (a tuple, a
    list, or a (k, dim_out, dim_in) array); kraus holds a read-only copy as one
    complex (k, dim_out, dim_in) array, so len, iteration and indexing give
    the operators. Figures that depend only on the operators, such as the
    completeness Gram matrix, are computed on first use and kept; the Gram
    matrix is one real product when the operators have no imaginary part.
    """

    kraus: np.ndarray

    def __post_init__(self):
        ops = [np.asarray(op, dtype=np.complex128) for op in self.kraus]
        if not ops:
            raise DimensionError("channel needs at least one Kraus operator")
        for i, op in enumerate(ops):
            if op.ndim != 2:
                raise DimensionError(f"Kraus operator {i} is not a matrix")
            if op.shape != ops[0].shape:
                raise DimensionError(
                    f"Kraus operator {i} has shape {op.shape}, expected {ops[0].shape}"
                )
        stack = np.array(ops)
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", stack)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @cached_property
    def _gram(self) -> tuple:
        """(sum_j E_j† E_j, its defect ||. - 1||_F), from one product of the
        stacked operators; (None, inf) when that product overflows."""
        flat = self.kraus.reshape(-1, self.dim_in)
        with np.errstate(over="ignore", invalid="ignore"):
            g = gram(flat)
            if not np.isfinite(g).all():
                return None, np.inf
            return g, float(np.linalg.norm(g - np.eye(self.dim_in)))


@dataclass(frozen=True)
class ChannelReport:
    trace_preserving: bool
    trace_nonincreasing: bool
    defect: float


def validate(ch: Channel, atol: float = DEFAULT_ATOL) -> ChannelReport:
    """Completeness check: defect = ||sum E†E - 1||_F.

    The Gram matrix sum E†E, one real product for real operators, is formed
    once per channel and reused by every later call, whatever its atol. A Kraus
    set whose Gram matrix overflows is reported as trace increasing, defect inf.
    """
    g, defect = ch._gram
    if defect <= atol:
        # No eigen-solve needed for a trace-preserving channel:
        # lambda_max((G+G†)/2) - 1 <= ||G - 1||_2 <= ||G - 1||_F = defect <= atol.
        return ChannelReport(trace_preserving=True, trace_nonincreasing=True, defect=defect)
    # halves first: g + g† can overflow where g is finite
    top = np.inf if g is None else float(np.linalg.eigvalsh(g / 2 + dag(g) / 2).max())
    return ChannelReport(
        trace_preserving=False,
        trace_nonincreasing=top <= 1.0 + atol,
        defect=defect,
    )


def require_valid(
    ch: Channel, atol: float = DEFAULT_ATOL, allow_trace_decreasing: bool = False
) -> ChannelReport:
    """Gate for operations that assume a physical channel.

    Trace-preserving channels always pass. Trace-decreasing ones pass only
    when explicitly allowed (downstream code renormalizes); trace-increasing
    Kraus sets are always rejected.
    """
    report = validate(ch, atol)
    if report.trace_preserving:
        return report
    if not report.trace_nonincreasing:
        raise ValueError(
            f"Kraus set increases trace (completeness defect {report.defect:.3e})"
        )
    if not allow_trace_decreasing:
        raise ValueError(
            f"channel is trace decreasing (defect {report.defect:.3e}); "
            "pass allow_trace_decreasing=True to proceed with renormalization"
        )
    return report


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise DimensionError(
            f"state shape {rho.shape} does not match channel input {ch.dim_in}"
        )
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=np.complex128)
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
    operators. The result is the d_in d_out square matrix itself;
    choi_distance compares channels without forming it.
    """
    w = _vec_columns(ch)
    return w @ dag(w)


def choi_distance(a: Channel, b: Channel) -> float:
    """Frobenius distance between Choi matrices; zero iff the maps agree.

    With W_a, W_b the vec-stacks of the Kraus operators, zero-padded to
    k = max(k_a, k_b) columns, the Choi difference W_a W_a† - W_b W_b† is
    (X Y† + Y X†)/2 for X = W_a + W_b and Y = W_a - W_b. A thin QR,
    [X | Y] = Q [R_X | R_Y], leaves its Frobenius norm as
    ||R_X R_Y† + R_Y R_X†||_F / 2, so memory stays O(k d_in d_out) and no
    d_in d_out square matrix is formed. Identical inputs give Y = 0 exactly,
    hence R_Y = 0 and a distance of exactly 0.0. The Kraus inner-product form
    sum |tr(A_i† A_j)|^2 + sum |tr(B_i† B_j)|^2 - 2 sum |tr(A_i† B_j)|^2 is
    not used: it subtracts squared norms of order one and cancels
    catastrophically when the channels nearly agree.
    """
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        raise DimensionError("channels act on different spaces")
    wa, wb = _vec_columns(a), _vec_columns(b)
    ka, kb = wa.shape[1], wb.shape[1]
    k = max(ka, kb)
    xy = np.zeros((wa.shape[0], 2 * k), dtype=np.complex128)
    xy[:, :ka] = xy[:, k : k + ka] = wa
    xy[:, :kb] += wb
    xy[:, k : k + kb] -= wb
    r = np.linalg.qr(xy, mode="r")
    m = r[:, :k] @ dag(r[:, k:])
    return float(np.linalg.norm(m + dag(m))) / 2


def identity(dim: int) -> Channel:
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    return Channel((np.eye(dim, dtype=np.complex128),))


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


def _weyl_ops(dim: int) -> list:
    """The dim^2 shift-and-clock unitaries X^j Z^k."""
    omega = np.exp(2j * np.pi / dim)
    shift = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        shift[(i + 1) % dim, i] = 1.0
    clock = np.diag(omega ** np.arange(dim))
    ops = []
    xj = np.eye(dim, dtype=np.complex128)
    for _ in range(dim):
        zk = np.eye(dim, dtype=np.complex128)
        for _ in range(dim):
            ops.append(xj @ zk)
            zk = zk @ clock
        xj = xj @ shift
    return ops


def depolarizing(dim: int, p: float) -> Channel:
    """rho -> (1-p) rho + p * tr(rho) * 1/dim."""
    if dim < 2:
        raise DimensionError("depolarizing needs dim >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    ops = [np.sqrt(1 - p) * np.eye(dim, dtype=np.complex128)]
    ops += [np.sqrt(p) / dim * w for w in _weyl_ops(dim)]
    return Channel(tuple(ops))


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
    ops = [np.sqrt(1 - n * p) * np.eye(2**n, dtype=np.complex128)]
    ops += [np.sqrt(p) * _on_site(n, site, PAULI_X) for site in range(n)]
    return Channel(tuple(ops))


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
        u = np.asarray(u, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or not unitarity_defect(u) <= DEFAULT_ATOL:
            raise ValueError("each term must carry a unitary matrix")
        ops.append(np.sqrt(w) * kron(*([u] * n)))
    return Channel(tuple(ops))


def random_channel(dim: int, k: int, seed: int) -> Channel:
    """Seed-deterministic random trace-preserving channel with k Kraus operators.

    Stacks k Gaussian dim x dim blocks and orthonormalizes the stack into an
    isometry, so sum E†E = 1 holds exactly up to rounding.
    """
    if dim < 1 or k < 1:
        raise DimensionError(f"need dim >= 1 and k >= 1, got ({dim}, {k})")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((k * dim, dim)) + 1j * rng.standard_normal((k * dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    w = q * ph.conjugate()
    return Channel(w.reshape(k, dim, dim))
