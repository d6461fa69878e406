"""Correctability tests for a noise channel on a subsystem decomposition.

Three equivalent characterizations of when noise E is correctable on factor A
of V = (A tensor B) + C, each checked numerically with its own witness data:

* algebraic: every P E_j† E_k P acts as 1_A tensor B_jk on the code sector;
* product: after sending half of a maximally entangled reference pair through
  the noise, the reference marginal factorizes as rho_RA tensor rho_RBE;
* entropic: the entropy budget S(V') - S(R_B E') returns exactly the log of
  the protected dimension.

The purified state behind the last two lives on R_A tensor R_B tensor V
tensor E in that factor order, where R_A and R_B mirror A and B and E is the
noise environment with one axis per Kraus operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .channels import Channel, require_valid
from .errors import DegenerateChannelError, DimensionError
from .linalg import (
    DEFAULT_ATOL,
    SPECTRUM_CUTOFF,
    gram,
    kron,
    partial_trace,
    require_state,
    von_neumann_entropy,
)
from .spaces import Decomposition


@dataclass(frozen=True)
class PurifiedState:
    """Joint pure state of reference, system, and environment after the noise.

    dims is (dim_ra, dim_rb, dim_v, dim_e); psi is the normalized state
    vector, flattened row-major over those factors; norm_in is the squared
    norm before renormalization (1 for trace-preserving noise).

    psi is pure, so complementary marginals share their nonzero spectrum:
    S(V') = S(R_A R_B E'), and an entropy can be read from whichever side is
    smaller. Each marginal is formed once, as psi_K psi_K† with psi_K the
    (kept, rest) reshape of psi, and kept read-only for later callers.
    """

    dims: tuple[int, int, int, int]
    psi: np.ndarray
    norm_in: float
    _marginals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.complex128).reshape(-1)
        if psi.size != int(np.prod(self.dims)):
            raise DimensionError(
                f"state of size {psi.size} does not match factors {self.dims}"
            )
        psi = psi.copy()
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    def marginal(self, keep: Iterable[int]) -> np.ndarray:
        """Density matrix of the kept factors (0=R_A, 1=R_B, 2=V, 3=E), read-only."""
        keep = tuple(sorted(set(int(i) for i in keep)))
        if any(i < 0 or i > 3 for i in keep) or not keep:
            raise DimensionError(f"keep indices {list(keep)} out of range")
        rho = self._marginals.get(keep)
        if rho is None:
            rest = [i for i in range(4) if i not in keep]
            t = self.psi.reshape(self.dims).transpose(list(keep) + rest)
            mat = t.reshape(int(np.prod([self.dims[i] for i in keep])), -1)
            rho = gram(mat.T).conj()  # mat mat† = conj((mat^T)† mat^T)
            rho.flags.writeable = False
            self._marginals[keep] = rho
        return rho


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one correctability test: passed iff residual <= tol."""

    condition: str
    passed: bool
    residual: float
    tol: float
    witnesses: dict


def purify(
    dec: Decomposition, ch: Channel, *, allow_trace_decreasing: bool = False
) -> PurifiedState:
    """Send half of a maximally entangled reference through the noise.

    The input is the canonical purification of the maximally mixed state on
    the code sector: R_A mirrors A, R_B mirrors B. Each Kraus operator is
    tagged by one environment basis vector. For trace-decreasing noise
    (explicitly allowed) the state is renormalized and the pre-normalization
    squared norm is kept in norm_in.
    """
    if ch.dim_in != dec.dim_v or ch.dim_out != dec.dim_v:
        raise DimensionError(
            f"channel acts on {ch.dim_in} -> {ch.dim_out}, decomposition has dim_v={dec.dim_v}"
        )
    require_valid(ch, allow_trace_decreasing=allow_trace_decreasing)
    da, db, dv, de = dec.dim_a, dec.dim_b, dec.dim_v, len(ch.kraus)
    code = dec.code_vectors()
    imgs = ch.kraus.reshape(-1, dv) @ code  # rows (e, v), columns (a, b)
    psi = imgs.reshape(de, dv, da, db).transpose(2, 3, 1, 0) / np.sqrt(da * db)
    norm_in = float(np.vdot(psi, psi).real)
    if norm_in <= SPECTRUM_CUTOFF:
        raise DegenerateChannelError("channel annihilates the code sector")
    psi = psi / np.sqrt(norm_in)
    return PurifiedState((da, db, dv, de), psi.reshape(-1), norm_in)


def check_condition_b(
    dec: Decomposition,
    ch: Channel,
    tol: float = DEFAULT_ATOL,
    *,
    allow_trace_decreasing: bool = False,
) -> ConditionReport:
    """Algebraic test: P E_j† E_k P = 1_A tensor B_jk on the code sector.

    For each Kraus pair the candidate B_jk is the A-average of the code-sector
    block M_jk, and the pair deviation is ||M_jk - 1_A tensor B_jk||_F. The
    report residual aggregates all pairs in quadrature, which makes it
    invariant under unitary remixing of the Kraus list. The witnesses are the
    blocks as one (k, k, dim_b, dim_b) array b_blocks, the pair deviations as
    one (k, k) array pair_residuals, and the worst pair.
    """
    if ch.dim_in != dec.dim_v or ch.dim_out != dec.dim_v:
        raise DimensionError(
            f"channel acts on {ch.dim_in} -> {ch.dim_out}, decomposition has dim_v={dec.dim_v}"
        )
    require_valid(ch, allow_trace_decreasing=allow_trace_decreasing)
    da, db, dv, de = dec.dim_a, dec.dim_b, dec.dim_v, len(ch.kraus)
    rotated = (ch.kraus.reshape(-1, dv) @ dec.code_vectors()).reshape(de, dv, da * db)
    # m[j, a, b, k, c, d] = <a, b| E_j† E_k |c, d> on the code sector
    m = gram(rotated.transpose(1, 0, 2).reshape(dv, -1)).reshape(de, da, db, de, da, db)
    blocks = np.einsum("jabkad->jkbd", m) / da
    m -= np.einsum("ac,jkbd->jabkcd", np.eye(da), blocks)  # now M_jk - 1_A tensor B_jk
    pair = np.linalg.norm(m.transpose(0, 3, 1, 2, 4, 5).reshape(de, de, -1), axis=2)
    worst = np.unravel_index(np.argmax(pair), pair.shape)
    residual = float(np.linalg.norm(pair))
    return ConditionReport(
        condition="b",
        passed=residual <= tol,
        residual=residual,
        tol=tol,
        witnesses={
            "b_blocks": blocks,
            "pair_residuals": pair,
            "max_pair": (int(worst[0]), int(worst[1])),
            "max_pair_residual": float(pair[worst]),
        },
    )


def check_condition_c(ps: PurifiedState, tol: float = DEFAULT_ATOL) -> ConditionReport:
    """Product test: the reference-environment marginal must factorize.

    residual = || rho'_{R_A R_B E} - rho'_{R_A} tensor rho'_{R_B E} ||_F.
    """
    joint = ps.marginal((0, 1, 3))
    rho_ra = ps.marginal((0,))
    rho_rbe = ps.marginal((1, 3))
    residual = float(np.linalg.norm(joint - kron(rho_ra, rho_rbe)))
    return ConditionReport(
        condition="c",
        passed=residual <= tol,
        residual=residual,
        tol=tol,
        witnesses={"rho_ra": rho_ra, "rho_rbe": rho_rbe},
    )


def check_condition_d(ps: PurifiedState, tol: float = DEFAULT_ATOL) -> ConditionReport:
    """Entropic test: S(V') - S(R_B E') must return log2(dim_a) exactly.

    The signed gap log2(dim_a) + S(R_B E') - S(V') is nonnegative up to
    rounding (subadditivity); the report residual is its magnitude. psi is
    pure, so S(V') = S(R_A R_B E'): entropy_v is read from whichever of the
    two marginals is smaller (dim_v against dim_a dim_b dim_e, the joint on a
    tie, which condition c shares), and require_state checks that matrix.
    """
    da, db, dv, de = ps.dims
    s_a = float(np.log2(da))
    s_v = von_neumann_entropy(ps.marginal((0, 1, 3) if da * db * de <= dv else (2,)))
    s_rbe = von_neumann_entropy(ps.marginal((1, 3)))
    gap = s_a + s_rbe - s_v
    return ConditionReport(
        condition="d",
        passed=abs(gap) <= tol,
        residual=abs(gap),
        tol=tol,
        witnesses={"entropy_a": s_a, "entropy_v": s_v, "entropy_rbe": s_rbe, "gap": gap},
    )


def coherent_info(rho: np.ndarray, dim_r: int, dim_v: int, atol: float = DEFAULT_ATOL) -> float:
    """-S(R|V) = S(rho_V) - S(rho_RV) in bits, for a state on R tensor V."""
    rho = np.asarray(rho, dtype=np.complex128)
    if dim_r < 1 or dim_v < 1 or rho.shape != (dim_r * dim_v, dim_r * dim_v):
        raise DimensionError(
            f"state shape {rho.shape} does not split as {dim_r} x {dim_v}"
        )
    require_state(rho, atol)
    rho_v = partial_trace(rho, [dim_r, dim_v], keep=(1,))
    return von_neumann_entropy(rho_v, atol) - von_neumann_entropy(rho, atol)


def dpi_trace(dec: Decomposition, chain: Sequence[Channel]) -> list[float]:
    """Coherent information of the R_A : V cut through a channel chain.

    Starts from the maximally entangled reference state on the code sector and
    applies each (trace-preserving) channel in turn to the V half, recording
    -S(R_A|V) = S(V) - S(R_A V) before the chain and after every step. Data
    processing makes the returned list non-increasing up to numerical slack.

    The R_A V state is held factored, rho = M M† with M of shape
    (dim_a dim_v, r), r = dim_b at the start. A step with k Kraus operators is
    one product of their stack with M, so r becomes k r. M M† and M† M share
    their nonzero spectrum, so S(R_A V) is read from the smaller one. S(V) is
    read from the smaller Gram matrix of X, the (dim_v, dim_a r) reshape of M;
    when M M† is the side formed, X X† is its partial trace over R_A.
    require_state checks every matrix that is diagonalized. When r exceeds
    dim_a dim_v and another step follows, one eigh of M M† compresses M to
    dim_a dim_v columns, every eigenvalue kept (clipped at 0).
    """
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    for i, ch in enumerate(chain):
        if ch.dim_in != dv or ch.dim_out != dv:
            raise DimensionError(
                f"chain[{i}] acts on {ch.dim_in} -> {ch.dim_out}, expected dim_v={dv}"
            )
        report = require_valid(ch)
        if not report.trace_preserving:
            raise ValueError(f"chain[{i}] is not trace preserving (defect {report.defect:.3e})")
    # m[(a, v), b] = code[v, (a, b)] / sqrt(da db), so m m† is the input state
    m = dec.code_vectors().reshape(dv, da, db).transpose(1, 0, 2).reshape(da * dv, db)
    m = m / np.sqrt(da * db)

    def v_rows(m):  # the (dv, da r) reshape: rows v, columns (a, c)
        return m.reshape(da, dv, -1).transpose(1, 0, 2).reshape(dv, -1)

    values = []
    for i, ch in enumerate([None, *chain]):
        if ch is not None:
            k, r = len(ch.kraus), m.shape[1]
            m = (ch.kraus.reshape(-1, dv) @ v_rows(m)).reshape(k, dv, da, r)
            m = m.transpose(2, 1, 0, 3).reshape(da * dv, k * r)
        if m.shape[1] < da * dv:
            x = v_rows(m)
            g_rv, g_v = gram(m), gram(x.T).conj() if dv <= x.shape[1] else gram(x)
        else:  # m m† is the smaller side, and its R_A trace is v_rows(m) v_rows(m)†
            g_rv = gram(m.T).conj()
            g_v = np.trace(g_rv.reshape(da, dv, da, dv), axis1=0, axis2=2)
        values.append(von_neumann_entropy(g_v) - von_neumann_entropy(g_rv))
        if m.shape[1] > da * dv and i < len(chain):
            w, u = np.linalg.eigh(g_rv)
            m = u * np.sqrt(np.clip(w, 0.0, None))
    return values
