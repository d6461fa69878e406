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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channels import Channel, apply, require_valid
from .errors import DegenerateChannelError, DimensionError
from .linalg import (
    DEFAULT_ATOL,
    SPECTRUM_CUTOFF,
    dag,
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
    """

    dims: tuple[int, int, int, int]
    psi: np.ndarray
    norm_in: float

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
        """Density matrix of the kept factors (0=R_A, 1=R_B, 2=V, 3=E)."""
        keep = sorted(set(int(i) for i in keep))
        if any(i < 0 or i > 3 for i in keep) or not keep:
            raise DimensionError(f"keep indices {keep} out of range")
        rest = [i for i in range(4) if i not in keep]
        t = self.psi.reshape(self.dims).transpose(keep + rest)
        d_keep = int(np.prod([self.dims[i] for i in keep]))
        mat = t.reshape(d_keep, -1)
        return mat @ dag(mat)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one correctability test: passed iff residual <= tol."""

    condition: str
    passed: bool
    residual: float
    tol: float
    witnesses: dict


def purify(
    dec: Decomposition,
    ch: Channel,
    *,
    allow_trace_decreasing: bool = False,
    atol: float = DEFAULT_ATOL,
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
    require_valid(ch, atol, allow_trace_decreasing)
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
    atol: float = DEFAULT_ATOL,
    allow_trace_decreasing: bool = False,
) -> ConditionReport:
    """Algebraic test: P E_j† E_k P = 1_A tensor B_jk on the code sector.

    For each Kraus pair the candidate B_jk is the A-average of the code-sector
    block M_jk, and the pair deviation is ||M_jk - 1_A tensor B_jk||_F. The
    report residual aggregates all pairs in quadrature, which makes it
    invariant under unitary remixing of the Kraus list; the worst pair and the
    per-pair deviations are kept as witnesses.
    """
    if ch.dim_in != dec.dim_v or ch.dim_out != dec.dim_v:
        raise DimensionError(
            f"channel acts on {ch.dim_in} -> {ch.dim_out}, decomposition has dim_v={dec.dim_v}"
        )
    require_valid(ch, atol, allow_trace_decreasing)
    da, db, dv, de = dec.dim_a, dec.dim_b, dec.dim_v, len(ch.kraus)
    rotated = (ch.kraus.reshape(-1, dv) @ dec.code_vectors()).reshape(de, dv, da * db)
    # m[j, a, b, k, c, d] = <a, b| E_j† E_k |c, d> on the code sector
    m = np.tensordot(rotated.conj(), rotated, axes=(1, 1)).reshape(de, da, db, de, da, db)
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
            "b_blocks": {(j, k): blocks[j, k] for j in range(de) for k in range(de)},
            "pair_residuals": {
                (j, k): float(pair[j, k]) for j in range(de) for k in range(de)
            },
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
    rounding (subadditivity); the report residual is its magnitude.
    """
    s_a = float(np.log2(ps.dims[0]))
    s_v = von_neumann_entropy(ps.marginal((2,)))
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


def dpi_trace(
    dec: Decomposition, chain: Sequence[Channel], atol: float = DEFAULT_ATOL
) -> list[float]:
    """Coherent information of the R_A : V cut through a channel chain.

    Starts from the maximally entangled reference state on the code sector and
    applies each (trace-preserving) channel in turn to the V half, recording
    -S(R_A|V) before the chain and after every step. Data processing makes the
    returned list non-increasing up to numerical slack.
    """
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    for i, ch in enumerate(chain):
        if ch.dim_in != dv or ch.dim_out != dv:
            raise DimensionError(
                f"chain[{i}] acts on {ch.dim_in} -> {ch.dim_out}, expected dim_v={dv}"
            )
        report = require_valid(ch, atol, allow_trace_decreasing=False)
        if not report.trace_preserving:
            raise ValueError(f"chain[{i}] is not trace preserving (defect {report.defect:.3e})")
    code = dec.code_vectors()
    rho = np.zeros((da * dv, da * dv), dtype=np.complex128)
    eye_a = np.eye(da, dtype=np.complex128)
    for b in range(db):
        w = np.zeros(da * dv, dtype=np.complex128)
        for a in range(da):
            w += kron(eye_a[a], code[:, a * db + b])
        rho += np.outer(w, w.conj())
    rho /= da * db
    values = [coherent_info(rho, da, dv, atol)]
    for ch in chain:
        lifted = Channel(np.kron(eye_a, ch.kraus))
        rho = apply(lifted, rho)
        values.append(coherent_info(rho, da, dv, atol))
    return values
