"""Recovery synthesis, verification, and factorization of correctable noise.

Two independent constructions of a correcting channel:

* the Schmidt route diagonalizes the reference-environment marginal of the
  purified state, reads off one orthonormal family of corrupted code vectors
  per surviving eigenvalue, and decodes each family back onto the code sector;
* the universal route works channel-side only: it forms the A -> V error
  family E_j restricted to each B basis state, diagonalizes its Gram matrix,
  and polar-decomposes the canonical errors into isometries whose adjoints
  decode.

Both emit trace-preserving Kraus channels on V that restore any state of the
protected factor A, sending B to a fixed pure state: one Kraus operator per
surviving eigenvalue (the Schmidt rank of the reference-environment marginal),
plus, when those ranges leave part of V uncovered, the projector onto the
rest, which leaves such states in place.

verify_recovery checks a recovery exactly, from the code-sector blocks of
the composite R o E, and reports bounds that hold over every code input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .channels import Channel, choi_distance, validate
from .conditions import check_condition_b, purify
from .errors import DimensionError, NotCorrectableError
from .linalg import (
    DEFAULT_ATOL,
    SPECTRUM_CUTOFF,
    complete_basis,
    dag,
    eig_hermitian,
    gram,
)
from .spaces import Decomposition


@dataclass(frozen=True)
class Recovery:
    """A synthesized recovery channel plus the construction's working data."""

    channel: Channel
    method: str
    data: dict


@dataclass(frozen=True)
class Factorization:
    """ch = unitary(u) after (1_A tensor n_b), up to the Choi residual."""

    u: np.ndarray
    n_b: Channel
    residual: float


@dataclass(frozen=True)
class VerificationReport:
    """Exact bounds, over every code input, from verify_recovery.

    max_infidelity: on 1 - <x| tr_B R(E(x x† tensor y y†)) |x> over pure
    product inputs, the output renormalized by its trace; at most 1.
    b_marginal_drift: on the Frobenius distance of the renormalized recovered
    B marginals of two inputs that differ only on A; at most sqrt 2.
    support_leak: on the trace (so the norm) of the output outside the code.
    """

    max_infidelity: float
    b_marginal_drift: float
    support_leak: float
    trials: int = 0  # always 0; bench/tracer.py counts it as recovery.verify_recovery.trials


def _gate_condition_b(dec, ch, tol):
    report = check_condition_b(dec, ch, tol)
    if not report.passed:
        raise NotCorrectableError(
            f"noise is not correctable on this decomposition: condition-b residual "
            f"{report.residual:.3e} > tol={tol}",
            residual=report.residual,
        )
    return report


def _completion(span: np.ndarray) -> list:
    """The projector L L† onto the complement of span's columns, as a
    one-element Kraus list, or an empty list when span fills the space."""
    leftover = complete_basis(span, span.shape[0])
    return [leftover @ dag(leftover)] if leftover.shape[1] else []


def _schmidt_family(dec, ch):
    """Eigen-split the reference-environment marginal and pull back the
    corrupted code vectors e_jk; returns (weights q_k, the (rank, dv, da)
    stack whose block k has columns e_jk)."""
    ps = purify(dec, ch)
    da, db, dv, de = ps.dims
    q, vecs = eig_hermitian(ps.marginal((1, 3)))
    keep = q > SPECTRUM_CUTOFF
    q = q[keep]
    amp = ps.psi.reshape(da, db, dv, de).transpose(1, 3, 2, 0).reshape(db * de, dv * da)
    family = (dag(vecs[:, keep]) @ amp).reshape(-1, dv, da) / np.sqrt(q / da)[:, None, None]
    return q, family


def synthesize_schmidt_recovery(
    dec: Decomposition, ch: Channel, *, tol: float = DEFAULT_ATOL
) -> Recovery:
    """Recovery from the Schmidt form of the purified noisy state.

    Each surviving eigenvalue q_k of the reference-environment marginal
    labels one orthonormal family {e_jk}_j of corrupted code vectors; the
    recovery projects onto that family and rewrites e_jk as the code vector
    for (j, b=0). One more Kraus operator, the projector onto the directions
    outside every family, completes the channel and leaves those directions
    in place.

    Raises NotCorrectableError when the algebraic test fails at tol.
    """
    gate = _gate_condition_b(dec, ch, tol)
    q, family = _schmidt_family(dec, ch)
    code_s = dec.code_vectors()[:, ::dec.dim_b]  # columns (j, b=0)
    span = family.transpose(1, 0, 2).reshape(dec.dim_v, -1)
    kraus = list(code_s @ dag(family)) + _completion(span)
    data = {"spectrum": q, "condition_b_residual": gate.residual}
    return Recovery(channel=Channel(tuple(kraus)), method="schmidt", data=data)


def synthesize_universal_recovery(
    dec: Decomposition, ch: Channel, *, tol: float = DEFAULT_ATOL
) -> Recovery:
    """Recovery from the Gram matrix of the restricted error family.

    The A -> V operators F_(j,t) = E_j (embedding of A at B basis state t)
    satisfy F_(j,s)† F_(k,t) = g_((j,s),(k,t)) 1_A when the noise is
    correctable. Diagonalizing g and mixing the family accordingly yields
    canonical errors with orthogonal ranges; their polar isometries W_m give
    the recovery Kraus operators (embed at b=0) W_m†, plus the projector onto
    the complement of their ranges when that is not empty.
    """
    gate = _gate_condition_b(dec, ch, tol)
    da, db, dv, de = dec.dim_a, dec.dim_b, dec.dim_v, len(ch.kraus)
    code = dec.code_vectors()
    # F_(j,s)† F_(k,t) = B_jk[s, t] 1_A: condition b's blocks are the Gram
    # matrix g, and its residual is the distance of the family from that form
    g = gate.witnesses["b_blocks"].transpose(0, 2, 1, 3).reshape(de * db, de * db)
    d, mix = eig_hermitian(g)
    # family[j * db + s] = F_(j,s), the dv x da block of E_j code at b = s
    rotated = (ch.kraus.reshape(-1, dv) @ code).reshape(de, dv, da, db)
    family = rotated.transpose(0, 3, 1, 2).reshape(de * db, dv, da)
    canonical = np.tensordot(mix[:, d > SPECTRUM_CUTOFF].T, family, axes=1)
    u_s, _, v_h = np.linalg.svd(canonical, full_matrices=False)
    isometries = u_s @ v_h  # (m, dv, da)
    span = isometries.transpose(1, 0, 2).reshape(dv, -1)
    kraus = list(code[:, 0::db] @ dag(isometries)) + _completion(span)
    data = {"condition_b_residual": gate.residual}
    return Recovery(channel=Channel(kraus), method="universal", data=data)


def verify_recovery(
    dec: Decomposition,
    ch: Channel,
    rec: Union[Recovery, Channel],
    *,
    trials: int = 0,  # ignored; bench/workloads.py (_synth, op_verify) passes it
    seed: int = 0,  # ignored; bench/workloads.py (_synth, op_verify) passes it
) -> VerificationReport:
    """Exact test that rec undoes ch on the protected factor.

    With code the dim_v x dim_code code vectors, R o E has the blocks
    Y_jk = R_j E_k code, with code part X_jk = code† Y_jk = 1_A tensor C_jk
    + D_jk, where C_jk = tr_A X_jk / dim_a, and leak L_jk = Y_jk - code X_jk;
    rec corrects ch iff every D_jk and L_jk is 0. Sums run over j and k. A
    code input psi leaves the output trace t = psi† T psi >= t_min, the least
    eigenvalue of T = sum Y†Y. Each figure bounds its quantity over every
    code input:

    * support_leak = l = lambda_max(sum L†L), the largest trace of the
      positive output part sum L psi psi† L† outside the code sector.
    * max_infidelity = min(1, lambda_max(sum L†L + sum D†D) / t_min): for
      psi = x tensor y and Pi = x x† tensor 1_B, (1 - Pi) kills x tensor C y,
      so infidelity * t = sum |L psi|^2 + sum |(1 - Pi) D psi|^2.
    * b_marginal_drift = min(sqrt 2, (4 eps + l) / t_min), eps = 2 c delta +
      delta^2, c^2 = lambda_max(sum C†C), delta^2 = lambda_max(sum D†D). The
      unnormalized B marginal is m = sum C y y† C† + r(x) with trace norm
      |r| <= sum (2 |C y| |D psi| + |D psi|^2) <= eps (Cauchy-Schwarz), and
      t = tr m + sum |L psi|^2 with the last term in [0, l]; so for x, x' at
      one y, |m/t - m'/t'| <= |r - r'|/t + (tr m'/t') |t - t'|/t
      <= (4 eps + l) / t_min. Marginals of trace <= 1 are within sqrt 2.

    Both are at their caps when t_min <= SPECTRUM_CUTOFF. X is one product
    (code† R) @ (E code). T and sum L†L are sum_k (E_k code)† H (E_k code)
    for H = G and H = G - (code† R)†(code† R) = sum R†(1 - code code†)R,
    with G = sum R†R the recovery's cached Gram matrix, so no dim_v x dim_v
    state is formed. Bad recoveries raise nothing; the numbers speak.
    """
    rchan = rec.channel if isinstance(rec, Recovery) else rec
    if ch.dim_in != dec.dim_v or ch.dim_out != dec.dim_v:
        raise DimensionError("noise channel does not act on dim_v")
    if rchan.dim_in != dec.dim_v or rchan.dim_out != dec.dim_v:
        raise DimensionError("recovery channel does not act on dim_v")
    g = rchan._gram[0]
    if g is None or ch._gram[0] is None:  # finite entries such as 1e300 overflow
        raise ValueError("Kraus set overflows: its sum E†E is not finite")
    da, db, dv, dc = dec.dim_a, dec.dim_b, dec.dim_v, dec.dim_code
    code = dec.code_vectors()
    ec = ch.kraus @ code  # E_k code
    cr = (dag(code) @ rchan.kraus).reshape(-1, dv)  # code† R_j, stacked rows
    # x[j, a, b, k, c, d] = <a, b| R_j E_k |c, d> on the code sector
    x = (cr @ ec.transpose(1, 0, 2).reshape(dv, -1)).reshape(-1, da, db, len(ch.kraus), da, db)
    blocks = np.einsum("jabkad->jkbd", x) / da  # C_jk
    x -= np.einsum("ac,jkbd->jabkcd", np.eye(da), blocks)  # now D_jk
    e_flat, d_flat, c_flat = ec.reshape(-1, dc), x.reshape(-1, dc), blocks.reshape(-1, db)
    t = dag(e_flat) @ (g @ ec).reshape(-1, dc)
    sum_l = dag(e_flat) @ ((g - gram(cr)) @ ec).reshape(-1, dc)
    sum_d = gram(d_flat)
    # largest eigenvalues of positive matrices; rounding below 0 is clipped
    leak, delta2, c2, worst = (
        max(0.0, float(np.linalg.eigvalsh(h)[-1]))
        for h in (sum_l, sum_d, gram(c_flat), sum_l + sum_d)
    )
    t_min = float(np.linalg.eigvalsh(t)[0])
    if t_min <= SPECTRUM_CUTOFF:  # some code input is (nearly) annihilated
        return VerificationReport(1.0, 2**0.5, leak)
    eps = 2 * (c2 * delta2) ** 0.5 + delta2
    return VerificationReport(min(1.0, worst / t_min), min(2**0.5, (4 * eps + leak) / t_min), leak)


def factorize_product(
    dec: Decomposition, ch: Channel, *, tol: float = DEFAULT_ATOL
) -> Factorization:
    """Split a correctable channel on V = A tensor B as unitary(u) after
    (1_A tensor n_b). Only defined for dim_c = 0.

    The unitary is assembled from the corrupted code vectors: W e_jk = |j, k>,
    completed by mapping an orthonormal basis of the remaining directions
    (from complete_basis) onto the unused |j, k> with k >= the Schmidt rank.
    The residual is the Choi distance between ch and the rebuilt composite;
    the representation itself is not unique.
    """
    if dec.dim_c != 0:
        raise DimensionError(
            f"factorization requires dim_c = 0, got dim_c={dec.dim_c}"
        )
    gate = _gate_condition_b(dec, ch, tol)
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    frame = dec.code_vectors()  # with dim_c = 0, the whole frame
    _, family = _schmidt_family(dec, ch)
    rank = len(family)
    if rank > db:
        raise NotCorrectableError(
            f"reference-environment marginal has Schmidt rank {rank} > dim_b={db}",
            residual=gate.residual,
        )
    # sources, in canonical coordinates: column k * da + j is e_jk and maps
    # to |j, k> = j * db + k; the completion maps, in ascending order, to the
    # unused |j, k>, those with k >= rank
    sources = dag(frame) @ family.transpose(1, 0, 2).reshape(dv, -1)
    k, j = divmod(np.arange(rank * da), da)
    targets = np.concatenate([j * db + k, np.flatnonzero(np.arange(dv) % db >= rank)])
    w = np.zeros((dv, dv), dtype=np.complex128)
    w[targets] = dag(np.hstack([sources, complete_basis(sources, dv)]))
    u_s, _, v_h = np.linalg.svd(w)
    w = u_s @ v_h  # snap to the closest exact unitary
    # w frame† E_j frame = 1_A tensor N_j, up to the residual
    m = (w @ dag(frame) @ ch.kraus @ frame).reshape(-1, da, db, da, db)
    n_b = Channel(np.einsum("jabac->jbc", m) / da)
    u_work = frame @ dag(w) @ dag(frame)
    rebuilt = Channel(frame @ dag(w) @ np.kron(np.eye(da), n_b.kraus) @ dag(frame))
    residual = choi_distance(ch, rebuilt)
    return Factorization(u=u_work, n_b=n_b, residual=residual)


def extend_by_linearity(
    dec: Decomposition,
    ch: Channel,
    rec: Union[Recovery, Channel],
    coeffs: np.ndarray,
) -> VerificationReport:
    """Verify that a recovery for ch also corrects linear combinations of its
    Kraus operators.

    Each row l of coeffs defines F_l = sum_k coeffs[l, k] E_k. The combined
    Kraus set must not increase trace; trace-decreasing combinations are fine,
    since verify_recovery renormalizes the output. The blocks R_j F_l code
    are linear in the F_l, so this is verify_recovery's exact test on the
    combined channel.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[1] != len(ch.kraus):
        raise DimensionError(
            f"coefficient array of shape {coeffs.shape} does not match "
            f"{len(ch.kraus)} Kraus operators"
        )
    if coeffs.shape[0] < 1:
        raise DimensionError("need at least one combination row")
    combined = Channel(np.tensordot(coeffs, ch.kraus, axes=1))
    report = validate(combined)
    if not report.trace_nonincreasing:
        raise ValueError(
            "linear combination increases trace; rescale the coefficients"
        )
    return verify_recovery(dec, combined, rec)
