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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .channels import Channel, apply, choi_distance, validate
from .conditions import check_condition_b, purify
from .errors import DimensionError, NotCorrectableError
from .linalg import (
    DEFAULT_ATOL,
    SPECTRUM_CUTOFF,
    complete_basis,
    dag,
    eig_hermitian,
    kron,
    partial_trace,
    random_state_vector,
)
from .spaces import Decomposition, embed_state, projector_p


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
    """Monte-Carlo check of a recovery against a noise channel.

    max_infidelity: worst overlap infidelity 1 - <x| tr_B (R(E(x sigma))) |x>
    over random pure product inputs, renormalizing trace-decreasing output.
    b_marginal_drift: max pairwise distance of the recovered B marginal when
    only the A input varies.
    support_leak: worst norm of the recovered state outside the code sector.
    """

    max_infidelity: float
    b_marginal_drift: float
    support_leak: float
    trials: int
    seed: int


def _gate_condition_b(dec, ch, tol, atol, allow_trace_decreasing):
    report = check_condition_b(
        dec, ch, tol, atol=atol, allow_trace_decreasing=allow_trace_decreasing
    )
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


def _schmidt_family(dec, ch, cutoff, atol, allow_trace_decreasing):
    """Eigen-split the reference-environment marginal and pull back the
    corrupted code vectors e_jk; returns (weights q_k, one dv x da block of
    columns e_jk per surviving k, the purified state)."""
    ps = purify(dec, ch, allow_trace_decreasing=allow_trace_decreasing, atol=atol)
    da, db, dv, de = ps.dims
    q, vecs = eig_hermitian(ps.marginal((1, 3)), atol)
    survive = [k for k in range(len(q)) if q[k] > cutoff]
    amp = ps.psi.reshape(da, db, dv, de).transpose(0, 1, 3, 2).reshape(da, db * de, dv)
    families = []  # one (dv x da) column block per surviving k
    for k in survive:
        cols = np.zeros((dv, da), dtype=np.complex128)
        for j in range(da):
            cols[:, j] = (vecs[:, k].conj() @ amp[j]) / np.sqrt(q[k] / da)
        families.append(cols)
    return np.array([q[k] for k in survive]), families, ps


def synthesize_schmidt_recovery(
    dec: Decomposition,
    ch: Channel,
    *,
    tol: float = DEFAULT_ATOL,
    cutoff: float = SPECTRUM_CUTOFF,
    atol: float = DEFAULT_ATOL,
    allow_trace_decreasing: bool = False,
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
    gate = _gate_condition_b(dec, ch, tol, atol, allow_trace_decreasing)
    q, families, ps = _schmidt_family(dec, ch, cutoff, atol, allow_trace_decreasing)
    da, db, dv, _ = ps.dims
    code_s = dec.code_vectors()[:, 0::db]  # columns (j, b=0)
    span = np.hstack([np.zeros((dv, 0), dtype=np.complex128), *families])
    kraus = [code_s @ dag(cols) for cols in families] + _completion(span)
    data = {
        "spectrum": q,
        "schmidt_vectors": {
            (j, k): families[k][:, j] for k in range(len(families)) for j in range(da)
        },
        "orthonormality_defect": float(
            np.linalg.norm(dag(span) @ span - np.eye(span.shape[1]))
        ),
        "condition_b_residual": gate.residual,
    }
    return Recovery(channel=Channel(tuple(kraus)), method="schmidt", data=data)


def synthesize_universal_recovery(
    dec: Decomposition,
    ch: Channel,
    *,
    tol: float = DEFAULT_ATOL,
    cutoff: float = SPECTRUM_CUTOFF,
    atol: float = DEFAULT_ATOL,
    allow_trace_decreasing: bool = False,
) -> Recovery:
    """Recovery from the Gram matrix of the restricted error family.

    The A -> V operators F_(j,t) = E_j (embedding of A at B basis state t)
    satisfy F_(j,s)† F_(k,t) = g_((j,s),(k,t)) 1_A when the noise is
    correctable. Diagonalizing g and mixing the family accordingly yields
    canonical errors with orthogonal ranges; their polar isometries W_m give
    the recovery Kraus operators (embed at b=0) W_m†, plus the projector onto
    the complement of their ranges when that is not empty.
    """
    gate = _gate_condition_b(dec, ch, tol, atol, allow_trace_decreasing)
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    code = dec.code_vectors()
    embeds = [code[:, t::db] for t in range(db)]  # dv x da each
    family = [e @ embeds[t] for e in ch.kraus for t in range(db)]
    n = len(family)
    gram = np.zeros((n, n), dtype=np.complex128)
    gram_residual_sq = 0.0
    for i, fi in enumerate(family):
        for j, fj in enumerate(family):
            prod = dag(fi) @ fj
            gram[i, j] = np.trace(prod) / da
            gram_residual_sq += float(
                np.linalg.norm(prod - gram[i, j] * np.eye(da)) ** 2
            )
    d, mix = eig_hermitian(gram, atol)
    isometries = []
    for m in range(n):
        if d[m] <= cutoff:
            continue
        g_m = sum(mix[i, m] * family[i] for i in range(n))
        u_s, _, v_h = np.linalg.svd(g_m, full_matrices=False)
        isometries.append(u_s @ v_h)
    span = np.hstack([np.zeros((dv, 0), dtype=np.complex128), *isometries])
    kraus = [embeds[0] @ dag(w) for w in isometries] + _completion(span)
    data = {
        "gram_spectrum": d,
        "gram_residual": float(np.sqrt(gram_residual_sq)),
        "condition_b_residual": gate.residual,
    }
    return Recovery(channel=Channel(tuple(kraus)), method="universal", data=data)


def verify_recovery(
    dec: Decomposition,
    ch: Channel,
    rec: Union[Recovery, Channel],
    trials: int = 50,
    seed: int = 0,
    atol: float = DEFAULT_ATOL,
) -> VerificationReport:
    """Monte-Carlo verification that rec undoes ch on the protected factor.

    Draws random pure product states rho tensor sigma, pushes them through
    noise then recovery (renormalizing if the composite is trace decreasing),
    and measures the worst overlap infidelity on A. The B-marginal drift is
    taken across varying rho at fixed sigma. No exception is raised for bad
    recoveries; the numbers speak.
    """
    rchan = rec.channel if isinstance(rec, Recovery) else rec
    if ch.dim_in != dec.dim_v or ch.dim_out != dec.dim_v:
        raise DimensionError("noise channel does not act on dim_v")
    if rchan.dim_in != dec.dim_v or rchan.dim_out != dec.dim_v:
        raise DimensionError("recovery channel does not act on dim_v")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    code = dec.code_vectors()
    q_proj = np.eye(dv) - projector_p(dec)

    def push(x, y):
        tau = apply(rchan, apply(ch, embed_state(dec, np.outer(x, x.conj()), np.outer(y, y.conj()))))
        tr = float(np.real(np.trace(tau)))
        leak = float(np.linalg.norm(q_proj @ tau @ q_proj))
        if tr <= SPECTRUM_CUTOFF:
            return None, leak
        block = dag(code) @ tau @ code / tr
        return block, leak

    worst_inf = 0.0
    worst_leak = 0.0
    b_marginals = []
    sigma_anchor = random_state_vector(db, rng)
    for _ in range(trials):
        x = random_state_vector(da, rng)
        y = random_state_vector(db, rng)
        block, leak = push(x, y)
        worst_leak = max(worst_leak, leak)
        if block is None:
            worst_inf = 1.0
        else:
            tau_a = partial_trace(block, [da, db], keep=(0,))
            overlap = float(np.real(x.conj() @ tau_a @ x))
            worst_inf = max(worst_inf, 1.0 - overlap)
        block, leak = push(x, sigma_anchor)
        worst_leak = max(worst_leak, leak)
        if block is None:
            worst_inf = 1.0
        else:
            b_marginals.append(partial_trace(block, [da, db], keep=(1,)))
    drift = 0.0
    for i in range(len(b_marginals)):
        for j in range(i + 1, len(b_marginals)):
            drift = max(drift, float(np.linalg.norm(b_marginals[i] - b_marginals[j])))
    return VerificationReport(
        max_infidelity=worst_inf,
        b_marginal_drift=drift,
        support_leak=worst_leak,
        trials=trials,
        seed=seed,
    )


def factorize_product(
    dec: Decomposition,
    ch: Channel,
    *,
    tol: float = DEFAULT_ATOL,
    cutoff: float = SPECTRUM_CUTOFF,
    atol: float = DEFAULT_ATOL,
    allow_trace_decreasing: bool = False,
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
    gate = _gate_condition_b(dec, ch, tol, atol, allow_trace_decreasing)
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    frame = (
        np.asarray(dec.frame)
        if dec.frame is not None
        else np.eye(dv, dtype=np.complex128)
    )
    rotated = Channel(tuple(dag(frame) @ e @ frame for e in ch.kraus))
    canon = Decomposition(da, db, 0)
    q, families, _ = _schmidt_family(
        canon, rotated, cutoff, atol, allow_trace_decreasing
    )
    rank = len(families)
    if rank > db:
        raise NotCorrectableError(
            f"reference-environment marginal has Schmidt rank {rank} > dim_b={db}",
            residual=gate.residual,
        )
    # sources column order is k outer, j inner, pairing with target j*db + k
    sources = (
        np.hstack(families) if families else np.zeros((dv, 0), dtype=np.complex128)
    )
    targets = np.zeros((dv, rank * da), dtype=np.complex128)
    col = 0
    for k in range(rank):
        for j in range(da):
            targets[j * db + k, col] = 1.0
            col += 1
    src_ext = complete_basis(sources, dv)
    tgt_cols = [j * db + k for j in range(da) for k in range(rank, db)]
    tgt_ext = np.zeros((dv, len(tgt_cols)), dtype=np.complex128)
    for i, c in enumerate(tgt_cols):
        tgt_ext[c, i] = 1.0
    w = np.hstack([targets, tgt_ext]) @ dag(np.hstack([sources, src_ext]))
    u_s, _, v_h = np.linalg.svd(w)
    w = u_s @ v_h  # snap to the closest exact unitary
    n_kraus = []
    eye_a = np.eye(da)
    for e in rotated.kraus:
        m = w @ e
        n_kraus.append(partial_trace(m, [da, db], keep=(1,)) / da)
    n_b = Channel(tuple(n_kraus))
    u_work = frame @ dag(w) @ dag(frame)
    rebuilt = Channel(
        tuple(u_work @ (frame @ kron(eye_a, nk) @ dag(frame)) for nk in n_b.kraus)
    )
    residual = choi_distance(ch, rebuilt)
    return Factorization(u=u_work, n_b=n_b, residual=residual)


def extend_by_linearity(
    dec: Decomposition,
    ch: Channel,
    rec: Union[Recovery, Channel],
    coeffs: np.ndarray,
    *,
    trials: int = 20,
    seed: int = 0,
    atol: float = DEFAULT_ATOL,
) -> VerificationReport:
    """Verify that a recovery for ch also corrects linear combinations of its
    Kraus operators.

    Each row l of coeffs defines F_l = sum_k coeffs[l, k] E_k. The combined
    Kraus set must not increase trace; trace-decreasing combinations are fine
    and are renormalized per trial during verification.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[1] != len(ch.kraus):
        raise DimensionError(
            f"coefficient array of shape {coeffs.shape} does not match "
            f"{len(ch.kraus)} Kraus operators"
        )
    if coeffs.shape[0] < 1:
        raise DimensionError("need at least one combination row")
    combined = Channel(
        tuple(
            sum(coeffs[l, k] * ch.kraus[k] for k in range(len(ch.kraus)))
            for l in range(coeffs.shape[0])
        )
    )
    report = validate(combined, atol)
    if not report.trace_nonincreasing:
        raise ValueError(
            "linear combination increases trace; rescale the coefficients"
        )
    return verify_recovery(dec, combined, rec, trials=trials, seed=seed, atol=atol)
