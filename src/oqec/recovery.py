"""Recovery synthesis, verification, and factorization of correctable noise.

Restricted to the B basis state t, E_j is an A -> V operator F_(j,t), and
condition b's blocks form the family's Gram matrix g: F_(j,s)† F_(k,t) =
g_((j,s),(k,t)) 1_A for correctable noise. F and g are read from b's state
and blocks. For any trace-preserving noise, conj(g) / dim_b with its (E, B)
factors swapped is the reference-environment marginal rho'_{R_B E} of that
state. One eigendecomposition of g gives canonical errors c_k = sum
mix[:, k] F with orthogonal ranges and c_k† c_k = d_k 1_A, one per Schmidt
weight q_k = d_k / dim_b above SPECTRUM_CUTOFF. The Schmidt recovery and
factorize_product divide c_k by sqrt(d_k), into the orthonormal corrupted
code vectors e_jk; the universal recovery snaps c_k to its polar isometry.
Both recoveries are trace-preserving Kraus channels on V that restore any
state of A, sending B to a fixed pure state: one Kraus operator per kept
weight, plus, when their ranges leave part of V uncovered, the projector
onto the rest, which leaves such states in place.

verify_recovery is the independent check: exact, from the code-sector
blocks of the composite R o E, with bounds that hold over every code input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .channels import Channel, require_on, require_valid
from .conditions import check_condition_b
from .errors import DimensionError, NotCorrectableError
from .linalg import (
    DEFAULT_ATOL,
    SPECTRUM_CUTOFF,
    complete_basis,
    dag,
    eig_hermitian,
    gram,
    storage_dtype,
)
from .spaces import Decomposition


@dataclass(frozen=True, eq=False)
class Recovery:
    """A synthesized recovery channel plus the construction's working data."""

    channel: Channel
    method: str
    data: dict


@dataclass(frozen=True, eq=False)
class Factorization:
    """E_l code = w (1_A tensor N_l) for the Kraus operators N_l of n_b, with
    w an isometry, both up to the residual."""

    w: np.ndarray
    n_b: Channel
    residual: float


@dataclass(frozen=True)
class VerificationReport:
    """Exact bounds, over every code input, from verify_recovery.

    max_infidelity: on 1 - <x| tr_B R(E(x x† tensor y y†)) |x> over pure
    product inputs, the output renormalized by its trace; at most 1.
    b_marginal_drift: on the Frobenius distance of the renormalized recovered
    B marginals of two inputs that differ only on A, each divided by the
    whole output trace; at most sqrt 2, and 0 at dim_b = 1 if none leaks.
    support_leak: on the trace (so the norm) of the output outside the code.
    """

    max_infidelity: float
    b_marginal_drift: float
    support_leak: float
    trials: int = 0  # always 0; bench/tracer.py counts it as recovery.verify_recovery.trials


def _canonical_errors(dec, ch, tol):
    """Gate on condition b at tol and diagonalize its Gram witness g; returns
    (b's residual, the kept weights q_k, the (rank, dv, da) stack of c_k, and
    the product E code of b's state, rows (l, v) and columns (a, b))."""
    report = check_condition_b(dec, ch, tol)
    if not report.passed:
        raise NotCorrectableError(
            f"noise is not correctable on this decomposition: condition-b residual "
            f"{report.residual:.3e} > tol={tol}",
            residual=report.residual,
        )
    da, db, dv, de = dec.dim_a, dec.dim_b, dec.dim_v, ch.n_kraus
    ec = report.witnesses["state"].x
    g = report.witnesses["b_blocks"].transpose(0, 2, 1, 3).reshape(de * db, de * db)
    d, mix = eig_hermitian(g)
    keep = d / db > SPECTRUM_CUTOFF
    # family[j * db + s] = F_(j,s), the dv x da block of E_j code at b = s
    family = ec.reshape(de, dv, da, db).transpose(0, 3, 1, 2).reshape(de * db, dv, da)
    canonical = np.tensordot(mix[:, keep].T, family, axes=1)
    return report.residual, d[keep] / db, canonical, ec


def _recovery_channel(code_s: np.ndarray, families: np.ndarray, residual: float) -> Channel:
    """The decoders code_s f_m† of the (m, dim_v, dim_a) families f_m, then
    the projector L L† onto the complement of their span when that is not
    empty, each written into its slot of one stack, which Channel adopts
    without a copy. The stack takes the factors' dtype, and is made float64
    when complex factors give real operators, its storage dtype either way.
    Families that V cannot hold raise NotCorrectableError with b's residual."""
    dv, m = code_s.shape[0], len(families)
    try:
        leftover = complete_basis(families.transpose(1, 0, 2).reshape(dv, -1), dv)
    except DimensionError as exc:  # too many or dependent columns: b passed only at a loose tol
        need = f"kept Schmidt rank {m} needs {m * families.shape[2]} columns in dim_v={dv} ({exc})"
        raise NotCorrectableError(f"noise is not correctable on this decomposition: {need}", residual) from exc
    shape = (m + (leftover.shape[1] > 0), dv, dv)
    stack = np.empty(shape, np.result_type(code_s, families, leftover))
    np.matmul(code_s, dag(families), out=stack[:m])
    if leftover.shape[1]:
        np.matmul(leftover, dag(leftover), out=stack[m])
    if np.iscomplexobj(stack) and storage_dtype([stack.imag]) is np.float64:
        stack = stack.real.copy()
    return Channel(stack, _adopt=True)


def synthesize_schmidt_recovery(
    dec: Decomposition, ch: Channel, *, tol: float = DEFAULT_ATOL
) -> Recovery:
    """Recovery from the Schmidt form of the purified noisy state.

    Each kept Schmidt weight q_k labels one orthonormal family
    {e_jk}_j = c_k / sqrt(dim_b q_k) of corrupted code vectors; the recovery
    projects onto that family and rewrites e_jk as the code vector for
    (j, b=0). One more Kraus operator, the projector onto the directions
    outside every family, completes the channel.

    Raises NotCorrectableError if b fails at tol or its families do not fit V.
    """
    residual, q, canonical, _ = _canonical_errors(dec, ch, tol)
    family = canonical / np.sqrt(dec.dim_b * q)[:, None, None]
    code_s = dec.code_vectors()[:, ::dec.dim_b]  # columns (j, b=0)
    data = {"spectrum": q, "condition_b_residual": residual}
    return Recovery(channel=_recovery_channel(code_s, family, residual), method="schmidt", data=data)


def synthesize_universal_recovery(
    dec: Decomposition, ch: Channel, *, tol: float = DEFAULT_ATOL
) -> Recovery:
    """Recovery from the polar isometries W_m of the canonical errors: the
    Kraus operators (embed at b=0) W_m†, plus the projector onto the
    complement of their ranges when that is not empty.

    Raises NotCorrectableError if b fails at tol or its families do not fit V.
    """
    residual, _, canonical, _ = _canonical_errors(dec, ch, tol)
    u_s, _, v_h = np.linalg.svd(canonical, full_matrices=False)
    isometries = u_s @ v_h  # (m, dv, da)
    code_s = dec.code_vectors()[:, ::dec.dim_b]
    data = {"condition_b_residual": residual}
    return Recovery(channel=_recovery_channel(code_s, isometries, residual), method="universal", data=data)


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
      At dim_b = 1, m/t = 1 - sum |L psi|^2 / t: eps is 0, the bound l/t_min.

    Both are at their caps when t_min <= SPECTRUM_CUTOFF. X is one product
    (code† R) @ (E code). T and sum L†L are sum_k (E_k code)† H (E_k code)
    for H = G and H = G - (code† R)†(code† R) = sum R†(1 - code code†)R,
    with G = sum R†R the recovery's cached Gram matrix (for a recovery kept
    as its cells, the vector of its diagonal, which scales rows). The second
    H E_k code is G E_k code - (code† R)† X_k, so no dim_v x dim_v matrix is
    formed. A noise or recovery channel off V, or whose sum E†E overflows,
    is refused by that name; other bad channels, trace-increasing ones among
    them, raise nothing; the numbers speak.
    """
    rchan = rec.channel if isinstance(rec, Recovery) else rec
    for what, c in (("noise channel", ch), ("recovery channel", rchan)):
        require_on(c, dec.dim_v, what)
        if c._gram[0] is None:  # finite entries such as 1e300 overflow sum E†E
            require_valid(c, what)  # refused as increasing trace, defect "overflows"
    g = rchan._gram[0]
    da, db, dv, dc = dec.dim_a, dec.dim_b, dec.dim_v, dec.dim_code
    code = dec.code_vectors()
    ec = ch.stacked_product(code).reshape(-1, dv, dc)  # E_k code
    if rchan._cells is None:
        cr = (dag(code) @ rchan.kraus).reshape(-1, dv)  # code† R_j, stacked rows
    else:  # (code† R_j)[:, u] sums conj(code[v]) R_j[v, u] over the cells (v, u) of R_j
        r, u, vals = rchan._cells.entries()
        j, v = np.divmod(r, dv)
        cr = np.zeros((rchan.n_kraus * dv, dc), np.result_type(code, vals))
        np.add.at(cr, j * dv + u, vals[:, None] * code.conj()[v])  # row (j, u): column u of code† R_j
        cr = cr.reshape(-1, dv, dc).transpose(0, 2, 1).reshape(-1, dv)
    x = cr @ ec.transpose(1, 0, 2).reshape(dv, -1)  # <a, b| R_j E_k |c, d>, rows (j, a, b)
    g_ec = g[:, None] * ec if g.ndim == 1 else g @ ec  # a cell recovery's diagonal G scales rows
    h_ec = g_ec - (dag(cr) @ x).reshape(dv, -1, dc).transpose(1, 0, 2)
    t, sum_l = (dag(ec.reshape(-1, dc)) @ y.reshape(-1, dc) for y in (g_ec, h_ec))
    x = x.reshape(-1, da, db, ch.n_kraus, da, db)  # indexed (j, a, b, k, c, d)
    blocks = np.einsum("jabkad->jkbd", x) / da  # C_jk
    x -= np.einsum("ac,jkbd->jabkcd", np.eye(da), blocks)  # now D_jk
    sum_d, c_flat = gram(x.reshape(-1, dc)), blocks.reshape(-1, db)
    # largest eigenvalues of positive matrices; rounding below 0 is clipped
    leak, delta2, c2, worst = (
        max(0.0, float(np.linalg.eigvalsh(h)[-1]))
        for h in (sum_l, sum_d, gram(c_flat), sum_l + sum_d)
    )
    t_min = float(np.linalg.eigvalsh(t)[0])
    if t_min <= SPECTRUM_CUTOFF:  # some code input is (nearly) annihilated
        return VerificationReport(1.0, 2**0.5, leak)
    eps = 0.0 if db == 1 else 2 * (c2 * delta2) ** 0.5 + delta2
    return VerificationReport(min(1.0, worst / t_min), min(2**0.5, (4 * eps + leak) / t_min), leak)


def factorize_product(
    dec: Decomposition, ch: Channel, *, tol: float = DEFAULT_ATOL
) -> Factorization:
    """Split correctable noise on the code sector as E_l code = w (1_A tensor N_l).

    The representation theorem read off the Schmidt family: column (j, k) of
    the isometry w : A tensor K -> V is the corrupted code vector e_jk, one K
    axis per kept Schmidt weight, and N_l : B -> K is the A-average of
    w† E_l code, so n_b is a channel B -> K. The residual is the Frobenius
    norm of E_l code - w (1_A tensor N_l) over all l and of w† w - 1 taken
    together: kept Schmidt weights of noise that passes b only at a loose
    tol can give more columns than an isometry holds, with a Kraus residual
    of 0. For dim_c = 0 the code sector is all of V. The representation is
    unique only up to a unitary on K shared between w and n_b.

    Raises NotCorrectableError when the algebraic test fails at tol.
    """
    _, q, canonical, ec = _canonical_errors(dec, ch, tol)
    da, dv, rank = dec.dim_a, dec.dim_v, len(q)
    family = canonical / np.sqrt(dec.dim_b * q)[:, None, None]
    w = family.transpose(1, 2, 0).reshape(dv, da * rank)  # column j * rank + k is e_jk
    ec = ec.reshape(-1, dv, dec.dim_code)  # E_l code
    n = np.einsum("lakac->lkc", (dag(w) @ ec).reshape(len(ec), da, rank, da, -1)) / da
    rebuilt = (w.reshape(dv * da, rank) @ n).reshape(ec.shape)  # w (1_A tensor N_l)
    residual = np.hypot(np.linalg.norm(ec - rebuilt), np.linalg.norm(gram(w) - np.eye(da * rank)))
    return Factorization(w=w, n_b=Channel(n), residual=float(residual))


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
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2 or coeffs.shape[1] != ch.n_kraus:
        raise DimensionError(
            f"coefficient array of shape {coeffs.shape} does not match "
            f"{ch.n_kraus} Kraus operators"
        )
    if coeffs.shape[0] < 1:
        raise DimensionError("need at least one combination row")
    combined = Channel(np.tensordot(coeffs, ch.kraus, axes=1))
    require_valid(combined, "combined channel", allow_trace_decreasing=True)
    return verify_recovery(dec, combined, rec)
