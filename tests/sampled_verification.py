"""Monte-Carlo verification of a recovery: the reference that the exact
figures of oqec.recovery.verify_recovery are checked against.

It pushes random pure product states rho tensor sigma through noise then
recovery (renormalizing if the composite is trace decreasing) and reads the
same three quantities off the outputs: the worst overlap infidelity on A,
the B-marginal drift across varying rho at fixed sigma, and the worst norm
outside the code sector. Each sampled figure is one value of the quantity
that the exact figure bounds, so it can never exceed it.
"""

import numpy as np

from oqec.channels import apply
from oqec.linalg import SPECTRUM_CUTOFF, dag, partial_trace
from oqec.recovery import Recovery, VerificationReport
from oqec.spaces import embed_state, projector_p
from random_states import random_state_vector


def sampled_verify_recovery(dec, ch, rec, trials=50, seed=0) -> VerificationReport:
    rchan = rec.channel if isinstance(rec, Recovery) else rec
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
    )
