"""Recovery synthesis, verification, factorization, and linearity."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oqec

from oqec.channels import (
    Channel,
    apply,
    choi_distance,
    compose,
    depolarizing,
    identity,
    random_channel,
    unitary,
    validate,
)
from oqec.codes import catalog, get
from oqec.conditions import purify
from oqec.errors import DimensionError, NotCorrectableError
from oqec.linalg import (
    SPECTRUM_CUTOFF,
    dag,
    eig_hermitian,
    haar_unitary,
    kron,
    partial_trace,
)
from oqec.recovery import (
    Recovery,
    _schmidt_family,
    extend_by_linearity,
    factorize_product,
    synthesize_schmidt_recovery,
    synthesize_universal_recovery,
    verify_recovery,
)
from oqec.spaces import Decomposition, embed_state
from random_states import random_density_matrix

CORRECTABLE = [e.name for e in catalog() if all(e.expected.values())]
SYNTHESIZERS = [synthesize_schmidt_recovery, synthesize_universal_recovery]


def _rng(seed=0):
    return np.random.default_rng(seed)


def _product_channel(da, db, u0, n0):
    """u0 after (1_A tensor n0), as explicit Kraus operators."""
    return Channel(tuple(u0 @ kron(np.eye(da), nk) for nk in n0.kraus))


def _expected_kraus_count(entry):
    """Schmidt rank of the reference-environment marginal, plus one
    completion projector when the rank's families do not fill V."""
    ps = purify(entry.dec, entry.noise)
    q, _ = eig_hermitian(ps.marginal((1, 3)))
    rank = int(np.sum(q > SPECTRUM_CUTOFF))
    return rank + int(rank * entry.dec.dim_a < entry.dec.dim_v)


@pytest.fixture(scope="module")
def bacon_shor_9():
    return get("bacon_shor_9")


@pytest.mark.parametrize("name", CORRECTABLE)
@pytest.mark.parametrize("synth", SYNTHESIZERS)
def test_synthesized_recovery_corrects_fixture(name, synth):
    entry = get(name)
    rec = synth(entry.dec, entry.noise)
    assert validate(rec.channel).trace_preserving
    rep = verify_recovery(entry.dec, entry.noise, rec)
    assert rep.max_infidelity < 1e-10
    assert rep.b_marginal_drift < 1e-10
    assert rep.support_leak < 1e-10


def test_bit_flip_recovery_has_one_kraus_per_syndrome():
    """The four corrupted-code families fill the whole space, so no
    completion operators are needed."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    assert len(rec.channel.kraus) == 4
    np.testing.assert_allclose(rec.data["spectrum"], [0.7, 0.1, 0.1, 0.1], atol=1e-12)


@pytest.mark.parametrize(
    "name, count",
    [("bit_flip_3", 4), ("phase_flip_3", 4), ("dfs_2qubit_dephasing", 2), ("ns_3qubit_collective", 3)],
)
@pytest.mark.parametrize("synth", SYNTHESIZERS)
def test_recovery_kraus_count_is_schmidt_rank_plus_completion(name, count, synth):
    entry = get(name)
    rec = synth(entry.dec, entry.noise)
    assert _expected_kraus_count(entry) == count
    assert len(rec.channel.kraus) == count


@pytest.mark.parametrize("synth", SYNTHESIZERS)
def test_bacon_shor_9_recovery_is_trace_preserving(bacon_shor_9, synth):
    rec = synth(bacon_shor_9.dec, bacon_shor_9.noise)
    assert _expected_kraus_count(bacon_shor_9) == 65
    assert len(rec.channel.kraus) == 65
    assert validate(rec.channel).trace_preserving


@pytest.mark.parametrize("synth", SYNTHESIZERS)
def test_bacon_shor_9_recovery_verifies_exactly(bacon_shor_9, synth):
    rec = synth(bacon_shor_9.dec, bacon_shor_9.noise)
    rep = verify_recovery(bacon_shor_9.dec, bacon_shor_9.noise, rec)
    assert rep.max_infidelity < 1e-10
    assert rep.b_marginal_drift < 1e-10
    assert rep.support_leak < 1e-10


@pytest.mark.parametrize("name", CORRECTABLE)
@pytest.mark.parametrize("synth", SYNTHESIZERS)
def test_recovery_invariant_under_kraus_remixing(name, synth):
    """Mixing the noise Kraus list by a unitary gives the same channel, so it
    must give the same recovery, whatever basis eig_hermitian returns inside
    a degenerate eigenspace."""
    entry = get(name)
    u = haar_unitary(len(entry.noise.kraus), _rng(29))
    remixed = Channel(tuple(np.einsum("ij,jab->iab", u, np.stack(entry.noise.kraus))))
    r1 = synth(entry.dec, entry.noise)
    r2 = synth(entry.dec, remixed)
    assert choi_distance(r1.channel, r2.channel) <= 1e-10


def test_schmidt_recovery_restores_code_vectors():
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    code = entry.dec.code_vectors()
    _, families = _schmidt_family(entry.dec, entry.noise)
    assert len(families) == 4
    for cols in families:
        for j, vec in enumerate(cols.T):
            tau = apply(rec.channel, np.outer(vec, vec.conj()))
            target = code[:, j]
            overlap = float(np.real(target.conj() @ tau @ target))
            assert overlap > 1 - 1e-10


def test_methods_agree_on_code_sector():
    rng = _rng(3)
    for name in CORRECTABLE:
        entry = get(name)
        r1 = synthesize_schmidt_recovery(entry.dec, entry.noise)
        r2 = synthesize_universal_recovery(entry.dec, entry.noise)
        worst = 0.0
        for _ in range(10):
            rho = random_density_matrix(entry.dec.dim_a, rng)
            sig = random_density_matrix(entry.dec.dim_b, rng)
            t0 = apply(entry.noise, embed_state(entry.dec, rho, sig))
            worst = max(worst, float(np.linalg.norm(apply(r1.channel, t0) - apply(r2.channel, t0))))
        assert worst < 1e-10


def test_recovery_output_b_factor_is_fixed_pure_state():
    entry = get("ns_3qubit_collective")
    dec = entry.dec
    rec = synthesize_universal_recovery(dec, entry.noise)
    rng = _rng(7)
    code = dec.code_vectors()
    for _ in range(5):
        rho = random_density_matrix(dec.dim_a, rng)
        sig = random_density_matrix(dec.dim_b, rng)
        tau = apply(rec.channel, apply(entry.noise, embed_state(dec, rho, sig)))
        block = dag(code) @ tau @ code
        b_out = partial_trace(block, [dec.dim_a, dec.dim_b], keep=(1,))
        expected = np.zeros((dec.dim_b, dec.dim_b), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(b_out, expected, atol=1e-10)
        np.testing.assert_allclose(
            partial_trace(block, [dec.dim_a, dec.dim_b], keep=(0,)), rho, atol=1e-10
        )


@pytest.mark.parametrize("synth", SYNTHESIZERS)
def test_synthesis_raises_for_uncorrectable_noise(synth):
    entry = get("bitflip_3_vs_z")
    with pytest.raises(NotCorrectableError) as err:
        synth(entry.dec, entry.noise)
    assert err.value.residual > 1e-3


def test_verify_recovery_accepts_plain_channel():
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    rep = verify_recovery(entry.dec, entry.noise, rec.channel)
    assert rep.max_infidelity < 1e-10


def test_verify_recovery_reports_bad_recovery_without_raising():
    entry = get("bit_flip_3")
    rep = verify_recovery(entry.dec, entry.noise, identity(8))
    assert rep.max_infidelity > 1e-2


def test_verify_recovery_samples_nothing_and_ignores_trials_and_seed(monkeypatch):
    """The figures come from the code-sector blocks alone: no state is
    sampled or pushed through a channel, and the trials and seed keywords,
    still accepted, change nothing."""
    entry = get("phase_flip_3")
    rec = synthesize_universal_recovery(entry.dec, entry.noise)

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_recovery must not sample or push states")

    for module, name in [
        (oqec.channels, "apply"),
        (oqec.spaces, "embed_state"),
        (oqec.linalg, "partial_trace"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(oqec.recovery, name, forbidden, raising=False)
    a = verify_recovery(entry.dec, entry.noise, rec)
    b = verify_recovery(entry.dec, entry.noise, rec, trials=7, seed=9)
    assert a == b
    assert a.trials == 0


def test_verify_recovery_rejects_overflowing_kraus_sets():
    """An entry of 1e300 parses as finite but overflows sum E†E; verification
    refuses such a noise or recovery, with no numpy warning."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise).channel
    huge = np.array(entry.noise.kraus)
    huge[0, 0, 0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for noise, recovery in [(Channel(huge), rec), (entry.noise, Channel(huge))]:
            with pytest.raises(ValueError, match="overflows"):
                verify_recovery(entry.dec, noise, recovery)


def test_factorize_identity_channel():
    dec = Decomposition(2, 2, 0)
    fac = factorize_product(dec, identity(4))
    assert fac.residual < 1e-12
    assert np.linalg.norm(dag(fac.u) @ fac.u - np.eye(4)) < 1e-12
    assert validate(fac.n_b).trace_preserving


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_factorize_round_trip_on_constructed_instances(da, db):
    rng = _rng(100 * da + db)
    u0 = haar_unitary(da * db, rng)
    n0 = random_channel(db, 2, seed=da * 10 + db)
    ch = _product_channel(da, db, u0, n0)
    fac = factorize_product(Decomposition(da, db, 0), ch)
    assert fac.residual < 1e-10
    rebuilt = compose(unitary(fac.u), Channel(tuple(kron(np.eye(da), nk) for nk in fac.n_b.kraus)))
    assert choi_distance(ch, rebuilt) < 1e-10


def test_factorize_recovers_b_channel_up_to_gauge():
    """The split is unique only up to a unitary shared between u and n_b;
    undoing the gauge read off from u recovers the original B-side noise."""
    rng = _rng(17)
    da, db = 2, 3
    u0 = haar_unitary(da * db, rng)
    n0 = random_channel(db, 3, seed=77)
    fac = factorize_product(Decomposition(da, db, 0), _product_channel(da, db, u0, n0))
    m = dag(u0) @ fac.u
    w_b = partial_trace(m, [da, db], keep=(1,)) / da
    assert np.linalg.norm(m - kron(np.eye(da), w_b)) < 1e-10
    assert np.linalg.norm(dag(w_b) @ w_b - np.eye(db)) < 1e-10
    assert choi_distance(fac.n_b, compose(unitary(dag(w_b)), n0)) < 1e-10


def test_factorize_with_nontrivial_frame():
    rng = _rng(19)
    da, db = 2, 2
    f = haar_unitary(4, rng)
    dec = Decomposition(da, db, 0, frame=f)
    u0 = haar_unitary(4, rng)
    n0 = depolarizing(2, 0.4)
    base = _product_channel(da, db, u0, n0)
    ch = Channel(tuple(f @ e @ dag(f) for e in base.kraus))
    fac = factorize_product(dec, ch)
    assert fac.residual < 1e-10


_FACTORIZE_DIM_V_128 = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
import numpy as np
from oqec.channels import Channel, random_channel
from oqec.linalg import dag, haar_unitary, kron
from oqec.recovery import factorize_product
from oqec.spaces import Decomposition
rng = np.random.default_rng(128)
da, db = 2, 64
frame, u0 = haar_unitary(da * db, rng), haar_unitary(da * db, rng)
n0 = random_channel(db, 3, seed=128)
ch = Channel([frame @ u0 @ kron(np.eye(da), nk) @ dag(frame) for nk in n0.kraus])
print(factorize_product(Decomposition(da, db, 0, frame=frame), ch).residual)
"""


def test_factorize_dim_v_128_fits_in_one_gib():
    """A dense Choi matrix at dim_v 128 alone takes 4 GiB; the child process
    runs the factorization under a 1 GiB address-space cap. BLAS runs one
    thread there, so the cap measures the algorithm, not thread buffers."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oqec.__file__)))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", _FACTORIZE_DIM_V_128],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert float(proc.stdout) <= 1e-10


def test_factorize_requires_dim_c_zero():
    entry = get("bit_flip_3")
    with pytest.raises(DimensionError):
        factorize_product(entry.dec, entry.noise)


def test_factorize_rejects_noise_that_touches_a():
    dec = Decomposition(2, 2, 0)
    ch = random_channel(4, 3, seed=5)
    with pytest.raises(NotCorrectableError):
        factorize_product(dec, ch)


def test_extend_by_linearity_on_bit_flip_combinations():
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    rng = _rng(23)
    k = len(entry.noise.kraus)
    for _ in range(5):
        c = rng.normal(size=(1, k)) + 1j * rng.normal(size=(1, k))
        c /= 4 * np.linalg.norm(c)  # comfortably trace nonincreasing
        rep = extend_by_linearity(entry.dec, entry.noise, rec, c)
        assert rep.max_infidelity < 1e-10


def test_extend_by_linearity_validates_coefficients():
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    with pytest.raises(DimensionError):
        extend_by_linearity(entry.dec, entry.noise, rec, np.ones((1, 3)))
    with pytest.raises(ValueError):
        extend_by_linearity(entry.dec, entry.noise, rec, 5.0 * np.ones((1, 4)))


def test_recovery_dataclass_carries_method_tag():
    entry = get("dfs_2qubit_dephasing")
    r1 = synthesize_schmidt_recovery(entry.dec, entry.noise)
    r2 = synthesize_universal_recovery(entry.dec, entry.noise)
    assert isinstance(r1, Recovery)
    assert r1.method == "schmidt"
    assert r2.method == "universal"
    assert r1.data["condition_b_residual"] < 1e-12
    assert r2.data["condition_b_residual"] < 1e-12
