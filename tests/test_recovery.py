"""Recovery synthesis, verification, factorization, and linearity."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import oqec
from oqec import cli

from oqec.channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Channel,
    apply,
    depolarizing,
    identity,
    random_channel,
    single_qubit_on,
    unitary,
    validate,
)
from oqec.codes import catalog, get
from oqec.conditions import check_condition_b, purify
from oqec.errors import DimensionError, NotCorrectableError
from oqec.linalg import (
    SPECTRUM_CUTOFF,
    Cells,
    dag,
    eig_hermitian,
    haar_unitary,
    kron,
    partial_trace,
)
from oqec.recovery import (
    Recovery,
    _canonical_errors,
    extend_by_linearity,
    factorize_product,
    synthesize_schmidt_recovery,
    synthesize_universal_recovery,
    verify_recovery,
)
from oqec.spaces import Decomposition, embed_state
from choi_oracle import choi_distance
from pauli_noise import kept_as_cells, weight_one_depolarizing
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


def test_bacon_shor_9_schmidt_recovery_holds_one_stack(bacon_shor_9):
    """The decoders and the completion projector are written into the one
    stack the channel keeps: synthesis peaks below 1.5x that stack, where a
    list of operators stacked again would take 2x."""
    tracemalloc.start()
    try:
        rec = synthesize_schmidt_recovery(bacon_shor_9.dec, bacon_shor_9.noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rec.channel.kraus.flags.writeable
    assert peak < 1.5 * rec.channel.kraus.nbytes, (peak, rec.channel.kraus.nbytes)


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
    _, q, canonical, _ = _canonical_errors(entry.dec, entry.noise, 1e-9)
    families = canonical / np.sqrt(entry.dec.dim_b * q)[:, None, None]
    assert len(families) == 4
    for cols in families:
        for j, vec in enumerate(cols.T):
            tau = apply(rec.channel, np.outer(vec, vec.conj()))
            target = code[:, j]
            overlap = float(np.real(target.conj() @ tau @ target))
            assert overlap > 1 - 1e-10


def _identity_instances():
    yield from ((e.name, e.dec, e.noise) for e in catalog())
    entry = get("bacon_shor_9")
    yield "bacon_shor_9", entry.dec, entry.noise
    yield "random_dim_11", Decomposition(2, 3, 5), random_channel(11, 3, seed=61)


def test_reference_environment_marginal_is_condition_b_gram():
    """rho'_{R_B E}[(b, e), (b', e')] = conj(g[(e, b), (e', b')]) / dim_b,
    with g condition b's Gram witness, for correctable noise or not: the
    Schmidt weights are g's eigenvalues over dim_b."""
    for name, dec, ch in _identity_instances():
        db, de = dec.dim_b, len(ch.kraus)
        g = check_condition_b(dec, ch, 1e-9).witnesses["b_blocks"].transpose(0, 2, 1, 3)
        swapped = g.conj().transpose(1, 0, 3, 2).reshape(db * de, db * de) / db
        gap = np.abs(purify(dec, ch).marginal((1, 3)) - swapped).max()
        assert gap <= 1e-14, (name, gap)


@pytest.mark.parametrize("name", [*CORRECTABLE, "bacon_shor_9"])
def test_schmidt_spectrum_is_the_purified_marginal_spectrum(name):
    entry = get(name)
    q, _ = eig_hermitian(purify(entry.dec, entry.noise).marginal((1, 3)))
    spectrum = synthesize_schmidt_recovery(entry.dec, entry.noise).data["spectrum"]
    np.testing.assert_allclose(spectrum, q[q > SPECTRUM_CUTOFF], rtol=0, atol=1e-14)


@pytest.mark.parametrize("q", [2e-12, 7.5e-13, 2.5e-13])
def test_methods_share_one_rank_rule_at_the_cutoff(q):
    """Weight 2q moves the code into C, one Schmidt weight q per B state:
    both methods keep it or cut it together (q > SPECTRUM_CUTOFF), also for
    q in (SPECTRUM_CUTOFF / dim_b, SPECTRUM_CUTOFF]."""
    dec = Decomposition(2, 2, 4)
    shift = np.roll(np.eye(8), 4, axis=0)
    ch = Channel([np.sqrt(1 - 2 * q) * np.eye(8), np.sqrt(2 * q) * shift])
    counts = set()
    for synth in SYNTHESIZERS:
        rec = synth(dec, ch)
        counts.add(len(rec.channel.kraus))
        rep = verify_recovery(dec, ch, rec)
        assert max(rep.max_infidelity, rep.b_marginal_drift, rep.support_leak) <= 1e-10
    assert counts == {4 if q > SPECTRUM_CUTOFF else 3}


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


def test_verify_recovery_caps_both_figures_when_a_code_input_is_annihilated():
    """t_min <= SPECTRUM_CUTOFF: a noise that sends some code input to 0
    leaves max_infidelity and b_marginal_drift at their caps, 1 and sqrt 2,
    and support_leak at its own value, 0 here, as neither noise leaves the
    code sector. One noise is the single operator 1 - code code†, which
    kills the whole code sector, the other 1 - c_0 c_0†, which kills only
    code vector 0."""
    entry = get("bit_flip_3")
    code = entry.dec.code_vectors()
    for kill in (code, code[:, :1]):
        noise = Channel((np.eye(8) - kill @ dag(kill),))
        rep = verify_recovery(entry.dec, noise, identity(8))
        assert (rep.max_infidelity, rep.b_marginal_drift, rep.support_leak) == (1.0, 2**0.5, 0.0)


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
        for what, noise, recovery in [("noise", Channel(huge), rec), ("recovery", entry.noise, Channel(huge))]:
            with pytest.raises(ValueError, match=rf"^{what} channel: Kraus set increases trace \(completeness defect overflows\)$"):
                verify_recovery(entry.dec, noise, recovery)


def test_verify_recovery_names_a_non_finite_kraus_entry():
    """A nan Kraus entry makes sum E†E non-finite too; verification refuses
    such a noise or recovery by that name and the entry's (j, r, c) index."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise).channel
    bad = np.array(entry.noise.kraus)
    bad[1, 2, 3] = np.nan
    for what, noise, recovery in [("noise", Channel(bad), rec), ("recovery", entry.noise, Channel(bad))]:
        with pytest.raises(ValueError, match=rf"^{what} channel: Kraus entry \(1, 2, 3\) is nan, not finite$"):
            verify_recovery(entry.dec, noise, recovery)


def test_verify_recovery_scores_a_finite_trace_increasing_noise_or_recovery():
    """Only an overflowing sum E†E is refused: a noise or recovery that
    increases trace by a finite amount is scored, and the figures show it."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise).channel
    grow = lambda c: Channel(np.sqrt(2) * np.array(c.kraus))  # noqa: E731
    assert not validate(grow(rec)).trace_nonincreasing
    exact = verify_recovery(entry.dec, entry.noise, rec)
    for noise, recovery in [(grow(entry.noise), rec), (entry.noise, grow(rec))]:
        report = verify_recovery(entry.dec, noise, recovery)
        assert report.max_infidelity == pytest.approx(exact.max_infidelity, abs=1e-12)
        assert report.support_leak == pytest.approx(exact.support_leak, abs=1e-12)


def test_verify_recovery_refuses_a_noise_or_recovery_off_v_naming_it_and_both_sizes():
    """channels.require_on gates both channels: the refusal names which one,
    the sizes it acts on and dim_v."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    with pytest.raises(DimensionError, match=r"^noise channel: acts on 4 -> 4, expected dim_v=8$"):
        verify_recovery(entry.dec, identity(4), rec)
    with pytest.raises(DimensionError, match=r"^recovery channel: acts on 8 -> 4, expected dim_v=8$"):
        verify_recovery(entry.dec, entry.noise, Channel((np.eye(4, 8),)))


@pytest.mark.parametrize("noise", ["bacon_shor_9", "depolarizing"])
def test_verify_recovery_scales_rows_by_a_cell_recovery_gram(noise):
    """The identity and the Pauli permutations X and Y on one site of the
    dim_v 512 code, built from their cells, are cell-indexed recoveries,
    whose Gram matrix is kept as its diagonal; the report equals, to
    rounding, the one computed from the dense np.diag of that vector (bit
    for bit on this build)."""
    entry = get("bacon_shor_9")
    ch = entry.noise if noise == "bacon_shor_9" else weight_one_depolarizing(9, 0.003)
    flips = [single_qubit_on(9, site, unitary(p)).kraus for site, p in ((0, PAULI_X), (4, PAULI_Y))]
    flips = [kept_as_cells(stack) for stack in flips]
    for rec in [identity(512), *flips]:
        g, defect = rec._gram
        assert g.shape == (512,)
        twin = Channel(rec.kraus)
        vars(twin)["_gram"] = (np.diag(g), defect)
        got, want = verify_recovery(entry.dec, ch, rec), verify_recovery(entry.dec, ch, twin)
        assert got.max_infidelity > 0.05
        for field in ("max_infidelity", "b_marginal_drift", "support_leak"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-13, (field, got, want)


@pytest.mark.parametrize("noise", ["bacon_shor_9", "depolarizing"])
def test_verify_recovery_reads_a_cell_recovery_through_its_store(noise):
    """code† R_j of a recovery kept as its cells is a scatter of the conj
    code rows its cells pick, so the X and Y flips on one site of the dim_v
    512 code are verified without forming their stacks, with the dense
    twins' figures within 1e-15. Two cells of one operator in one column
    add up: a random cell recovery with shared columns gives its twin's
    figures within 1e-13."""
    entry = get("bacon_shor_9")
    ch = entry.noise if noise == "bacon_shor_9" else weight_one_depolarizing(9, 0.003)
    rng = _rng(29)
    shared = np.concatenate([np.arange(512), rng.integers(0, 64, 512)])  # then 64 columns for 512 cells
    vals = np.concatenate([np.full(512, 0.9), (rng.standard_normal(512) + 1j * rng.standard_normal(512)) / 40])
    stacks = [single_qubit_on(9, site, unitary(p)).kraus for site, p in ((0, PAULI_X), (4, PAULI_Y))]
    recs = [(kept_as_cells(stack), 1e-15) for stack in stacks]
    recs.append((Channel._from_cells((2, 512, 512), shared, vals), 1e-13))
    for rec, tol in recs:
        assert rec._cells is not None
        got = verify_recovery(entry.dec, ch, rec)
        assert "kraus" not in vars(rec)
        want = verify_recovery(entry.dec, ch, Channel(rec.kraus))
        assert max(got.max_infidelity, got.support_leak) > 0.05
        for field in ("max_infidelity", "b_marginal_drift", "support_leak"):
            assert abs(getattr(got, field) - getattr(want, field)) <= tol, (field, got, want)


def test_validating_a_bacon_shor_9_recovery_never_builds_cells(monkeypatch):
    """Both recoveries synthesized for bacon_shor_9 hold many cells per row
    and keep their stacks: validating and verifying them takes BLAS and
    never calls Cells.build, which would look for cells in the stack."""
    entry = get("bacon_shor_9")
    synths = (synthesize_schmidt_recovery, synthesize_universal_recovery)
    recs = [synth(entry.dec, entry.noise).channel for synth in synths]
    builds, original = [], Cells.build.__func__
    monkeypatch.setattr(Cells, "build", classmethod(lambda cls, *a: builds.append(a[0]) or original(cls, *a)))
    for rec in recs:
        assert rec._cells is None
        assert validate(rec).trace_preserving
        assert verify_recovery(entry.dec, entry.noise, rec).max_infidelity <= 1e-9
    assert builds == []


def _rebuilt(fac, da):
    """The channel code -> V with Kraus operators w (1_A tensor N_l)."""
    return Channel(fac.w @ kron(np.eye(da), fac.n_b.kraus))


def test_factorize_identity_channel():
    dec = Decomposition(2, 2, 0)
    fac = factorize_product(dec, identity(4))
    assert fac.residual < 1e-12
    assert fac.w.shape == (4, 4)  # the Schmidt rank is dim_b, so w is unitary
    assert np.linalg.norm(dag(fac.w) @ fac.w - np.eye(4)) < 1e-12
    assert validate(fac.n_b).trace_preserving


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_factorize_round_trip_on_constructed_instances(da, db):
    rng = _rng(100 * da + db)
    u0 = haar_unitary(da * db, rng)
    n0 = random_channel(db, 2, seed=da * 10 + db)
    ch = _product_channel(da, db, u0, n0)
    fac = factorize_product(Decomposition(da, db, 0), ch)
    assert fac.residual < 1e-10
    assert choi_distance(ch, _rebuilt(fac, da)) < 1e-10


def test_factorize_recovers_b_channel_up_to_gauge():
    """The split is unique only up to an isometry shared between w and n_b:
    u0† w = 1_A tensor w_b with w_b : K -> B an isometry, and undoing that
    gauge recovers the original B-side noise, N = w_b† n0."""
    rng = _rng(17)
    da, db = 2, 3
    u0 = haar_unitary(da * db, rng)
    n0 = random_channel(db, 3, seed=77)
    fac = factorize_product(Decomposition(da, db, 0), _product_channel(da, db, u0, n0))
    rank = fac.n_b.dim_out
    m = dag(u0) @ fac.w
    w_b = np.einsum("abac->bc", m.reshape(da, db, da, rank)) / da
    assert np.linalg.norm(m - kron(np.eye(da), w_b)) < 1e-10
    assert np.linalg.norm(dag(w_b) @ w_b - np.eye(rank)) < 1e-10
    assert choi_distance(fac.n_b, Channel(dag(w_b) @ n0.kraus)) < 1e-10


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
    """The child process runs the factorization at dim_v 128 under a 1 GiB
    address-space cap. BLAS runs one thread there, so the cap measures the
    algorithm, not thread buffers."""
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


@pytest.mark.parametrize("name", [*CORRECTABLE, "bacon_shor_9"])
def test_factorize_every_correctable_catalog_entry(name):
    """No catalog entry has dim_c = 0; each factors on its code sector, and
    the Choi oracle agrees that E restricted to the code is w (1_A tensor N)."""
    entry = get(name)
    fac = factorize_product(entry.dec, entry.noise)
    assert fac.residual <= 1e-12
    assert np.linalg.norm(dag(fac.w) @ fac.w - np.eye(fac.w.shape[1])) <= 1e-12
    assert validate(fac.n_b).trace_preserving
    code = entry.dec.code_vectors()
    assert choi_distance(Channel(entry.noise.kraus @ code), _rebuilt(fac, entry.dec.dim_a)) <= 1e-12


def test_factors_of_pauli_noise_are_exactly_sparse(bacon_shor_9):
    """Pauli errors of different syndromes reach orthogonal subspaces, so
    condition b's Gram witness splits into components that are diagonalized
    one by one, and every factor entry outside a component is exactly 0:
    no eigensolver rounding reaches w or N, and w is an isometry exactly."""
    fac = factorize_product(bacon_shor_9.dec, bacon_shor_9.noise)
    assert np.count_nonzero(fac.w) == 512
    assert np.count_nonzero(fac.n_b.kraus) == 160
    assert np.count_nonzero(dag(fac.w) @ fac.w - np.eye(fac.w.shape[1])) == 0
    depolarized = factorize_product(bacon_shor_9.dec, weight_one_depolarizing(9, 0.003))
    assert np.count_nonzero(depolarized.w) == 2048


def test_synthesis_and_factorization_form_one_stacked_product(monkeypatch, tmp_path):
    """One purified state serves every test and every construction: condition
    b, `oqec check --condition all`, both synthesizers and factorize_product
    each form its pair matrix, the Gram of the (dim_v, k dim_code) reshape
    of X = E code, exactly once: from X's cells on bacon_shor_9, by the
    dense product on every catalog entry. The dense product X itself is
    formed once by every catalog run; on bacon_shor_9, X is composed from
    the cells and never formed by a product: the synthesizers and
    factorize_product, which read x, densify the cells."""
    products, pair_grams = [], []
    original_product, original_gram = Channel.stacked_product, oqec.conditions.gram
    original_pairs = Cells.pairs

    def counting_product(self, x):
        products.append(self)
        return original_product(self, x)

    def counting_gram(x):
        pair_grams.append(("dense", x.shape))
        return original_gram(x)

    def counting_pairs(self):
        pair_grams.append(("cells", (len(self.cols), self.n)))
        return original_pairs(self)

    monkeypatch.setattr(Channel, "stacked_product", counting_product)
    monkeypatch.setattr(oqec.conditions, "gram", counting_gram)
    monkeypatch.setattr(Cells, "pairs", counting_pairs)
    for name in [e.name for e in catalog()] + ["bacon_shor_9"]:
        entry = get(name)
        dec, noise = entry.dec, entry.noise
        cells = name == "bacon_shor_9"
        pair = ("cells" if cells else "dense", (dec.dim_v, noise.n_kraus * dec.dim_code))
        runs = [check_condition_b]
        if all(entry.expected.values()):
            runs += [*SYNTHESIZERS, factorize_product]
        for run in runs:
            products.clear()
            pair_grams.clear()
            run(dec, noise)
            formed = 0 if cells else 1
            assert len(products) == formed and all(p is noise for p in products), (name, run.__name__)
            assert pair_grams == [pair], (name, run.__name__, pair_grams)
        assert cli.main(["codes", "export", name, str(tmp_path)]) == 0
        paths = [str(tmp_path / f"{name}.{part}.json") for part in ("decomposition", "noise")]
        products.clear()
        pair_grams.clear()
        assert cli.main(["check", *paths, "--condition", "all"]) == (0 if len(runs) > 1 else 1)
        assert len(products) == (0 if cells else 1), (name, "check")
        assert [g for g in pair_grams if g[1] == pair[1]] == [pair], (name, "check", pair_grams)


def test_factorize_refuses_the_mismatched_catalog_entry():
    entry = get("bitflip_3_vs_z")
    with pytest.raises(NotCorrectableError) as err:
        factorize_product(entry.dec, entry.noise)
    assert err.value.residual > 1e-3


@pytest.mark.parametrize("eps", [1e-7, 1e-6])
def test_factorize_residual_on_nearly_correctable_noise(eps):
    """bit_flip_3 plus a Z error at Kraus amplitude eps passes b at tol 1e-5.
    At 1e-7 the Z error's Schmidt weight (about 1e-14) is cut and the Kraus
    residual is about 1.4e-7; at 1e-6 it is kept, and w has 10 columns in
    dim_v = 8, so w† w - 1 is far from 0. The residual is recomputed here
    from the returned factors, operator by operator."""
    entry = get("bit_flip_3")
    ch = Channel([*np.sqrt(1 - eps**2) * entry.noise.kraus, eps * kron(PAULI_Z, np.eye(4))])
    fac = factorize_product(entry.dec, ch, tol=1e-5)
    code = entry.dec.code_vectors()
    parts = [e @ code - fac.w @ kron(np.eye(2), n) for e, n in zip(ch.kraus, fac.n_b.kraus)]
    parts.append(dag(fac.w) @ fac.w - np.eye(fac.w.shape[1]))
    expected = np.sqrt(sum(np.linalg.norm(x) ** 2 for x in parts))
    assert fac.residual == pytest.approx(expected, rel=1e-9)
    assert fac.residual > 1e-7


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
    with pytest.raises(ValueError, match=r"^combined channel: Kraus set increases trace \(completeness defect "):
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


def test_objects_holding_arrays_compare_by_identity():
    """== on a Channel, Decomposition, PurifiedState, ConditionReport,
    Recovery, Factorization or CatalogEntry gives a bool, True only for the
    object itself, and each works in a set."""
    entry = get("bit_flip_3")
    objects = [
        entry.noise,
        entry.dec,
        purify(entry.dec, entry.noise),
        check_condition_b(entry.dec, entry.noise),
        synthesize_schmidt_recovery(entry.dec, entry.noise),
        factorize_product(entry.dec, entry.noise),
        entry,
    ]
    for obj in objects:
        assert (obj == obj) is True and (obj != obj) is False
        assert obj in {obj}
    assert len(set(objects)) == len(objects)
    assert (Channel([np.eye(2)]) == Channel([np.eye(2)])) is False
    assert (Decomposition(1, 2) == Decomposition(1, 2)) is False
