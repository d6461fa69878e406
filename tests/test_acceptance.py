"""Acceptance gate: nine numbered criteria, one test per criterion, plus the
Pinsker bound that ties condition c's residual to condition d's gap and the
cross-check of exact recovery verification against the sampled reference.

Each test prints one [acceptance] line (visible with pytest -s); the pytest -v
status line per test is the machine-readable pass/fail record. Tolerances are
pinned in the assertions and are not configurable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqec.channels import (
    Channel,
    apply,
    depolarizing,
    identity,
    random_channel,
    validate,
)
from oqec.cli import main
from oqec.codes import catalog, get
from oqec.conditions import (
    check_condition_b,
    check_condition_c,
    check_condition_d,
    dpi_trace,
    purify,
)
from oqec.errors import NotCorrectableError
from oqec.linalg import (
    dag,
    haar_unitary,
    kron,
    von_neumann_entropy,
)
from oqec.recovery import (
    extend_by_linearity,
    factorize_product,
    synthesize_schmidt_recovery,
    synthesize_universal_recovery,
    verify_recovery,
)
from oqec.serialize import channel_to_json, decomposition_to_json, dump_json_file
from oqec.spaces import Decomposition, embed_state
from approximate_codes import z_leak
from choi_oracle import choi_distance
from random_states import random_density_matrix
from sampled_verification import sampled_verify_recovery

FIXTURES = ["bit_flip_3", "phase_flip_3", "dfs_2qubit_dephasing", "ns_3qubit_collective", "bitflip_3_vs_z"]
CORRECTABLE = [n for n in FIXTURES if all(get(n).expected.values())]


def _random_dims(rng, max_v=16):
    da = int(rng.integers(2, 4))
    db = int(rng.integers(1, 4))
    while da * db > max_v:
        db = 1
    dc = int(rng.integers(0, max_v - da * db + 1))
    return da, db, dc


def _correctable_instance(seed):
    """Noise built as (unitary on A x B) after (1_A tensor N_B), plus an
    arbitrary unitary on the C sector, conjugated by a random frame."""
    rng = np.random.default_rng(seed)
    da, db, dc = _random_dims(rng)
    dv = da * db + dc
    frame = haar_unitary(dv, rng)
    dec = Decomposition(da, db, dc, frame=frame)
    n0 = random_channel(db, int(rng.integers(1, 4)), seed=seed + 10_000)
    u_ab = haar_unitary(da * db, rng)
    u_c = haar_unitary(dc, rng) if dc else None
    kraus = []
    for m, nk in enumerate(n0.kraus):
        g = np.zeros((dv, dv), dtype=np.complex128)
        g[: da * db, : da * db] = u_ab @ kron(np.eye(da), nk)
        if dc and m == 0:
            g[da * db :, da * db :] = u_c
        kraus.append(frame @ g @ dag(frame))
    return dec, Channel(tuple(kraus))


def _generic_instance(seed):
    rng = np.random.default_rng(seed)
    da, db, dc = _random_dims(rng)
    dv = da * db + dc
    dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
    return dec, random_channel(dv, int(rng.integers(1, 5)), seed=seed + 20_000)


def _verdicts(dec, ch, tol):
    rb = check_condition_b(dec, ch, tol=tol)
    ps = purify(dec, ch)
    rc = check_condition_c(ps, tol=tol)
    rd = check_condition_d(ps, tol=tol)
    return rb, rc, rd


def _joint_marginal_oracle(dec, ch):
    code = dec.code_vectors()
    de = len(ch.kraus)
    dab = dec.dim_a * dec.dim_b
    out = np.zeros((dab * de, dab * de), dtype=complex)
    for j, ej in enumerate(ch.kraus):
        for k, ek in enumerate(ch.kraus):
            g = dag(code) @ dag(ej) @ ek @ code
            unit = np.zeros((de, de), dtype=complex)
            unit[j, k] = 1.0
            out += kron(g.conj(), unit)
    return out / dab


def test_criterion_1_condition_equivalence():
    """Verdicts of the algebraic, product, and entropic tests agree pairwise
    at tol 1e-8 on 5 fixtures plus 100 seeded random instances (dV <= 16)."""
    tol = 1e-8
    checked = 0
    for name in FIXTURES:
        entry = get(name)
        rb, rc, rd = _verdicts(entry.dec, entry.noise, tol)
        assert rb.passed == rc.passed == rd.passed == entry.expected["b"], name
        checked += 1
    for seed in range(50):
        dec, ch = _correctable_instance(seed)
        rb, rc, rd = _verdicts(dec, ch, tol)
        assert rb.passed and rc.passed and rd.passed, f"correctable seed {seed}"
        checked += 1
    for seed in range(50):
        dec, ch = _generic_instance(seed)
        rb, rc, rd = _verdicts(dec, ch, tol)
        assert rb.passed == rc.passed == rd.passed, (
            f"generic seed {seed}: b={rb.residual:.3e} c={rc.residual:.3e} d={rd.residual:.3e}"
        )
        checked += 1
    assert checked == 105
    print("[acceptance] criterion 1 (condition equivalence, 105 instances): PASS")


def test_criterion_2_joint_marginal_identity():
    """The reference-environment marginal equals the conjugated Gram-block
    form within 1e-10, on fixtures and 25 random instances."""
    worst = 0.0
    for name in FIXTURES:
        entry = get(name)
        ps = purify(entry.dec, entry.noise)
        dev = np.linalg.norm(ps.marginal((0, 1, 3)) - _joint_marginal_oracle(entry.dec, entry.noise))
        worst = max(worst, float(dev))
    for seed in range(25):
        dec, ch = _generic_instance(seed + 500)
        ps = purify(dec, ch)
        dev = np.linalg.norm(ps.marginal((0, 1, 3)) - _joint_marginal_oracle(dec, ch))
        worst = max(worst, float(dev))
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    print(f"[acceptance] criterion 2 (joint marginal identity, worst {worst:.2e}): PASS")


def test_criterion_3_recovery_soundness():
    """Both synthesizers yield trace-preserving recoveries whose exact
    infidelity bound is <= 1e-8, and agree on the code sector within 1e-8."""
    rng = np.random.default_rng(42)
    for name in CORRECTABLE:
        entry = get(name)
        recs = []
        for synth in (synthesize_schmidt_recovery, synthesize_universal_recovery):
            rec = synth(entry.dec, entry.noise)
            assert validate(rec.channel).trace_preserving, (name, rec.method)
            rep = verify_recovery(entry.dec, entry.noise, rec)
            assert rep.max_infidelity <= 1e-8, (name, rec.method, rep.max_infidelity)
            recs.append(rec)
        worst = 0.0
        for _ in range(25):
            rho = random_density_matrix(entry.dec.dim_a, rng)
            sig = random_density_matrix(entry.dec.dim_b, rng)
            noisy = apply(entry.noise, embed_state(entry.dec, rho, sig))
            gap = np.linalg.norm(apply(recs[0].channel, noisy) - apply(recs[1].channel, noisy))
            worst = max(worst, float(gap))
        assert worst <= 1e-8, (name, worst)
    print("[acceptance] criterion 3 (recovery soundness, both methods): PASS")


def test_criterion_4_factorization_round_trip():
    """25 seeded product constructions with dims in {2,3} refactor with Choi
    residual <= 1e-8, and >= 50 generator instances with dim_c > 0 factor on
    the code sector with Kraus residual <= 1e-12."""
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    for seed in range(25):
        da, db = shapes[seed % 4]
        rng = np.random.default_rng(seed)
        u0 = haar_unitary(da * db, rng)
        n0 = random_channel(db, int(rng.integers(1, 4)), seed=seed + 30_000)
        ch = Channel(tuple(u0 @ kron(np.eye(da), nk) for nk in n0.kraus))
        fac = factorize_product(Decomposition(da, db, 0), ch)
        choi = choi_distance(ch, Channel(fac.w @ kron(np.eye(da), fac.n_b.kraus)))
        worst = max(worst, choi)
        assert choi <= 1e-8, f"seed {seed}: Choi residual {choi:.3e}"
    instances = [_correctable_instance(seed + 1_000) for seed in range(60)]
    instances = [(dec, ch) for dec, ch in instances if dec.dim_c > 0]
    assert len(instances) >= 50
    worst_c = max(factorize_product(dec, ch).residual for dec, ch in instances)
    assert worst_c <= 1e-12, f"worst code-sector residual {worst_c:.3e}"
    print(f"[acceptance] criterion 4 (factorization round trip, worst {worst:.2e}, dim_c > 0 {worst_c:.2e}): PASS")


def _linearity_coefficients(k):
    """Criterion 5's ten coefficient arrays over k Kraus operators."""
    rng = np.random.default_rng(7)
    out = []
    for combo in range(10):
        if combo < 8:
            c = rng.normal(size=(1, k)) + 1j * rng.normal(size=(1, k))
            out.append(c / (2 * np.linalg.norm(c)))  # single sub-trace-preserving operator
        else:
            out.append(haar_unitary(k, rng))  # full remix stays trace preserving
    return out


def test_criterion_5_linearity():
    """A recovery built for the restricted-flip noise corrects 10 random
    linear combinations of its Kraus operators with infidelity <= 1e-8."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    for combo, c in enumerate(_linearity_coefficients(len(entry.noise.kraus))):
        rep = extend_by_linearity(entry.dec, entry.noise, rec, c)
        assert rep.max_infidelity <= 1e-8, f"combo {combo}: {rep.max_infidelity:.3e}"
    print("[acceptance] criterion 5 (linearity, 10 combinations): PASS")


def test_criterion_6_data_processing():
    """Coherent information never rises along 200 random TP chains (slack
    1e-9), and noise-then-recovery preserves it exactly on the fixtures."""
    rng = np.random.default_rng(11)
    for trial in range(200):
        dv = int(rng.integers(2, 9))
        da = int(rng.integers(2, min(dv, 4) + 1))
        db = int(rng.integers(1, dv // da + 1))
        dec = Decomposition(da, db, dv - da * db, frame=haar_unitary(dv, rng))
        chain = [
            random_channel(dv, int(rng.integers(1, 4)), seed=1000 * trial + i)
            for i in range(int(rng.integers(1, 5)))
        ]
        vals = dpi_trace(dec, chain)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9, f"trial {trial}: {vals}"
    for name in CORRECTABLE:
        entry = get(name)
        rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
        vals = dpi_trace(entry.dec, [entry.noise, rec.channel])
        assert abs(vals[1] - vals[0]) <= 1e-8, (name, vals)
        assert abs(vals[2] - vals[0]) <= 1e-8, (name, vals)
    print("[acceptance] criterion 6 (data processing, 200 chains): PASS")


def test_criterion_7_entropy_baseline():
    """Maximally mixed entropies are exact to 1e-12 for d in 2..16, and the
    entropic-gap witness stays above -1e-9 everywhere it is computed."""
    for d in range(2, 17):
        s = von_neumann_entropy(np.eye(d) / d)
        assert abs(s - np.log2(d)) <= 1e-12, d
    gaps = []
    for name in FIXTURES:
        entry = get(name)
        rd = check_condition_d(purify(entry.dec, entry.noise))
        gaps.append(rd.witnesses["gap"])
    for seed in range(20):
        dec, ch = _correctable_instance(seed + 600)
        gaps.append(check_condition_d(purify(dec, ch)).witnesses["gap"])
        dec, ch = _generic_instance(seed + 700)
        gaps.append(check_condition_d(purify(dec, ch)).witnesses["gap"])
    assert min(gaps) >= -1e-9, f"most negative gap {min(gaps):.3e}"
    print(f"[acceptance] criterion 7 (entropy baseline, min gap {min(gaps):.2e}): PASS")


def test_criterion_8_negative_controls():
    """The mismatched fixture fails every condition by a wide margin and both
    synthesizers refuse it."""
    entry = get("bitflip_3_vs_z")
    rb, rc, rd = _verdicts(entry.dec, entry.noise, 1e-9)
    assert rb.residual > 1e-3
    assert rc.residual > 1e-3
    assert rd.residual > 1e-3
    for synth in (synthesize_schmidt_recovery, synthesize_universal_recovery):
        with pytest.raises(NotCorrectableError) as err:
            synth(entry.dec, entry.noise)
        assert err.value.residual > 1e-3
    print("[acceptance] criterion 8 (negative controls): PASS")


def test_criterion_9_cli_contract(tmp_path):
    """Every verb hits its documented exit codes on fixture inputs, and
    exported fixtures round-trip through check."""
    d = str(tmp_path)
    # codes: 0 on list/export, 2 on unknown name
    assert main(["codes", "list"]) == 0
    assert main(["codes", "export", "nope", d]) == 2
    for name in FIXTURES:
        assert main(["codes", "export", name, d]) == 0
    dec_of = lambda n: f"{d}/{n}.decomposition.json"
    chan_of = lambda n: f"{d}/{n}.noise.json"
    # check: 0 / 1 by verdict, 2 on malformed input
    for name in FIXTURES:
        expected = 0 if all(get(name).expected.values()) else 1
        assert main(["check", dec_of(name), chan_of(name), "--condition", "all"]) == expected, name
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_in": 8}')
    assert main(["check", dec_of("bit_flip_3"), str(bad)]) == 2
    # recover: 0 on success, 1 on uncorrectable, 2 on missing file
    assert main(["recover", dec_of("bit_flip_3"), chan_of("bit_flip_3"), "--out", f"{d}/r.json"]) == 0
    assert main(["recover", dec_of("bitflip_3_vs_z"), chan_of("bitflip_3_vs_z"), "--out", f"{d}/r2.json"]) == 1
    assert main(["recover", dec_of("bit_flip_3"), f"{d}/missing.json", "--out", f"{d}/r3.json"]) == 2
    # factorize: 0 on a product instance and on a code with dim_c != 0, 1 when A is touched
    dump_json_file(f"{d}/pdec.json", decomposition_to_json(Decomposition(2, 2, 0)))
    prod = Channel(tuple(kron(np.eye(2), nk) for nk in depolarizing(2, 0.4).kraus))
    dump_json_file(f"{d}/pchan.json", channel_to_json(prod))
    assert main(["factorize", f"{d}/pdec.json", f"{d}/pchan.json", "--out", d]) == 0
    dump_json_file(f"{d}/gchan.json", channel_to_json(random_channel(4, 3, seed=1)))
    assert main(["factorize", f"{d}/pdec.json", f"{d}/gchan.json", "--out", d]) == 1
    assert main(["factorize", dec_of("bit_flip_3"), chan_of("bit_flip_3"), "--out", d]) == 0
    assert main(["factorize", dec_of("bitflip_3_vs_z"), chan_of("bitflip_3_vs_z"), "--out", d]) == 1
    # dpi: 0 on a valid chain, 2 on dimension mismatch
    assert main(["dpi", dec_of("bit_flip_3"), chan_of("bit_flip_3"), f"{d}/r.json"]) == 0
    assert main(["dpi", dec_of("bit_flip_3"), f"{d}/pchan.json"]) == 2
    print("[acceptance] criterion 9 (CLI contract): PASS")


def test_pinsker_bounds_condition_c_by_condition_d():
    """For trace-preserving noise d's gap is I(R_A : R_B E) in bits, so
    Pinsker gives ||rho - sigma||_F <= ||rho - sigma||_1 <= sqrt(2 ln2 gap)
    for c's residual; the 1e-12 absorbs rounding where both are ~0."""
    instances = [_correctable_instance(seed + 800) for seed in range(30)]
    instances += [_generic_instance(seed + 900) for seed in range(30)]
    instances += [z_leak(eps) for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
    worst = -np.inf
    for dec, ch in instances:
        ps = purify(dec, ch)
        residual = check_condition_c(ps).residual
        gap = check_condition_d(ps).witnesses["gap"]
        bound = np.sqrt(2 * np.log(2) * max(gap, 0.0))
        assert residual <= bound + 1e-12, (residual, gap)
        worst = max(worst, residual - bound)
    print(f"[acceptance] Pinsker bound (64 instances, worst excess {worst:.2e}): PASS")


def test_condition_d_resolves_the_smallest_z_leak():
    """At eps = 1e-8 the Z error's weight sits in a ~1e-16 eigenvalue of
    rho'_{R_B E}; d's gap (5.4e-15 to 50 digits) is resolved only when that
    eigenvalue counts in the entropy, and Pinsker then holds with room."""
    ps = purify(*z_leak(1e-8))
    gap = check_condition_d(ps).witnesses["gap"]
    assert gap >= 1e-15, gap
    assert check_condition_c(ps).residual <= np.sqrt(2 * np.log(2) * gap) / 5


SYNTHESIZERS = [synthesize_schmidt_recovery, synthesize_universal_recovery]


def _figures(rep):
    return np.array([rep.max_infidelity, rep.b_marginal_drift, rep.support_leak])


def _remixed(ch, rng):
    return Channel(np.tensordot(haar_unitary(len(ch.kraus), rng), ch.kraus, axes=1))


def _rotated(ch, eps, rng):
    """exp(i eps H) after ch, for a random Hermitian H."""
    g = rng.normal(size=(ch.dim_out, ch.dim_out)) + 1j * rng.normal(size=(ch.dim_out, ch.dim_out))
    w, v = np.linalg.eigh((g + dag(g)) / 2)
    return Channel((v * np.exp(1j * eps * w)) @ dag(v) @ ch.kraus)


def _exact_against_reference(dec, noise, rec):
    """The exact figures; each must bound the 50-trial sampled figure and be
    unchanged by Haar remixing of both Kraus lists."""
    exact = _figures(verify_recovery(dec, noise, rec))
    sampled = _figures(sampled_verify_recovery(dec, noise, rec, trials=50))
    assert np.all(exact >= sampled - 1e-15), (exact, sampled)
    rng = np.random.default_rng(61)
    remixed = _figures(verify_recovery(dec, _remixed(noise, rng), _remixed(rec, rng)))
    assert np.all(np.abs(remixed - exact) <= 1e-12), (exact, remixed)
    return exact


@pytest.mark.parametrize("variant", ["synthesized", "identity", 1e-3, 1e-6])
@pytest.mark.parametrize("synth", SYNTHESIZERS)
@pytest.mark.parametrize("name", CORRECTABLE)
def test_exact_verification_bounds_sampled_reference(name, synth, variant):
    """Synthesized recoveries, the identity, and synthesized recoveries
    rotated by exp(i eps H); only the first must verify (<= 1e-10)."""
    entry = get(name)
    rec = synth(entry.dec, entry.noise).channel
    if variant == "identity":
        rec = identity(entry.dec.dim_v)
    elif variant != "synthesized":
        rec = _rotated(rec, variant, np.random.default_rng(11))
    exact = _exact_against_reference(entry.dec, entry.noise, rec)
    if variant == "synthesized":
        assert exact.max() <= 1e-10, exact


@pytest.mark.parametrize("combo", range(10))
def test_exact_linearity_bounds_sampled_reference(combo):
    """Criterion 5's combinations: extend_by_linearity is the exact test on
    the combined channel, and it verifies (<= 1e-10)."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    c = _linearity_coefficients(len(entry.noise.kraus))[combo]
    combined = Channel(np.tensordot(c, entry.noise.kraus, axes=1))
    exact = _exact_against_reference(entry.dec, combined, rec.channel)
    assert np.array_equal(exact, _figures(extend_by_linearity(entry.dec, entry.noise, rec, c)))
    assert exact.max() <= 1e-10, exact


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(
    seed=st.integers(0, 2**16),
    synth=st.sampled_from(SYNTHESIZERS),
    eps=st.floats(1e-8, 1e-2),
)
def test_exact_verification_bounds_sampling_on_perturbed_recoveries(seed, synth, eps):
    dec, ch = _correctable_instance(seed)
    rec = _rotated(synth(dec, ch).channel, eps, np.random.default_rng(seed))
    exact = _figures(verify_recovery(dec, ch, rec))
    sampled = _figures(sampled_verify_recovery(dec, ch, rec, trials=50, seed=seed))
    assert np.all(exact >= sampled - 1e-15), (exact, sampled)


@PROPERTY
@given(
    seed=st.integers(0, 2**16),
    synth=st.sampled_from(SYNTHESIZERS),
    rows=st.integers(1, 4),
)
def test_exact_verification_passes_linear_combinations(seed, synth, rows):
    dec, ch = _correctable_instance(seed)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(rows, len(ch.kraus))) + 1j * rng.normal(size=(rows, len(ch.kraus)))
    c /= 2 * np.linalg.norm(c)  # trace nonincreasing combination
    rep = extend_by_linearity(dec, ch, synth(dec, ch), c)
    assert _figures(rep).max() <= 1e-10, _figures(rep)
