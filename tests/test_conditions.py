"""Correctability conditions and the purified-state machinery.

The joint reference-environment marginal has a closed form in terms of the
code-sector Gram blocks G_jk = code† E_j† E_k code; the tests rebuild it from
that formula as an independent oracle. The factored dpi_trace is checked
against the dense reference in dense_dpi.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oqec.channels
from oqec import conditions
from oqec.channels import Channel, apply, depolarizing, identity, random_channel, unitary
from oqec.codes import catalog, get
from oqec.conditions import (
    PurifiedState,
    check_condition_b,
    check_condition_c,
    check_condition_d,
    coherent_info,
    dpi_trace,
    purify,
)
from oqec.errors import DegenerateChannelError, DimensionError
from oqec.linalg import dag, gram, haar_unitary, kron, von_neumann_entropy
from oqec.recovery import synthesize_schmidt_recovery
from oqec.spaces import Decomposition

from dense_dpi import dense_dpi_trace


def _rng(seed=0):
    return np.random.default_rng(seed)


def _joint_marginal_oracle(dec, ch):
    """rho'_{R_A R_B E} from the Gram blocks of the rotated Kraus operators."""
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


def test_purify_shapes_and_norm():
    entry = get("bit_flip_3")
    ps = purify(entry.dec, entry.noise)
    assert ps.dims == (2, 1, 8, 4)
    assert abs(np.linalg.norm(ps.psi) - 1.0) < 1e-12
    assert ps.norm_in == pytest.approx(1.0, abs=1e-12)


def test_purify_v_marginal_is_channel_output():
    """Tracing out both references and E leaves E applied to the code-average."""
    entry = get("ns_3qubit_collective")
    ps = purify(entry.dec, entry.noise)
    code = entry.dec.code_vectors()
    rho_in = code @ dag(code) / entry.dec.dim_code
    np.testing.assert_allclose(ps.marginal((2,)), apply(entry.noise, rho_in), atol=1e-12)


@pytest.mark.parametrize(
    "name", ["bit_flip_3", "phase_flip_3", "dfs_2qubit_dephasing", "ns_3qubit_collective", "bitflip_3_vs_z"]
)
def test_joint_marginal_matches_gram_block_oracle(name):
    entry = get(name)
    ps = purify(entry.dec, entry.noise)
    np.testing.assert_allclose(
        ps.marginal((0, 1, 3)), _joint_marginal_oracle(entry.dec, entry.noise), atol=1e-12
    )


def test_joint_marginal_oracle_on_random_instances():
    rng = _rng(2)
    for trial in range(10):
        da, db, dc = 2, int(rng.integers(1, 3)), int(rng.integers(0, 3))
        dv = da * db + dc
        dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
        ch = random_channel(dv, int(rng.integers(1, 4)), seed=300 + trial)
        ps = purify(dec, ch)
        np.testing.assert_allclose(
            ps.marginal((0, 1, 3)), _joint_marginal_oracle(dec, ch), atol=1e-12
        )


def test_purify_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        purify(Decomposition(2, 2, 0), identity(3))


def test_purify_gates_trace_decreasing():
    dec = Decomposition(2, 1, 0)
    half = Channel((np.diag([1.0, 1.0 / np.sqrt(2)]).astype(complex),))
    with pytest.raises(ValueError):
        purify(dec, half)
    ps = purify(dec, half, allow_trace_decreasing=True)
    assert ps.norm_in == pytest.approx(0.75, abs=1e-12)
    assert abs(np.linalg.norm(ps.psi) - 1.0) < 1e-12


def test_condition_b_gates_trace_decreasing_like_purify():
    """Uniform half-strength noise is trace decreasing: condition b refuses
    it unless allowed, and then agrees with c and d on the renormalized
    purification. The uneven half-strength channel above fails b and d."""
    dec = Decomposition(2, 1, 0)
    half = Channel((np.eye(2, dtype=complex) / np.sqrt(2),))
    with pytest.raises(ValueError):
        check_condition_b(dec, half)
    b = check_condition_b(dec, half, allow_trace_decreasing=True)
    ps = purify(dec, half, allow_trace_decreasing=True)
    assert ps.norm_in == pytest.approx(0.5, abs=1e-12)
    assert b.passed and check_condition_c(ps).passed and check_condition_d(ps).passed
    np.testing.assert_allclose(b.witnesses["b_blocks"][0, 0], [[0.5]], atol=1e-15)
    uneven = Channel((np.diag([1.0, 1.0 / np.sqrt(2)]).astype(complex),))
    with pytest.raises(ValueError):
        check_condition_b(dec, uneven)
    ps = purify(dec, uneven, allow_trace_decreasing=True)
    assert not check_condition_b(dec, uneven, allow_trace_decreasing=True).passed
    assert not check_condition_d(ps).passed


def test_purify_rejects_annihilating_channel():
    dec = Decomposition(1, 1, 1)
    kill = Channel((np.diag([0.0, 1.0]).astype(complex),))
    with pytest.raises(DegenerateChannelError):
        purify(dec, kill, allow_trace_decreasing=True)


def test_condition_b_blocks_for_bit_flip_code():
    """The flip-error blocks are scalars: the error weights on the diagonal."""
    entry = get("bit_flip_3")
    report = check_condition_b(entry.dec, entry.noise)
    assert report.passed
    blocks = report.witnesses["b_blocks"]
    weights = [0.7, 0.1, 0.1, 0.1]
    for j in range(4):
        for k in range(4):
            expected = weights[j] if j == k else 0.0
            assert blocks[(j, k)].shape == (1, 1)
            assert abs(blocks[(j, k)][0, 0] - expected) < 1e-12


def test_condition_b_residual_invariant_under_kraus_remix():
    entry = get("bitflip_3_vs_z")
    base = check_condition_b(entry.dec, entry.noise)
    u = haar_unitary(len(entry.noise.kraus), _rng(23))
    remixed = Channel(
        tuple(
            sum(u[i, m] * entry.noise.kraus[i] for i in range(len(entry.noise.kraus)))
            for m in range(len(entry.noise.kraus))
        )
    )
    again = check_condition_b(entry.dec, remixed)
    assert abs(base.residual - again.residual) < 1e-9
    assert not base.passed


def test_condition_b_flags_worst_pair():
    entry = get("bitflip_3_vs_z")
    report = check_condition_b(entry.dec, entry.noise)
    pair = report.witnesses["max_pair"]
    assert report.witnesses["pair_residuals"][pair] == pytest.approx(
        report.witnesses["max_pair_residual"]
    )
    assert report.witnesses["max_pair_residual"] > 1e-3


def test_condition_c_product_witnesses():
    entry = get("bit_flip_3")
    report = check_condition_c(purify(entry.dec, entry.noise))
    assert report.passed
    np.testing.assert_allclose(report.witnesses["rho_ra"], np.eye(2) / 2, atol=1e-12)
    joint_dim = 2 * 1 * 4
    assert report.witnesses["rho_rbe"].shape == (4, 4)
    assert report.residual < 1e-12
    assert joint_dim == 8


def test_condition_d_entropy_witnesses():
    entry = get("ns_3qubit_collective")
    report = check_condition_d(purify(entry.dec, entry.noise))
    assert report.passed
    w = report.witnesses
    assert w["entropy_a"] == pytest.approx(1.0)
    assert w["gap"] == pytest.approx(0.0, abs=1e-9)
    assert abs(w["entropy_v"] - w["entropy_rbe"] - 1.0) < 1e-9


def test_condition_d_gap_nonnegative_for_generic_noise():
    rng = _rng(31)
    for trial in range(10):
        dv = int(rng.integers(4, 9))
        da, db = 2, 1
        dec = Decomposition(da, db, dv - da * db, frame=haar_unitary(dv, rng))
        ch = random_channel(dv, int(rng.integers(1, 4)), seed=900 + trial)
        report = check_condition_d(purify(dec, ch))
        assert report.witnesses["gap"] >= -1e-9


def test_three_conditions_agree_on_fixtures():
    for entry in [get(n) for n in ("bit_flip_3", "dfs_2qubit_dephasing", "bitflip_3_vs_z")]:
        rb = check_condition_b(entry.dec, entry.noise, tol=1e-8)
        ps = purify(entry.dec, entry.noise)
        rc = check_condition_c(ps, tol=1e-8)
        rd = check_condition_d(ps, tol=1e-8)
        assert rb.passed == rc.passed == rd.passed == entry.expected["b"]


def test_coherent_info_frozen_values():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert coherent_info(rho, 2, 2) == pytest.approx(1.0, abs=1e-12)
    # mixed reference, pure system: S(V) - S(RV) = 0 - 1
    mixed_r = kron(np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex))
    assert coherent_info(mixed_r, 2, 2) == pytest.approx(-1.0, abs=1e-12)
    # pure reference carries nothing: S(V) - S(RV) = 1 - 1
    pure_r = kron(np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2)
    assert coherent_info(pure_r, 2, 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionError):
        coherent_info(rho, 3, 2)


def test_dpi_trace_identity_chain_constant():
    entry = get("bit_flip_3")
    vals = dpi_trace(entry.dec, [identity(8), identity(8)])
    assert vals == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_dpi_trace_initial_value_counts_protected_qubits():
    dec = Decomposition(4, 2, 0)
    vals = dpi_trace(dec, [])
    assert vals == pytest.approx([2.0], abs=1e-12)


def test_dpi_trace_monotone_on_random_chains():
    rng = _rng(37)
    for trial in range(8):
        dv = int(rng.integers(3, 7))
        da = 2
        db = int(rng.integers(1, dv // da + 1))
        dec = Decomposition(da, db, dv - da * db, frame=haar_unitary(dv, rng))
        chain = [
            random_channel(dv, int(rng.integers(1, 4)), seed=50 * trial + i)
            for i in range(int(rng.integers(1, 4)))
        ]
        vals = dpi_trace(dec, chain)
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_dpi_trace_strictly_decreasing_through_depolarizing():
    entry = get("bit_flip_3")
    vals = dpi_trace(entry.dec, [depolarizing(8, 0.3), depolarizing(8, 0.3)])
    assert vals[0] > vals[1] + 0.1
    assert vals[1] > vals[2] + 0.1


def test_dpi_trace_requires_trace_preserving_links():
    dec = Decomposition(2, 1, 0)
    half = Channel((np.sqrt(0.5) * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        dpi_trace(dec, [half])


def test_dpi_trace_unitary_step_is_lossless():
    entry = get("bit_flip_3")
    u = haar_unitary(8, _rng(41))
    vals = dpi_trace(entry.dec, [unitary(u)])
    assert vals == pytest.approx([1.0, 1.0], abs=1e-10)


PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def _z_leak(eps):
    """bit_flip_3 noise plus a Z error on qubit 0 at Kraus amplitude eps."""
    entry = get("bit_flip_3")
    flips = np.sqrt(1 - eps**2) * entry.noise.kraus
    return entry.dec, Channel([*flips, eps * kron(PAULI_Z, np.eye(4))])


def _entropy_instances():
    """Catalog entries, random instances on either side of dim_v = da db de
    (the joint marginal is the smaller one for few Kraus operators), and the
    near-boundary bit_flip_3 + eps Z_0 at eps 1e-3 and 1e-6."""
    out = [(e.dec, e.noise) for e in catalog()]
    rng = _rng(43)
    for trial in range(12):
        da, db, dc = 2, int(rng.integers(1, 3)), int(rng.integers(0, 9))
        dv = da * db + dc
        dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
        out.append((dec, random_channel(dv, int(rng.integers(1, 6)), seed=700 + trial)))
    return out + [_z_leak(1e-3), _z_leak(1e-6)]


def test_condition_d_entropy_v_matches_v_marginal():
    """S(V') = S(R_A R_B E') for the pure psi: entropy_v, from whichever
    side is smaller, equals the entropy of the V marginal, and so does the
    other side."""
    sides = set()
    for dec, ch in _entropy_instances():
        ps = purify(dec, ch)
        s_v = von_neumann_entropy(ps.marginal((2,)))
        assert abs(check_condition_d(ps).witnesses["entropy_v"] - s_v) <= 1e-12
        assert abs(von_neumann_entropy(ps.marginal((0, 1, 3))) - s_v) <= 1e-12
        sides.add(dec.dim_v < dec.dim_a * dec.dim_b * len(ch.kraus))
    assert sides == {True, False}


@pytest.mark.parametrize("kraus, side", [(2, (0, 1, 3)), (9, (2,))])
def test_condition_d_diagonalizes_the_smaller_side(monkeypatch, kraus, side):
    """With dim_v 16, two Kraus operators give a joint of dimension 4 < 16 and
    nine give 18 > 16; d asks only for the smaller of the two."""
    dec = Decomposition(2, 1, 14, frame=haar_unitary(16, _rng(47)))
    ps = purify(dec, random_channel(16, kraus, seed=48))
    asked = []
    original = PurifiedState.marginal

    def recording(self, keep):
        asked.append(tuple(sorted(keep)))
        return original(self, keep)

    monkeypatch.setattr(PurifiedState, "marginal", recording)
    check_condition_d(ps)
    assert sorted(asked) == sorted([side, (1, 3)])


def test_marginals_are_formed_once_and_read_only(monkeypatch):
    """Conditions c then d on one purified state share the joint and R_B E
    marginals: each key is formed (one Gram product) once, and the
    same read-only array comes back on every request. On bit_flip_3 the joint
    (2 * 1 * 4) ties with dim_v 8, and d takes the joint."""
    entry = get("bit_flip_3")
    ps = purify(entry.dec, entry.noise)
    formed = []
    monkeypatch.setattr(conditions, "gram", lambda m: formed.append(m.shape) or gram(m))
    check_condition_c(ps)
    check_condition_d(ps)
    keys = [(0, 1, 3), (0,), (1, 3)]
    assert len(formed) == len(keys)
    for keep in keys:
        rho = ps.marginal(keep)
        assert rho is ps.marginal(list(reversed(keep)))
        assert not rho.flags.writeable
        with pytest.raises(ValueError):
            rho[0, 0] = 0.0
    assert len(formed) == len(keys)


def _dpi_agrees_with_dense(dec, chain):
    fast, dense = dpi_trace(dec, chain), dense_dpi_trace(dec, chain)
    assert len(fast) == len(dense) == len(chain) + 1
    assert np.max(np.abs(np.subtract(fast, dense))) <= 1e-12, (fast, dense)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_dpi_trace_matches_dense_reference_on_catalog(entry):
    _dpi_agrees_with_dense(entry.dec, [entry.noise, entry.noise])
    if all(entry.expected.values()):
        rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
        _dpi_agrees_with_dense(entry.dec, [entry.noise, rec.channel])


@pytest.mark.parametrize("steps", [1, 2, 4])
def test_dpi_trace_compresses_between_steps_only(monkeypatch, steps):
    """depolarizing(8) has 65 Kraus operators, so k r > dim_a dim_v = 16 at
    every step: each step but the last compresses M with one eigh. At
    p = 1e-4 the state keeps eigenvalues of order 1e-6, which compression
    must keep too."""
    entry = get("bit_flip_3")
    chain = [depolarizing(8, p) for p in (1e-4, 0.3, 1e-4, 0.3)[:steps]]
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    dpi_trace(entry.dec, chain)
    assert eighs == [(16, 16)] * (steps - 1)
    monkeypatch.undo()
    _dpi_agrees_with_dense(entry.dec, chain)
    dfs = get("ns_3qubit_collective")
    _dpi_agrees_with_dense(dfs.dec, [depolarizing(8, 0.1), dfs.noise] * steps)


def test_dpi_trace_forms_no_lifted_channel_or_dense_state(monkeypatch):
    """The factored trace never lifts a channel with np.kron, applies one
    with channels.apply, or takes coherent_info's dense partial trace."""

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the factored DPI path")

    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    chain = [entry.noise, depolarizing(8, 0.3), rec.channel]
    expected = dense_dpi_trace(entry.dec, chain)
    for module, name in ((np, "kron"), (oqec.channels, "apply"), (conditions, "coherent_info"),
                         (conditions, "partial_trace"), (conditions, "kron")):
        monkeypatch.setattr(module, name, forbidden)
    assert np.max(np.abs(np.subtract(dpi_trace(entry.dec, chain), expected))) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), links=st.integers(1, 4), kraus=st.integers(1, 9))
def test_dpi_trace_matches_dense_reference_on_random_chains(seed, links, kraus):
    rng = np.random.default_rng(seed)
    da, db, dc = int(rng.integers(2, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 5))
    dv = da * db + dc
    dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
    chain = [random_channel(dv, kraus, seed=seed + 7 * i) for i in range(links)]
    _dpi_agrees_with_dense(dec, chain)
