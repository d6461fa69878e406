"""The worked-example catalog: every entry must do what its card says."""

import numpy as np
import pytest

from oqec.channels import validate
from oqec.codes import catalog, get
from oqec.conditions import check_condition_b, check_condition_c, check_condition_d, purify
from oqec.linalg import dag, haar_unitary, kron
from oqec.recovery import synthesize_schmidt_recovery, verify_recovery
from oqec.spaces import Decomposition

BASIC = ["bit_flip_3", "phase_flip_3", "dfs_2qubit_dephasing", "ns_3qubit_collective", "bitflip_3_vs_z"]


def test_catalog_lists_basic_entries_in_order():
    assert [e.name for e in catalog()] == BASIC


def test_extended_catalog_adds_large_entry():
    names = [e.name for e in catalog(extended=True)]
    assert names[:5] == BASIC
    assert "bacon_shor_9" in names


def test_get_unknown_name():
    with pytest.raises(ValueError, match="bit_flip_3"):
        get("nope")


@pytest.mark.parametrize("name", BASIC)
def test_entry_noise_is_trace_preserving(name):
    entry = get(name)
    assert validate(entry.noise).trace_preserving
    assert entry.noise.dim_in == entry.dec.dim_v


@pytest.mark.parametrize("name", [*BASIC, "bacon_shor_9"])
def test_entry_frame_is_unitary(name):
    """Every catalog frame is its code isometry: dim_v x dim_code with
    orthonormal columns."""
    entry = get(name)
    if entry.dec.frame is None:
        return
    f = entry.dec.frame
    assert f.shape == (entry.dec.dim_v, entry.dec.dim_code)
    np.testing.assert_allclose(dag(f) @ f, np.eye(entry.dec.dim_code), atol=1e-12)


@pytest.mark.parametrize("name", BASIC)
def test_entry_matches_expected_verdicts(name):
    entry = get(name)
    rb = check_condition_b(entry.dec, entry.noise, tol=1e-8)
    ps = purify(entry.dec, entry.noise)
    rc = check_condition_c(ps, tol=1e-8)
    rd = check_condition_d(ps, tol=1e-8)
    got = {"b": rb.passed, "c": rc.passed, "d": rd.passed}
    assert got == entry.expected


def _residuals(dec, noise):
    ps = purify(dec, noise)
    return np.array([check_condition_b(dec, noise).residual, check_condition_c(ps).residual,
                     check_condition_d(ps).residual])


@pytest.mark.parametrize("name", [*BASIC, "bacon_shor_9"])
def test_verdicts_do_not_depend_on_the_gauge_basis(name):
    """Rotating the frame by 1_A tensor U_B, for a Haar U_B, is another basis
    of the same gauge factor: the b/c/d residuals stay put, and the Schmidt
    recovery built on the rotated frame still verifies."""
    entry = get(name)
    dec = entry.dec
    u_b = haar_unitary(dec.dim_b, np.random.default_rng(31))
    rotated = Decomposition(dec.dim_a, dec.dim_b, dec.dim_c, frame=dec.code_vectors() @ kron(np.eye(dec.dim_a), u_b))
    np.testing.assert_allclose(_residuals(rotated, entry.noise), _residuals(dec, entry.noise), rtol=0, atol=1e-12)
    if all(entry.expected.values()):
        rep = verify_recovery(rotated, entry.noise, synthesize_schmidt_recovery(rotated, entry.noise))
        assert max(rep.max_infidelity, rep.b_marginal_drift, rep.support_leak) <= 1e-12, rep


def test_dfs_codewords_are_dephasing_invariant():
    """Both code vectors share one collective-Z eigenvalue, so the dephasing
    terms act as a global sign on the whole code sector."""
    entry = get("dfs_2qubit_dephasing")
    code = entry.dec.code_vectors()
    z2 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    for col in code.T:
        np.testing.assert_allclose(z2 @ col, -col, atol=1e-12)


def test_noiseless_subsystem_dims():
    entry = get("ns_3qubit_collective")
    assert (entry.dec.dim_a, entry.dec.dim_b, entry.dec.dim_c) == (2, 2, 4)
    assert len(entry.noise.kraus) == 3


def test_bacon_shor_entry_passes_all_conditions():
    entry = get("bacon_shor_9")
    assert (entry.dec.dim_a, entry.dec.dim_b, entry.dec.dim_c) == (2, 16, 480)
    rb = check_condition_b(entry.dec, entry.noise, tol=1e-8)
    ps = purify(entry.dec, entry.noise)
    rc = check_condition_c(ps, tol=1e-8)
    rd = check_condition_d(ps, tol=1e-8)
    assert rb.passed and rc.passed and rd.passed


def _pauli_on(ops: dict) -> np.ndarray:
    """Nine-qubit operator with the given single-site factors, identity elsewhere."""
    return kron(*[ops.get(site, np.eye(2)) for site in range(9)])


def test_bacon_shor_frame_is_the_css_codewords():
    """Each code vector is 1/2 on four basis strings; (1, b) is X on row 0
    applied to (0, b); the four stabilizers fix every code vector and
    logical Z reads a, all exactly; the code sector is the stabilizers' joint
    +1 space; and two builds give the same bits."""
    frame = get("bacon_shor_9").dec.frame
    code = frame[:, :32]
    assert not np.count_nonzero(code.imag)
    code = code.real
    assert ((code == 0.5).sum(axis=0) == 4).all() and ((code == 0) | (code == 0.5)).all()
    row0 = 0b111 << 6  # sites 0, 1, 2: the three most significant bits
    np.testing.assert_array_equal(code[np.arange(512) ^ row0, :16], code[:, 16:])
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    stabilizers = [_pauli_on({3 * rr + c: x for rr in (r, r + 1) for c in range(3)}) for r in (0, 1)]
    stabilizers += [_pauli_on({3 * r + cc: z for cc in (c, c + 1) for r in range(3)}) for c in (0, 1)]
    for s in stabilizers:
        np.testing.assert_array_equal(s.real @ code, code)
    logical_z = _pauli_on({3 * r: z for r in range(3)}).real
    np.testing.assert_array_equal(logical_z @ code, code * np.repeat([1, -1], 16))
    proj = np.eye(512)
    for s in stabilizers:
        proj = proj @ (np.eye(512) + s.real) / 2
    np.testing.assert_allclose(code @ code.T, proj, atol=1e-12)
    np.testing.assert_array_equal(get("bacon_shor_9").dec.frame, frame)
