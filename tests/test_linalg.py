"""Core linear algebra: oracles are independent loop implementations."""

import numpy as np
import pytest

from oqec.errors import DimensionError, NotAStateError, NotHermitianError
from oqec.linalg import (
    complete_basis,
    dag,
    eig_hermitian,
    haar_unitary,
    kron,
    partial_trace,
    random_density_matrix,
    random_state_vector,
    require_state,
    schmidt,
    unitarity_defect,
    von_neumann_entropy,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + dag(g)) / 2


def test_dag_is_conjugate_transpose():
    m = np.array([[1 + 2j, 3], [0, -1j]])
    np.testing.assert_array_equal(dag(m), m.conj().T)


def test_kron_matches_numpy_fold():
    rng = _rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2))
    expected = np.kron(np.kron(a, b), c)
    np.testing.assert_allclose(kron(a, b, c), expected, atol=1e-14)


def test_kron_single_factor_is_identity_operation():
    a = np.diag([1.0, 2.0])
    np.testing.assert_array_equal(kron(a), a.astype(np.complex128))


def test_unitarity_defect_zero_for_unitary():
    u = haar_unitary(5, _rng(3))
    assert unitarity_defect(u) < 1e-14
    assert unitarity_defect(2 * u) > 1.0


def _partial_trace_loop(m, dims, keep):
    """Four-index loop oracle, independent of the reshape implementation."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in traced):
                continue
            r = 0
            c = 0
            for i in keep:
                r = r * dims[i] + row[i]
                c = c * dims[i] + col[i]
            ridx = int(np.ravel_multi_index(row, dims))
            cidx = int(np.ravel_multi_index(col, dims))
            out[r, c] += m[ridx, cidx]
    return out


@pytest.mark.parametrize(
    "dims,keep",
    [
        ([2, 3], (0,)),
        ([2, 3], (1,)),
        ([2, 2, 2], (0, 2)),
        ([2, 3, 2], (1,)),
        ([3, 2, 2], (0, 1)),
    ],
)
def test_partial_trace_matches_loop_oracle(dims, keep):
    rng = _rng(7)
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    np.testing.assert_allclose(
        partial_trace(m, dims, keep), _partial_trace_loop(m, dims, keep), atol=1e-12
    )


def test_partial_trace_of_product_state():
    rng = _rng(11)
    rho = random_density_matrix(2, rng)
    sig = random_density_matrix(3, rng)
    np.testing.assert_allclose(partial_trace(kron(rho, sig), [2, 3], (0,)), rho, atol=1e-13)
    np.testing.assert_allclose(partial_trace(kron(rho, sig), [2, 3], (1,)), sig, atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = _rng(13)
    rho = random_density_matrix(12, rng)
    out = partial_trace(rho, [2, 3, 2], (1,))
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(6), [2, 2], (0,))


def test_eig_hermitian_descending_and_reconstructs():
    rng = _rng(17)
    h = _random_hermitian(6, rng)
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) <= 1e-12)
    np.testing.assert_allclose(v @ np.diag(w) @ dag(v), h, atol=1e-12)
    np.testing.assert_allclose(dag(v) @ v, np.eye(6), atol=1e-12)


def test_eig_hermitian_phase_convention():
    """First sizable component of each eigenvector is real and nonnegative."""
    rng = _rng(19)
    h = _random_hermitian(5, rng)
    _, v = eig_hermitian(h)
    for k in range(5):
        lead = v[np.abs(v[:, k]) > 1e-12, k][0]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0


def test_eig_hermitian_deterministic_under_degeneracy():
    h = np.diag([1.0, 1.0, 0.5]).astype(complex)
    w1, v1 = eig_hermitian(h)
    w2, v2 = eig_hermitian(h.copy())
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_allclose(w1, [1.0, 1.0, 0.5])


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_schmidt_reconstructs_vector():
    rng = _rng(23)
    vec = random_state_vector(12, rng)
    coeffs, left, right = schmidt(vec, 3, 4)
    rebuilt = np.zeros(12, dtype=complex)
    for c, l, r in zip(coeffs, left.T, right.T):
        rebuilt += c * np.kron(l, r)
    np.testing.assert_allclose(rebuilt, vec, atol=1e-12)
    assert np.all(coeffs > 0)
    assert np.all(np.diff(coeffs) <= 1e-12)
    np.testing.assert_allclose(dag(left) @ left, np.eye(left.shape[1]), atol=1e-12)
    np.testing.assert_allclose(dag(right) @ right, np.eye(right.shape[1]), atol=1e-12)


def test_schmidt_product_state_has_rank_one():
    rng = _rng(29)
    vec = np.kron(random_state_vector(2, rng), random_state_vector(3, rng))
    coeffs, _, _ = schmidt(vec, 2, 3)
    assert len(coeffs) == 1
    assert abs(coeffs[0] - 1.0) < 1e-12


def test_schmidt_coefficients_square_to_marginal_spectrum():
    rng = _rng(31)
    vec = random_state_vector(8, rng)
    coeffs, _, _ = schmidt(vec, 2, 4)
    rho_left = partial_trace(np.outer(vec, vec.conj()), [2, 4], (0,))
    w, _ = eig_hermitian(rho_left)
    np.testing.assert_allclose(coeffs**2, w[: len(coeffs)], atol=1e-12)


def test_require_state_accepts_density_matrix():
    spectrum = require_state(random_density_matrix(4, _rng(37)))
    assert np.all(np.diff(spectrum) <= 1e-12)
    assert abs(np.sum(spectrum) - 1.0) < 1e-9


def test_require_state_rejects_bad_inputs():
    with pytest.raises(NotAStateError):
        require_state(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(NotAStateError):
        require_state(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(NotAStateError):
        require_state(np.diag([0.7, 0.7]).astype(complex))  # trace 1.4


def test_entropy_frozen_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    # -0.5 log2 0.5 - 2 * 0.25 log2 0.25 = 0.5 + 1.0
    assert von_neumann_entropy(np.diag([0.5, 0.25, 0.25]).astype(complex)) == pytest.approx(
        1.5, abs=1e-12
    )


@pytest.mark.parametrize("d", range(2, 17))
def test_entropy_maximally_mixed(d):
    assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(np.log2(d), abs=1e-12)


def test_entropy_unitary_invariance():
    rng = _rng(41)
    rho = random_density_matrix(5, rng)
    u = haar_unitary(5, rng)
    s1 = von_neumann_entropy(rho)
    s2 = von_neumann_entropy(u @ rho @ dag(u))
    assert abs(s1 - s2) < 1e-10


def test_complete_basis_extends_to_full_dimension():
    rng = _rng(43)
    cols = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0]
    ext = complete_basis(cols, 6)
    assert ext.shape == (6, 4)
    full = np.hstack([cols, ext])
    np.testing.assert_allclose(dag(full) @ full, np.eye(6), atol=1e-12)


def test_complete_basis_from_nothing_gives_identity():
    ext = complete_basis(np.zeros((4, 0), dtype=complex), 4)
    np.testing.assert_allclose(ext, np.eye(4), atol=1e-14)


def test_complete_basis_deterministic():
    rng = _rng(47)
    cols = np.linalg.qr(rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))[0]
    np.testing.assert_array_equal(complete_basis(cols, 5), complete_basis(cols, 5))


def test_complete_basis_of_non_orthonormal_columns():
    """Independent but non-orthonormal input: the completion is still
    orthonormal and orthogonal to every input column."""
    rng = _rng(61)
    for cols in (
        np.array([[1.0], [1.0]]),
        rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)),
    ):
        dim, k = cols.shape
        ext = complete_basis(cols, dim)
        assert ext.shape == (dim, dim - k)
        np.testing.assert_allclose(dag(ext) @ ext, np.eye(dim - k), atol=1e-12)
        np.testing.assert_allclose(dag(ext) @ cols, 0.0, atol=1e-12)


def test_complete_basis_rejects_dependent_or_too_many_columns():
    with pytest.raises(DimensionError):
        complete_basis(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]), 3)
    with pytest.raises(DimensionError):
        complete_basis(np.eye(2, 3), 2)


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(7, _rng(51))
    u2 = haar_unitary(7, _rng(51))
    assert unitarity_defect(u1) < 1e-13
    np.testing.assert_array_equal(u1, u2)


def test_random_state_vector_normalized():
    v = random_state_vector(9, _rng(53))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_random_density_matrix_rank_control():
    rho = random_density_matrix(6, _rng(59), rank=2)
    spectrum = require_state(rho)
    assert np.sum(spectrum > 1e-10) == 2
