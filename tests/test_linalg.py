"""Core linear algebra: oracles are independent loop implementations."""

import numpy as np
import pytest

import oqec.linalg
from oqec.errors import DimensionError, NotAStateError, NotHermitianError
from oqec.linalg import (
    complete_basis,
    dag,
    eig_hermitian,
    gram,
    haar_unitary,
    kron,
    partial_trace,
    require_state,
    unitarity_defect,
    von_neumann_entropy,
)
from random_states import random_density_matrix, random_state_vector


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


def _signed_zero_imag(r):
    x = np.empty(r.shape, dtype=np.complex128)
    x.real, x.imag = r, -0.0
    return x


_GRAM_CASES = {
    "real": lambda rng: rng.normal(size=(6, 6)),
    "complex_zero_imag": lambda rng: rng.normal(size=(6, 6)).astype(complex),
    "minus_zero_imag": lambda rng: _signed_zero_imag(rng.normal(size=(6, 6))),
    "complex": lambda rng: rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
    "real_tall_stack": lambda rng: rng.normal(size=(10 * 16, 16)).astype(complex),
    "complex_tall_stack": lambda rng: rng.normal(size=(160, 16)) + 1j * rng.normal(size=(160, 16)),
    "real_wide": lambda rng: rng.normal(size=(3, 11)),
    "complex_wide": lambda rng: rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11)),
}


@pytest.mark.parametrize("case", sorted(_GRAM_CASES))
def test_gram_matches_the_complex_product(case):
    x = _GRAM_CASES[case](_rng(4))
    g, ref = gram(x), dag(x) @ x
    assert g.dtype == np.complex128 and g.shape == (x.shape[1],) * 2
    assert np.linalg.norm(g - ref) <= 1e-14 * np.linalg.norm(ref)
    if not np.iscomplexobj(x) or not x.imag.any():
        assert np.all(g.imag == 0)


def test_gram_of_a_real_valued_input_skips_the_complex_product(monkeypatch):
    """A real-valued matrix, whatever its dtype or the sign of its zero
    imaginary parts, takes the real product and never conjugates."""
    r = _rng(5).normal(size=(12, 4))
    expected = gram(r)
    monkeypatch.setattr(oqec.linalg, "dag", lambda m: pytest.fail("complex product taken"))
    for x in (r, r.astype(complex), _signed_zero_imag(r)):
        np.testing.assert_array_equal(gram(x), expected)


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
    with pytest.raises(DimensionError):
        complete_basis(np.eye(2), 4)  # a (2, 2) matrix is not one 4-vector
    with pytest.raises(DimensionError):
        complete_basis(np.ones(8), 4)  # nor is an 8-vector two columns


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
