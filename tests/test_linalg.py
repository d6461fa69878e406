"""Core linear algebra: oracles are independent loop implementations."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oqec.linalg
from oqec.errors import DimensionError, NotAStateError, NotHermitianError
from oqec.linalg import (
    _WHOLE_MAX,
    Cells,
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
    real_valued = not np.iscomplexobj(x) or not x.imag.any()
    assert g.dtype == (np.float64 if real_valued else np.complex128)
    assert g.shape == (x.shape[1],) * 2
    assert np.linalg.norm(g - ref) <= 1e-14 * np.linalg.norm(ref)
    if real_valued:
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


def _whole_spectrum(m):
    """require_state's spectrum on the whole matrix, as before blocks."""
    return np.linalg.eigvalsh((m + dag(m)) / 2)[::-1]


def _whole_eig(m):
    """eig_hermitian on the whole matrix, as before blocks."""
    w, v = np.linalg.eigh((m + dag(m)) / 2)
    order = np.argsort(-w, kind="stable")
    return w[order], oqec.linalg._fix_phases(v[:, order])


def _permuted_block_state(sizes, rng, complex_):
    """A unit-trace PSD matrix with one block of each size, conjugated by a
    random permutation; returns it with the index set of each block. A
    block is dense, of random rank so that zero eigenvalues occur, or a
    diagonally dominant path, connected only through its neighbours."""
    n = sum(sizes)
    m = np.zeros((n, n), complex if complex_ else float)
    start = 0
    for k in sizes:
        if k > 2 and rng.random() < 0.5:
            off = rng.uniform(0.1, 1, k - 1)
            if complex_:
                off = off * np.exp(2j * np.pi * rng.random(k - 1))
            block = np.diag(off, 1)
            block = block + dag(block) + 2 * np.eye(k)
        else:
            g = rng.normal(size=(k, int(rng.integers(1, k + 1))))
            if complex_:
                g = g + 1j * rng.normal(size=g.shape)
            block = g @ dag(g)
        m[start:start + k, start:start + k] = block
        start += k
    perm = rng.permutation(n)
    inverse = np.argsort(perm)  # row i of the result is row perm[i] of m
    bounds = np.cumsum([0, *sizes])
    blocks = [np.sort(inverse[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return m[np.ix_(perm, perm)] / np.trace(m).real, blocks


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
    complex_=st.booleans(),
)
def test_blockwise_spectra_match_the_whole_matrix(sizes, seed, complex_):
    """Above _WHOLE_MAX, the components of a permuted block-diagonal matrix
    are its blocks, the blockwise spectrum is the whole one, and each
    eigenvector is exactly 0 outside its block."""
    while sum(sizes) <= _WHOLE_MAX:
        sizes = sizes * 2
    m, blocks = _permuted_block_state(sizes, np.random.default_rng(seed), complex_)
    groups = oqec.linalg._components(m)
    found = sorted(tuple(row) for ix in groups for row in ix)
    assert found == sorted(tuple(b) for b in blocks)
    scale = np.linalg.norm(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.abs(require_state(m) - ref).max() <= 1e-13 * scale
    w, v = eig_hermitian(m)
    assert np.abs(w - ref).max() <= 1e-13 * scale
    assert np.linalg.norm(v * w @ dag(v) - m) <= 1e-13 * scale
    assert np.linalg.norm(dag(v) @ v - np.eye(len(m))) <= 1e-13
    assert np.count_nonzero(v) <= sum(k * k for k in sizes)


def _fix_phases_loop(vecs, cutoff=oqec.linalg.SPECTRUM_CUTOFF):
    """The column-by-column phase fix that _fix_phases replaces."""
    out = np.array(vecs, copy=True)
    for i in range(out.shape[1]):
        col = out[:, i]
        nz = np.flatnonzero(np.abs(col) > cutoff)
        if nz.size:
            pivot = col[nz[0]]
            out[:, i] = col * (pivot.conjugate() / abs(pivot))
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("complex_", [False, True])
def test_fix_phases_matches_the_column_loop_bit_for_bit(monkeypatch, complex_):
    """Signed zeros included, on random eigenbases and on the blockwise
    scattered ones eig_hermitian builds, whose pivots follow exact zeros."""
    rng = _rng(71)
    for n in [0, 1, 2, 3, 5, 8, 17, 40, 100]:
        g = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0)
        _, v = np.linalg.eigh(g + dag(g))
        assert _same_bits(oqec.linalg._fix_phases(v), _fix_phases_loop(v))
    phased = []
    original = oqec.linalg._fix_phases
    monkeypatch.setattr(oqec.linalg, "_fix_phases", lambda v: phased.append(v) or original(v))
    for seed in range(4):
        m, _ = _permuted_block_state([1, 2, 3, 5] * 8, _rng(seed), complex_)
        _, v = eig_hermitian(m)
        assert _same_bits(v, _fix_phases_loop(phased[-1]))
    assert len(phased) == 4


def test_one_component_and_small_matrices_take_the_whole_path():
    """A matrix of one component above _WHOLE_MAX (a chain), one with no zero
    entry, and a block-diagonal one at _WHOLE_MAX give bit for bit what the
    whole-matrix lines give."""
    rng = _rng(67)
    n = _WHOLE_MAX + 16
    chain = np.diag(rng.uniform(1, 2, n)) + np.diag(rng.normal(size=n - 1) * 0.1, 1)
    chain = chain + chain.T
    dense = random_density_matrix(n, rng)
    small, _ = _permuted_block_state([3] * (_WHOLE_MAX // 3) + [1], rng, True)
    assert len(small) == _WHOLE_MAX
    for m in (chain / np.trace(chain), dense, small):
        assert oqec.linalg._components(m) is None or len(m) <= _WHOLE_MAX
        np.testing.assert_array_equal(require_state(m), _whole_spectrum(m))
        for got, want in zip(eig_hermitian(m), _whole_eig(m)):
            np.testing.assert_array_equal(got, want)


def test_require_state_rejects_bad_block_diagonal_inputs(monkeypatch):
    """Each check still fails on the block path, with the whole path's
    message; a non-finite entry is named before any labelling."""
    rho, blocks = _permuted_block_state([3] * 30, _rng(71), True)
    i, j = blocks[0][0], blocks[1][0]
    lone = rho.copy()
    lone[i, j] = 1e-6  # m[j, i] stays 0: i and j join one component
    message = "not Hermitian within atol=1e-09 \\(defect 1.414e-06\\)"
    with pytest.raises(NotAStateError, match=message):
        require_state(lone)
    negative = rho.copy()
    negative[i, i] -= 1.0  # a negative eigenvalue inside one block
    negative[j, j] += 1.0
    with pytest.raises(NotAStateError, match="negative eigenvalue -.* below -atol"):
        require_state(negative)
    with pytest.raises(NotAStateError, match="trace .* differs from 1 beyond atol"):
        require_state(2 * rho)
    bad = rho.copy()
    bad[j, i] = np.nan
    monkeypatch.setattr(oqec.linalg, "_components", lambda m: pytest.fail("labelled"))
    with pytest.raises(NotAStateError, match=f"entry \\({j}, {i}\\) is .*nan.*, not finite"):
        require_state(bad)


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


def test_an_empty_matrix_is_not_a_state():
    """A 0 x 0 matrix has no eigenvalue and trace 0, which differs from 1:
    NotAStateError, not an IndexError from an empty spectrum."""
    for rho in (np.zeros((0, 0)), np.zeros((0, 0), complex)):
        for check in (require_state, von_neumann_entropy):
            with pytest.raises(NotAStateError, match="^trace 0.0 differs from 1"):
                check(rho)


def test_require_state_rejects_non_finite_entries():
    """A non-finite entry is named and rejected before any arithmetic, so no
    RuntimeWarning (an error under this suite's settings) and no LAPACK call."""
    cases = [(bad, dtype) for bad in (np.nan, np.inf, -np.inf) for dtype in (float, complex)]
    cases += [(complex(0.0, np.nan), complex), (complex(1.0, np.inf), complex)]
    for bad, dtype in cases:
        for rho in (np.full((2, 2), bad, dtype=dtype), np.array([[0.5, 0], [0, bad]], dtype=dtype)):
            with pytest.raises(NotAStateError, match="not finite"):
                require_state(rho)
            with pytest.raises(NotAStateError, match="not finite"):
                von_neumann_entropy(rho)


def test_entropy_of_a_pure_state_is_positive_zero():
    for rho in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0]).astype(complex), np.ones((1, 1))):
        assert math.copysign(1.0, von_neumann_entropy(rho)) == 1.0
    assert von_neumann_entropy(np.eye(2) / 2) == 1.0


def test_entropy_frozen_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    # -0.5 log2 0.5 - 2 * 0.25 log2 0.25 = 0.5 + 1.0
    assert von_neumann_entropy(np.diag([0.5, 0.25, 0.25]).astype(complex)) == pytest.approx(
        1.5, abs=1e-12
    )


def test_entropy_counts_every_positive_eigenvalue():
    """-w log2 w -> 0 as w -> 0, so no eigenvalue is cut: a weight of 1e-16
    adds its ~5.5e-15 bits, and only w <= 0 contributes nothing."""
    w = 1e-16
    expected = -w * np.log2(w) - (1 - w) * np.log2(1 - w)
    assert abs(von_neumann_entropy(np.diag([1 - w, w])) - expected) <= 1e-6 * expected
    assert von_neumann_entropy(np.diag([1.0, 0.0, -0.0])) == 0.0


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
    """The same generator state gives the same bits, within one process
    (one BLAS build and thread count), also at sizes where BLAS splits
    the QR's sums."""
    for dim in (7, 64, 128):
        u1 = haar_unitary(dim, _rng(51))
        u2 = haar_unitary(dim, _rng(51))
        assert unitarity_defect(u1) < 1e-13
        assert u1.tobytes() == u2.tobytes()


def test_random_state_vector_normalized():
    v = random_state_vector(9, _rng(53))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_random_density_matrix_rank_control():
    rho = random_density_matrix(6, _rng(59), rank=2)
    spectrum = require_state(rho)
    assert np.sum(spectrum > 1e-10) == 2


@st.composite
def _cell_matrices(draw):
    """(a, width): a real or complex matrix whose rows hold 0 to width
    nonzero cells, width 0 to 4 and at least one row at width, with empty
    rows, -0.0 entries that are no cells and, when complex, cells of -0.0
    real or imaginary part; on both sides of the density rule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, n = draw(st.sampled_from([1, 8, 64, 130])), draw(st.sampled_from([4, 8, 64, 130]))
    width = draw(st.integers(0, 4))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    a = np.zeros((rows, n), dtype)
    counts = rng.integers(0, width + 1, rows) * (rng.random(rows) < draw(st.sampled_from([0.05, 0.5, 1.0])))
    counts[rng.integers(rows)] = width
    for r, c in enumerate(counts):
        at = rng.choice(n, c, replace=False)
        a[r, at] = rng.standard_normal(c)
        if dtype is np.complex128:
            a[r, at] += 1j * rng.standard_normal(c)
    if dtype is np.complex128 and counts.any():
        r = int(np.flatnonzero(counts)[0])
        c = int(np.flatnonzero(a[r])[0])
        a[r, c] = complex(-0.0, a[r, c].imag) if draw(st.booleans()) else complex(a[r, c].real, -0.0)
    a[(a == 0) & (rng.random(a.shape) < 0.3)] = -0.0
    return a, width


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_cell_matrices(), cols=st.integers(1, 3), complex_x=st.booleans())
def test_cell_store_matches_dense_numpy(case, cols, complex_x):
    """A matrix's store is built from the cells np.nonzero finds exactly
    when 64 nnz <= size; it has one row of each array per matrix row, of
    width the most cells in a row. Its entries are the cells np.nonzero
    finds in its dense matrix, row-major, and that matrix is a, bit for bit
    except that -0.0 entries, no cells, come back +0.0; its product with x
    is a @ x, and a† a is its Gram diagonal at width <= 1, else its pairs
    placed in an (n, n) matrix, within 1e-13 of the largest entry and in
    numpy's and gram's dtypes."""
    a, width = case
    nz = a != 0
    r, c = np.nonzero(nz)
    store = Cells.build(a.shape, r, c, a[r, c])
    assert (store is not None) == (64 * np.count_nonzero(nz) <= a.size)
    event(f"width {width}" if store is not None else "refused")
    if store is None:
        return
    assert store.cols.shape == store.vals.shape == (len(a), width) and store.n == a.shape[1]
    dense = store.dense()
    assert dense.dtype == a.dtype and dense.tobytes() == np.where(nz, a, 0).astype(a.dtype).tobytes()
    at = np.nonzero(dense)
    for got, want in zip(store.entries(), (*at, dense[at])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    rng = np.random.default_rng(cols)
    x = rng.standard_normal((a.shape[1], cols))
    if complex_x:
        x = x + 1j * rng.standard_normal(x.shape)
    got, want = store.product(x), a @ x
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
    want = gram(a)
    if width <= 1:
        np.testing.assert_array_equal(np.diag(np.diag(want)), want)
        got = np.diag(store.gram())
    else:
        i, j, m = store.pairs()
        got = np.zeros(want.shape, m.dtype)
        got[i, j] = m
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


def test_dense_sums_the_cells_compose_puts_in_one_column_of_a_row():
    """A left store of width 2 composed with one holding (0, 5) = 2 and
    (1, 5) = 3 lists two cells at (0, 5); dense sums them to 5, as a @ b,
    product and pairs do."""
    a, b = np.zeros((128, 128)), np.zeros((128, 128))
    a[0, :2] = 1.0
    b[0, 5], b[1, 5], b[2, 7] = 2.0, 3.0, -0.5
    a[3, 2] = -1.0
    left, right = (Cells.build(m.shape, *np.nonzero(m), m[np.nonzero(m)]) for m in (a, b))
    composed = left.compose(right)
    assert composed.cols.shape[1] == 2 and (composed.cols[0] == 5).all()
    got = composed.dense()
    assert got.dtype == (a @ b).dtype and np.array_equal(got, a @ b)
    assert got[0, 5] == 5.0 == composed.product(np.eye(128))[0, 5]
    i, j, m = composed.pairs()
    assert list(zip(i, j, m)) == [(5, 5, 25.0), (7, 7, 0.25)]


def test_build_takes_64_cells_of_a_64_by_64_matrix_and_refuses_65():
    """64 nnz <= size is the one rule: a (64, 64) matrix holds at most 64
    cells, and 65 are refused."""
    at_rule = np.zeros((64, 64))
    at_rule.reshape(-1)[::64] = 1.0
    r, c = np.nonzero(at_rule)
    assert Cells.build(at_rule.shape, r, c, at_rule[r, c]) is not None
    over = at_rule.copy()
    over[0, 1] = 1.0
    r, c = np.nonzero(over)
    assert Cells.build(over.shape, r, c, over[r, c]) is None


def _entries(m):
    """The nonzero entries (i, j, m[i, j]) of a square matrix, row-major."""
    i, j = np.nonzero(m)
    return i, j, m[i, j]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
    complex_=st.booleans(),
)
def test_entry_spectra_match_the_dense_entropy(sizes, seed, complex_):
    """A permuted block-diagonal state given by its nonzero entries: _groups
    of its (i, j) lists finds the components _components finds in its mask,
    at any size, and _entries_entropy is its von Neumann entropy within
    1e-13, one component of n rows taken as one block."""
    m, blocks = _permuted_block_state(sizes, np.random.default_rng(seed), complex_)
    n = len(m)
    i, j, vals = _entries(m)
    groups = oqec.linalg._groups(n, i, j)
    if len(blocks) == 1:
        assert groups is None
    else:
        found = sorted(tuple(row) for ix in groups for row in ix)
        assert found == sorted(tuple(b) for b in blocks)
        if n > _WHOLE_MAX:
            assert [g.tolist() for g in groups] == [g.tolist() for g in oqec.linalg._components(m)]
    want = -sum(w * np.log2(w) for w in np.linalg.eigvalsh(m) if w > 0)
    assert abs(oqec.linalg._entries_entropy(n, i, j, vals) - want) <= 1e-13


def test_entry_spectra_keep_require_states_checks():
    """_entries_entropy refuses what require_state refuses, in its words: a
    non-finite entry (named by its index), a Hermitian defect across two
    components, a negative eigenvalue inside one, and a trace off 1."""
    rho, blocks = _permuted_block_state([3] * 30, _rng(71), True)
    n, (i, j) = len(rho), (blocks[0][0], blocks[1][0])
    lone = rho.copy()
    lone[i, j] = 1e-6  # m[j, i] stays 0: i and j join one component
    negative = rho.copy()
    negative[i, i] -= 1.0
    negative[j, j] += 1.0
    bad = rho.copy()
    bad[j, i] = np.nan
    for m, message in [
        (lone, "not Hermitian within atol=1e-09 \\(defect 1.414e-06\\)"),
        (negative, "negative eigenvalue -.* below -atol"),
        (2 * rho, "trace .* differs from 1 beyond atol"),
        (bad, f"entry \\({j}, {i}\\) is .*nan.*, not finite"),
    ]:
        with pytest.raises(NotAStateError, match=message):
            require_state(m)
        with pytest.raises(NotAStateError, match=message):
            oqec.linalg._entries_entropy(n, *_entries(m))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_cell_matrices(), complex_=st.booleans(), seed=st.integers(0, 2**16))
def test_composed_and_paired_cells_match_dense_numpy(case, complex_, seed):
    """A one-cell-per-row store composed with a store of any width is the
    store of the dense product, each cell one product as the gathered
    product forms it, so bit for bit that product's nonzeros, or None when
    64 nnz > size; pairs are the nonzero entries of gram, row-major, within
    1e-13 of its largest entry and in its dtype."""
    a, width = case
    rng = np.random.default_rng(seed)
    r, c = np.nonzero(a)
    other = Cells.build(a.shape, r, c, a[r, c])
    if other is None:
        return
    rows = 2 * len(a)
    cols = rng.integers(0, len(a), rows)
    vals = rng.standard_normal(rows) * (rng.random(rows) < 0.8)
    if complex_:
        vals = vals * np.exp(2j * np.pi * rng.random(rows))
    first = Cells(cols[:, None], vals[:, None], len(a))
    want = vals[:, None] * a[cols]  # the gathered product of first with a
    composed = first.compose(other)
    event("refused" if composed is None else f"width {width}")
    if 64 * np.count_nonzero(want) > want.size:
        assert composed is None
        return
    assert composed.cols.shape == (rows, width) and composed.n == a.shape[1]
    got = composed.dense()
    assert got.dtype == want.dtype and got.tobytes() == np.where(want != 0, want, 0).astype(want.dtype).tobytes()
    pi, pj, pm = composed.pairs()
    n = a.shape[1]
    assert np.all(np.diff(pi * n + pj) > 0) and np.count_nonzero(pm) == len(pm)
    dense_gram = gram(want)
    assert pm.dtype == dense_gram.dtype
    paired = np.zeros_like(dense_gram)
    paired[pi, pj] = pm
    assert np.abs(paired - dense_gram).max() <= 1e-13 * max(np.abs(dense_gram).max(), 1.0)
