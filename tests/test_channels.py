"""Kraus channels: algebra, constructors, and the Choi correspondence."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oqec
from oqec.channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Channel,
    apply,
    bit_flip,
    choi,
    collective_unitary,
    compose,
    depolarizing,
    identity,
    phase_flip,
    random_channel,
    require_valid,
    restricted_flip,
    single_qubit_on,
    unitary,
    validate,
)
from oqec.codes import catalog, get
from oqec.errors import DimensionError
from oqec.linalg import dag, gram, haar_unitary, kron
from oqec.recovery import synthesize_schmidt_recovery, synthesize_universal_recovery
from oqec.spaces import Decomposition
from choi_oracle import choi_distance
from pauli_noise import kept_as_cells, weight_one_depolarizing
from random_states import random_density_matrix


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_channel_validates_kraus_shapes():
    for empty in ((), [], np.zeros((0, 2, 2))):
        with pytest.raises(DimensionError):
            Channel(empty)
    with pytest.raises(DimensionError):
        Channel((np.eye(2), np.eye(3)))
    with pytest.raises(DimensionError):
        Channel((np.ones(4),))


def test_channel_dims_and_immutability():
    ch = Channel((np.ones((3, 2)),))
    assert ch.dim_in == 2
    assert ch.dim_out == 3
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 9.0


@pytest.mark.parametrize("dim", [64, 128])
def test_random_channel_gives_the_same_bits_for_a_seed_in_one_process(dim):
    """The same seed, BLAS build and thread count give the same bits, at
    sizes where BLAS splits the QR's sums."""
    assert random_channel(dim, 3, 1).kraus.tobytes() == random_channel(dim, 3, 1).kraus.tobytes()


def test_kraus_is_one_read_only_stack():
    ch = random_channel(3, 4, seed=5)
    assert isinstance(ch.kraus, np.ndarray)
    assert ch.kraus.shape == (4, 3, 3)
    assert ch.kraus.dtype == np.complex128
    assert not ch.kraus.flags.writeable
    with pytest.raises(ValueError):
        ch.kraus[1, 0, 0] = 9.0


def test_tuple_list_and_array_inputs_build_the_same_channel():
    ops = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
    source = ops.copy()
    view = source.view()
    view.flags.writeable = False  # read-only, but the caller still writes source
    built = [Channel(tuple(ops)), Channel(list(ops)), Channel(source), Channel(view)]
    source[0, 0, 0] = 99.0  # each channel keeps its own copy
    for ch in built:
        np.testing.assert_array_equal(ch.kraus, ops)
        assert (ch.dim_in, ch.dim_out, len(ch.kraus)) == (2, 3, 2)
        for e, op in zip(ch.kraus, ops):
            np.testing.assert_array_equal(e, op)


@pytest.mark.parametrize("scale", [np.sqrt(0.5), 1.2])
def test_validate_cache_matches_a_fresh_channel(scale):
    """A channel validated again from its cached Gram matrix reports what a
    fresh channel reports."""
    ops = (scale * np.eye(4, dtype=complex),)
    ch = Channel(ops)
    first = validate(ch)
    assert validate(ch) == first == validate(Channel(ops))
    assert not first.trace_preserving
    assert first.trace_nonincreasing == (scale < 1)


@pytest.mark.parametrize("entry", [1e300, 1e160, 1e100, 1e300j, 1e160j, 1e100 + 1e100j])
def test_validate_reports_overflowing_gram_as_trace_increasing(entry, monkeypatch):
    """A huge but finite Kraus entry: no numpy warning, and no non-finite
    matrix reaches the eigen-solver."""
    eigvalsh = np.linalg.eigvalsh

    def finite_only(m):
        assert np.isfinite(m).all()
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    ops = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
    ops[1, 0, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = validate(Channel(ops))
        assert not rep.trace_preserving
        assert not rep.trace_nonincreasing
        # the defect, |entry|^2, is formed as the root of its square, which overflows
        with pytest.raises(ValueError, match=r"^noise: Kraus set increases trace \(completeness defect overflows\)$"):
            require_valid(Channel(ops), "noise", allow_trace_decreasing=True)


def test_validate_trace_preserving():
    rep = validate(depolarizing(3, 0.4))
    assert rep.trace_preserving
    assert rep.trace_nonincreasing
    assert rep.defect < 1e-12


def test_require_valid_gates_trace_decreasing():
    half = Channel((0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match=r"^half: Kraus set decreases trace \(completeness defect 1\.061e\+00\)$"):
        require_valid(half, "half")
    rep = require_valid(half, "half", allow_trace_decreasing=True)
    assert not rep.trace_preserving
    assert rep.trace_nonincreasing


def test_require_valid_always_rejects_trace_increasing():
    grow = Channel((1.5 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match=r"^grow: Kraus set increases trace \(completeness defect 1\.768e\+00\)$"):
        require_valid(grow, "grow", allow_trace_decreasing=True)


@pytest.mark.parametrize(
    "scale, trace_preserving, trace_nonincreasing",
    [
        (1.0, True, True),
        (1 + 1e-11, True, True),  # within atol: the trace-preserving shortcut
        (np.sqrt(0.5), False, True),
        (2.0, False, False),
    ],
)
def test_validate_flags_scaled_identity(scale, trace_preserving, trace_nonincreasing):
    rep = validate(Channel((scale * np.eye(4, dtype=complex),)))
    assert rep.trace_preserving is trace_preserving
    assert rep.trace_nonincreasing is trace_nonincreasing
    assert rep.defect == pytest.approx(2 * abs(scale**2 - 1), abs=1e-15)


def test_apply_matches_kraus_sum_loop():
    rng = _rng(3)
    ch = random_channel(3, 4, seed=12)
    rho = random_density_matrix(3, rng)
    expected = sum(e @ rho @ dag(e) for e in ch.kraus)
    np.testing.assert_allclose(apply(ch, rho), expected, atol=1e-13)


def test_apply_preserves_trace_and_positivity():
    rng = _rng(5)
    ch = random_channel(4, 3, seed=7)
    rho = random_density_matrix(4, rng)
    out = apply(ch, rho)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def test_compose_agrees_with_sequential_application():
    rng = _rng(7)
    first = random_channel(3, 2, seed=1)
    second = random_channel(3, 3, seed=2)
    rho = random_density_matrix(3, rng)
    np.testing.assert_allclose(
        apply(compose(second, first), rho), apply(second, apply(first, rho)), atol=1e-12
    )


def test_compose_checks_dimensions():
    with pytest.raises(DimensionError):
        compose(identity(3), identity(2))


def _choi_unit_oracle(ch):
    """Choi matrix assembled column by column from matrix-unit images."""
    d = ch.dim_in
    out = np.zeros((d * ch.dim_out, d * ch.dim_out), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            img = sum(e @ unit @ dag(e) for e in ch.kraus)
            out += kron(unit, img)
    return out


@pytest.mark.parametrize("seed,k", [(0, 1), (1, 2), (2, 4)])
def test_choi_matches_matrix_unit_oracle(seed, k):
    ch = random_channel(3, k, seed=seed)
    np.testing.assert_allclose(choi(ch), _choi_unit_oracle(ch), atol=1e-12)


def test_choi_of_qubit_identity():
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[3 * i, 3 * j] = 1.0
    np.testing.assert_allclose(choi(identity(2)), expected, atol=1e-15)


def test_choi_distance_invariant_under_kraus_remix():
    """Unitarily remixed Kraus lists describe the same map."""
    ch = random_channel(3, 3, seed=9)
    u = haar_unitary(3, _rng(11))
    remixed = Channel(
        tuple(sum(u[i, m] * ch.kraus[i] for i in range(3)) for m in range(3))
    )
    assert choi_distance(ch, remixed) < 1e-12
    assert choi_distance(ch, identity(3)) > 1e-3


def _gaussian_channel(k, d_out, d_in, seed):
    """k Gaussian Kraus operators: not trace preserving, any shape."""
    rng = _rng(seed)
    return Channel(rng.normal(size=(k, d_out, d_in)) + 1j * rng.normal(size=(k, d_out, d_in)))


def _near_copy():
    """A Kraus remix of a channel with one entry moved by 1e-9."""
    ch = random_channel(4, 3, seed=31)
    remixed = np.tensordot(haar_unitary(3, _rng(32)), ch.kraus, axes=1)
    remixed[2, 1, 3] += 1e-9
    return ch, Channel(remixed)


@pytest.mark.parametrize(
    "a, b",
    [
        (random_channel(3, 2, seed=1), random_channel(3, 5, seed=2)),
        (_gaussian_channel(2, 3, 2, seed=3), _gaussian_channel(3, 3, 2, seed=4)),
        (_gaussian_channel(2, 2, 4, seed=5), _gaussian_channel(1, 2, 4, seed=6)),
        (_gaussian_channel(3, 2, 2, seed=7), _gaussian_channel(4, 2, 2, seed=8)),
        _near_copy(),
    ],
    ids=["different Kraus counts", "d_out > d_in", "d_out < d_in", "wide QR", "near equal"],
)
def test_choi_distance_matches_dense_oracle(a, b):
    dense = np.linalg.norm(choi(a) - choi(b))
    assert abs(choi_distance(a, b) - dense) <= 1e-12
    assert abs(choi_distance(b, a) - dense) <= 1e-12


@pytest.mark.parametrize(
    "build",
    [lambda: get("bacon_shor_9").noise, lambda: random_channel(128, 3, seed=2)],
    ids=["bacon_shor_9 noise", "random dim 128"],
)
def test_choi_distance_of_a_channel_to_itself_is_exactly_zero(build):
    ch = build()
    assert choi_distance(ch, ch) == 0.0


def test_bit_flip_composition_law():
    p, q = 0.2, 0.35
    assert choi_distance(compose(bit_flip(p), bit_flip(q)), bit_flip(p + q - 2 * p * q)) < 1e-12


def test_phase_flip_dephases():
    out = apply(phase_flip(0.5), np.full((2, 2), 0.5, dtype=complex))
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)


def test_depolarizing_action_oracle():
    rng = _rng(13)
    for d, p in [(2, 0.3), (3, 0.8), (4, 1.0)]:
        rho = random_density_matrix(d, rng)
        out = apply(depolarizing(d, p), rho)
        np.testing.assert_allclose(out, (1 - p) * rho + p * np.eye(d) / d, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 64])
def test_depolarizing_lists_the_weyl_operators(d):
    """Operator 1 + j d + k of depolarizing(d, p) is sqrt(p)/d X^j Z^k, within
    1e-14 of the matrix powers of the shift X|c> = |c+1> and the clock
    Z|c> = w^c |c>; operator 0 is sqrt(1 - p) 1. From d = 64 on the channel
    is kept as its cells, one per row, and its stack is formed only on read."""
    p = 0.3
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    want = [np.sqrt(1 - p) * np.eye(d)] + [
        np.sqrt(p) / d * np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
        for j in range(d)
        for k in range(d)
    ]
    ch = depolarizing(d, p)
    assert (ch._cells is not None) == (d == 64) and ch.n_kraus == 1 + d * d
    assert "kraus" not in vars(ch) or d < 64
    assert ch.kraus.dtype == np.complex128
    assert np.abs(ch.kraus - np.array(want)).max() <= 1e-14
    assert validate(ch).trace_preserving


def test_depolarizing_validates_probability():
    with pytest.raises(ValueError):
        depolarizing(2, -0.1)
    with pytest.raises(ValueError):
        depolarizing(2, 1.1)


def test_unitary_constructor_rejects_nonunitary():
    with pytest.raises(ValueError):
        unitary(np.ones((2, 2)))
    with pytest.raises(ValueError, match="not unitary"):
        unitary(np.full((2, 2), np.nan))  # a nan defect fails too


@pytest.mark.parametrize("entry", [1e300, 1e300j])
def test_an_overflowing_matrix_is_refused_as_not_unitary_with_no_warning(entry):
    """An entry of 1e300 is finite but overflows m†m: unitary,
    collective_unitary and the frame check of Decomposition, which share
    one guarded defect, refuse the matrix with their own errors, and numpy
    warns of no overflow, with warnings raised as errors."""
    huge = np.full((2, 2), entry)
    frame = np.eye(4, dtype=type(entry))
    frame[0, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="not unitary"):
            unitary(huge)
        with pytest.raises(ValueError, match="each term must carry a unitary matrix"):
            collective_unitary(2, [(1.0, huge)])
        with pytest.raises(DimensionError, match="frame columns are not orthonormal"):
            Decomposition(2, 2, 0, frame=frame)


def test_a_large_identity_is_kept_as_its_cells():
    """identity(dim) is built from its cells: from dim 64 on it keeps its
    store and a diagonal Gram vector, below that its stack; either way its
    stack is np.eye's, bit for bit."""
    for dim, kept in ((63, False), (64, True), (512, True)):
        ch = identity(dim)
        assert (ch._cells is not None) == kept
        assert ch._gram[0].shape == ((dim,) if kept else (dim, dim))
        assert ch.kraus.tobytes() == np.eye(dim).tobytes() and ch.kraus.dtype == np.float64


def test_single_qubit_on_places_site_leftmost_first():
    ch = single_qubit_on(2, 0, unitary(PAULI_X))
    np.testing.assert_allclose(ch.kraus[0], kron(PAULI_X, np.eye(2)), atol=1e-15)
    ch = single_qubit_on(2, 1, unitary(PAULI_Z))
    np.testing.assert_allclose(ch.kraus[0], kron(np.eye(2), PAULI_Z), atol=1e-15)


def test_restricted_flip_structure():
    ch = restricted_flip(3, 0.1)
    assert len(ch.kraus) == 4
    assert validate(ch).trace_preserving
    np.testing.assert_allclose(ch.kraus[0], np.sqrt(0.7) * np.eye(8), atol=1e-14)
    with pytest.raises(ValueError):
        restricted_flip(3, 0.4)  # 3 * 0.4 > 1
    with pytest.raises(ValueError):
        restricted_flip(3, np.nan)


@pytest.mark.parametrize("n", range(1, 7))
def test_restricted_flip_is_bit_identical_to_its_kron_construction(n):
    """The stack written by index holds the bits of sqrt(1 - n p) 1 and of
    each sqrt(p) X_site formed as a Kronecker product, zeros included."""
    for p in (0.0, 0.01, 0.1 / n, 1 / (3 * n), 1 / n):
        ops = [np.sqrt(1 - n * p) * np.eye(2**n)]
        ops += [np.sqrt(p) * kron(np.eye(2**s), PAULI_X, np.eye(2 ** (n - s - 1))) for s in range(n)]
        want = np.array(ops)
        got = restricted_flip(n, p).kraus
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), p


def test_collective_unitary_validates():
    ch = collective_unitary(2, [(0.5, np.eye(2)), (0.5, PAULI_Z)])
    assert validate(ch).trace_preserving
    assert ch.dim_in == 4
    with pytest.raises(ValueError):
        collective_unitary(2, [(0.7, np.eye(2)), (0.7, PAULI_Z)])  # weights sum > 1
    with pytest.raises(ValueError):
        collective_unitary(2, [(1.0, np.ones((2, 2)))])  # not unitary
    with pytest.raises(ValueError):
        collective_unitary(2, [(np.nan, np.eye(2))])


@pytest.mark.parametrize(
    "term", [np.eye(2, 3), np.ones(2), np.full((2, 2), np.nan)], ids=["non-square", "1-D", "nan"]
)
def test_collective_unitary_rejects_a_term_that_is_not_unitary(term):
    with pytest.raises(ValueError, match="each term must carry a unitary matrix"):
        collective_unitary(2, [(1.0, term)])


def test_random_channel_seeded_and_trace_preserving():
    a = random_channel(4, 3, seed=21)
    b = random_channel(4, 3, seed=21)
    c = random_channel(4, 3, seed=22)
    for x, y in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(x, y)
    assert choi_distance(a, c) > 1e-3
    assert validate(a).trace_preserving
    assert len(a.kraus) == 3


def test_restricted_flip_keeps_the_stack_it_writes():
    """restricted_flip hands its fresh stack to Channel read-only: building
    the bacon_shor_9 noise peaks below 1.5x the stack it keeps, where a
    copy would take 2x."""
    tracemalloc.start()
    try:
        ch = restricted_flip(9, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not ch.kraus.flags.writeable
    assert peak < 1.5 * ch.kraus.nbytes, (peak, ch.kraus.nbytes)


def test_weight_one_depolarizing_matches_its_kron_construction():
    ch = weight_one_depolarizing(3, 0.02)
    want = [np.sqrt(1 - 9 * 0.02) * np.eye(8)]
    for site in range(3):
        want += [np.sqrt(0.02) * single_qubit_on(3, site, unitary(p)).kraus[0] for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    np.testing.assert_array_equal(ch.kraus, np.array(want))
    assert validate(ch).defect <= 1e-15


def _row_counts(stack):
    return np.count_nonzero(stack.reshape(-1, stack.shape[2]), axis=1)


def _dense_product(ch, x):
    return ch.kraus.reshape(-1, ch.dim_in) @ x


def _assert_close(got, want):
    """Within 1e-13 of the reference's largest entry, in the same dtype."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=0.0)


@st.composite
def _sparse_stacks(draw):
    """Real or complex stacks whose rows hold at most one cell, or about 0.05
    to 3 cells: empty rows, rows of several cells, optionally one full row,
    one all-zero operator and -0.0 entries, on both sides of the 1/64 rule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    dout, din = draw(st.sampled_from([1, 8, 64, 130])), draw(st.sampled_from([1, 8, 64, 130]))
    per_row = draw(st.sampled_from([0.05, 0.3, 1.0, 3.0]))
    shape = (k, dout, din)
    stack = rng.standard_normal(shape)
    if draw(st.booleans()):
        stack = stack + 1j * rng.standard_normal(shape)
    if draw(st.booleans()):  # one cell in a share min(per_row, 1) of the rows
        keep = np.arange(din) == rng.integers(din, size=(k, dout, 1))
        stack[~keep | (rng.random((k, dout, 1)) >= per_row)] = 0.0
    else:
        stack[rng.random(shape) >= per_row / din] = 0.0
    if draw(st.booleans()):
        stack[rng.integers(k), rng.integers(dout)] = rng.standard_normal(din)
    if draw(st.booleans()):
        stack[rng.integers(k)] = 0.0
    stack[(stack == 0) & (rng.random(shape) < 0.3)] = -0.0
    return stack


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stack=_sparse_stacks(), cols=st.integers(1, 5), complex_x=st.booleans())
def test_cell_path_matches_the_dense_formulas(stack, cols, complex_x):
    """The completeness Gram matrix and the stacked product read from the
    cell index agree with the dense BLAS formulas within 1e-13, in dtype and
    shape too, the Gram matrix as the diagonal of its kept vector; the index
    is kept from the stack's cells exactly when no row holds two cells and
    64 nnz <= size, and Channel(stack) never keeps one."""
    dense = Channel(stack)
    assert dense._cells is None
    ch = kept_as_cells(dense.kraus)
    counts = _row_counts(stack)
    assert (ch is not None) == (counts.max() <= 1 and 64 * counts.sum() <= stack.size)
    ch = dense if ch is None else ch
    event("cell path" if ch._cells is not None else "dense path")
    event(f"largest row count {min(counts.max(), 2)}")
    g, defect = ch._gram
    assert g.ndim == (1 if ch._cells is not None else 2)
    want = gram(stack.reshape(-1, stack.shape[2]))
    _assert_close(np.diag(g) if g.ndim == 1 else g, want)
    assert abs(defect - np.linalg.norm(want - np.eye(ch.dim_in))) <= 1e-13 * max(1.0, defect)
    rng = np.random.default_rng(cols)
    x = rng.standard_normal((ch.dim_in, cols))
    if complex_x:
        x = x + 1j * rng.standard_normal(x.shape)
    _assert_close(ch.stacked_product(x), _dense_product(ch, x))


def test_the_cell_index_rule_sits_at_one_64th_of_the_stack():
    """One cell per row: nnz equal to size / 64 is indexed, and its Gram
    matrix kept as its diagonal; one more is not. A second cell in any one
    row gives no index, however few cells the stack holds. A stack with no
    nonzero cell is indexed and multiplies to zeros."""
    stack = np.zeros((2, 64, 32))  # 128 rows, 64 = 4096 / 64 cells allowed
    stack[0, np.arange(32), np.arange(32)] = 1.0
    stack[1, 32:, 5] = 2.0
    assert _row_counts(stack).max() == 1 and 64 * _row_counts(stack).sum() == stack.size
    ch = kept_as_cells(stack)
    assert ch._cells is not None and ch._gram[0].shape == (32,)
    _assert_close(np.diag(ch._gram[0]), gram(stack.reshape(-1, 32)))
    over = stack.copy()
    over[0, 40, 0] = 1.0
    assert kept_as_cells(over) is None
    sparse = np.zeros((2, 64, 32))
    sparse[0, 0, 0] = 1.0
    for r in range(128):  # sparse plus one more cell: row r's second when r = 0
        pair = sparse.copy()
        pair.reshape(-1, 32)[r, 1] = 1.0
        assert (kept_as_cells(pair) is None) == (r == 0)
    empty = kept_as_cells(np.zeros((3, 16, 16)))
    assert empty._cells is not None
    assert empty._gram[1] == 4.0
    np.testing.assert_array_equal(empty.stacked_product(np.ones((16, 2))), np.zeros((48, 2)))


def _shift_cells(n, value):
    """The (1, n, n) channel value * (cyclic shift), built from its cells."""
    return Channel._from_cells((1, n, n), (np.arange(n) + 1) % n, np.full(n, value))


@pytest.mark.parametrize(
    "value, preserving, nonincreasing", [(1.0, True, True), (0.5, False, True), (2.0, False, False)]
)
def test_validating_a_cell_channel_forms_no_square_matrix(value, preserving, nonincreasing):
    """A (1, 4096, 4096) cell channel is validated from its diagonal vector:
    the defect ||d - 1|| and the top eigenvalue max(d) need no 4096 x 4096
    matrix (128 MiB each), so validate's traced peak stays under 1 MiB."""
    ch = _shift_cells(4096, value)
    tracemalloc.start()
    try:
        report = validate(ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert (report.trace_preserving, report.trace_nonincreasing) == (preserving, nonincreasing)
    assert report.defect == 64 * abs(value**2 - 1)  # sqrt(4096) |d_i - 1|, exact in binary


_VALIDATE_DIM_16000 = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 3 * 2**29 if hard == resource.RLIM_INFINITY else min(3 * 2**29, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
import numpy as np
from oqec.channels import Channel, validate
n = 16000
ch = Channel._from_cells((1, n, n), (np.arange(n) + 1) % n, np.ones(n))
report = validate(ch)
print(report.trace_preserving, report.defect)
"""


def test_a_dim_16000_cell_channel_validates_in_one_and_a_half_gib():
    """A child process validates a (1, 16000, 16000) one-cell-per-row channel
    under a 1.5 GiB address-space cap, where one dense 16000 x 16000 float64
    matrix alone takes 2.0 GB. BLAS runs one thread there, so the cap
    measures the algorithm, not thread buffers."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oqec.__file__)))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", _VALIDATE_DIM_16000], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.split() == ["True", "0.0"]


@pytest.mark.parametrize("entry", [1e300, 1e300j, 1e160 + 1e160j])
def test_an_overflowing_cell_gives_no_gram(entry):
    """A huge finite entry in an indexed stack: the cell Gram overflows
    without a warning and the channel reads as trace increasing."""
    stack = np.zeros((2, 64, 64), dtype=complex)
    stack[0] = np.eye(64)
    stack[1, 5, 7] = entry
    ch = kept_as_cells(Channel(stack).kraus)
    assert ch._cells is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ch._gram == (None, np.inf)
        report = validate(ch)
    assert (report.trace_nonincreasing, report.defect) == (False, np.inf)


@pytest.mark.parametrize(
    "build",
    [lambda: get("bacon_shor_9").noise, lambda: weight_one_depolarizing(9, 0.003)],
    ids=["bit_flips", "depolarizing"],
)
def test_pauli_noise_at_dim_512_takes_the_cell_path_bit_for_bit(build):
    """One nonzero per row: each cell product is the dense product's only
    nonzero term, so the stacked product is bit-identical to BLAS, and the
    diagonal of the kept Gram vector agrees with the dense Gram matrix
    within 1e-13."""
    ch = build()
    cols, vals = ch._cells.cols, ch._cells.vals
    assert len(cols) == len(ch.kraus) * ch.dim_out and np.count_nonzero(vals) == len(vals)
    x = get("bacon_shor_9").dec.code_vectors()
    np.testing.assert_array_equal(ch.stacked_product(x), _dense_product(ch, x))
    assert ch._gram[0].shape == (ch.dim_in,)
    _assert_close(np.diag(ch._gram[0]), gram(ch.kraus.reshape(-1, ch.dim_in)))


def _restricted_flip_stack(n, p):
    """The stack of restricted_flip(n, p), written by index."""
    dim = 2**n
    x = np.arange(dim)
    stack = np.zeros((n + 1, dim, dim))
    stack[0, x, x] = np.sqrt(1 - n * p)
    for site in range(n):
        stack[1 + site, x ^ (1 << (n - 1 - site)), x] = np.sqrt(p)
    return stack


@pytest.mark.parametrize("n, p", [(6, 0.01), (6, 0.0), (6, 1 / 6), (5, 0.01), (3, 0.1), (1, 0.5)])
def test_restricted_flip_is_kept_as_its_cells_from_six_qubits_on(n, p):
    """restricted_flip(n, .) holds (n + 1) 2^n cells in a stack of
    (n + 1) 4^n: at n = 6, 64 nnz = size and it is kept as its cells, with
    no stack until kraus is read; below, it is the dense stack. Either way
    its stack and its cell index are bit-identical to the stack written by
    index and to the index kept from that stack's cells, zero rows (p = 0,
    n p = 1) included; dim_in, dim_out and n_kraus form no stack."""
    want = _restricted_flip_stack(n, p)
    ch = restricted_flip(n, p)
    assert (ch.n_kraus, ch.dim_out, ch.dim_in) == want.shape
    assert ("kraus" in vars(ch)) == (n < 6)
    if n >= 6:
        cols, vals = ch._cells.cols, ch._cells.vals
        twin = kept_as_cells(want)._cells
        assert cols.dtype == twin.cols.dtype and vals.dtype == twin.vals.dtype
        np.testing.assert_array_equal(cols, twin.cols)
        assert vals.tobytes() == twin.vals.tobytes()
    else:
        assert ch._cells is None
    assert ch.kraus.dtype == want.dtype and ch.kraus.tobytes() == want.tobytes()
    assert not ch.kraus.flags.writeable
    assert ch.kraus is ch.kraus  # formed once


def test_a_cell_channel_forms_its_stack_only_when_kraus_is_read():
    """Validation, the stacked product and the Kraus count of cell-built
    noise read its cells; kraus forms the stack on first access."""
    ch = weight_one_depolarizing(6, 0.01)
    x = np.ones((64, 3))
    assert validate(ch).trace_preserving
    out = ch.stacked_product(x)
    assert (ch.n_kraus, ch.dim_out, ch.dim_in) == (19, 64, 64)
    assert "kraus" not in vars(ch)
    np.testing.assert_array_equal(out, _dense_product(ch, x))
    assert "kraus" in vars(ch) and ch.kraus.shape == (19, 64, 64)
    with pytest.raises(AttributeError, match="no attribute 'krauss'"):
        ch.krauss


def test_the_cell_index_serves_pauli_noise_only():
    """The traffic the index is kept for: bacon_shor_9's bit flips and
    weight-one depolarizing noise at dim 512 are indexed; every catalog
    noise, a random channel and both recoveries synthesized for bacon_shor_9
    (whose decoders hold many cells per row) take BLAS."""
    entry = get("bacon_shor_9")
    assert entry.noise._cells is not None
    assert weight_one_depolarizing(9, 0.003)._cells is not None
    for other in catalog():
        assert other.noise._cells is None, other.name
    assert random_channel(128, 3, seed=2)._cells is None
    for synth in (synthesize_schmidt_recovery, synthesize_universal_recovery):
        assert synth(entry.dec, entry.noise).channel._cells is None, synth.__name__
