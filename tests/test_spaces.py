"""Subsystem decomposition V = (A tensor B) + C and state embedding."""

import numpy as np
import pytest

from oqec.channels import random_channel
from oqec.conditions import check_condition_b, check_condition_c, check_condition_d, purify
from oqec.errors import DimensionError, NotAStateError
from oqec.linalg import dag, haar_unitary, kron, partial_trace
from oqec.spaces import Decomposition, embed_state, projector_p
from random_states import random_density_matrix


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_dims_add_up():
    dec = Decomposition(2, 3, 4)
    assert dec.dim_v == 10
    assert dec.dim_code == 6


def test_default_frame_is_canonical_block():
    dec = Decomposition(2, 2, 1)
    code = dec.code_vectors()
    np.testing.assert_allclose(code, np.eye(5)[:, :4], atol=1e-15)


def test_code_vectors_orthonormal_under_frame():
    rng = _rng(5)
    f = haar_unitary(7, rng)
    dec = Decomposition(2, 3, 1, frame=f)
    code = dec.code_vectors()
    np.testing.assert_allclose(dag(code) @ code, np.eye(6), atol=1e-12)
    np.testing.assert_allclose(code, f[:, :6], atol=1e-15)


def test_rejects_bad_dimensions():
    with pytest.raises(DimensionError):
        Decomposition(0, 2, 1)
    with pytest.raises(DimensionError):
        Decomposition(2, 0, 1)
    with pytest.raises(DimensionError):
        Decomposition(2, 2, -1)


def test_rejects_nonunitary_frame():
    with pytest.raises(DimensionError):
        Decomposition(2, 2, 0, frame=np.ones((4, 4)))
    with pytest.raises(DimensionError):
        Decomposition(2, 2, 0, frame=np.eye(5))
    huge = np.eye(4, dtype=complex)
    huge[0, 0] = 1e300  # finite, but f† f overflows
    with pytest.raises(DimensionError):
        Decomposition(2, 2, 0, frame=huge)


def test_square_frame_and_its_code_columns_are_one_decomposition():
    """A unitary frame keeps only its first dim_code columns: the code
    vectors are bit-identical and b/c/d read the same residuals."""
    f = haar_unitary(7, _rng(21))
    square, code = Decomposition(2, 2, 3, frame=f), Decomposition(2, 2, 3, frame=f[:, :4])
    assert square.frame.shape == (7, 4)
    np.testing.assert_array_equal(square.code_vectors(), code.code_vectors())
    np.testing.assert_array_equal(square.code_vectors(), f[:, :4])
    noise = random_channel(7, 3, seed=22)
    residuals = []
    for dec in (square, code):
        ps = purify(dec, noise)
        residuals.append([check_condition_b(dec, noise).residual, check_condition_c(ps).residual,
                          check_condition_d(ps).residual])
    assert residuals[0] == residuals[1]


@pytest.mark.parametrize(
    "cols",
    [
        lambda f: f[:, :3],  # dim_code - 1 columns
        lambda f: np.hstack([f, f[:, :1]]),  # dim_v + 1 columns
        lambda f: np.hstack([f[:, :4], f[:, :1]]),  # orthonormal code columns, extra column repeats one
    ],
    ids=["dim_code - 1 columns", "dim_v + 1 columns", "extra column not orthonormal"],
)
def test_rejects_frame_that_is_not_a_code_isometry(cols):
    with pytest.raises(DimensionError):
        Decomposition(2, 2, 3, frame=cols(haar_unitary(7, _rng(23))))


def test_frame_is_read_only():
    dec = Decomposition(2, 1, 0, frame=np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        dec.frame[0, 0] = 5.0


@pytest.mark.parametrize("frame", [None, haar_unitary(7, _rng(29))], ids=["canonical", "framed"])
def test_code_vectors_are_one_read_only_array(frame):
    """code_vectors() is formed once: every call gives the same array, a
    framed decomposition's being its kept frame, and writing into it raises."""
    dec = Decomposition(2, 3, 1, frame=frame)
    code = dec.code_vectors()
    assert dec.code_vectors() is code and not code.flags.writeable
    assert frame is None or code is dec.frame
    with pytest.raises(ValueError):
        code[0, 0] = 5.0
    np.testing.assert_array_equal(code, np.eye(7)[:, :6] if frame is None else frame[:, :6])


def test_projector_idempotent_with_code_rank():
    dec = Decomposition(2, 2, 3, frame=haar_unitary(7, _rng(9)))
    p = projector_p(dec)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(dag(p), p, atol=1e-14)
    assert abs(np.trace(p).real - 4.0) < 1e-12


def test_embed_state_canonical_frame_is_kron_block():
    rng = _rng(13)
    rho = random_density_matrix(2, rng)
    sig = random_density_matrix(2, rng)
    dec = Decomposition(2, 2, 1)
    out = embed_state(dec, rho, sig)
    expected = np.zeros((5, 5), dtype=complex)
    expected[:4, :4] = kron(rho, sig)
    np.testing.assert_allclose(out, expected, atol=1e-13)


def test_embed_extract_round_trip():
    rng = _rng(17)
    dec = Decomposition(3, 2, 2, frame=haar_unitary(8, rng))
    rho = random_density_matrix(3, rng)
    sig = random_density_matrix(2, rng)
    code = dec.code_vectors()
    block = dag(code) @ embed_state(dec, rho, sig) @ code
    np.testing.assert_allclose(partial_trace(block, [3, 2], keep=(0,)), rho, atol=1e-12)
    np.testing.assert_allclose(partial_trace(block, [3, 2], keep=(1,)), sig, atol=1e-12)


def test_embed_state_validates_inputs():
    dec = Decomposition(2, 2, 0)
    good = np.eye(2) / 2
    with pytest.raises(NotAStateError):
        embed_state(dec, np.eye(2), good)
    with pytest.raises(DimensionError):
        embed_state(dec, np.eye(3) / 3, good)



def test_a_sparse_frame_is_kept_as_its_cells_built_once(monkeypatch):
    """bacon_shor_9's frame holds 128 nonzeros of 16 384, at most one per
    row: its store is built by one Cells.build call on first use and kept,
    and its dense form is the frame. A dense frame keeps no store, and its
    nonzeros are counted before any build."""
    import oqec.linalg
    from oqec.codes import get

    dec = get("bacon_shor_9").dec
    builds, original = [], oqec.linalg.Cells.build.__func__
    monkeypatch.setattr(
        oqec.linalg.Cells, "build", classmethod(lambda cls, *a: builds.append(a[0]) or original(cls, *a))
    )
    store = dec._cells
    assert store is dec._cells and builds == [(512, 32)]
    assert store.cols.shape == (512, 1) and np.count_nonzero(store.vals) == 128
    np.testing.assert_array_equal(store.dense(), dec.frame)
    assert Decomposition(2, 2, 3, frame=haar_unitary(7, _rng(5)))._cells is None
    assert builds == [(512, 32)]
