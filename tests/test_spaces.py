"""Subsystem decomposition V = (A tensor B) + C and state embedding."""

import numpy as np
import pytest

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


def test_frame_is_read_only():
    dec = Decomposition(2, 1, 0, frame=np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        dec.frame[0, 0] = 5.0


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

