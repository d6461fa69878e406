"""Kraus channels: algebra, constructors, and the Choi correspondence."""

import warnings

import numpy as np
import pytest

from oqec.channels import (
    PAULI_X,
    PAULI_Z,
    Channel,
    apply,
    bit_flip,
    choi,
    choi_distance,
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
from oqec.codes import get
from oqec.errors import DimensionError
from oqec.linalg import dag, haar_unitary, kron
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
    built = [Channel(tuple(ops)), Channel(list(ops)), Channel(source)]
    source[0, 0, 0] = 99.0  # the channel keeps its own copy
    for ch in built:
        np.testing.assert_array_equal(ch.kraus, ops)
        assert (ch.dim_in, ch.dim_out, len(ch.kraus)) == (2, 3, 2)
        for e, op in zip(ch.kraus, ops):
            np.testing.assert_array_equal(e, op)


@pytest.mark.parametrize("scale", [np.sqrt(0.5), 1.2])
@pytest.mark.parametrize("atols", [(1e-9, 10.0), (10.0, 1e-9)])
def test_validate_cache_does_not_fix_atol(scale, atols):
    """One channel validated at two tolerances, in either order, reports
    what a fresh channel reports at each."""
    ops = (scale * np.eye(4, dtype=complex),)
    ch = Channel(ops)
    for atol in atols:
        assert validate(ch, atol) == validate(Channel(ops), atol)
    assert validate(ch, 10.0).trace_preserving
    assert not validate(ch, 1e-9).trace_preserving


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
        with pytest.raises(ValueError, match="increases trace"):
            require_valid(Channel(ops), allow_trace_decreasing=True)


def test_validate_trace_preserving():
    rep = validate(depolarizing(3, 0.4))
    assert rep.trace_preserving
    assert rep.trace_nonincreasing
    assert rep.defect < 1e-12


def test_require_valid_gates_trace_decreasing():
    half = Channel((0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        require_valid(half)
    rep = require_valid(half, allow_trace_decreasing=True)
    assert not rep.trace_preserving
    assert rep.trace_nonincreasing


def test_require_valid_always_rejects_trace_increasing():
    grow = Channel((1.5 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        require_valid(grow, allow_trace_decreasing=True)


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
