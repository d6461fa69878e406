"""Kraus channels: algebra, constructors, and the Choi correspondence."""

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
from oqec.errors import DimensionError
from oqec.linalg import dag, haar_unitary, kron, random_density_matrix


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_channel_validates_kraus_shapes():
    with pytest.raises(DimensionError):
        Channel(())
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


def test_collective_unitary_validates():
    ch = collective_unitary(2, [(0.5, np.eye(2)), (0.5, PAULI_Z)])
    assert validate(ch).trace_preserving
    assert ch.dim_in == 4
    with pytest.raises(ValueError):
        collective_unitary(2, [(0.7, np.eye(2)), (0.7, PAULI_Z)])  # weights sum > 1
    with pytest.raises(ValueError):
        collective_unitary(2, [(1.0, np.ones((2, 2)))])  # not unitary


def test_random_channel_seeded_and_trace_preserving():
    a = random_channel(4, 3, seed=21)
    b = random_channel(4, 3, seed=21)
    c = random_channel(4, 3, seed=22)
    for x, y in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(x, y)
    assert choi_distance(a, c) > 1e-3
    assert validate(a).trace_preserving
    assert len(a.kraus) == 3
