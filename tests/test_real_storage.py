"""Real data stays real: the storage dtype rule and the agreement of the real
and complex paths.

Channel and Decomposition store their operators as float64 when every
imaginary part is ±0.0 and as complex128 otherwise; every later array keeps
the dtype numpy's promotion gives it. Only ns_3qubit_collective, whose
collective rotations are complex, takes the complex path in the catalog.
"""

import tracemalloc

import numpy as np
import pytest

from oqec.channels import Channel
from oqec.codes import catalog, get
from oqec.conditions import check_condition_b, check_condition_c, check_condition_d, purify
from oqec.linalg import haar_unitary
from oqec.recovery import synthesize_schmidt_recovery, synthesize_universal_recovery
from oqec.spaces import Decomposition

NAMES = [e.name for e in catalog()] + ["bacon_shor_9"]
COMPLEX_NOISE = {"ns_3qubit_collective"}


def _verdicts(dec, ch):
    ps = purify(dec, ch)
    return check_condition_b(dec, ch), check_condition_c(ps), check_condition_d(ps)


@pytest.mark.parametrize("name", NAMES)
def test_every_array_is_float64_exactly_when_the_inputs_are_real(name):
    entry = get(name)
    want = np.complex128 if name in COMPLEX_NOISE else np.float64
    assert entry.dec.frame.dtype == np.float64  # every catalog code sector is real
    assert entry.dec.code_vectors().dtype == np.float64
    assert entry.noise.kraus.dtype == want
    ps = purify(entry.dec, entry.noise)
    assert ps.x.dtype == want
    for keep in ((0,), (1, 3), (0, 1, 3)):  # every marginal c and d read
        assert ps.marginal(keep).dtype == want, keep
    for rho in check_condition_c(ps).witnesses.values():
        assert rho.dtype == want
    assert check_condition_b(entry.dec, entry.noise).witnesses["b_blocks"].dtype == want


@pytest.mark.parametrize("synth", [synthesize_schmidt_recovery, synthesize_universal_recovery])
def test_recoveries_are_stored_as_float64_exactly_when_their_operators_are_real(synth):
    """Each synthesizer writes its stack in the storage dtype: complex only
    for the complex noise, and float64 for a code sector given with the
    phase i, whose complex factors multiply to real decoders."""
    for entry in catalog():
        if all(entry.expected.values()):
            want = np.complex128 if entry.name in COMPLEX_NOISE else np.float64
            assert synth(entry.dec, entry.noise).channel.kraus.dtype == want, entry.name
    entry = get("bit_flip_3")
    phased = Decomposition(2, 1, 6, frame=1j * entry.dec.frame)
    assert phased.frame.dtype == np.complex128
    assert synth(phased, entry.noise).channel.kraus.dtype == np.float64


def test_the_default_code_vectors_are_float64():
    assert Decomposition(2, 2, 3).code_vectors().dtype == np.float64


def test_complex_data_stays_complex():
    frame = haar_unitary(4, np.random.default_rng(3))
    assert Decomposition(2, 2, 0, frame=frame).frame.dtype == np.complex128
    assert Channel((frame,)).kraus.dtype == np.complex128
    # one nonzero imaginary part anywhere keeps the whole stack complex
    ops = np.zeros((3, 2, 2), dtype=np.complex128)
    ops[2, 1, 0] = 1e-300j
    assert Channel(ops).kraus.dtype == np.complex128


def _with_imag(real, imag):
    x = np.empty(real.shape, dtype=np.complex128)
    x.real, x.imag = real, imag
    return x


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_zero_imaginary_parts_build_bit_identical_float64_objects():
    """Signed zeros in the real parts survive, and ±0.0 imaginary parts of
    either sign are dropped, for the Kraus stack and for the frame."""
    rng = np.random.default_rng(5)
    kraus = -get("bit_flip_3").noise.kraus  # -0.0 wherever an operator is 0
    frame = -get("phase_flip_3").dec.frame
    for imag in (0.0, -0.0, np.copysign(0.0, rng.normal(size=kraus.shape))):
        built = Channel(_with_imag(kraus, imag)).kraus
        assert _bits(built) == _bits(Channel(kraus).kraus) == _bits(kraus)
    for imag in (0.0, -0.0, np.copysign(0.0, rng.normal(size=frame.shape))):
        built = Decomposition(2, 1, 6, frame=_with_imag(frame, imag)).frame
        assert _bits(built) == _bits(Decomposition(2, 1, 6, frame=frame).frame) == _bits(frame)


@pytest.mark.parametrize("name", NAMES)
def test_a_complex_remix_of_the_noise_gives_the_same_verdicts(name):
    """A Haar remix of the Kraus list is the same channel written with complex
    operators; the complex path must reach the real path's verdicts, with
    every residual within 1e-12."""
    entry = get(name)
    u = haar_unitary(len(entry.noise.kraus), np.random.default_rng(7))
    remixed = Channel(np.tensordot(u, entry.noise.kraus, axes=1))
    assert remixed.kraus.dtype == np.complex128
    for real, cplx in zip(_verdicts(entry.dec, entry.noise), _verdicts(entry.dec, remixed)):
        assert real.passed == cplx.passed == entry.expected[real.condition]
        assert abs(real.residual - cplx.residual) <= 1e-12, (real.condition, real.residual, cplx.residual)


def test_building_a_channel_from_complex_operators_forms_no_complex_stack():
    """The ten real-valued bacon_shor_9 operators, given as complex128, are
    stacked from their real parts directly: the construction peaks below 1.5x
    the float64 stack it keeps, where a complex stack alone would take 2x."""
    ops = [op.astype(np.complex128) for op in get("bacon_shor_9").noise.kraus]
    tracemalloc.start()
    try:
        ch = Channel(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ch.kraus.dtype == np.float64
    assert peak < 1.5 * ch.kraus.nbytes, (peak, ch.kraus.nbytes)
