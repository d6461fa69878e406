"""The near-boundary tier: noise that is correctable only within a
tolerance, from tests/approximate_codes.py.

The amplitude-damping code's residuals follow their known orders in the
damping rate gamma; noise that passes b at a loose tol but whose kept
Schmidt families do not fit in V is refused as not correctable (exit 1),
not as an input error; and at dim_b = 1 the B-marginal drift reads only
the output's weight outside the code.
"""

import numpy as np
import pytest

from oqec.channels import identity
from oqec.cli import main
from oqec.codes import get
from oqec.conditions import check_condition_b, check_condition_c, check_condition_d
from oqec.errors import NotCorrectableError
from oqec.recovery import synthesize_schmidt_recovery, synthesize_universal_recovery, verify_recovery
from oqec.serialize import channel_to_json, decomposition_to_json, dump_json_file

from approximate_codes import amplitude_damping, amplitude_damping_code, z_leak

GAMMAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
SYNTHESIZERS = [synthesize_schmidt_recovery, synthesize_universal_recovery]


def test_amplitude_damping_code_residuals_follow_their_orders_in_gamma():
    """Over gamma = 1e-2 ... 1e-6, b / gamma is sqrt 2 and c / gamma is
    1 / sqrt 2 within 1 % (measured 1.4005 to 1.41421 and 0.7002 to
    0.70711), residual_b = dim_a dim_b norm_in residual_c exactly, and
    d / (gamma^2 log2(1/gamma)) lies in [1.0, 1.4] (1.10 to 1.33)."""
    dec = amplitude_damping_code()
    assert (dec.dim_a, dec.dim_b, dec.dim_c) == (2, 1, 14)
    for gamma in GAMMAS:
        ch = amplitude_damping(4, gamma)
        assert ch.n_kraus == 16
        rb = check_condition_b(dec, ch)
        ps = rb.witnesses["state"]
        rc, rd = check_condition_c(ps), check_condition_d(ps)
        assert rb.residual / gamma == pytest.approx(2**0.5, rel=1e-2), gamma
        assert rc.residual / gamma == pytest.approx(2**-0.5, rel=1e-2), gamma
        assert rb.residual == dec.dim_a * dec.dim_b * ps.norm_in * rc.residual, gamma
        assert 1.0 <= rd.residual / (gamma**2 * np.log2(1 / gamma)) <= 1.4, gamma


def _loose_inputs():
    """(id, decomposition, noise, tol, kept rank, columns, dim_v): noise
    that passes b at tol whose kept Schmidt families need more columns
    than V holds."""
    return [
        pytest.param(*z_leak(1e-3), 1e-2, 5, 10, 8, id="bit_flip_3+z_leak_1e-3"),
        pytest.param(amplitude_damping_code(), amplitude_damping(4, 1e-4), 1e-3, 11, 22, 16,
                     id="amplitude_damping_1e-4"),
    ]


@pytest.mark.parametrize("synth", SYNTHESIZERS)
@pytest.mark.parametrize("dec, ch, tol, rank, cols, dim_v", _loose_inputs())
def test_families_that_do_not_fit_in_v_are_not_correctable(dec, ch, tol, rank, cols, dim_v, synth):
    """b passes at tol, yet the kept families cannot be completed in V:
    both synthesizers raise NotCorrectableError naming the kept rank, the
    columns needed and dim_v, with b's residual."""
    b = check_condition_b(dec, ch, tol)
    assert b.passed
    with pytest.raises(NotCorrectableError) as err:
        synth(dec, ch, tol=tol)
    message = str(err.value)
    assert "not correctable" in message
    assert f"kept Schmidt rank {rank} needs {cols} columns in dim_v={dim_v}" in message
    assert err.value.residual == b.residual


@pytest.mark.parametrize("method", ["schmidt", "universal"])
@pytest.mark.parametrize("dec, ch, tol, rank, cols, dim_v", _loose_inputs())
def test_recover_exits_1_where_check_passes(tmp_path, capsys, dec, ch, tol, rank, cols, dim_v, method):
    """check --tol passes b, c and d (exit 0); recover --tol at the same
    tol exits 1, not 2, says why on stderr and writes no file."""
    dec_path, chan_path, out = (str(tmp_path / name) for name in ("dec.json", "noise.json", "rec.json"))
    dump_json_file(dec_path, decomposition_to_json(dec))
    dump_json_file(chan_path, channel_to_json(ch))
    assert main(["check", dec_path, chan_path, "--tol", str(tol)]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    assert main(["recover", dec_path, chan_path, "--method", method, "--tol", str(tol), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: noise is not correctable") and f"dim_v={dim_v}" in err, err
    assert not (tmp_path / "rec.json").exists()


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
def test_drift_is_zero_at_dim_b_1_when_nothing_leaks(eps):
    """bit_flip_3's own Schmidt recovery under its noise plus eps Z_0: Z_0
    keeps the code, so no output leaves it and, at dim_b = 1, every
    renormalized B marginal is [1]. The drift reads 0.0, where the dim_b > 1
    bound would read 8e-3, 8e-4 and 8e-6, and the infidelity is eps^2."""
    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    rep = verify_recovery(*z_leak(eps), rec)
    assert rep.support_leak == 0.0
    assert rep.b_marginal_drift == 0.0
    assert rep.max_infidelity == pytest.approx(eps**2, rel=1e-6)


@pytest.mark.parametrize("name, recovery, leak", [
    ("phase_flip_3", lambda e: synthesize_schmidt_recovery(e.dec, e.noise), 0.0),
    ("phase_flip_3", lambda e: synthesize_universal_recovery(e.dec, e.noise), 0.0),
    ("bit_flip_3", lambda e: identity(e.dec.dim_v), 0.3),
], ids=["phase_flip_3-schmidt", "phase_flip_3-universal", "bit_flip_3-identity"])
def test_drift_at_dim_b_1_is_the_leak_over_t_min(name, recovery, leak):
    """At dim_b = 1 the drift is support_leak / t_min, t_min being 1 up to
    rounding here: phase_flip_3's own recoveries leak a rounding's worth
    (the dim_b > 1 bound would read 2.0e-15), and the identity
    recovery on bit_flip_3 leaves out of the code the 0.3 that the flips
    move there, which each B marginal, divided by the whole output trace,
    loses."""
    entry = get(name)
    rep = verify_recovery(entry.dec, entry.noise, recovery(entry))
    assert rep.support_leak == pytest.approx(leak, rel=1e-12, abs=1e-15)
    assert rep.b_marginal_drift == pytest.approx(rep.support_leak, rel=1e-12, abs=0)
