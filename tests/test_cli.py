"""Command line surface: exit codes, file artifacts, and diagnostics."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oqec
from oqec.channels import Channel, depolarizing, random_channel
from oqec.cli import main
from oqec.codes import get
from oqec.conditions import check_condition_b, check_condition_c, check_condition_d, purify
from oqec.linalg import dag, haar_unitary, kron
from oqec.recovery import verify_recovery
from oqec.serialize import (
    channel_from_json,
    channel_to_json,
    decomposition_to_json,
    dump_json_file,
    load_json_file,
)
from oqec.spaces import Decomposition


@pytest.fixture
def exported(tmp_path):
    assert main(["codes", "export", "bit_flip_3", str(tmp_path)]) == 0
    dec = str(tmp_path / "bit_flip_3.decomposition.json")
    chan = str(tmp_path / "bit_flip_3.noise.json")
    return dec, chan


@pytest.fixture
def exported_bad(tmp_path):
    assert main(["codes", "export", "bitflip_3_vs_z", str(tmp_path)]) == 0
    dec = str(tmp_path / "bitflip_3_vs_z.decomposition.json")
    chan = str(tmp_path / "bitflip_3_vs_z.noise.json")
    return dec, chan


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_check_all_passes_on_fixture(exported, capsys):
    dec, chan = exported
    assert main(["check", dec, chan, "--condition", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    for label in ("condition b", "condition c", "condition d"):
        assert label in out


def test_check_single_condition_fails_on_bad_code(exported_bad, capsys):
    dec, chan = exported_bad
    assert main(["check", dec, chan, "--condition", "b"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_json_report(exported, capsys):
    dec, chan = exported
    assert main(["check", dec, chan, "--condition", "d", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["tool"] == "oqec"
    assert payload["conditions"][0]["condition"] == "d"
    assert payload["conditions"][0]["passed"] is True


def test_check_writes_report_file(exported, tmp_path):
    dec, chan = exported
    out = str(tmp_path / "report.json")
    assert main(["check", dec, chan, "--out", out]) == 0
    payload = load_json_file(out)
    assert len(payload["conditions"]) == 3


def test_check_dim_mismatch_is_input_error(exported, tmp_path, capsys):
    dec, _ = exported
    other = str(tmp_path / "small.json")
    dump_json_file(other, channel_to_json(depolarizing(2, 0.5)))
    assert main(["check", dec, other]) == 2
    assert "dim" in capsys.readouterr().err


def test_check_malformed_file_names_field(exported, tmp_path, capsys):
    dec, _ = exported
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_in": 8, "kraus": []}')
    assert main(["check", dec, str(bad)]) == 2
    assert "dim_out" in capsys.readouterr().err


def test_recover_writes_verifiable_channel(exported, tmp_path):
    dec, chan = exported
    out = str(tmp_path / "rec.json")
    assert main(["recover", dec, chan, "--method", "universal", "--out", out]) == 0
    payload = load_json_file(out)
    rec = channel_from_json(payload)
    entry = get("bit_flip_3")
    rep = verify_recovery(entry.dec, entry.noise, rec, trials=10, seed=0)
    assert rep.max_infidelity < 1e-10
    meta = payload["metadata"]
    assert meta["method"] == "universal"
    assert meta["verification"]["max_infidelity"] < 1e-10


def test_recover_uncorrectable_exits_one(exported_bad, tmp_path, capsys):
    dec, chan = exported_bad
    out = str(tmp_path / "rec.json")
    assert main(["recover", dec, chan, "--out", out]) == 1
    assert "not correctable" in capsys.readouterr().err


def test_factorize_product_channel(tmp_path):
    dec_path = str(tmp_path / "dec.json")
    chan_path = str(tmp_path / "chan.json")
    dump_json_file(dec_path, decomposition_to_json(Decomposition(2, 2, 0)))
    ch = Channel(tuple(kron(np.eye(2), k) for k in depolarizing(2, 0.3).kraus))
    dump_json_file(chan_path, channel_to_json(ch))
    outdir = tmp_path / "fac"
    outdir.mkdir()
    assert main(["factorize", dec_path, chan_path, "--out", str(outdir)]) == 0
    u = load_json_file(str(outdir / "factor_unitary.json"))
    nb = channel_from_json(load_json_file(str(outdir / "factor_channel_b.json")))
    assert nb.dim_in == 2
    assert u["metadata"]["residual"] < 1e-10


def test_factorize_nonzero_dim_c_is_input_error(exported, capsys):
    dec, chan = exported
    assert main(["factorize", dec, chan]) == 2
    assert "dim_c" in capsys.readouterr().err


def test_dpi_monotone_chain(exported, tmp_path, capsys):
    dec, chan = exported
    dep = str(tmp_path / "dep.json")
    dump_json_file(dep, channel_to_json(depolarizing(8, 0.25)))
    assert main(["dpi", dec, dep, dep]) == 0
    out = capsys.readouterr().out
    assert "input" in out
    assert "monotone" in out


def test_dpi_dimension_mismatch(exported, tmp_path, capsys):
    dec, _ = exported
    dep = str(tmp_path / "dep2.json")
    dump_json_file(dep, channel_to_json(depolarizing(2, 0.25)))
    assert main(["dpi", dec, dep]) == 2
    assert "dim" in capsys.readouterr().err


def test_codes_list_names_fixtures(capsys):
    assert main(["codes", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("bit_flip_3", "phase_flip_3", "bitflip_3_vs_z"):
        assert name in out
    assert "bacon_shor_9" not in out


def test_codes_list_extended(capsys):
    assert main(["codes", "list", "--extended"]) == 0
    assert "bacon_shor_9" in capsys.readouterr().out


def test_codes_export_unknown_name(tmp_path, capsys):
    assert main(["codes", "export", "nope", str(tmp_path)]) == 2
    assert "unknown" in capsys.readouterr().err


def test_missing_file_is_input_error(exported, capsys):
    dec, _ = exported
    assert main(["check", dec, "/nonexistent/chan.json"]) == 2
    assert capsys.readouterr().err != ""


def test_tolerance_env_override(exported_bad, monkeypatch):
    dec, chan = exported_bad
    monkeypatch.setenv("OQEC_TOL", "2.0")
    assert main(["check", dec, chan, "--condition", "b"]) == 0
    assert main(["check", dec, chan, "--condition", "b", "--tol", "1e-9"]) == 1


def test_rejects_nonpositive_tolerance(exported, capsys):
    dec, chan = exported
    assert main(["check", dec, chan, "--tol", "-1"]) == 2
    assert "tolerance" in capsys.readouterr().err


def _correctable_dim64(seed=7):
    """dim_v = 64 instance: 1_A tensor N_B on the code block, identity on C,
    conjugated by a random frame."""
    rng = np.random.default_rng(seed)
    dec = Decomposition(2, 4, 56, frame=haar_unitary(64, rng))
    kraus = []
    for m, nk in enumerate(random_channel(4, 3, seed=seed).kraus):
        g = np.zeros((64, 64), dtype=np.complex128)
        g[:8, :8] = kron(np.eye(2), nk)
        if m == 0:
            g[8:, 8:] = np.eye(56)
        kraus.append(dec.frame @ g @ dag(dec.frame))
    return dec, Channel(tuple(kraus))


def test_check_round_trip_matches_library(tmp_path, capsys):
    dec, ch = _correctable_dim64()
    dec_path, chan_path = tmp_path / "dec.json", tmp_path / "chan.json"
    dump_json_file(str(dec_path), decomposition_to_json(dec))
    dump_json_file(str(chan_path), channel_to_json(ch))
    for path in (dec_path, chan_path):
        assert path.read_text().count("\n") == 1  # compact: only the final newline
    assert main(["check", str(dec_path), str(chan_path), "--condition", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ps = purify(dec, ch)
    expected = [check_condition_b(dec, ch), check_condition_c(ps), check_condition_d(ps)]
    assert [c["condition"] for c in payload["conditions"]] == ["b", "c", "d"]
    assert [c["residual"] for c in payload["conditions"]] == [r.residual for r in expected]
    assert all(c["passed"] for c in payload["conditions"])


@pytest.mark.parametrize(
    "token, field",
    [("NaN", "channel:"), ("1e999", "channel.kraus[0][0][0]")],
    ids=["NaN token", "overflowing literal"],
)
def test_check_rejects_non_finite_channel(exported, tmp_path, capsys, token, field):
    dec, chan = exported
    obj = load_json_file(chan)
    obj["kraus"][0][0][0] = ["RE", 0.0]
    bad = tmp_path / "nonfinite.json"
    dump_json_file(str(bad), obj)
    bad.write_text(bad.read_text().replace('"RE"', token))
    assert main(["check", dec, str(bad)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_check_rejects_overflowing_kraus_entry(exported, tmp_path):
    """1e300 is finite and parses, but its Gram matrix overflows: exit 2
    naming trace increase, with no numpy warning on stderr."""
    dec, chan = exported
    obj = load_json_file(chan)
    obj["kraus"][0][0][0] = [1e300, 0.0]
    bad = tmp_path / "huge.json"
    dump_json_file(str(bad), obj)
    src = os.path.dirname(os.path.dirname(os.path.abspath(oqec.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "oqec", "check", dec, str(bad), "--condition", "all"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "increases trace" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr
