"""Command line surface: exit codes, file artifacts, and diagnostics."""

import json
import os
import resource
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
    matrix_from_json,
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
    assert set(payload["meta"]) == {"tool", "version", "tolerance"}
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
    rep = verify_recovery(entry.dec, entry.noise, rec)
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


def test_dpi_tol_is_the_monotonicity_slack(exported, capsys):
    """--tol bounds how far a step may rise; the state checks keep their
    default atol, so a tolerance below rounding does not reject the input."""
    dec, chan = exported
    assert main(["dpi", dec, chan, chan, "--tol", "1e-17"]) == 0
    assert "monotone within 1e-17: yes" in capsys.readouterr().out


def test_dpi_json_prints_the_out_payload(exported, tmp_path, capsys):
    dec, chan = exported
    out = str(tmp_path / "dpi.json")
    assert main(["dpi", dec, chan, chan, "--json", "--out", out]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == load_json_file(out)
    assert set(printed) == {"meta", "coherent_information", "monotone"}
    assert len(printed["coherent_information"]) == 3


def test_recover_json_prints_the_file_metadata(exported, tmp_path, capsys):
    dec, chan = exported
    out = str(tmp_path / "rec.json")
    assert main(["recover", dec, chan, "--json", "--out", out]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == load_json_file(out)["metadata"]
    assert printed["method"] == "schmidt"
    assert max(printed["verification"].values()) < 1e-10


def test_factorize_json_prints_the_file_metadata(tmp_path, capsys):
    dec_path = str(tmp_path / "dec.json")
    chan_path = str(tmp_path / "chan.json")
    dump_json_file(dec_path, decomposition_to_json(Decomposition(2, 2, 0)))
    ch = Channel(tuple(kron(np.eye(2), k) for k in depolarizing(2, 0.3).kraus))
    dump_json_file(chan_path, channel_to_json(ch))
    outdir = tmp_path / "fac"
    assert main(["factorize", dec_path, chan_path, "--json", "--out", str(outdir)]) == 0
    printed = json.loads(capsys.readouterr().out)
    for name, kind in (("factor_unitary.json", "unitary"), ("factor_channel_b.json", "b_factor")):
        assert {**printed, "kind": kind} == load_json_file(str(outdir / name))["metadata"]
    assert printed["residual"] < 1e-10


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


@pytest.mark.parametrize(
    "flag, env, name",
    [
        (["--tol", "-1"], None, "--tol"),
        (["--tol", "inf"], None, "--tol"),
        (["--tol", "nan"], None, "--tol"),
        ([], "1e400", "OQEC_TOL"),
    ],
    ids=["negative", "inf", "nan", "env-overflow"],
)
@pytest.mark.parametrize("verb", ["check", "recover"])
def test_rejects_nonpositive_tolerance(exported, capsys, monkeypatch, tmp_path, flag, env, name, verb):
    """A tolerance that is not finite and positive is an input error that
    names its source; inf would pass every condition."""
    dec, chan = exported
    if env is not None:
        monkeypatch.setenv("OQEC_TOL", env)
    assert main([verb, dec, chan, *flag, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "tolerance" in err and name in err


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


def _dense_json(obj):
    """A matrix from either wire form, rewritten in the dense form, which
    still loads; the writer picks the sparse form for mostly-zero matrices."""
    m = matrix_from_json(obj)
    return np.stack([m.real, m.imag], -1).tolist()


def _poke_dense(obj, value):
    obj["kraus"][0] = _dense_json(obj["kraus"][0])
    obj["kraus"][0][0][0] = [value, 0.0]


def _poke_sparse(obj, value):
    obj["kraus"][0]["re"][0] = value


@pytest.mark.parametrize(
    "token, field, poke",
    [
        ("NaN", "channel:", _poke_dense),
        ("1e999", "channel.kraus[0][0][0]", _poke_dense),
        ("NaN", "channel:", _poke_sparse),
        ("1e999", "channel.kraus[0].re[0]", _poke_sparse),
    ],
    ids=["NaN token", "overflowing literal", "NaN token in sparse re", "overflowing literal in sparse re"],
)
def test_check_rejects_non_finite_channel(exported, tmp_path, capsys, token, field, poke):
    dec, chan = exported
    obj = load_json_file(chan)
    poke(obj, "RE")
    bad = tmp_path / "nonfinite.json"
    dump_json_file(str(bad), obj)
    bad.write_text(bad.read_text().replace('"RE"', token))
    assert main(["check", dec, str(bad)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def _oqec_subprocess(*argv, address_space=None):
    """Run the CLI in a child process, so that numpy warnings reach stderr.

    With address_space (bytes), the child runs under that RLIMIT_AS with one
    BLAS thread, so that the cap measures the algorithm, not thread buffers.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(oqec.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = None
    if address_space is not None:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

        def limit():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = address_space if hard == resource.RLIM_INFINITY else min(address_space, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    return subprocess.run(
        [sys.executable, "-m", "oqec", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit,
    )


def test_check_rejects_overflowing_kraus_entry(exported, tmp_path):
    """1e300 is finite and parses, but its Gram matrix overflows: exit 2
    naming trace increase, with no numpy warning on stderr."""
    dec, chan = exported
    obj = load_json_file(chan)
    _poke_dense(obj, 1e300)
    bad = tmp_path / "huge.json"
    dump_json_file(str(bad), obj)
    proc = _oqec_subprocess("check", dec, str(bad), "--condition", "all")
    assert proc.returncode == 2
    assert "increases trace" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_rejects_overflowing_sparse_kraus_entry(exported, tmp_path):
    """The same overflow as above, placed in a sparse operator's re array."""
    dec, chan = exported
    obj = load_json_file(chan)
    _poke_sparse(obj, 1e300)
    bad = tmp_path / "huge.json"
    dump_json_file(str(bad), obj)
    proc = _oqec_subprocess("check", dec, str(bad), "--condition", "all")
    assert proc.returncode == 2
    assert "increases trace" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_rejects_overflowing_frame_entry(tmp_path):
    """A frame entry of 1e300 overflows f† f; the frame is rejected as not
    unitary (exit 2) before anything reaches LAPACK, with no numpy warning."""
    assert main(["codes", "export", "ns_3qubit_collective", str(tmp_path)]) == 0
    dec = tmp_path / "ns_3qubit_collective.decomposition.json"
    obj = load_json_file(str(dec))
    obj["frame"] = _dense_json(obj["frame"])
    obj["frame"][0][0] = [1e300, 0.0]
    dump_json_file(str(dec), obj)
    proc = _oqec_subprocess("check", str(dec), str(tmp_path / "ns_3qubit_collective.noise.json"))
    assert proc.returncode == 2
    assert "frame is not unitary" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_rejects_overflowing_sparse_frame_entry(tmp_path):
    """The same overflow as above, placed in the sparse frame's re array."""
    assert main(["codes", "export", "ns_3qubit_collective", str(tmp_path)]) == 0
    dec = tmp_path / "ns_3qubit_collective.decomposition.json"
    obj = load_json_file(str(dec))
    obj["frame"]["re"][0] = 1e300
    dump_json_file(str(dec), obj)
    proc = _oqec_subprocess("check", str(dec), str(tmp_path / "ns_3qubit_collective.noise.json"))
    assert proc.returncode == 2
    assert "frame is not unitary" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_rejects_sparse_shape_too_large_to_allocate(exported, tmp_path, capsys):
    """Declared dims and shape agree, but numpy cannot allocate the matrix."""
    dec, _ = exported
    n = 2**31
    sparse = {"shape": [n, n], "rows": [0], "cols": [0], "re": [1.0], "im": [0.0]}
    bad = tmp_path / "huge_shape.json"
    dump_json_file(str(bad), {"dim_in": n, "dim_out": n, "kraus": [sparse]})
    assert main(["check", dec, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "channel.kraus[0].shape" in err
    assert "Traceback" not in err


def test_bacon_shor_9_end_to_end_through_the_cli(tmp_path):
    """codes export -> check -> recover (both methods) -> dpi through noise
    and the Schmidt recovery on the dim_v 512 code, each step a child process
    under a 1.5 GiB address-space cap; factorize, defined for dim_c = 0 only,
    is an input error on it."""
    cap = 3 * 2**29
    steps = [("codes", "export", "bacon_shor_9", str(tmp_path))]
    dec = str(tmp_path / "bacon_shor_9.decomposition.json")
    chan = str(tmp_path / "bacon_shor_9.noise.json")
    steps.append(("check", dec, chan, "--condition", "all"))
    for method in ("schmidt", "universal"):
        steps.append(("recover", dec, chan, "--method", method, "--out", str(tmp_path / f"{method}.json")))
    steps.append(("dpi", dec, chan, str(tmp_path / "schmidt.json"), "--out", str(tmp_path / "dpi.json")))
    for argv in steps:
        proc = _oqec_subprocess(*argv, address_space=cap)
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
    for method in ("schmidt", "universal"):
        figures = load_json_file(str(tmp_path / f"{method}.json"))["metadata"]["verification"]
        assert set(figures) == {"max_infidelity", "b_marginal_drift", "support_leak"}
        assert max(figures.values()) <= 1e-10, (method, figures)
    values = load_json_file(str(tmp_path / "dpi.json"))["coherent_information"]
    assert len(values) == 3
    assert max(abs(v - 1.0) for v in values) <= 1e-9, values
    proc = _oqec_subprocess("factorize", dec, chan, "--out", str(tmp_path / "fac"), address_space=cap)
    assert proc.returncode == 2 and "dim_c" in proc.stderr, proc.stderr[-500:]


def test_seed_and_trials_flags_are_gone(exported, tmp_path, capsys):
    """No verb samples, so none takes --trials or a visible --seed; recover
    still parses --seed and ignores it."""
    dec, chan = exported
    for argv in (["check", dec, chan], ["factorize", dec, chan], ["dpi", dec, chan]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["recover", dec, chan, "--trials", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    out = str(tmp_path / "rec.json")
    assert main(["recover", dec, chan, "--seed", "3", "--out", out]) == 0
    assert "seed" not in load_json_file(out)["metadata"]
    assert "trials" not in load_json_file(out)["metadata"]["verification"]
    with pytest.raises(SystemExit):
        main(["recover", "--help"])
    assert "--seed" not in capsys.readouterr().out
