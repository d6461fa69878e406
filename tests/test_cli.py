"""Command line surface: exit codes, file artifacts, and diagnostics."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oqec
from oqec.channels import PAULI_Z, Channel, depolarizing, random_channel
from oqec.cli import main
from oqec.codes import catalog, get
from oqec.conditions import check_condition_b, check_condition_c, check_condition_d, purify
from oqec.linalg import complete_basis, dag, haar_unitary, kron
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
from listed import compact_text
from pauli_noise import weight_one_depolarizing


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


def test_check_json_entropy_of_a_pure_marginal_is_positive_zero(tmp_path, capsys):
    """dfs_2qubit_dephasing leaves rho'_{R_B E} pure: the report writes its
    entropy as 0.0, not -0.0."""
    assert main(["codes", "export", "dfs_2qubit_dephasing", str(tmp_path)]) == 0
    capsys.readouterr()
    dec = str(tmp_path / "dfs_2qubit_dephasing.decomposition.json")
    chan = str(tmp_path / "dfs_2qubit_dephasing.noise.json")
    assert main(["check", dec, chan, "--condition", "d", "--json"]) == 0
    out = capsys.readouterr().out
    assert '"entropy_rbe": 0.0' in out
    assert "-0.0" not in out
    witnesses = json.loads(out)["conditions"][0]["witnesses"]
    assert math.copysign(1.0, witnesses["entropy_rbe"]) == 1.0


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


def test_a_text_mode_check_reduces_no_report_to_json(exported, monkeypatch, capsys):
    """Without --json or --out, check builds no JSON payload: it never calls
    condition_report_to_json, and prints one line per condition from the
    reports' verdicts, residuals and tolerances, as it always has."""
    dec, chan = exported
    assert main(["check", dec, chan, "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)["conditions"]

    def forbidden(report):
        raise AssertionError("a text-mode check reduced a report to JSON")

    monkeypatch.setattr(oqec.cli, "condition_report_to_json", forbidden)
    assert main(["check", dec, chan]) == 0
    assert capsys.readouterr().out == "".join(
        f"condition {r['condition']}: {'PASS' if r['passed'] else 'FAIL'} "
        f"(residual {r['residual']:.3e}, tol {r['tol']:g})\n"
        for r in reports
    )


@pytest.fixture
def dumped(monkeypatch):
    """Every (path, obj) the CLI hands dump_json_file, in call order."""
    calls = []

    def record(path, obj):
        calls.append((path, obj))
        dump_json_file(path, obj)

    monkeypatch.setattr("oqec.cli.dump_json_file", record)
    return calls


def _assert_written_as_compact_dumps(calls):
    for path, obj in calls:
        with open(path, "rb") as fh:
            assert fh.read() == (compact_text(obj) + "\n").encode(), path


@pytest.mark.parametrize("name", [e.name for e in catalog(extended=True)])
def test_codes_export_writes_compact_json_dumps_byte_for_byte(tmp_path, dumped, name):
    assert main(["codes", "export", name, str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == [f"{name}.decomposition.json", f"{name}.noise.json"]
    assert len(dumped) == 2
    _assert_written_as_compact_dumps(dumped)


def test_check_out_report_is_compact_json_dumps_byte_for_byte(exported, tmp_path, dumped):
    dec, chan = exported
    out = str(tmp_path / "report.json")
    assert main(["check", dec, chan, "--out", out]) == 0
    calls = [(path, obj) for path, obj in dumped if path == out]
    assert len(calls) == 1 and len(calls[0][1]["conditions"]) == 3
    _assert_written_as_compact_dumps(calls)


def test_check_json_and_out_on_a_dense_entry_list_its_arrays(tmp_path, dumped, capsys):
    """On ns_3qubit_collective the witnesses are dense, so the payload holds
    arrays: --json prints json.dumps(payload, indent=1) of its listed form
    and --out writes the compact text of the same tree."""
    assert main(["codes", "export", "ns_3qubit_collective", str(tmp_path)]) == 0
    dec, chan = (str(tmp_path / f"ns_3qubit_collective.{kind}.json") for kind in ("decomposition", "noise"))
    capsys.readouterr()
    out = str(tmp_path / "report.json")
    assert main(["check", dec, chan, "--condition", "all", "--json", "--out", out]) == 0
    (path, payload), = [(path, obj) for path, obj in dumped if path == out]
    assert type(payload["conditions"][1]["witnesses"]["rho_rbe"]) is np.ndarray
    assert capsys.readouterr().out == json.dumps(payload, indent=1, default=lambda a: a.tolist()) + "\n"
    _assert_written_as_compact_dumps([(path, payload)])


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


@pytest.mark.parametrize("method", ["schmidt", "universal"])
def test_recover_at_a_loose_tol_on_nearly_correctable_noise_writes_its_recovery(tmp_path, capsys, method):
    """bit_flip_3 plus a Z error at Kraus amplitude 1e-6 passes b at tol
    1e-5. recover synthesizes and scores a recovery for it: exit 0, nothing
    on stderr, and the file holds the channel with its completeness defect."""
    entry = get("bit_flip_3")
    eps = 1e-6
    noise = Channel([*np.sqrt(1 - eps**2) * entry.noise.kraus, eps * kron(PAULI_Z, np.eye(4))])
    dec, chan, out = (str(tmp_path / name) for name in ("dec.json", "noise.json", "rec.json"))
    dump_json_file(dec, decomposition_to_json(entry.dec))
    dump_json_file(chan, channel_to_json(noise))
    assert main(["recover", dec, chan, "--method", method, "--tol", "1e-5", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    payload = load_json_file(out)
    assert payload["metadata"]["completeness_defect"] <= 1e-9
    assert payload["metadata"]["verification"]["b_marginal_drift"] <= 1e-5
    assert channel_from_json(payload).n_kraus == payload["metadata"]["kraus_count"]


@pytest.mark.parametrize("argv", [["recover"], ["recover", "--method", "universal"], ["factorize"]],
                         ids=["recover schmidt", "recover universal", "factorize"])
def test_a_negative_recover_or_factorize_exits_one_with_one_error_line_and_no_file(exported_bad, tmp_path, capsys, argv):
    """bitflip_3_vs_z fails condition b: main maps the library's
    NotCorrectableError to exit 1 and one "error: " line, with no traceback,
    and neither verb writes its output file or directory."""
    dec, chan = exported_bad
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*argv, dec, chan, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not correctable" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


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


def test_factorize_a_code_with_nonzero_dim_c(exported, tmp_path, capsys):
    """bit_flip_3 (dim_c = 6) factors on its code sector: the isometry file
    holds one 8 x (dim_a K) operator, the B factor maps B to K = 4."""
    dec, chan = exported
    outdir = tmp_path / "fac"
    assert main(["factorize", dec, chan, "--out", str(outdir)]) == 0
    w = load_json_file(str(outdir / "factor_unitary.json"))
    assert w["metadata"]["kind"] == "isometry"
    assert w["metadata"]["residual"] <= 1e-12
    assert (w["dim_out"], w["dim_in"], len(w["kraus"])) == (8, 8, 1)
    nb = channel_from_json(load_json_file(str(outdir / "factor_channel_b.json")))
    assert (nb.dim_in, nb.dim_out) == (1, 4)


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
    for name, kind in (("factor_unitary.json", "isometry"), ("factor_channel_b.json", "b_factor")):
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


def test_tolerance_ignores_the_environment(exported_bad, monkeypatch):
    """--tol is the one way to set the tolerance: an OQEC_TOL in the
    environment changes no verdict and is not parsed."""
    dec, chan = exported_bad
    monkeypatch.setenv("OQEC_TOL", "2.0")
    assert main(["check", dec, chan, "--condition", "b"]) == 1
    assert main(["check", dec, chan, "--condition", "b", "--tol", "2.0"]) == 0
    monkeypatch.setenv("OQEC_TOL", "1e400")
    assert main(["check", dec, chan, "--condition", "b"]) == 1


@pytest.mark.parametrize(
    "value", ["-1", "inf", "nan", "1e400"], ids=["negative", "inf", "nan", "overflow"]
)
@pytest.mark.parametrize("verb", ["check", "recover"])
def test_rejects_nonpositive_tolerance(exported, capsys, tmp_path, value, verb):
    """A tolerance that is not finite and positive is an input error that
    names --tol; inf would pass every condition."""
    dec, chan = exported
    assert main([verb, dec, chan, "--tol", value, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "tolerance" in err and "--tol" in err


def _correctable_dim64(seed=7):
    """dim_v = 64 instance: 1_A tensor N_B on the code block, identity on C,
    conjugated by a random frame."""
    rng = np.random.default_rng(seed)
    frame = haar_unitary(64, rng)
    dec = Decomposition(2, 4, 56, frame=frame)
    kraus = []
    for m, nk in enumerate(random_channel(4, 3, seed=seed).kraus):
        g = np.zeros((64, 64), dtype=np.complex128)
        g[:8, :8] = kron(np.eye(2), nk)
        if m == 0:
            g[8:, 8:] = np.eye(56)
        kraus.append(frame @ g @ dag(frame))
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


def _dense(m):
    """m in the dense wire form, which still loads; the writer picks the
    sparse form for mostly-zero matrices."""
    return np.stack([m.real, m.imag], -1).tolist()


def _dense_json(obj):
    """A matrix from either wire form, rewritten in the dense form."""
    return _dense(matrix_from_json(obj))


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


def _oqec_subprocess(*argv, address_space=None, blas_threads=None):
    """Run the CLI in a child process, so that numpy warnings reach stderr.

    With address_space (bytes), the child runs under that RLIMIT_AS with one
    BLAS thread, so that the cap measures the algorithm, not thread buffers.
    With blas_threads, OpenBLAS runs on that many threads.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(oqec.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
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
    orthonormal (exit 2) before anything reaches LAPACK, with no numpy warning."""
    assert main(["codes", "export", "ns_3qubit_collective", str(tmp_path)]) == 0
    dec = tmp_path / "ns_3qubit_collective.decomposition.json"
    obj = load_json_file(str(dec))
    obj["frame"] = _dense_json(obj["frame"])
    obj["frame"][0][0] = [1e300, 0.0]
    dump_json_file(str(dec), obj)
    proc = _oqec_subprocess("check", str(dec), str(tmp_path / "ns_3qubit_collective.noise.json"))
    assert proc.returncode == 2
    assert "frame columns are not orthonormal" in proc.stderr
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
    assert "frame columns are not orthonormal" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


SCHEMA_VIOLATIONS = [
    ("misspelled frame", 0, lambda obj: obj.update(frmae=obj.pop("frame")), "decomposition.frmae"),
    ("null frame", 0, lambda obj: obj.update(frame=None), "decomposition.frame"),
    ("metadata not an object", 1, lambda obj: obj.update(metadata=40), "channel.metadata"),
    ("unknown channel key", 1, lambda obj: obj.update(kruas=obj["kraus"]), "channel.kruas"),
]


@pytest.mark.parametrize("case, which, mutate, field", SCHEMA_VIOLATIONS, ids=[c[0] for c in SCHEMA_VIOLATIONS])
def test_check_rejects_a_schema_violation_naming_the_field(exported, tmp_path, capsys, case, which, mutate, field):
    """Decomposition and channel objects hold exactly their keys; a misspelled
    or null frame would otherwise be read as the canonical layout, a
    different code."""
    paths = list(exported)
    obj = load_json_file(paths[which])
    mutate(obj)
    paths[which] = str(tmp_path / "bad.json")
    dump_json_file(paths[which], obj)
    assert main(["check", *paths]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: " in err, err


def _check_json(dec_path, chan_path, capsys):
    code = main(["check", str(dec_path), str(chan_path), "--condition", "all", "--json"])
    return code, [c["residual"] for c in json.loads(capsys.readouterr().out)["conditions"]]


@pytest.mark.parametrize("name", ["bit_flip_3", "ns_3qubit_collective", "bitflip_3_vs_z"])
def test_square_dense_frame_from_an_older_file_gives_the_same_verdicts(tmp_path, capsys, name):
    """Files once carried the whole unitary frame, code columns first, in
    the dense form; such a file still loads to the same code vectors."""
    assert main(["codes", "export", name, str(tmp_path)]) == 0
    capsys.readouterr()
    dec, chan = tmp_path / f"{name}.decomposition.json", tmp_path / f"{name}.noise.json"
    expected = _check_json(dec, chan, capsys)
    code = get(name).dec.code_vectors()
    square = np.hstack([code, complete_basis(code, code.shape[0])])
    obj = load_json_file(str(dec))
    obj["frame"] = _dense(square)
    dump_json_file(str(dec), obj)
    assert _check_json(dec, chan, capsys) == expected


def test_haar_square_frame_and_its_code_columns_check_alike_through_files(tmp_path, capsys):
    """A Haar-unitary frame written whole and written as its code columns
    give the same residuals through the CLI, and the same as the library."""
    dec, ch = _correctable_dim64()
    dec_path, chan_path = tmp_path / "dec.json", tmp_path / "chan.json"
    dump_json_file(str(chan_path), channel_to_json(ch))
    frame = haar_unitary(64, np.random.default_rng(7))  # the frame _correctable_dim64 draws
    np.testing.assert_array_equal(frame[:, :8], dec.frame)
    results = []
    for f in (frame, frame[:, :8]):
        obj = decomposition_to_json(Decomposition(2, 4, 56))
        obj["frame"] = _dense(f)
        dump_json_file(str(dec_path), obj)
        results.append(_check_json(dec_path, chan_path, capsys))
    ps = purify(dec, ch)
    library = [check_condition_b(dec, ch).residual, check_condition_c(ps).residual, check_condition_d(ps).residual]
    assert results[0] == results[1] == (0, library)


FRAMES_NOT_A_CODE_ISOMETRY = [
    ("dim_code - 1 columns", np.eye(8)[:, [0]]),
    ("dim_v + 1 columns", np.eye(8)[:, [0, 7, 1, 2, 3, 4, 5, 6, 0]]),
    ("extra column not orthonormal", np.eye(8)[:, [0, 7, 0]]),
]


@pytest.mark.parametrize("case, frame", FRAMES_NOT_A_CODE_ISOMETRY, ids=[c[0] for c in FRAMES_NOT_A_CODE_ISOMETRY])
def test_check_rejects_a_frame_that_is_not_a_code_isometry(exported, tmp_path, capsys, case, frame):
    dec, chan = exported
    obj = load_json_file(dec)
    obj["frame"] = _dense(frame)
    bad = tmp_path / "bad.json"
    dump_json_file(str(bad), obj)
    assert main(["check", str(bad), chan]) == 2
    assert "error: decomposition.frame: " in capsys.readouterr().err


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
    and the Schmidt recovery -> factorize on the dim_v 512 code, each step a
    child process under a 1.5 GiB address-space cap."""
    cap = 3 * 2**29
    steps = [("codes", "export", "bacon_shor_9", str(tmp_path))]
    dec = str(tmp_path / "bacon_shor_9.decomposition.json")
    chan = str(tmp_path / "bacon_shor_9.noise.json")
    steps.append(("check", dec, chan, "--condition", "all"))
    for method in ("schmidt", "universal"):
        steps.append(("recover", dec, chan, "--method", method, "--out", str(tmp_path / f"{method}.json")))
    steps.append(("dpi", dec, chan, str(tmp_path / "schmidt.json"), "--out", str(tmp_path / "dpi.json")))
    steps.append(("factorize", dec, chan, "--out", str(tmp_path / "fac")))
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
    assert load_json_file(str(tmp_path / "fac" / "factor_unitary.json"))["metadata"]["residual"] <= 1e-10


def test_bacon_shor_9_noise_is_never_formed_as_a_stack(tmp_path, monkeypatch, capsys):
    """codes export -> check --condition all -> factorize on bacon_shor_9,
    in-process, and codes list --extended: the (10, 512, 512) noise is
    built from its cells four times, by restricted_flip and by the reader,
    and its 21 MB stack is never formed: the cached property kraus never
    runs its function, which forms a cell channel's stack."""
    built, formed = [], []
    from_cells, form = Channel._from_cells.__func__, Channel.__dict__["kraus"].func

    def counting_from_cells(cls, shape, cols, vals):
        ch = from_cells(cls, shape, cols, vals)
        if ch._cells is not None:
            built.append(tuple(shape))
        return ch

    def counting_form(self):
        formed.append(self._shape)
        return form(self)

    monkeypatch.setattr(Channel, "_from_cells", classmethod(counting_from_cells))
    monkeypatch.setattr(Channel.__dict__["kraus"], "func", counting_form)
    dec = str(tmp_path / "bacon_shor_9.decomposition.json")
    chan = str(tmp_path / "bacon_shor_9.noise.json")
    assert main(["codes", "export", "bacon_shor_9", str(tmp_path)]) == 0
    assert main(["check", dec, chan, "--condition", "all"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    assert main(["factorize", dec, chan, "--out", str(tmp_path / "fac")]) == 0
    assert main(["codes", "list", "--extended"]) == 0
    assert "bacon_shor_9: dim_a=2 dim_b=16 dim_c=480, 10 Kraus, correctable" in capsys.readouterr().out
    assert built.count((10, 512, 512)) == 4
    assert (10, 512, 512) not in formed


def test_bacon_shor_9_under_depolarizing_noise_checks_through_the_cli(tmp_path):
    """Weight-one depolarizing noise on bacon_shor_9, p = 0.003: 28 complex
    operators with one nonzero per row, written as a channel file beside the
    exported decomposition. `check --condition all` reads it in a child
    process under a 1.5 GiB address-space cap and passes b, c and d."""
    cap = 3 * 2**29
    proc = _oqec_subprocess("codes", "export", "bacon_shor_9", str(tmp_path), address_space=cap)
    assert proc.returncode == 0, proc.stderr[-500:]
    chan = str(tmp_path / "depolarizing.json")
    dump_json_file(chan, channel_to_json(weight_one_depolarizing(9, 0.003)))
    dec = str(tmp_path / "bacon_shor_9.decomposition.json")
    proc = _oqec_subprocess("check", dec, chan, "--condition", "all", "--json", address_space=cap)
    assert proc.returncode == 0, proc.stderr[-500:]
    reports = json.loads(proc.stdout)["conditions"]
    assert [(r["condition"], r["passed"]) for r in reports] == [("b", True), ("c", True), ("d", True)]


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


@pytest.mark.parametrize("scale, change", [(0.5, "decreases"), (2.0, "increases")])
@pytest.mark.parametrize("verb", ["check", "recover", "factorize", "dpi"])
def test_every_verb_rejects_noise_that_is_not_trace_preserving(exported, tmp_path, capsys, scale, change, verb):
    """The CLI cannot renormalize, so a Kraus set whose completeness defect
    is over tolerance is an input error that names the file's field."""
    dec, chan = exported
    bad = str(tmp_path / "bad.json")
    dump_json_file(bad, channel_to_json(Channel(channel_from_json(load_json_file(chan)).kraus * np.sqrt(scale))))
    if verb == "dpi":
        argv, field = ["dpi", dec, chan, bad], "channel[1]"
    else:
        argv, field = [verb, dec, bad, "--out", str(tmp_path / "out")], "channel"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: Kraus set {change} trace" in err
    assert "allow_trace_decreasing" not in err


@pytest.mark.parametrize("verb", ["check", "recover", "factorize", "dpi"])
def test_every_verb_refuses_a_channel_off_v_naming_its_field_and_both_sizes(exported, tmp_path, capsys, verb):
    """bit_flip_3 has dim_v 8, so a channel on 4 is an input error whose
    message names the file's field, the sizes it acts on and dim_v. The CLI
    has no gate of its own, and the library call that reads the channel
    checks V before the trace, so a channel on 4 that also halves the trace
    is refused for its size too; no verb writes its output."""
    dec, chan = exported
    small = str(tmp_path / "small.json")
    out = tmp_path / "out"
    for off in (depolarizing(4, 0.5), Channel((np.sqrt(0.5) * np.eye(4),))):
        dump_json_file(small, channel_to_json(off))
        if verb == "dpi":
            argv, field = ["dpi", dec, chan, small, "--out", str(out)], "channel[1]"
        else:
            argv, field = [verb, dec, small, "--out", str(out)], "channel"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {field}: acts on 4 -> 4, expected dim_v=8\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "scale, dim, problem",
    [(1.0, 4, "acts on 4 -> 4, expected dim_v=8"), (0.5, 8, "Kraus set decreases trace (completeness defect 1.414e+00)")],
    ids=["off V", "trace decreasing"],
)
def test_dpi_refuses_a_bad_first_file_before_a_good_one_as_channel_0(exported, tmp_path, capsys, scale, dim, problem):
    """dpi_trace gates its links in order, so a bad first file is refused
    as channel[0] though a good one follows. Every file is parsed before
    any is gated: a second file that does not parse is refused first."""
    dec, chan = exported
    bad = str(tmp_path / "bad.json")
    dump_json_file(bad, channel_to_json(Channel((np.sqrt(scale) * np.eye(dim),))))
    assert main(["dpi", dec, bad, chan]) == 2
    assert capsys.readouterr().err == f"error: channel[0]: {problem}\n"
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["dpi", dec, bad, str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: channel[1]: {broken}: invalid JSON") and err.count("\n") == 1


def test_check_and_factorize_on_bacon_shor_9_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """README: on the cell route b, c and d are summed from the cells in a
    fixed order, and factorize's files do not depend on the BLAS thread
    count either. check --condition all --json and both factorize files,
    each from a child process, are the same byte for byte at one and two
    OpenBLAS threads."""
    assert _oqec_subprocess("codes", "export", "bacon_shor_9", str(tmp_path)).returncode == 0
    dec = str(tmp_path / "bacon_shor_9.decomposition.json")
    chan = str(tmp_path / "bacon_shor_9.noise.json")
    outputs = []
    for threads in (1, 2):
        check = _oqec_subprocess("check", dec, chan, "--condition", "all", "--json", blas_threads=threads)
        assert check.returncode == 0, check.stderr[-500:]
        fac = tmp_path / f"factor.{threads}"
        proc = _oqec_subprocess("factorize", dec, chan, "--out", str(fac), blas_threads=threads)
        assert proc.returncode == 0, proc.stderr[-500:]
        outputs.append([check.stdout.encode()] + [(fac / f).read_bytes() for f in ("factor_unitary.json", "factor_channel_b.json")])
    assert outputs[0] == outputs[1]


def test_recover_on_bacon_shor_9_is_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """The completeness defect in recover's metadata is one numpy sum, so
    the file recover writes, by either method, and its stdout are the same
    byte for byte from a child process at one and at two OpenBLAS threads."""
    assert _oqec_subprocess("codes", "export", "bacon_shor_9", str(tmp_path)).returncode == 0
    dec = str(tmp_path / "bacon_shor_9.decomposition.json")
    chan = str(tmp_path / "bacon_shor_9.noise.json")
    out = tmp_path / "recovery.json"
    for method in ("schmidt", "universal"):
        outputs = []
        for threads in (1, 2):
            proc = _oqec_subprocess("recover", dec, chan, "--method", method, "--out", str(out), blas_threads=threads)
            assert proc.returncode == 0, proc.stderr[-500:]
            outputs.append((proc.stdout.encode(), out.read_bytes()))
        assert outputs[0] == outputs[1], method


def test_check_exits_two_when_an_input_cannot_be_allocated(exported, tmp_path):
    """A sparse file of about a hundred bytes declares a 16000 x 16000
    channel with two cells in row 0, so it is read into a stack; one float64
    operator of that size alone takes 2.0 GB, so under a 1.5 GiB
    address-space cap reading it runs out of memory, which is an input
    error (exit 2), not a negative verdict. With one cell per row the same
    file is read into its cell index, and only its dims are refused."""
    dec, _ = exported
    n = 16000
    for cols, err in (([0, 1], "Unable to allocate"), ([0], f"acts on {n} -> {n}")):
        sparse = {"shape": [n, n], "rows": [0] * len(cols), "cols": cols, "re": [1.0] * len(cols),
                  "im": [0.0] * len(cols)}
        bad = tmp_path / "big.json"
        dump_json_file(str(bad), {"dim_in": n, "dim_out": n, "kraus": [sparse]})
        proc = _oqec_subprocess("check", dec, str(bad), address_space=3 * 2**29)
        assert proc.returncode == 2, proc.stderr[-500:]
        assert err in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def bit_flip_3_files(tmp_path_factory):
    """bit_flip_3's exported files, as parsed JSON, and a directory to write
    mutants into."""
    outdir = tmp_path_factory.mktemp("bit_flip_3")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["codes", "export", "bit_flip_3", str(outdir)]) == 0
    names = ("bit_flip_3.decomposition.json", "bit_flip_3.noise.json")
    return outdir, [json.loads((outdir / name).read_text()) for name in names]


def _places(obj, path=()):
    """Every place below the root of a JSON value: each list element and
    each dict value."""
    items = enumerate(obj) if type(obj) is list else obj.items() if type(obj) is dict else ()
    for key, val in items:
        yield (*path, key)
        yield from _places(val, (*path, key))


# Integers stay at most 64, so no mutation declares a matrix too large to
# allocate on a small machine.
_MUTANT_VALUES = st.one_of(
    st.sampled_from([-1, 0, 2, 1e308, -0.0, True, None, "x", [], {}]),
    st.integers(-2, 64),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_on_a_mutated_file_exits_zero_one_or_two(bit_flip_3_files, data):
    """One place of bit_flip_3's decomposition or noise file replaced by a
    junk value, or one key deleted or renamed: `check` returns 0, 1 or 2 and
    raises nothing (numpy warnings included, as the suite turns them into
    errors). A renamed key outside the free-form metadata is exit 2: every
    other object holds exactly its keys."""
    outdir, objs = bit_flip_3_files
    which = data.draw(st.sampled_from([0, 1]))
    mutant = json.loads(json.dumps(objs[which]))
    path = data.draw(st.sampled_from(list(_places(mutant))))
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    op = data.draw(st.sampled_from(["replace", "delete", "rename"] if type(parent) is dict else ["replace"]))
    if op == "delete":
        del parent[path[-1]]
    elif op == "rename":
        names = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
        unused = data.draw(names.filter(lambda k: k not in parent))
        parent[unused] = parent.pop(path[-1])
    else:
        parent[path[-1]] = data.draw(_MUTANT_VALUES)
    paths = [str(outdir / "bit_flip_3.decomposition.json"), str(outdir / "bit_flip_3.noise.json")]
    paths[which] = str(outdir / "mutant.json")
    with open(paths[which], "w") as f:
        json.dump(mutant, f)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", *paths])
    assert code in (0, 1, 2)
    if op == "rename" and "metadata" not in path[:-1]:
        assert code == 2
