"""JSON interchange: round trips must be exact, bad input must name the field."""

import contextlib
import gc

import numpy as np
import pytest

from oqec.channels import random_channel
from oqec.codes import get
from oqec.conditions import check_condition_b, check_condition_c, purify
from oqec.errors import FormatError
from oqec.linalg import haar_unitary
from oqec.serialize import (
    channel_from_json,
    channel_to_json,
    condition_report_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dump_json_file,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
)
from oqec.spaces import Decomposition


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_from_json_names_bad_cell():
    with pytest.raises(FormatError) as err:
        matrix_from_json([[[0.0, 0.0], "x"]], field="frame")
    assert "frame[0][1]" in str(err.value)


def test_matrix_from_json_rejects_ragged_rows():
    with pytest.raises(FormatError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])


def test_complex_entries_reject_booleans():
    with pytest.raises(FormatError):
        matrix_from_json([[[True, 0.0]]])


def test_channel_round_trip_is_exact():
    ch = random_channel(3, 2, seed=4)
    back = channel_from_json(channel_to_json(ch))
    assert back.dim_in == ch.dim_in and back.dim_out == ch.dim_out
    for a, b in zip(ch.kraus, back.kraus):
        np.testing.assert_array_equal(a, b)


def test_channel_json_carries_metadata():
    obj = channel_to_json(random_channel(2, 1, seed=0), metadata={"origin": "test"})
    assert obj["metadata"] == {"origin": "test"}
    assert channel_from_json(obj).dim_in == 2


def test_channel_from_json_checks_declared_dims():
    obj = channel_to_json(random_channel(2, 2, seed=3))
    obj["dim_out"] = 3
    with pytest.raises(FormatError) as err:
        channel_from_json(obj)
    assert "kraus" in str(err.value) or "dim" in str(err.value)


def test_channel_from_json_requires_fields():
    with pytest.raises(FormatError) as err:
        channel_from_json({"dim_in": 2})
    assert "dim_out" in str(err.value)


def test_decomposition_round_trip_with_frame():
    dec = Decomposition(2, 3, 1, frame=haar_unitary(7, np.random.default_rng(5)))
    back = decomposition_from_json(decomposition_to_json(dec))
    assert (back.dim_a, back.dim_b, back.dim_c) == (2, 3, 1)
    np.testing.assert_array_equal(back.frame, dec.frame)


def test_decomposition_round_trip_without_frame():
    back = decomposition_from_json(decomposition_to_json(Decomposition(2, 2, 3)))
    assert back.frame is None
    assert back.dim_v == 7


def test_decomposition_from_json_checks_frame_shape():
    obj = decomposition_to_json(Decomposition(2, 1, 0))
    obj["frame"] = matrix_to_json(np.eye(3))
    with pytest.raises(FormatError):
        decomposition_from_json(obj)


def test_decomposition_from_json_rejects_nonpositive_dims():
    with pytest.raises(FormatError) as err:
        decomposition_from_json({"dim_a": 0, "dim_b": 1, "dim_c": 0})
    assert "dim_a" in str(err.value)


def test_condition_report_serialization():
    entry = get("bit_flip_3")
    rb = check_condition_b(entry.dec, entry.noise)
    obj = condition_report_to_json(rb)
    assert obj["condition"] == "b"
    assert obj["passed"] is True
    assert obj["witnesses"]["max_pair"] == [0, 0]
    assert "0,0" in obj["witnesses"]["b_blocks"]
    rc = check_condition_c(purify(entry.dec, entry.noise))
    obj_c = condition_report_to_json(rc)
    assert "rho_ra" in obj_c["witnesses"]


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "chan.json")
    ch = random_channel(2, 3, seed=8)
    dump_json_file(path, channel_to_json(ch))
    back = channel_from_json(load_json_file(path))
    for a, b in zip(ch.kraus, back.kraus):
        np.testing.assert_array_equal(a, b)


def test_load_json_file_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_json_file(str(path))


def _grid(n, cell=(0.25, -0.5)):
    return [[list(cell) for _ in range(n)] for _ in range(n)]


def _with_cell(n, i, j, cell):
    m = _grid(n)
    m[i][j] = cell
    return m


def _ragged():
    m = _grid(3)
    m[1].pop()
    return m


def _empty_row():
    m = _grid(3)
    m[1] = []
    return m


MALFORMED = [
    ("bool deep inside", lambda: _with_cell(64, 40, 17, [0.5, True]), "m[40][17]"),
    ("string cell", lambda: _with_cell(4, 2, 3, "0.5"), "m[2][3]"),
    ("None scalar", lambda: _with_cell(4, 0, 1, [None, 0.0]), "m[0][1]"),
    ("dict cell", lambda: _with_cell(4, 3, 0, {"re": 1.0, "im": 0.0}), "m[3][0]"),
    ("1-element cell", lambda: _with_cell(4, 1, 2, [1.0]), "m[1][2]"),
    ("3-element cell", lambda: _with_cell(4, 1, 1, [1.0, 0.0, 0.0]), "m[1][1]"),
    ("ragged row", _ragged, "m[1]"),
    ("empty row", _empty_row, "m[1]"),
    ("empty matrix", lambda: [], "m"),
    ("row not an array", lambda: [[[1.0, 0.0]], 7], "m[1]"),
]


@pytest.mark.parametrize("case, build, field", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_matrix_from_json_names_first_bad_field(case, build, field):
    with pytest.raises(FormatError) as err:
        matrix_from_json(build(), field="m")
    assert err.value.field == field


@pytest.mark.parametrize(
    "cell",
    [[float("nan"), 0.0], [0.0, float("inf")], [-float("inf"), 1.0], [10**400, 0.0]],
    ids=["nan", "inf", "-inf", "int beyond float range"],
)
def test_matrix_from_json_rejects_non_finite_cells(cell):
    with pytest.raises(FormatError) as err:
        matrix_from_json(_with_cell(8, 5, 6, cell), field="m")
    assert err.value.field == "m[5][6]"
    assert "finite" in str(err.value)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda obj: obj["kraus"][1][2][3].__setitem__(0, False), "channel.kraus[1][2][3]"),
        (lambda obj: obj["kraus"].__setitem__(1, matrix_to_json(np.eye(3))), "channel.kraus[1]"),
        (lambda obj: obj["kraus"].__setitem__(0, "I"), "channel.kraus[0]"),
        (lambda obj: obj.__setitem__("dim_in", 5), "channel.kraus[0]"),
    ],
    ids=["bool entry", "misshapen operator", "operator not an array", "dim_in disagrees"],
)
def test_channel_from_json_names_first_bad_field(mutate, field):
    obj = channel_to_json(random_channel(4, 2, seed=2))
    mutate(obj)
    with pytest.raises(FormatError) as err:
        channel_from_json(obj)
    assert err.value.field == field


def test_decomposition_from_json_names_bad_frame_cell():
    obj = decomposition_to_json(Decomposition(2, 1, 1, frame=np.eye(3)))
    obj["frame"][2][0] = [0.0, None]
    with pytest.raises(FormatError) as err:
        decomposition_from_json(obj)
    assert err.value.field == "decomposition.frame[2][0]"


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


@pytest.mark.parametrize(
    "values",
    [
        [[-0.0, 0.0], [5e-324, -5e-324]],
        [[1.7976931348623157e308, -1.7976931348623157e308], [2.2250738585072014e-308, 1.0]],
        [[3, -7], [0, 2**53]],
    ],
    ids=["signed zeros and subnormals", "extremes", "integers"],
)
def test_file_round_trip_is_bit_exact(tmp_path, values):
    m = np.array(values, dtype=np.float64) + 1j * np.array(values, dtype=np.float64)[::-1]
    path = str(tmp_path / "m.json")
    dump_json_file(path, {"m": matrix_to_json(m)})
    back = matrix_from_json(load_json_file(path)["m"])
    assert _bits(back) == _bits(m)


def test_file_round_trip_of_random_channel_is_bit_exact(tmp_path):
    ch = random_channel(64, 3, seed=21)
    path = str(tmp_path / "chan.json")
    dump_json_file(path, channel_to_json(ch))
    back = channel_from_json(load_json_file(path))
    assert len(back.kraus) == 3
    for a, b in zip(ch.kraus, back.kraus):
        assert _bits(a) == _bits(b)


def test_integer_tokens_load_as_exact_floats(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text('{"dim_in": 1, "dim_out": 1, "kraus": [[[[1, 0]]], [[[0, -1]]]]}')
    ch = channel_from_json(load_json_file(str(path)))
    assert [complex(e[0, 0]) for e in ch.kraus] == [1, -1j]


def test_dump_json_file_writes_compact_json(tmp_path):
    path = tmp_path / "chan.json"
    dump_json_file(str(path), channel_to_json(random_channel(3, 2, seed=0)))
    text = path.read_text()
    assert text.endswith("}\n")
    assert text.count("\n") == 1
    assert " " not in text


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_json_file_rejects_non_finite_tokens(tmp_path, token):
    path = tmp_path / "nan.json"
    path.write_text(f'{{"dim_in": 1, "dim_out": 1, "kraus": [[[[{token}, 0.0]]]]}}')
    with pytest.raises(FormatError) as err:
        load_json_file(str(path), field="channel")
    assert err.value.field == f"channel:{path}"
    assert token in str(err.value)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ['{"ok": 1}', "{not json", "[NaN]"])
def test_load_json_file_restores_gc_state(tmp_path, enabled, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(FormatError):
            load_json_file(str(path))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
