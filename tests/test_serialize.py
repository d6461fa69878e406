"""JSON interchange: round trips must be exact, bad input must name the field."""

import contextlib
import copy
import gc
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqec.channels import random_channel
from oqec.codes import catalog, get
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
    ("bad cell and short row", lambda: [[[1.0, 0.0], "x"], [[1.0, 0.0]]], "m[1]"),
]


@pytest.mark.parametrize("case, build, field", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_matrix_from_json_names_first_bad_field(case, build, field):
    with pytest.raises(FormatError) as err:
        matrix_from_json(build(), field="m")
    assert err.value.field == field


@pytest.mark.parametrize(
    "cell",
    [[float("nan"), 0.0], [0.0, float("inf")], [-float("inf"), 1.0], [10**400, 0.0], ["x", 0.0], [True, 0.0]],
    ids=["nan", "inf", "-inf", "int beyond float range", "string", "bool"],
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


def _dense_form(m):
    """m in the dense wire form, which the reader accepts whatever the writer picks."""
    return np.stack([m.real, m.imag], -1).tolist()


def test_decomposition_from_json_names_bad_frame_cell():
    obj = decomposition_to_json(Decomposition(2, 1, 1, frame=np.eye(3)))
    obj["frame"] = _dense_form(np.eye(3))
    obj["frame"][2][0] = [0.0, None]
    with pytest.raises(FormatError) as err:
        decomposition_from_json(obj)
    assert err.value.field == "decomposition.frame[2][0]"


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


def _complex(values):
    return np.array(values, dtype=np.float64) + 1j * np.array(values, dtype=np.float64)[::-1]


def _mostly_zero():
    """8 x 8 with eight nonzero cells, so it takes the sparse form: signed
    zeros (a cell of -0.0 parts is not zero), subnormals and the extremes."""
    cells = [
        (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (5e-324, -5e-324),
        (1.7976931348623157e308, -1.7976931348623157e308),
        (-2.2250738585072014e-308, 1.0), (-5e-324, 0.0), (3.0, -2.0**53),
    ]
    m = np.zeros((8, 8), dtype=np.complex128)
    for i, (re, im) in enumerate(cells):
        m.real[i, 3 * i % 8], m.imag[i, 3 * i % 8] = re, im
    return m


@pytest.mark.parametrize(
    "m",
    [
        _complex([[-0.0, 0.0], [5e-324, -5e-324]]),
        _complex([[1.7976931348623157e308, -1.7976931348623157e308], [2.2250738585072014e-308, 1.0]]),
        _complex([[3, -7], [0, 2**53]]),
        _mostly_zero(),
    ],
    ids=["signed zeros and subnormals", "extremes", "integers", "mostly zero, sparse form"],
)
def test_file_round_trip_is_bit_exact(tmp_path, m):
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


def test_writer_picks_sparse_below_half_nonzero():
    assert type(matrix_to_json(np.diag([1.0, 0.0]))) is dict
    assert type(matrix_to_json(np.eye(2))) is list  # exactly half nonzero
    assert type(matrix_to_json(np.full((2, 2), -0.0))) is list  # -0.0 is not zero
    assert type(matrix_to_json(_mostly_zero())) is dict
    entry = get("bacon_shor_9")
    assert all(type(k) is dict for k in channel_to_json(entry.noise)["kraus"])
    assert type(decomposition_to_json(entry.dec)["frame"]) is dict
    assert all(type(k) is list for k in channel_to_json(random_channel(64, 3, seed=21))["kraus"])


def test_dense_files_of_catalog_entries_load_identically(tmp_path):
    """Files in the dense form, as written before the sparse form existed,
    load to the same bits as the writer's own files."""
    for entry in catalog():
        chan = channel_to_json(entry.noise)
        dec = decomposition_to_json(entry.dec)
        chan["kraus"] = [_dense_form(k) for k in entry.noise.kraus]
        if entry.dec.frame is not None:
            dec["frame"] = _dense_form(entry.dec.frame)
        dump_json_file(str(tmp_path / "chan.json"), chan)
        dump_json_file(str(tmp_path / "dec.json"), dec)
        back = channel_from_json(load_json_file(str(tmp_path / "chan.json")))
        back_dec = decomposition_from_json(load_json_file(str(tmp_path / "dec.json")))
        assert _bits(back.kraus) == _bits(entry.noise.kraus), entry.name
        if entry.dec.frame is not None:
            assert _bits(back_dec.frame) == _bits(entry.dec.frame), entry.name


def _sparse(**change):
    obj = {
        "shape": [8, 8],
        "rows": [0, 7, 3],
        "cols": [5, 0, 3],
        "re": [0.5, -1.0, 0.0],
        "im": [0.0, 0.25, -0.0],
    }
    obj.update(change)
    return obj


SPARSE_MALFORMED = [
    ("missing key", lambda: {k: v for k, v in _sparse().items() if k != "im"}, "m.im"),
    ("unknown key", lambda: {**_sparse(), "data": []}, "m.data"),
    ("shape not an array", lambda: _sparse(shape=8), "m.shape"),
    ("shape of one", lambda: _sparse(shape=[8]), "m.shape"),
    ("shape of three", lambda: _sparse(shape=[8, 8, 1]), "m.shape"),
    ("zero dimension", lambda: _sparse(shape=[0, 8]), "m.shape"),
    ("negative dimension", lambda: _sparse(shape=[8, -8]), "m.shape"),
    ("float dimension", lambda: _sparse(shape=[8.0, 8]), "m.shape"),
    ("bool dimension", lambda: _sparse(shape=[8, True]), "m.shape"),
    ("too large to allocate", lambda: _sparse(shape=[2**31, 2**31]), "m.shape"),
    ("row out of range", lambda: _sparse(rows=[0, 8, 3]), "m.rows[1]"),
    ("negative column", lambda: _sparse(cols=[5, 0, -1]), "m.cols[2]"),
    ("float row", lambda: _sparse(rows=[0, 7.0, 3]), "m.rows[1]"),
    ("bool column", lambda: _sparse(cols=[True, 0, 3]), "m.cols[0]"),
    ("row beyond int64", lambda: _sparse(rows=[0, 2**70, 3]), "m.rows[1]"),
    ("duplicate pair", lambda: _sparse(rows=[0, 3, 0], cols=[5, 3, 5]), "m.rows[2]"),
    ("rows not an array", lambda: _sparse(rows="0,7,3"), "m.rows"),
    ("short cols", lambda: _sparse(cols=[5, 0]), "m.cols"),
    ("long re", lambda: _sparse(re=[0.5, -1.0, 0.0, 1.0]), "m.re"),
    ("empty im", lambda: _sparse(im=[]), "m.im"),
    ("1e999 in re", lambda: _sparse(re=[0.5, json.loads("1e999"), 0.0]), "m.re[1]"),
    ("nan in im", lambda: _sparse(im=[float("nan"), 0.25, 0.0]), "m.im[0]"),
    ("int beyond float range", lambda: _sparse(im=[0.0, 0.25, 10**400]), "m.im[2]"),
    ("string value", lambda: _sparse(re=[0.5, "-1", 0.0]), "m.re[1]"),
    ("bool value", lambda: _sparse(im=[0.0, True, 0.0]), "m.im[1]"),
]


@pytest.mark.parametrize("case, build, field", SPARSE_MALFORMED, ids=[c[0] for c in SPARSE_MALFORMED])
def test_sparse_matrix_from_json_names_bad_field(case, build, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError) as err:
            matrix_from_json(build(), field="m")
    assert err.value.field == field


def test_sparse_allocation_failure_names_shape(monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(FormatError) as err:
        matrix_from_json(_sparse(), field="m")
    assert err.value.field == "m.shape"


def test_sparse_shape_is_checked_against_dims_before_allocation():
    chan = {"dim_in": 2, "dim_out": 2, "kraus": [_sparse(shape=[2**31, 2**31])]}
    with pytest.raises(FormatError) as err:
        channel_from_json(chan)
    assert err.value.field == "channel.kraus[0]"
    assert "does not match" in str(err.value)
    dec = {"dim_a": 2, "dim_b": 1, "dim_c": 1, "frame": _sparse(shape=[2**31, 2**31])}
    with pytest.raises(FormatError) as err:
        decomposition_from_json(dec)
    assert err.value.field == "decomposition.frame"


_JUNK = [None, True, "1", 1.5, 0, -1, 7, 2**70, 10**400, float("nan"), float("inf"), [], {}, [0.0, 0.0]]


def _paths(obj, path=()):
    """Every place in a JSON value: the root, each list element, each dict value."""
    yield path
    items = enumerate(obj) if type(obj) is list else obj.items() if type(obj) is dict else ()
    for key, val in items:
        yield from _paths(val, (*path, key))


@st.composite
def _mutated_matrix(draw):
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    m = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
    if draw(st.booleans()):  # fewer than half the cells nonzero: the sparse form
        m.ravel()[rng.permutation(r * c)[(r * c - 1) // 2:]] = 0
        obj = matrix_to_json(m)
    else:
        obj = _dense_form(m)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        op = draw(st.sampled_from(["delete", "retype", "duplicate", "duplicate cell"]))
        if op == "duplicate cell":  # the same (row, col) twice, lengths kept equal
            for key in ("rows", "cols", "re", "im"):
                if type(obj) is dict and type(obj.get(key)) is list and obj[key]:
                    obj[key].append(copy.deepcopy(obj[key][0]))
            continue
        if not path:
            obj = draw(st.sampled_from(_JUNK)) if op == "retype" else obj
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "delete":
            del parent[key]
        elif op == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
        elif type(parent) is list:
            parent.insert(key, copy.deepcopy(parent[key]))
    return obj


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(obj=_mutated_matrix())
def test_mutated_matrices_load_or_raise_format_error(obj):
    """A mutated dense or sparse matrix either loads as a complex array of its
    declared shape or raises FormatError; nothing else, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = matrix_from_json(copy.deepcopy(obj), field="m")
        except FormatError:
            return
    declared = tuple(obj["shape"]) if type(obj) is dict else (len(obj), len(obj[0]))
    assert m.dtype == np.complex128 and m.shape == declared
