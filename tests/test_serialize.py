"""JSON interchange: round trips must be exact, bad input must name the field."""

import contextlib
import copy
import gc
import json
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oqec.channels import Channel, random_channel, restricted_flip
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
    load_channel_file,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
)
from oqec.spaces import Decomposition
from listed import compact_text, parsed
from pauli_noise import weight_one_depolarizing


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    np.testing.assert_array_equal(matrix_from_json(parsed(matrix_to_json(m))), m)


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
    back = channel_from_json(parsed(channel_to_json(ch)))
    assert back.dim_in == ch.dim_in and back.dim_out == ch.dim_out
    for a, b in zip(ch.kraus, back.kraus):
        np.testing.assert_array_equal(a, b)


def test_channel_json_carries_metadata():
    obj = parsed(channel_to_json(random_channel(2, 1, seed=0), metadata={"origin": "test"}))
    assert obj["metadata"] == {"origin": "test"}
    assert channel_from_json(obj).dim_in == 2


def test_channel_from_json_checks_declared_dims():
    obj = parsed(channel_to_json(random_channel(2, 2, seed=3)))
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
    back = decomposition_from_json(parsed(decomposition_to_json(dec)))
    assert (back.dim_a, back.dim_b, back.dim_c) == (2, 3, 1)
    np.testing.assert_array_equal(back.frame, dec.frame)


def test_decomposition_round_trip_without_frame():
    back = decomposition_from_json(parsed(decomposition_to_json(Decomposition(2, 2, 3))))
    assert back.frame is None
    assert back.dim_v == 7


def test_decomposition_from_json_checks_frame_shape():
    obj = parsed(decomposition_to_json(Decomposition(2, 1, 0)))
    obj["frame"] = parsed(matrix_to_json(np.eye(3)))
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
        (lambda obj: obj["kraus"].__setitem__(1, parsed(matrix_to_json(np.eye(3)))), "channel.kraus[1]"),
        (lambda obj: obj["kraus"].__setitem__(0, "I"), "channel.kraus[0]"),
        (lambda obj: obj.__setitem__("dim_in", 5), "channel.kraus[0]"),
    ],
    ids=["bool entry", "misshapen operator", "operator not an array", "dim_in disagrees"],
)
def test_channel_from_json_names_first_bad_field(mutate, field):
    obj = parsed(channel_to_json(random_channel(4, 2, seed=2)))
    mutate(obj)
    with pytest.raises(FormatError) as err:
        channel_from_json(obj)
    assert err.value.field == field


def _dense_form(m):
    """m in the dense wire form, which the reader accepts whatever the writer picks."""
    return np.stack([m.real, m.imag], -1).tolist()


def test_decomposition_from_json_names_bad_frame_cell():
    obj = parsed(decomposition_to_json(Decomposition(2, 1, 1, frame=np.eye(3))))
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


def _compact_bytes(obj):
    return (compact_text(obj) + "\n").encode()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -2.5e-308, 1.7e308])
_STRINGS = st.text() | st.sampled_from(["", "\u00e9", "\u2603", "\U0001d11e", '\x00"\\/'])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _STRINGS
_CELLS = st.lists(_FLOATS, min_size=2, max_size=2)
_MATRICES = st.lists(st.lists(_CELLS, min_size=1, max_size=3), min_size=1, max_size=3)
_TREES = st.recursive(
    _SCALARS | _MATRICES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_STRINGS, kids, max_size=4),
    max_leaves=40,
)


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(obj=_TREES)
def test_written_file_is_compact_json_dumps_byte_for_byte(tmp_path, obj):
    path = tmp_path / "tree.json"
    dump_json_file(str(path), obj)
    assert path.read_bytes() == _compact_bytes(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[]],
        [[[]]],
        [{}],
        [[{}]],
        [[[1.0, -0.0]], []],
        {1: [[[5e-324, -0.0]]], 1.5: {}, True: [], None: "\u00e9"},
        {"t": ((1, 2), ([3.0, 4.0],)), "": [[["x", None]]]},
        "\U0001d11e",
        -0.0,
        np.array([[[1.0, -0.0], [5e-324, 1.7976931348623157e308]]]),
        [np.zeros((2, 1, 2)), {"m": np.full((1, 3, 2), -2.5)}, []],
        {"empty": np.zeros((0, 3, 2)), "flat": np.array([0.5, -0.0]), "scalar": np.array(3.0)},
    ],
)
def test_written_file_matches_compact_json_dumps_on_edge_cases(tmp_path, obj):
    """Empty containers, non-str keys, tuples, a matrix with an empty
    sibling and arrays of any shape, a matrix's among them, are written as
    json.dumps writes their listed form."""
    path = tmp_path / "edge.json"
    dump_json_file(str(path), obj)
    assert path.read_bytes() == _compact_bytes(obj)


def test_dumping_a_dense_complex_channel_streams_its_rows(tmp_path):
    """The (3, 128, 128) complex channel is 2.2 MB of text; its tree views
    the stack and the writer lists one row of it at a time, so making the
    tree and writing it peak below 1 MiB together."""
    ch = random_channel(128, 3, seed=5)
    path = tmp_path / "chan.json"
    tracemalloc.start()
    try:
        tree = channel_to_json(ch)
        dump_json_file(str(path), tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _compact_bytes(tree)
    assert path.stat().st_size > 2 * 2**20
    assert peak < 2**20, peak


@pytest.mark.parametrize("target", ["absent", "file", "directory"])
def test_a_failed_dump_leaves_the_target_as_it_was(tmp_path, target):
    """Metadata is written after kraus, so an unencodable value there fails
    mid-stream; a directory in the way fails the final replace. Either way
    the target is not created or changed and no temporary file is left."""
    path = tmp_path / "chan.json"
    before = b'{"old":1}\n'
    if target == "file":
        path.write_bytes(before)
    if target == "directory":
        path.mkdir()
        obj, error = {"ok": 1}, OSError
    else:
        obj, error = channel_to_json(random_channel(16, 2, seed=1), {"bad": {1, 2}}), TypeError
    with pytest.raises(error):
        dump_json_file(str(path), obj)
    assert os.listdir(tmp_path) == ([] if target == "absent" else ["chan.json"])
    if target == "file":
        assert path.read_bytes() == before
    if target == "directory":
        assert os.listdir(path) == []


@pytest.mark.parametrize("umask", [None, 0o022, 0o077])
def test_written_file_has_the_permission_bits_open_gives(tmp_path, umask):
    old = None if umask is None else os.umask(umask)
    try:
        with open(tmp_path / "reference.json", "w"):
            pass
        dump_json_file(str(tmp_path / "out.json"), {"a": 1})
    finally:
        if old is not None:
            os.umask(old)

    def mode(name):
        return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

    assert mode("out.json") == mode("reference.json")
    assert sorted(os.listdir(tmp_path)) == ["out.json", "reference.json"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_json_file_rejects_non_finite_tokens(tmp_path, token):
    path = tmp_path / "nan.json"
    path.write_text(f'{{"dim_in": 1, "dim_out": 1, "kraus": [[[[{token}, 0.0]]]]}}')
    with pytest.raises(FormatError) as err:
        load_json_file(str(path), field="channel")
    assert err.value.field == f"channel: {path}"
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
    assert type(matrix_to_json(np.eye(2))) is np.ndarray  # exactly half nonzero
    assert type(matrix_to_json(np.full((2, 2), -0.0))) is np.ndarray  # -0.0 is not zero
    assert type(matrix_to_json(_mostly_zero())) is dict
    entry = get("bacon_shor_9")
    assert all(type(k) is dict for k in channel_to_json(entry.noise)["kraus"])
    assert type(decomposition_to_json(entry.dec)["frame"]) is dict
    assert all(type(k) is np.ndarray for k in channel_to_json(random_channel(64, 3, seed=21))["kraus"])


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_a_dense_channel_is_written_as_json_dumps_of_its_listed_form(tmp_path, dtype):
    """A dense Kraus stack, complex or stored as float64, is written byte
    for byte as json.dumps writes its tree listed and as it writes the
    [re, im] lists of the stack itself, -0.0 and the extremes included."""
    rng = np.random.default_rng(11)
    ops = rng.normal(size=(3, 16, 16)).astype(dtype)
    if dtype == np.complex128:
        ops.imag = rng.normal(size=ops.shape)
    ops[0, 0, :4] = -0.0, 5e-324, -1.7976931348623157e308, 2.0**53
    ch = Channel(ops)
    assert ch.kraus.dtype == dtype
    meta = {"origin": "test"}
    tree = channel_to_json(ch, meta)
    assert all(type(k) is np.ndarray for k in tree["kraus"])
    path = tmp_path / "chan.json"
    dump_json_file(str(path), tree)
    assert path.read_bytes() == _compact_bytes(tree)
    listed = {"dim_in": 16, "dim_out": 16, "kraus": [_dense_form(k) for k in ch.kraus], "metadata": meta}
    assert path.read_bytes() == _compact_bytes(listed)


def test_no_tree_aliases_a_writable_matrix(tmp_path):
    """A dense tree is a read-only array: a view of a read-only stack, a
    frame or a witness of a purified state, and a copy of a writable matrix,
    so a change to that matrix after matrix_to_json does not reach the file."""
    rng = np.random.default_rng(12)
    complex_m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    real_m, flat_m = rng.normal(size=(4, 4)), rng.normal(size=4) + 1j
    sources = [complex_m, real_m, flat_m]
    trees = [matrix_to_json(m) for m in sources]
    before = [_compact_bytes(_dense_form(np.atleast_2d(m))) for m in sources]
    for m in sources:
        m[...] = 7.0
    for i, (tree, text) in enumerate(zip(trees, before)):
        assert type(tree) is np.ndarray and not tree.flags.writeable
        assert not np.shares_memory(tree, sources[i])
        dump_json_file(str(tmp_path / "m.json"), tree)
        assert (tmp_path / "m.json").read_bytes() == text, i
    ch = random_channel(8, 2, seed=3)
    assert all(np.shares_memory(k, ch.kraus) for k in channel_to_json(ch)["kraus"])
    dec = Decomposition(2, 1, 1, frame=haar_unitary(3, rng))
    assert np.shares_memory(decomposition_to_json(dec)["frame"], dec.frame)
    entry = get("ns_3qubit_collective")
    rc = check_condition_c(purify(entry.dec, entry.noise))
    witnesses = condition_report_to_json(rc)["witnesses"]
    assert all(np.shares_memory(witnesses[key], rc.witnesses[key]) for key in ("rho_ra", "rho_rbe"))


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


def _stored(a):
    return a.dtype, a.shape, a.tobytes()


def _cells_bits(ch):
    cols, vals = ch._cells.cols, ch._cells.vals
    return cols.dtype, cols.tobytes(), _stored(vals)


def test_reading_the_bacon_shor_9_noise_file_forms_its_cells_and_no_stack(tmp_path):
    """The exported noise file lists one cell per row, so it is read
    straight into the float64 cells the library builds, bit for bit, with
    no stack: the reader peaks below 1/20 of the 21 MB stack."""
    entry = get("bacon_shor_9")
    path = str(tmp_path / "noise.json")
    dump_json_file(path, channel_to_json(entry.noise))
    obj = load_json_file(path)
    tracemalloc.start()
    try:
        ch = channel_from_json(obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "kraus" not in vars(ch) and "kraus" not in vars(entry.noise)
    assert _cells_bits(ch) == _cells_bits(entry.noise)
    assert ch._cells.vals.dtype == np.float64
    assert peak < 10 * 512 * 512 * 8 / 20, peak
    assert _stored(ch.kraus) == _stored(entry.noise.kraus)


def _one_of_64_scalars():
    """64 operators of shape (1, 1), one of them nonzero: written as one
    dense operator and 63 empty sparse ones, so read into a stack."""
    return Channel._from_cells((64, 1, 1), np.zeros(64, np.intp), np.eye(64)[0])


@pytest.mark.parametrize(
    "build, sparse",
    [(lambda: get("bacon_shor_9").noise, True), (lambda: weight_one_depolarizing(9, 0.003), True),
     (lambda: weight_one_depolarizing(6, 0.01), True), (_one_of_64_scalars, False)],
    ids=["bit_flips", "depolarizing_9", "depolarizing_6", "scalars"],
)
def test_a_cell_channel_is_written_to_the_bytes_of_its_stack(tmp_path, build, sparse):
    """A channel built from its cells is written from them, byte for byte
    as its dense twin Channel(ch.kraus) is written, the -0.0 real parts of
    the depolarizing noise's Y cells and an operator in the dense form
    included; reading the file back gives the same cells, bit for bit. No
    stack is formed in writing, where an operator in the dense form is
    formed from its own cells, nor in reading, unless an operator is
    written in the dense form: that file reads back as the stack, bit for
    bit."""
    ch = build()
    cells = ch._cells.vals
    assert "kraus" not in vars(ch)
    meta = {"name": "noise"}
    dump_json_file(str(tmp_path / "cells.json"), channel_to_json(ch, meta))
    assert "kraus" not in vars(ch)
    dump_json_file(str(tmp_path / "dense.json"), channel_to_json(Channel(ch.kraus), meta))
    assert (tmp_path / "cells.json").read_bytes() == (tmp_path / "dense.json").read_bytes()
    if cells.dtype.kind == "c":
        assert np.any(np.signbit(cells.real) & (cells.real == 0))
    back = load_channel_file(str(tmp_path / "cells.json"))
    assert ("kraus" not in vars(back)) == sparse
    if sparse:
        assert _cells_bits(back) == _cells_bits(ch)
    else:
        assert back._cells is None and _stored(back.kraus) == _stored(ch.kraus)


@pytest.mark.parametrize("cell, indexed", [(-0.0, False), (complex(-0.0, 0.5), True)])
def test_a_listed_signed_zero_is_read_back_and_written_bit_for_bit(tmp_path, cell, indexed):
    """Two sparse 64 x 64 operators with one cell per row, within the 1/64
    bound, the second listing one cell: a -0.0 there is a listed zero, so
    the file is read into a stack that keeps it; a -0.0 real part of a
    nonzero cell stays in the cell index. Either way the file is written
    back byte for byte."""
    stack = np.zeros((2, 64, 64), dtype=type(cell))
    stack[0] = np.eye(64)
    stack[1, 5, 7] = cell
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    dump_json_file(str(first), channel_to_json(Channel(stack)))
    assert np.signbit(load_json_file(str(first))["kraus"][1]["re"])
    ch = load_channel_file(str(first))
    assert ("kraus" not in vars(ch)) == indexed
    assert _stored(ch.kraus) == _stored(Channel(stack).kraus)
    dump_json_file(str(again), channel_to_json(load_channel_file(str(first))))
    assert first.read_bytes() == again.read_bytes()


def test_reading_a_dense_real_channel_drops_the_parsed_numbers_before_channel_copies():
    """A dense file's [re, im] numbers take twice the float64 stack. They go
    before Channel copies the stack, so the read peaks near 3x the stack
    (the numbers and the stack, then the stack and its copy), not 4x."""
    noise = restricted_flip(7, 0.01).kraus
    obj = {"dim_in": 128, "dim_out": 128, "kraus": [_dense_form(k) for k in noise]}
    tracemalloc.start()
    try:
        ch = channel_from_json(obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _stored(ch.kraus) == _stored(noise)
    assert peak < 3.5 * ch.kraus.nbytes, (peak, ch.kraus.nbytes)


def test_reading_a_channel_file_drops_the_parsed_tree_before_the_stack(tmp_path, monkeypatch):
    """load_channel_file checks every operator, then drops the parsed tree
    before it allocates the stack. From the end of the parse on, it peaks
    near the tree plus the checked numbers (as large as the complex stack)
    and one operator's scratch: below 1.5x the stack beyond the tree. With
    the tree kept, the stack comes on top, at 2x."""
    ch0 = random_channel(48, 8, seed=3)
    path = str(tmp_path / "chan.json")
    dump_json_file(path, channel_to_json(ch0))
    after_parse = []

    def load(*args):
        obj = load_json_file(*args)
        after_parse.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return obj

    monkeypatch.setattr("oqec.serialize.load_json_file", load)
    tracemalloc.start()
    try:
        ch = load_channel_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _stored(ch.kraus) == _stored(ch0.kraus)
    assert peak - after_parse[0] < 1.5 * ch.kraus.nbytes, (peak - after_parse[0], ch.kraus.nbytes)


def test_a_read_channel_keeps_the_stack_the_reader_allocated(tmp_path):
    """restricted_flip(5, .) lists one cell per row in sparse operators but
    fills more than 1/64 of its stack, so it is read into a stack, not a
    store: both readers give a channel with _cells None whose kraus is the
    builder's stack, bit for bit, in a fresh array of the reader's that the
    channel keeps read-only."""
    path = str(tmp_path / "chan.json")
    want = restricted_flip(5, 0.01)
    assert want._cells is None
    dump_json_file(path, channel_to_json(want))
    for ch in (load_channel_file(path), channel_from_json(load_json_file(path))):
        assert ch._cells is None
        np.testing.assert_array_equal(ch.kraus, want.kraus)
        assert ch.kraus.dtype == np.float64
        assert not np.shares_memory(ch.kraus, want.kraus)
        assert not ch.kraus.flags.writeable
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 1.0


def _mixed_kraus():
    """Three 4 x 4 operators in the wire forms: a dense complex one, a dense
    real one with -0.0 real parts and imaginary parts of both signs, and a
    sparse one whose im holds +0.0 and -0.0."""
    rng = np.random.default_rng(9)
    dense_complex = _dense_form(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    real = (-0.5 * np.eye(4)).tolist()  # -0.0 off the diagonal
    dense_real = [[[re, [0.0, -0.0][(i + j) % 2]] for j, re in enumerate(row)] for i, row in enumerate(real)]
    sparse = {"shape": [4, 4], "rows": [0, 3, 1], "cols": [2, 0, 1], "re": [0.25, -0.0, -1.5], "im": [0.0, -0.0, -0.0]}
    return [dense_complex, dense_real, sparse]


def _exported(name):
    return lambda: parsed(channel_to_json(get(name).noise))["kraus"]


EXPORTS = [e.name for e in catalog()] + ["bacon_shor_9"]


@pytest.mark.parametrize(
    "kraus, dtype",
    [(_exported(name), np.complex128 if name == "ns_3qubit_collective" else np.float64) for name in EXPORTS]
    + [(_mixed_kraus, np.complex128), (lambda: _mixed_kraus()[1:], np.float64)],
    ids=EXPORTS + ["mixed complex", "mixed real"],
)
def test_reading_a_channel_matches_stacking_its_complex_matrices(kraus, dtype):
    """One stack in its storage dtype holds the bits, dtype included, that
    Channel gives the complex matrices matrix_from_json reads one by one."""
    ops = kraus()
    dim_out, dim_in = matrix_from_json(ops[0]).shape
    got = channel_from_json({"dim_in": dim_in, "dim_out": dim_out, "kraus": ops}).kraus
    assert _stored(got) == _stored(Channel([matrix_from_json(m) for m in ops]).kraus)
    assert got.dtype == dtype


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
    ("flat index beyond int64", lambda: _sparse(shape=[2**62, 2**62]), "m.shape"),
    ("dimension beyond int64", lambda: _sparse(shape=[8, 2**70]), "m.shape"),
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
