"""JSON interchange for channels, decompositions, and reports.

Wire format:

* matrix, dense: row-major nested arrays of complex scalars, each a
  two-element array [re, im];
* matrix, sparse: {"shape": [rows, cols], "rows": [...], "cols": [...],
  "re": [...], "im": [...]}, one (row, col, re, im) entry per listed cell,
  every other cell zero; each (row, col) pair appears at most once;
* channel: {"dim_in": int, "dim_out": int, "kraus": [matrix, ...],
  "metadata": object (optional)};
* decomposition: {"dim_a": int, "dim_b": int, "dim_c": int,
  "frame": matrix (optional)}: dim_v x k, dim_a * dim_b <= k <= dim_v, with
  orthonormal columns; only the first dim_a * dim_b are written and kept (a
  square frame from an older file loads). Absent means the canonical layout.

Objects hold exactly their keys: a missing or unknown key is rejected.

The writer picks the sparse form when fewer than half of a matrix's cells
are nonzero, and the dense form otherwise; the reader accepts either (an
object is sparse, an array dense). A cell counts as zero only when all 128
bits of it are zero, so a -0.0 part keeps its cell.

The *_to_json functions return trees for dump_json_file. A dense matrix in
them is a read-only (rows, cols, 2) float64 array of its (re, im) parts: a
view of a read-only complex128 source, such as the stacks of a Channel, a
Decomposition or a PurifiedState, else a copy, so no later change to the
source reaches the file. json.dumps(tree) raises TypeError on such an array
unless given default=np.ndarray.tolist, and the readers take only parsed
JSON. A sparse matrix is lists.

A file holds json.dumps(obj, separators=(",", ":")) of the listed tree plus a
newline: compact, no whitespace. The writer streams it: it walks objects and
arrays of matrices, takes a dense matrix from its array to the file one
row's tolist() at a time, and encodes each such row, flat array or scalar
with one json.dumps call, so neither the text of a whole file nor a per-cell
tree of it is ever in memory. It writes to a new sibling file that replaces
the target only once complete, so a failed write leaves the target as it
was. Python's json module emits shortest-round-trip decimals, so a
dump/load cycle reproduces every float bit-exactly in both forms, including
-0.0 and subnormals. Numbers must be finite: the reader rejects NaN/Infinity
tokens and any value outside the float range, and every rejection is a
FormatError naming the file or the field.

A matrix is checked one level at a time: dense rows (non-empty, of one
length), then cells ([re, im] pairs), then numbers; sparse keys and shape,
array lengths, indices, values, then repeated cells. The error names the
first defect of the first level that fails. Only then is the matrix
allocated, and a failed allocation names its shape.

A channel is read into one (k, dim_out, dim_in) Kraus stack in its storage
dtype, linalg.storage_dtype of every sparse im value and dense im part:
every operator is checked, then the stack is allocated once and written,
so no complex matrix per operator is formed, and the Channel keeps that
very stack, with no copy. Sparse operators that list no zero value and at
most one cell per row go to Channel._from_cells instead, which keeps their
store (see linalg.Cells), with no stack, where the density rule admits it;
such a channel is written from its cells, to the bytes its stack would
give. load_channel_file drops the parsed JSON tree of a channel file
before that allocation. Frames are read the same way; matrix_from_json
alone returns complex128.
"""

from __future__ import annotations

import gc
import json
import os
from itertools import chain
from typing import Any

import numpy as np

from .channels import Channel
from .conditions import ConditionReport
from .errors import DimensionError, FormatError
from .linalg import Cells, storage_dtype
from .spaces import Decomposition

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "channel_to_json",
    "channel_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "condition_report_to_json",
    "load_json_file",
    "load_channel_file",
    "dump_json_file",
]


_SPARSE_KEYS = ("shape", "rows", "cols", "re", "im")


def _wire_form(shape: tuple, rows: np.ndarray, cols: np.ndarray, vals, dense) -> np.ndarray | dict:
    """The shape matrix with nonzero cells (rows, cols), row-major: in the
    sparse form, of their values vals(), when fewer than half its cells are
    nonzero, else in the dense form of dense(), the matrix itself, which
    nothing else may change: the read-only (rows, cols, 2) float64 array of
    its (re, im) parts, a view of it when it is complex128."""
    if 2 * len(rows) >= shape[0] * shape[1]:
        z = np.ascontiguousarray(dense(), np.complex128)
        z.flags.writeable = False
        return z.view(np.float64).reshape(*shape, 2)
    vals = vals()
    parts = (list(shape), rows.tolist(), cols.tolist(), vals.real.tolist(), vals.imag.tolist())
    return dict(zip(_SPARSE_KEYS, parts))


def matrix_to_json(m: np.ndarray) -> np.ndarray | dict:
    """m in the wire form _wire_form picks, dense as a view of m when m is
    read-only complex128, else of a copy. A cell is zero only when all 128
    of its bits are, so a cell with a -0.0 part is written."""
    z = np.ascontiguousarray(m, dtype=np.complex128)
    if z.ndim == 1:
        z = z.reshape(1, -1)
    bits = z.view(np.uint64)  # the last axis alternates re, im
    rows, cols = np.nonzero((bits[..., 0::2] | bits[..., 1::2]) != 0)
    shared = z.flags.writeable and isinstance(m, np.ndarray) and np.may_share_memory(z, m)
    return _wire_form(z.shape, rows, cols, lambda: z[rows, cols], lambda: z.copy() if shared else z)


def _check_keys(obj: dict, field: str, required: tuple, optional: tuple = ()) -> None:
    """FormatError naming the first missing required key or unknown key."""
    for key in required:
        if key not in obj:
            raise FormatError(f"{field}.{key}", "missing")
    for key in obj:
        if key not in required and key not in optional:
            raise FormatError(f"{field}.{key}", "unknown key")


def _sparse_shape(obj: dict, field: str) -> tuple:
    """The declared shape of a sparse matrix object whose keys are exactly
    the five of the format."""
    _check_keys(obj, field, _SPARSE_KEYS)
    shape = obj["shape"]
    if type(shape) is not list or len(shape) != 2 or not all(type(n) is int and n >= 1 for n in shape):
        raise FormatError(f"{field}.shape", f"expected two positive integers, got {shape!r}")
    return tuple(shape)


def _flat_array(part: list, where, dtype, ok, expected: str) -> np.ndarray:
    """part as a 1-D dtype array when its elements are plain ints (or, for
    float64, floats) and ok holds for each; the checks run at C speed.
    Otherwise a FormatError names where(k) of the first element k that fails."""
    types = {int} if dtype == np.int64 else {float, int}

    def convert(items, n):
        try:
            arr = np.fromiter(items, dtype, n)
        except OverflowError:  # an int beyond the dtype's range
            return None
        return arr if ok(arr).all() else None

    if set(map(type, part)) <= types and (arr := convert(part, len(part))) is not None:
        return arr
    k, v = next((k, v) for k, v in enumerate(part) if type(v) not in types or convert([v], 1) is None)
    raise FormatError(where(k), f"expected {expected}, got {v!r}")


def _dense_parts(obj: Any, field: str) -> tuple:
    if type(obj) is not list or not obj:
        raise FormatError(field, "expected a non-empty array of rows or a sparse matrix object")
    width = len(obj[0]) if type(obj[0]) is list else 0
    if not width or set(map(type, obj)) != {list} or set(map(len, obj)) != {width}:
        i, row = next((i, r) for i, r in enumerate(obj) if type(r) is not list or len(r) != width or not r)
        if type(row) is not list or not row:
            raise FormatError(f"{field}[{i}]", "expected a non-empty row array")
        raise FormatError(f"{field}[{i}]", f"row length {len(row)} != {width}")
    cells = list(chain.from_iterable(obj))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        k, z = next((k, z) for k, z in enumerate(cells) if type(z) is not list or len(z) != 2)
        raise FormatError(f"{field}[{k // width}][{k % width}]", f"expected a [re, im] pair, got {z!r}")
    flat = _flat_array(
        list(chain.from_iterable(cells)), lambda k: f"{field}[{k // 2 // width}][{k // 2 % width}]",
        np.float64, np.isfinite, "a finite number",
    )
    return (len(obj), width), None, flat[0::2], flat[1::2]


def _sparse_parts(obj: dict, shape: tuple, field: str) -> tuple:
    """The parts of a sparse matrix object whose keys and shape passed
    _sparse_shape."""
    if shape[0] * shape[1] > np.iinfo(np.int64).max:  # keeps every flat index in int64
        raise FormatError(f"{field}.shape", f"{list(shape)} is too large to allocate")
    for key in _SPARSE_KEYS[1:]:
        if type(obj[key]) is not list:
            raise FormatError(f"{field}.{key}", "expected an array")
        if len(obj[key]) != len(obj["rows"]):
            raise FormatError(f"{field}.{key}", f"length {len(obj[key])} != {len(obj['rows'])} of rows")

    def array(key, dtype, ok, expected):
        return _flat_array(obj[key], lambda k: f"{field}.{key}[{k}]", dtype, ok, expected)

    def index(key, n):
        return array(key, np.int64, lambda i: (i >= 0) & (i < n), f"an integer index in [0, {n})")

    rows, cols = index("rows", shape[0]), index("cols", shape[1])
    re, im = (array(key, np.float64, np.isfinite, "a finite number") for key in ("re", "im"))
    flat = rows * shape[1] + cols
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order][1:] == flat[order][:-1]]
    if repeats.size:
        k = int(repeats.min())
        raise FormatError(f"{field}.rows[{k}]", f"duplicate cell ({rows[k]}, {cols[k]})")
    return shape, flat, re, im


def _matrix_parts(obj: Any, field: str, fits=lambda shape: True, what: str = "") -> tuple:
    """(shape, cells, re, im) of a matrix in either wire form, every check
    done and nothing placed: cells holds the row-major flat index of each
    listed value, or is None for a dense matrix, which lists every cell in
    order. An object is sparse, anything else must be dense. When
    fits(shape) fails, the error says the shape does not match what; a
    sparse matrix's declared shape is tested before its cells."""
    got = _sparse_shape(obj, field) if type(obj) is dict else None
    if got is None or fits(got):
        parts = _dense_parts(obj, field) if got is None else _sparse_parts(obj, got, field)
        got = parts[0]
    if not fits(got):
        raise FormatError(field, f"shape {got} does not match {what}")
    return parts


def _place(parts: list, field: str, dtype=None) -> np.ndarray:
    """One new (len(parts), rows, cols) array with each matrix's listed
    cells written in and every other cell zero. Its dtype is dtype or, when
    None, linalg.storage_dtype of the imaginary parts. A failed allocation is
    a FormatError naming the shape of the first matrix, read from field."""
    dtype = dtype or storage_dtype(im for *_, im in parts)
    shape = parts[0][0]
    try:
        out = np.zeros((len(parts), *shape), dtype)
    except (ValueError, MemoryError) as exc:  # numpy: "array is too big"
        where = field if parts[0][1] is None else f"{field}.shape"
        raise FormatError(where, f"{list(shape)} is too large to allocate ({exc})") from exc
    for dest, (_, cells, re, im) in zip(out.reshape(len(parts), -1), parts):
        _put(dest, slice(None) if cells is None else cells, re, im)
    return out


def _put(dest: np.ndarray, at, re: np.ndarray, im: np.ndarray) -> None:
    """Write re and im into the 1-D array dest at at, every bit kept; the
    imaginary parts are dropped when dest is real."""
    if dest.dtype.kind == "c":
        dest.imag[at] = im
        dest = dest.real
    dest[at] = re


def matrix_from_json(obj: Any, field: str = "matrix") -> np.ndarray:
    """A complex matrix from either wire form: an object is sparse, anything
    else must be dense. Every rejection is a FormatError naming the field."""
    return _place([_matrix_parts(obj, field)], field, np.complex128)[0]


def _int_field(obj: dict, key: str, minimum: int, field: str) -> int:
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise FormatError(f"{field}.{key}", f"expected an integer >= {minimum}, got {val!r}")
    return val


def channel_to_json(ch: Channel, metadata: dict | None = None) -> dict:
    """A channel kept as its cells is written from the block of its store
    that holds each operator's rows, to the bytes of its stack."""
    k, dout, din = ch._shape
    if ch._cells is None:
        kraus = [matrix_to_json(e) for e in ch.kraus]
    else:
        kraus = []
        for j in range(0, k * dout, dout):
            block = Cells(ch._cells.cols[j : j + dout], ch._cells.vals[j : j + dout], din)
            rows, cols, vals = block.entries()
            kraus.append(_wire_form((dout, din), rows, cols, lambda: vals, block.dense))
    out = {"dim_in": din, "dim_out": dout, "kraus": kraus}
    if metadata is not None:
        out["metadata"] = metadata
    return out


def _channel_parts(obj: Any, field: str) -> list:
    """The _matrix_parts of every Kraus operator of a channel object, each
    checked against (dim_out, dim_in); nothing is allocated."""
    if not isinstance(obj, dict):
        raise FormatError(field, "expected an object")
    _check_keys(obj, field, ("dim_in", "dim_out", "kraus"), ("metadata",))
    dim_in = _int_field(obj, "dim_in", 1, field)
    dim_out = _int_field(obj, "dim_out", 1, field)
    if type(obj.get("metadata", {})) is not dict:
        raise FormatError(f"{field}.metadata", f"expected an object, got {obj['metadata']!r}")
    kraus_obj = obj["kraus"]
    if not isinstance(kraus_obj, list) or not kraus_obj:
        raise FormatError(f"{field}.kraus", "expected a non-empty array of matrices")
    dims = (dim_out, dim_in)
    return [
        _matrix_parts(mat, f"{field}.kraus[{i}]", dims.__eq__, f"(dim_out, dim_in)={dims}")
        for i, mat in enumerate(kraus_obj)
    ]


def _stacked_channel(parts: list, field: str) -> Channel:
    """The channel of parts. When every operator is sparse, lists no zero
    (whose sign only a stack keeps) and at most one cell per row, and numpy
    could address the stack, Channel._from_cells takes the column and value
    of each row of the flat stack; else _place writes the stack, adopted."""
    (dout, din), k = parts[0][0], len(parts)
    if k * dout * din <= np.iinfo(np.intp).max // 16 and all(
        cells is not None and ((re != 0) | (im != 0)).all() for _, cells, re, im in parts
    ):
        rows, cols = np.divmod(np.concatenate([j * dout * din + p[1] for j, p in enumerate(parts)]), din)
        if np.bincount(rows, minlength=k * dout).max(initial=0) <= 1:
            at, vals = np.zeros(k * dout, np.intp), np.zeros(k * dout, storage_dtype(p[3] for p in parts))
            at[rows] = cols
            _put(vals, rows, *(np.concatenate([p[i] for p in parts]) for i in (2, 3)))
            return Channel._from_cells((k, dout, din), at, vals)
    kraus = _place(parts, f"{field}.kraus[0]")
    parts.clear()  # the parsed values go as soon as the stack holds them
    return Channel(kraus, _adopt=True)


def channel_from_json(obj: Any, field: str = "channel") -> Channel:
    """A channel read into one Kraus stack in its storage dtype (float64
    when every imaginary part is ±0.0, else complex128). Every operator is
    checked against (dim_out, dim_in) before the stack is allocated; a
    failed allocation names the shape of kraus[0]."""
    return _stacked_channel(_channel_parts(obj, field), field)


def load_channel_file(path: str, field: str = "channel") -> Channel:
    """channel_from_json of the file at path. The parsed tree is dropped
    once every operator has been checked, before the stack is allocated."""
    return _stacked_channel(_channel_parts(load_json_file(path, field), field), field)


def decomposition_to_json(dec: Decomposition) -> dict:
    out = {"dim_a": dec.dim_a, "dim_b": dec.dim_b, "dim_c": dec.dim_c}
    if dec.frame is not None:
        out["frame"] = matrix_to_json(dec.frame)
    return out


def decomposition_from_json(obj: Any, field: str = "decomposition") -> Decomposition:
    if not isinstance(obj, dict):
        raise FormatError(field, "expected an object")
    _check_keys(obj, field, ("dim_a", "dim_b", "dim_c"), ("frame",))
    dim_a = _int_field(obj, "dim_a", 1, field)
    dim_b = _int_field(obj, "dim_b", 1, field)
    dim_c = _int_field(obj, "dim_c", 0, field)
    frame = None
    if "frame" in obj:
        dcode, dv = dim_a * dim_b, dim_a * dim_b + dim_c
        parts = [_matrix_parts(obj["frame"], f"{field}.frame", lambda s: s[0] == dv and dcode <= s[1] <= dv,
                               f"({dv}, k) with {dcode} <= k <= {dv}")]
        frame = _place(parts, f"{field}.frame")[0]
    try:
        return Decomposition(dim_a=dim_a, dim_b=dim_b, dim_c=dim_c, frame=frame)
    except DimensionError as exc:  # the dims passed _int_field, so the frame failed
        raise FormatError(f"{field}.frame", str(exc)) from exc


def condition_report_to_json(report: ConditionReport) -> dict:
    """Report with witnesses reduced to JSON-friendly pieces: b's blocks one
    per pair "j,k", its state and pair deviations left out; c's and d's
    witnesses as their checkers list them, arrays through matrix_to_json."""
    out = {
        "condition": report.condition,
        "passed": report.passed,
        "residual": report.residual,
        "tol": report.tol,
    }
    wit = report.witnesses
    if report.condition == "b":
        out["witnesses"] = {
            "max_pair": list(wit["max_pair"]),
            "max_pair_residual": wit["max_pair_residual"],
            "b_blocks": {
                f"{j},{k}": matrix_to_json(b)
                for j, row in enumerate(wit["b_blocks"])
                for k, b in enumerate(row)
            },
        }
    else:
        out["witnesses"] = {
            name: matrix_to_json(w) if isinstance(w, np.ndarray) else w for name, w in wit.items()
        }
    return out


def load_json_file(path: str, field: str = "file") -> Any:
    """Parse a JSON file; invalid JSON and NaN/Infinity tokens raise FormatError.

    Cyclic GC is paused while parsing: the parser builds millions of small
    lists, none of which can be part of a cycle, and rescanning them as they
    pile up costs more than the parse itself.
    """
    where = f"{field}: {path}"

    def reject_constant(token: str):
        raise FormatError(where, f"non-finite number {token} is not allowed")

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(where, f"invalid JSON ({exc})") from exc
    finally:
        if gc_was_enabled:
            gc.enable()


# json.dumps(tree, separators=(",", ":")) of the listed form of a tree
_compact = json.JSONEncoder(separators=(",", ":"), default=np.ndarray.tolist).encode


def _is_array_of_containers(obj: Any) -> bool:
    """Whether obj is an array that _write_compact writes element by
    element: one of objects or matrices, or of arrays of arrays (a list of
    matrices). Any array of scalars is one piece. Only the first element is
    looked at; the text is the same either way, only the size of a piece
    changes."""
    first = obj[0] if isinstance(obj, (list, tuple)) and obj else None
    return isinstance(first, (dict, np.ndarray)) or (
        isinstance(first, (list, tuple)) and bool(first) and isinstance(first[0], (dict, list, tuple))
    )


def _write_compact(obj: Any, write) -> None:
    """Pass the text of _compact(obj) to write in pieces, each made by one
    json.dumps call: a row of a matrix array, from its tolist(), a flat
    array or a scalar."""
    if isinstance(obj, np.ndarray) and obj.ndim:  # a matrix: only one row is ever listed
        items, ends = (("", row.tolist()) for row in obj), "[]"
    elif isinstance(obj, dict):
        # a one-key object encodes the key exactly as json.dumps does inside
        # obj: "key": with non-str keys converted, or the TypeError it raises
        items, ends = ((_compact({key: 0})[1:-2], value) for key, value in obj.items()), "{}"
    elif _is_array_of_containers(obj):
        items, ends = (("", item) for item in obj), "[]"
    else:
        write(_compact(obj))
        return
    write(ends[0])
    for i, (key, value) in enumerate(items):
        write(("," if i else "") + key)
        _write_compact(value, write)
    write(ends[1])


def dump_json_file(path: str, obj: Any) -> None:
    """Write obj to path as json.dumps(obj, separators=(",", ":"),
    default=np.ndarray.tolist) + "\\n", byte for byte, streamed: each row of
    a matrix array, listed alone, each flat array and each scalar is encoded
    by one json.dumps call, which runs the C encoder, and written at once, so
    no file's whole text is held in memory.

    The text goes to a new sibling file, created with the permission bits
    open(path, "w") gives, which replaces path once the last byte is
    written. If anything fails, the sibling is deleted and the exception
    propagates: path is left as it was, or not created.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            _write_compact(obj, fh.write)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
