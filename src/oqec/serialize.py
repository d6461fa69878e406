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

Files are written compact (no whitespace). Python's json module emits
shortest-round-trip decimals, so a dump/load cycle reproduces every float
bit-exactly in both forms, including -0.0 and subnormals. Numbers must be
finite: the reader rejects NaN/Infinity tokens and any value outside the
float range, and every rejection is a FormatError naming the file or the
field.

A matrix is checked one level at a time: dense rows (non-empty, of one
length), then cells ([re, im] pairs), then numbers; sparse keys and shape,
array lengths, indices, values, then repeated cells. The error names the
first defect of the first level that fails.
"""

from __future__ import annotations

import gc
import json
from itertools import chain
from typing import Any

import numpy as np

from .channels import Channel
from .conditions import ConditionReport
from .errors import DimensionError, FormatError
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
    "dump_json_file",
]


_SPARSE_KEYS = ("shape", "rows", "cols", "re", "im")


def matrix_to_json(m: np.ndarray) -> list | dict:
    """m in the sparse form when fewer than half its cells are nonzero, else
    in the dense form. A cell is zero only when all 128 of its bits are, so
    a cell with a -0.0 part is written."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    bits = m.view(np.uint64)  # columns alternate re, im
    rows, cols = np.nonzero(bits[:, 0::2] | bits[:, 1::2])
    if 2 * rows.size >= m.size:
        return np.stack([m.real, m.imag], -1).tolist()
    vals = m[rows, cols]
    return {
        "shape": list(m.shape),
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "re": vals.real.tolist(),
        "im": vals.imag.tolist(),
    }


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


def _dense_matrix(obj: Any, field: str) -> np.ndarray:
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
    return flat.view(np.complex128).reshape(len(obj), width)


def _sparse_matrix(obj: dict, field: str) -> np.ndarray:
    shape = _sparse_shape(obj, field)
    try:
        out = np.zeros(shape, np.complex128)
    except (ValueError, MemoryError) as exc:  # numpy: "array is too big"
        raise FormatError(f"{field}.shape", f"{list(shape)} is too large to allocate ({exc})") from exc
    for key in _SPARSE_KEYS[1:]:
        if type(obj[key]) is not list:
            raise FormatError(f"{field}.{key}", "expected an array")
        if len(obj[key]) != len(obj["rows"]):
            raise FormatError(f"{field}.{key}", f"length {len(obj[key])} != {len(obj['rows'])} of rows")

    def array(key, dtype, ok, expected):
        return _flat_array(obj[key], lambda k: f"{field}.{key}[{k}]", dtype, ok, expected)

    def index(key, n):  # every index inside the allocated shape fits in int64
        return array(key, np.int64, lambda i: (i >= 0) & (i < n), f"an integer index in [0, {n})")

    rows, cols = index("rows", shape[0]), index("cols", shape[1])
    vals = np.empty(rows.size, np.complex128)
    vals.real, vals.imag = (array(key, np.float64, np.isfinite, "a finite number") for key in ("re", "im"))
    flat = rows * shape[1] + cols
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order][1:] == flat[order][:-1]]
    if repeats.size:
        k = int(repeats.min())
        raise FormatError(f"{field}.rows[{k}]", f"duplicate cell ({rows[k]}, {cols[k]})")
    out[rows, cols] = vals
    return out


def matrix_from_json(obj: Any, field: str = "matrix") -> np.ndarray:
    """A complex matrix from either wire form: an object is sparse, anything
    else must be dense. Every rejection is a FormatError naming the field."""
    return _sparse_matrix(obj, field) if type(obj) is dict else _dense_matrix(obj, field)


def _matrix_of_shape(obj: Any, fits, field: str, what: str) -> np.ndarray:
    """matrix_from_json(obj, field) unless fits(shape) fails, in which case
    the error says the shape does not match what; a sparse matrix's declared
    shape is tested before anything is allocated."""
    got = _sparse_shape(obj, field) if type(obj) is dict else None
    if got is None or fits(got):
        m = matrix_from_json(obj, field)
        got = m.shape
    if not fits(got):
        raise FormatError(field, f"shape {got} does not match {what}")
    return m


def _int_field(obj: dict, key: str, minimum: int, field: str) -> int:
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise FormatError(f"{field}.{key}", f"expected an integer >= {minimum}, got {val!r}")
    return val


def channel_to_json(ch: Channel, metadata: dict | None = None) -> dict:
    out = {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [matrix_to_json(e) for e in ch.kraus],
    }
    if metadata is not None:
        out["metadata"] = metadata
    return out


def channel_from_json(obj: Any, field: str = "channel") -> Channel:
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
    what = f"(dim_out, dim_in)=({dim_out}, {dim_in})"
    kraus = [
        _matrix_of_shape(mat, (dim_out, dim_in).__eq__, f"{field}.kraus[{i}]", what)
        for i, mat in enumerate(kraus_obj)
    ]
    return Channel(tuple(kraus))


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
        frame = _matrix_of_shape(obj["frame"], lambda s: s[0] == dv and dcode <= s[1] <= dv,
                                 f"{field}.frame", f"({dv}, k) with {dcode} <= k <= {dv}")
    try:
        return Decomposition(dim_a=dim_a, dim_b=dim_b, dim_c=dim_c, frame=frame)
    except DimensionError as exc:  # the dims passed _int_field, so the frame failed
        raise FormatError(f"{field}.frame", str(exc)) from exc


def condition_report_to_json(report: ConditionReport) -> dict:
    """Report with witnesses reduced to JSON-friendly pieces."""
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
    elif report.condition == "c":
        out["witnesses"] = {
            "rho_ra": matrix_to_json(wit["rho_ra"]),
            "rho_rbe": matrix_to_json(wit["rho_rbe"]),
        }
    elif report.condition == "d":
        out["witnesses"] = {
            "entropy_a": wit["entropy_a"],
            "entropy_v": wit["entropy_v"],
            "entropy_rbe": wit["entropy_rbe"],
            "gap": wit["gap"],
        }
    return out


def load_json_file(path: str, field: str = "file") -> Any:
    """Parse a JSON file; invalid JSON and NaN/Infinity tokens raise FormatError.

    Cyclic GC is paused while parsing: the parser builds millions of small
    lists, none of which can be part of a cycle, and rescanning them as they
    pile up costs more than the parse itself.
    """
    where = f"{field}:{path}"

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


def dump_json_file(path: str, obj: Any) -> None:
    """Write obj as compact JSON; json.dumps without indentation runs the C encoder."""
    text = json.dumps(obj, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
