"""JSON interchange for channels, decompositions, and reports.

Wire format:

* complex scalar: two-element array [re, im];
* matrix: row-major nested arrays of complex scalars;
* channel: {"dim_in": int, "dim_out": int, "kraus": [matrix, ...]};
* decomposition: {"dim_a": int, "dim_b": int, "dim_c": int,
  "frame": matrix (optional)}.

Files are written compact (no whitespace). Python's json module emits
shortest-round-trip decimals, so a dump/load cycle reproduces every float
bit-exactly, including -0.0 and subnormals. Numbers must be finite: the
reader rejects NaN/Infinity tokens and any value outside the float range,
and every rejection is a FormatError naming the file or the field.
"""

from __future__ import annotations

import cmath
import gc
import json
from itertools import chain
from typing import Any

import numpy as np

from .channels import Channel
from .conditions import ConditionReport
from .errors import FormatError
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


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return np.stack([m.real, m.imag], -1).tolist()


def _finite_matrix(obj: list) -> np.ndarray | None:
    """obj as a complex matrix, or None unless obj is a list of equal-length
    row lists of [re, im] pairs of finite plain floats or ints. The checks
    run over whole levels at C speed; the exact type test rejects bools."""
    def cells():
        return chain.from_iterable(obj)

    def numbers():
        return chain.from_iterable(cells())

    shape = (len(obj), len(obj[0]))
    if (
        set(map(type, obj)) != {list}
        or set(map(len, obj)) != {shape[1]}
        or set(map(type, cells())) != {list}
        or set(map(len, cells())) != {2}
        or not set(map(type, numbers())) <= {float, int}
    ):
        return None
    try:
        flat = np.fromiter(numbers(), np.float64, 2 * shape[0] * shape[1])
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(np.complex128).reshape(shape)


def _cell_problem(z: Any) -> str | None:
    if type(z) is not list or len(z) != 2 or not {type(z[0]), type(z[1])} <= {float, int}:
        return f"expected a [re, im] pair, got {z!r}"
    try:
        finite = cmath.isfinite(complex(z[0], z[1]))
    except OverflowError:
        finite = False
    return None if finite else f"expected finite numbers, got {z!r}"


def matrix_from_json(obj: Any, field: str = "matrix") -> np.ndarray:
    if type(obj) is list and obj and type(obj[0]) is list:
        m = _finite_matrix(obj)
        if m is not None:
            return m
    # Error path: walk the rows to name the first bad field, row-major.
    if type(obj) is not list or not obj:
        raise FormatError(field, "expected a non-empty array of rows")
    width = None
    for i, row in enumerate(obj):
        if type(row) is not list or not row:
            raise FormatError(f"{field}[{i}]", "expected a non-empty row array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{field}[{i}]", f"row length {len(row)} != {width}")
        for j, z in enumerate(row):
            problem = _cell_problem(z)
            if problem is not None:
                raise FormatError(f"{field}[{i}][{j}]", problem)
    raise FormatError(field, "expected a matrix of finite [re, im] pairs")


def _int_field(obj: dict, key: str, minimum: int, field: str) -> int:
    if key not in obj:
        raise FormatError(f"{field}.{key}", "missing")
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
    dim_in = _int_field(obj, "dim_in", 1, field)
    dim_out = _int_field(obj, "dim_out", 1, field)
    kraus_obj = obj.get("kraus")
    if not isinstance(kraus_obj, list) or not kraus_obj:
        raise FormatError(f"{field}.kraus", "expected a non-empty array of matrices")
    kraus = []
    for i, mat in enumerate(kraus_obj):
        m = matrix_from_json(mat, f"{field}.kraus[{i}]")
        if m.shape != (dim_out, dim_in):
            raise FormatError(
                f"{field}.kraus[{i}]",
                f"shape {m.shape} does not match (dim_out, dim_in)=({dim_out}, {dim_in})",
            )
        kraus.append(m)
    return Channel(tuple(kraus))


def decomposition_to_json(dec: Decomposition) -> dict:
    out = {"dim_a": dec.dim_a, "dim_b": dec.dim_b, "dim_c": dec.dim_c}
    if dec.frame is not None:
        out["frame"] = matrix_to_json(dec.frame)
    return out


def decomposition_from_json(obj: Any, field: str = "decomposition") -> Decomposition:
    if not isinstance(obj, dict):
        raise FormatError(field, "expected an object")
    dim_a = _int_field(obj, "dim_a", 1, field)
    dim_b = _int_field(obj, "dim_b", 1, field)
    dim_c = _int_field(obj, "dim_c", 0, field)
    frame = None
    if obj.get("frame") is not None:
        frame = matrix_from_json(obj["frame"], f"{field}.frame")
        dv = dim_a * dim_b + dim_c
        if frame.shape != (dv, dv):
            raise FormatError(
                f"{field}.frame", f"shape {frame.shape} does not match dim_v={dv}"
            )
    return Decomposition(dim_a=dim_a, dim_b=dim_b, dim_c=dim_c, frame=frame)


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
                f"{j},{k}": matrix_to_json(b) for (j, k), b in wit["b_blocks"].items()
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
