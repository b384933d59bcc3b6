"""Deterministic JSON / CSV emission and matrix (de)serialization.

All floats are written with 17 significant digits so that parsing the text
recovers the exact binary64 value. Output uses LF line endings and preserves
dict insertion order, which makes identical inputs produce byte-identical
files.
"""

import json
import math

import numpy as np

from .errors import ValidationError


def format_float(x):
    """17-significant-digit decimal form; exact round-trip for finite floats."""
    if math.isnan(x) or math.isinf(x):
        raise ValidationError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and obj and all(type(v) is float for v in obj):
        out.append("[" + ",".join(map(format_float, obj)) + "]")  # e.g. a minimizer, in one join
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj):
    """Serialize to a deterministic JSON string (compact, LF-terminated)."""
    out = []
    _emit(obj, out)
    return "".join(out) + "\n"


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(obj))


def write_csv(path, header, rows):
    """RFC-4180 style CSV with LF line endings; floats at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                cells.append(format_float(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def matrix_to_json(M):
    """Matrix as {"dim": d, "re": [[...]], "im": [[...]]?}; "im" only if complex."""
    M = np.asarray(M)
    obj = {}
    if M.ndim == 2 and M.shape[0] == M.shape[1]:
        obj["dim"] = int(M.shape[0])
    obj["re"] = [[float(x) for x in row] for row in M.real]
    if np.iscomplexobj(M) and np.any(M.imag != 0):
        obj["im"] = [[float(x) for x in row] for row in M.imag]
    return obj


def as_int(v, name):
    """A JSON integer field ``name`` as an int. A bool, a number with a
    fraction or a string raises rather than being read as 0/1 or truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {v!r}")
    return int(v)


def as_bool(v, name):
    """A JSON boolean field ``name`` as a bool; "false", 0 or 1 raise."""
    if not isinstance(v, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a boolean, got {v!r}")
    return bool(v)


def matrix_from_json(obj):
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValidationError('matrix JSON must be an object with an "re" field')
    re = np.asarray(obj["re"], dtype=float)
    if re.ndim != 2:
        raise ValidationError('matrix "re" must be a 2-d array of numbers')
    if "dim" in obj and re.shape != (as_int(obj["dim"], 'matrix "dim"'),) * 2:
        raise ValidationError(f'matrix "re" shape {re.shape} disagrees with "dim" {obj["dim"]}')
    if "im" in obj:
        im = np.asarray(obj["im"], dtype=float)
        if im.shape != re.shape:
            raise ValidationError('matrix "im" shape differs from "re"')
        return re + 1j * im
    return re


def projection_from_json(obj):
    """Projection JSON: a matrix, or {"basis_indices": [...]} (0-based).

    Returns either an ndarray or ("indices", list_of_ints); the caller supplies
    the ambient dimension for the index form.
    """
    if isinstance(obj, dict) and "basis_indices" in obj:
        idx = [as_int(i, "basis_indices entry") for i in obj["basis_indices"]]
        if any(i < 0 for i in idx):
            raise ValidationError("basis_indices must be nonnegative integers")
        return ("indices", idx)
    return matrix_from_json(obj)
