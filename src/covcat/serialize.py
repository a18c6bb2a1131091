"""JSON wire formats shared by the library and the CLI.

Matrix payload: ``{"dim": n, "data": [[re, im], ...]}`` with n**2 row-major
entries, or ``{"rows", "cols", "data"}`` when rectangular. The one reader rejects
strings, booleans, NaN/Inf, wrong counts and unknown keys (strict parsing
catches schema drift early); callers that need a square matrix check its shape.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import sys
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .channels import Channel
from .symmetry import FiniteGroup, FiniteGroupRep


class FormatError(ValueError):
    """Malformed or out-of-schema JSON payload."""


def check_keys(obj: Mapping[str, Any], required: Sequence[str],
               optional: Sequence[str] = (), where: str = "object") -> None:
    """Reject missing required keys and any unknown key."""
    if not isinstance(obj, Mapping):
        raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"{where}: missing keys {missing}")
    allowed = set(required) | set(optional)
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise FormatError(f"{where}: unknown keys {unknown}")


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise FormatError(f"matrix payloads must be two-dimensional, got shape {m.shape}")
    data = np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()
    if m.shape[0] == m.shape[1]:
        return {"dim": int(m.shape[0]), "data": data}
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def int_from_json(value: Any, where: str, minimum: int = 1) -> int:
    """A JSON integer no smaller than ``minimum``; booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise FormatError(f"{where}: expected an integer >= {minimum}, got {value!r}")
    return value


def tolerance_from_json(value: Any, where: str) -> float:
    """A finite, non-negative JSON number; booleans are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max):
        raise FormatError(f"{where}: expected a finite number >= 0, got {value!r}")
    return float(value)


def matrix_from_json(obj: Mapping[str, Any], where: str = "matrix") -> np.ndarray:
    """Read ``{"dim", "data"}`` or, for a rectangular matrix, ``{"rows", "cols", "data"}``."""
    if isinstance(obj, Mapping) and "rows" in obj:
        check_keys(obj, ["rows", "cols", "data"], where=where)
        rows = int_from_json(obj["rows"], f"{where}.rows")
        cols = int_from_json(obj["cols"], f"{where}.cols")
    else:
        check_keys(obj, ["dim", "data"], where=where)
        rows = cols = int_from_json(obj["dim"], f"{where}.dim")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(f"{where}: expected {rows * cols} entries, got "
                          f"{len(data) if isinstance(data, list) else data!r}")
    if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
        raise FormatError(f"{where}: entries must be [re, im] pairs")
    flat = list(itertools.chain.from_iterable(data))
    # JSON numbers arrive as exactly int or float; bool (an int subclass) is rejected
    if not set(map(type, flat)) <= {int, float}:
        raise FormatError(f"{where}: entries must be numbers")
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:  # integer literal beyond the float range
        values = np.array([np.inf])
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: entries must be finite")
    return values.view(complex).reshape(rows, cols)


def generators_from_json(items: Any, where: str) -> list[np.ndarray]:
    """A list of matrix objects that may be empty, as a scenario's generators are."""
    if not isinstance(items, list):
        raise FormatError(f"{where}: expected a list of matrix objects")
    return [matrix_from_json(it, where=f"{where}[{i}]") for i, it in enumerate(items)]


def matrices_from_json(items: Any, where: str = "matrices") -> list[np.ndarray]:
    if not isinstance(items, list) or not items:
        raise FormatError(f"{where}: expected a non-empty list of matrix objects")
    return generators_from_json(items, where)


def group_to_json(group) -> dict:
    out = {"order": int(group.order), "table": [[int(x) for x in row] for row in group.table]}
    if group.labels is not None:
        out["labels"] = list(group.labels)
    return out


def group_from_json(obj: Mapping[str, Any]):
    check_keys(obj, ["order", "table"], optional=["labels"], where="group")
    order = int_from_json(obj["order"], "group.order")
    table = obj["table"]
    # exactly int rejects bools, floats and strings; the bound keeps 2**70 away from numpy
    if not (isinstance(table, list) and len(table) == order
            and all(isinstance(row, list) and len(row) == order for row in table)
            and set(map(type, itertools.chain.from_iterable(table))) == {int}
            and 0 <= min(map(min, table)) and max(map(max, table)) < order):
        raise FormatError(f"group: table must be {order} rows of {order} element indices")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != order):
        raise FormatError("group: labels must list one name per element")
    return FiniteGroup(table, labels=tuple(labels) if labels else None)


def rep_to_json(rep) -> dict:
    return {"group": group_to_json(rep.group),
            "images": [matrix_to_json(w) for w in rep.images]}


def rep_from_json(obj: Mapping[str, Any]):
    check_keys(obj, ["group", "images"], where="representation")
    group = group_from_json(obj["group"])
    return FiniteGroupRep(group, matrices_from_json(obj["images"], where="representation.images"))


def channel_from_json(obj: Mapping[str, Any]):
    check_keys(obj, ["d_in", "d_out", "kraus"], where="channel")
    if not isinstance(obj["kraus"], list) or not obj["kraus"]:
        raise FormatError("channel: kraus must be a non-empty list")
    ks = [matrix_from_json(k, f"channel.kraus[{i}]") for i, k in enumerate(obj["kraus"])]
    d_in = int_from_json(obj["d_in"], "channel.d_in")
    d_out = int_from_json(obj["d_out"], "channel.d_out")
    channel = Channel(ks)
    if (channel.d_in, channel.d_out) != (d_in, d_out):
        raise FormatError(f"channel: declared d_in={d_in}, d_out={d_out} but the Kraus "
                          f"operators are {channel.d_out}x{channel.d_in}")
    return channel


def record_to_json(record, drop: Sequence[str] = ()) -> dict:
    """A dataclass record's fields, less ``drop``, as a JSON object: a tuple
    becomes a list and a nested record its ``to_json()``. Nothing is copied."""
    out = {}
    for field in dataclasses.fields(record):
        if field.name not in drop:
            value = getattr(record, field.name)
            out[field.name] = (list(value) if isinstance(value, tuple)
                               else value.to_json() if hasattr(value, "to_json") else value)
    return out


_stdlib_text = json.JSONEncoder(allow_nan=False).encode


def _text(obj: Any, indent: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, each
    line after the first starting with ``indent`` (a newline and spaces).
    Only non-empty containers are walked here; the stdlib spells every other
    value and every non-string key, and raises where it would. A list of
    finite ``[float, float]`` pairs, the matrix payload, is written by one
    format operation."""
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return _stdlib_text(obj)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        # the one-entry object {key: 0} spells a non-string key as the stdlib does
        items = ((encode_basestring_ascii(key) if isinstance(key, str)
                  else _stdlib_text({key: 0})[1:-4]) + ": " + _text(value, inner)
                 for key, value in sorted(obj.items()))
        return f"{{{inner}{sep.join(items)}{indent}}}"
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {2}:
        flat = tuple(itertools.chain.from_iterable(obj))
        # a non-finite sum means a NaN, an infinity or an overflow: the
        # general path below then raises or writes it
        if set(map(type, flat)) == {float} and math.isfinite(sum(flat)):
            body = sep.join([f"[{inner}  %r,{inner}  %r{inner}]"] * len(obj)) % flat
            return f"[{inner}{body}{indent}]"
    return f"[{inner}{sep.join(_text(item, inner) for item in obj)}{indent}]"


def dump_json(payload: Any) -> str:
    """Report text, exactly ``json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``: sorted keys, 2-space indent, ASCII escapes and
    a trailing newline. The stdlib's indenting encoder is pure Python; this
    one writes each matrix payload in one step."""
    return _text(payload, "\n") + "\n"


def write_json_atomic(path: str, payload: Any) -> None:
    """Write the report text of `dump_json` via a temp file under a random
    name in the same directory, then rename. The temp file is created with
    mode ``0o666``, which the kernel masks with the umask, as for a plain
    ``open``."""
    text = dump_json(payload)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str) -> Any:
    with open(path, "rb") as fh:  # json.load detects UTF-8, -16 or -32, whatever the locale
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
