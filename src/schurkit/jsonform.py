"""The JSON wire format of schurkit: deterministic text streamed from arrays.

This module owns the format. A payload is a tree of dicts, lists, tuples,
scalars and `Records`, float arrays that stand for a JSON list with one item
per array row. `array` and `pairs` give the Records of a nested list of
floats and of a nested list of [re, im] pairs. SchurUnitary, CgBlock and
GateList each describe their schema once, as such a payload
(`json_payload()`).

`emit` writes a payload row by row straight from the arrays, every float with
17 significant digits, so equal payloads give byte-identical text; `dump`
writes it to a file. `lists(payload)` is that text read back, which is what
json.load of the file gives (with -0 kept as the float -0.0); the `to_json()`
methods return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Floats formatted per write when an array is streamed; bounds the text and
# the Python floats alive at once.
CHUNK_FLOATS = 1 << 16


@dataclass(frozen=True, eq=False)
class Records:
    """A JSON list written section by section, one item per array row.

    Each section pairs a row template, the text of one item with one
    %-placeholder (%d or %.17g) per float of a row, with an array whose rows
    fill it in. The list holds every section's items in order.
    """

    sections: tuple[tuple[str, np.ndarray], ...]


def array(a: np.ndarray, entry: str = "%.17g") -> Records:
    """A real array as nested lists, the template `entry` per item."""
    row = entry
    for size in reversed(a.shape[1:]):
        row = "[" + ",".join([row] * size) + "]"
    return Records(((row, a),))


def pairs(values: np.ndarray) -> Records:
    """An array as nested [re, im] pairs.

    A real array is written as is, with im = +0.0 (the text "0"), so a real
    matrix needs no complex copy.
    """
    if not np.iscomplexobj(values):
        return array(values, "[%.17g,0]")
    values = np.ascontiguousarray(values, dtype=complex)
    return array(values.view(float).reshape(*values.shape, 2))


def fmt_float(x: float) -> str:
    """17 significant digits; the same text as format(float(x), ".17g")."""
    return "%.17g" % x


def emit(obj, write) -> None:
    """Write obj as deterministic JSON through `write`.

    Dicts, lists and tuples are walked. A Records is written at most
    CHUNK_FLOATS floats per write, each chunk of rows by one %-format of its
    joined row templates, so no nested list and no per-float call is made.
    An ndarray must be wrapped in `array` or `pairs`.
    """
    if isinstance(obj, dict):
        sep = "{"
        for k, v in obj.items():
            write(f'{sep}"{k}":')
            emit(v, write)
            sep = ","
        write("}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for v in obj:
            write(sep)
            emit(v, write)
            sep = ","
        write("]" if obj else "[]")
    elif isinstance(obj, Records):
        write("[")
        sep = ""
        for row, values in obj.sections:
            step = max(1, CHUNK_FLOATS // max(1, math.prod(values.shape[1:])))
            for start in range(0, len(values), step):
                chunk = values[start : start + step]
                write((sep + ",".join([row] * len(chunk))) % tuple(chunk.ravel().tolist()))
                sep = ","
        write("]")
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(fmt_float(obj))
    elif isinstance(obj, str):
        write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    """The JSON text of obj."""
    parts: list[str] = []
    emit(obj, parts.append)
    return "".join(parts)


def dump(obj, path: str) -> None:
    """Stream obj as JSON to path, ending in a newline."""
    with open(path, "w") as fh:
        emit(obj, fh.write)
        fh.write("\n")


def _parse_int(text: str):
    # %.17g writes -0.0 as "-0", which would read back as the int 0.
    return -0.0 if text == "-0" else int(text)


def lists(obj):
    """obj as JSON-native objects: its text read back."""
    import json  # here, not at the top: the CLI never needs it, ~3 ms of start-up

    return json.loads(dumps(obj), parse_int=_parse_int)
