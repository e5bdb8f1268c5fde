"""The streaming JSON writer: array payloads against their list form."""

import json
import math

import numpy as np
import pytest

from schurkit.circuit import two_level_decompose
from schurkit.cli import _CHUNK_FLOATS, _emit, _fmt_float, _to_json_text, _write_json
from schurkit.clebsch_gordan import cg_block
from schurkit.jsonform import Pairs, Records, json_lists
from schurkit.partitions import Partition
from schurkit.schur import schur_unitary


def _list_text(obj) -> str:
    """Reference JSON text built float by float with _fmt_float."""
    if isinstance(obj, list):
        return "[" + ",".join(_list_text(v) for v in obj) + "]"
    return _fmt_float(obj)


PAYLOADS = {
    "schur": lambda: schur_unitary(4, 3),
    "cg": lambda: cg_block(Partition([3, 2]), 4),
    "gates": lambda: two_level_decompose(schur_unitary(4, 2).matrix.astype(complex)),
}


@pytest.mark.parametrize("name", PAYLOADS)
def test_streamed_payload_equals_list_text(name, tmp_path):
    obj = PAYLOADS[name]()
    path = tmp_path / f"{name}.json"
    _write_json(str(path), obj.json_payload())
    lists = obj.to_json()
    assert path.read_bytes() == (_to_json_text(lists) + "\n").encode()
    with open(path) as fh:
        assert json.load(fh) == lists


def _special_floats() -> np.ndarray:
    rng = np.random.default_rng(3)
    tiny = np.finfo(float).tiny
    values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, tiny, tiny / 3, 1.0, -1.0]
    values += rng.standard_normal(20).astype(np.float32).astype(float).tolist()
    values += (rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)).tolist()
    return np.array(values)


def test_array_floats_format_as_fmt_float():
    values = _special_floats()
    expected = [_fmt_float(x) for x in values.tolist()]
    assert _to_json_text(values) == "[" + ",".join(expected) + "]"
    as_float32 = values[11:31].astype(np.float32)
    assert _to_json_text(as_float32) == "[" + ",".join(map(_fmt_float, as_float32)) + "]"
    grid = values[:48].reshape(4, 12)
    assert _to_json_text(grid) == _list_text(grid.tolist())


def test_pairs_format_as_fmt_float():
    values = _special_floats()
    real = values[:48].reshape(6, 8)
    assert _to_json_text(Pairs(real)) == _list_text(
        [[[x, 0.0] for x in row] for row in real.tolist()]
    )
    # +0.0 imaginary parts print as "0", so a real matrix needs no complex copy
    assert _to_json_text(Pairs(real)) == _to_json_text(Pairs(real.astype(complex)))
    cplx = (values[:40] + 1j * values[::-1][:40]).reshape(5, 8)
    cplx[0, 0] = complex(1.0, -0.0)  # a complex array keeps its -0.0
    pairs = [[[z.real, z.imag] for z in row] for row in cplx.tolist()]
    assert _to_json_text(Pairs(cplx)) == _list_text(pairs)
    assert _to_json_text(Pairs(cplx)).startswith("[[[1,-0],")
    assert _to_json_text(Pairs(cplx.T)) == _list_text([list(r) for r in zip(*pairs)])


@pytest.mark.parametrize("width", [4096, 3])
def test_chunk_edges(width):
    rows_per_chunk = _CHUNK_FLOATS // width
    rng = np.random.default_rng(width)
    for rows in (0, 1, rows_per_chunk, rows_per_chunk + 1, 2 * rows_per_chunk + 1):
        a = rng.standard_normal((rows, width))
        pieces: list[str] = []
        _emit(a, pieces.append)
        text = "".join(pieces)
        assert text == _list_text(a.tolist()), rows
        assert json.loads(text) == a.tolist()
        # each write holds at most one chunk of rows, and every row is written
        assert max(p.count("[") for p in pieces) <= rows_per_chunk
        assert len(pieces) >= 2 + math.ceil(rows / rows_per_chunk)


def test_chunk_edges_of_pairs_and_empty_rows(tmp_path):
    rows_per_chunk = _CHUNK_FLOATS // (2 * 64)
    rng = np.random.default_rng(0)
    for rows in (0, 1, rows_per_chunk, rows_per_chunk + 1):
        z = rng.standard_normal((rows, 64)) + 1j * rng.standard_normal((rows, 64))
        path = tmp_path / "z.json"
        _write_json(str(path), {"m": Pairs(z)})
        expected = [[[v.real, v.imag] for v in row] for row in z.tolist()]
        assert path.read_text() == '{"m":' + _list_text(expected) + "}\n", rows
    assert _to_json_text(np.zeros((3, 0))) == "[[],[],[]]"
    assert _to_json_text(Pairs(np.zeros((0, 5)))) == "[]"


def test_containers_and_scalars():
    obj = {"a": [], "b": {}, "c": (1, np.int64(-2)), "d": [True, False], "e": 'q"\\', "f": 0.5}
    text = _to_json_text(obj)
    assert text == '{"a":[],"b":{},"c":[1,-2],"d":[true,false],"e":"q\\"\\\\","f":0.5}'
    assert json.loads(text) == {"a": [], "b": {}, "c": [1, -2], "d": [True, False], "e": 'q"\\', "f": 0.5}
    with pytest.raises(TypeError):
        _to_json_text({"x": np.arange(3)})


def test_records_stream_sections_in_order():
    """Sections share one list: commas between them, none before an empty one,
    and every write holds at most one chunk of records."""
    rng = np.random.default_rng(5)
    rows_per_chunk = _CHUNK_FLOATS // 3
    first = np.column_stack(
        [np.arange(rows_per_chunk + 1), rng.standard_normal((rows_per_chunk + 1, 2))]
    )
    last = rng.standard_normal((2, 1))
    empty = np.empty((0, 1))
    records = Records(
        (
            ("[%.17g]", empty),
            ('{"i":%d,"x":[%.17g,%.17g]}', first),
            ("[%.17g]", empty),
            ('{"y":%.17g}', last),
        )
    )
    expected = [{"i": int(i), "x": [x, y]} for i, x, y in first.tolist()]
    expected += [{"y": y} for (y,) in last.tolist()]
    pieces: list[str] = []
    _emit({"r": records}, pieces.append)
    text = "".join(pieces)
    assert text == '{"r":' + _to_json_text(expected) + "}"
    assert json_lists(records) == expected == json.loads(text)["r"]
    assert max(p.count("{") for p in pieces) <= rows_per_chunk
    assert _to_json_text(Records(())) == _to_json_text(Records((("[%.17g]", empty),))) == "[]"


def test_records_list_form_keeps_negative_zero():
    records = Records((("[%.17g,%d]", np.array([[-0.0, -0.0], [0.0, 1.0]])),))
    assert _to_json_text(records) == "[[-0,0],[0,1]]"
    lists = json_lists(records)
    assert math.copysign(1.0, lists[0][0]) == -1.0
    assert _to_json_text(lists) == _to_json_text(records)
