"""The streaming JSON writer: array payloads against their list form."""

import json
import math

import numpy as np
import pytest

from schurkit.circuit import two_level_decompose
from schurkit.cli import run
from schurkit.clebsch_gordan import cg_block
from schurkit.jsonform import (
    CHUNK_FLOATS,
    Records,
    array,
    dump,
    dumps,
    emit,
    fmt_float,
    lists,
    pairs,
)
from schurkit.partitions import Partition
from schurkit.schur import schur_unitary


def _list_text(obj) -> str:
    """Reference JSON text built item by item, every number with fmt_float."""
    if isinstance(obj, dict):
        return "{" + ",".join(f'"{k}":{_list_text(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_list_text(v) for v in obj) + "]"
    if isinstance(obj, str):
        return f'"{obj}"'
    return fmt_float(obj)


def _matrix_lists(obj):
    """A real matrix as [x, 0] pairs, straight from the array."""
    return [[[x, 0] for x in row] for row in obj.matrix.tolist()]


def _gate_lists(gl):
    """The gate records, straight from the GateList's arrays."""
    rotations = [
        {"kind": "rot", "a": a, "b": b, "block": [[[z.real, z.imag] for z in r] for r in block]}
        for (a, b), block in zip(gl.pairs.tolist(), gl.blocks.tolist())
    ]
    phases = [
        {"kind": "phase", "a": a, "value": [z.real, z.imag]}
        for a, z in zip(gl.phase_index.tolist(), gl.phases.tolist())
    ]
    return rotations + phases


PAYLOADS = {
    "schur": (lambda: schur_unitary(4, 3), "matrix", _matrix_lists),
    "cg": (lambda: cg_block(Partition([3, 2]), 4), "matrix", _matrix_lists),
    "gates": (
        lambda: two_level_decompose(schur_unitary(4, 2).matrix.astype(complex)),
        "gates",
        _gate_lists,
    ),
}


@pytest.mark.parametrize("name", PAYLOADS)
def test_streamed_payload_equals_list_text(name, tmp_path):
    make, key, reference = PAYLOADS[name]
    obj = make()
    path = tmp_path / f"{name}.json"
    payload = obj.json_payload()
    dump(payload, str(path))
    expected = dict(payload, **{key: reference(obj)})
    assert path.read_text() == _list_text(expected) + "\n"
    with open(path) as fh:
        assert json.load(fh) == expected
    lists_form = obj.to_json()
    assert lists_form == expected
    assert path.read_bytes() == (dumps(lists_form) + "\n").encode()


def _keep_negative_zero(text: str):
    return -0.0 if text == "-0" else int(text)


def _typed(obj):
    """obj with each leaf as (type, repr), so 1 differs from 1.0 and -0.0 from 0.0."""
    if isinstance(obj, dict):
        return {k: _typed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_typed(v) for v in obj]
    return type(obj).__name__, repr(obj)


@pytest.mark.parametrize(
    "argv, key, to_json",
    [
        (["schur", "--n", "3", "--d", "3"], None, lambda: schur_unitary(3, 3).to_json()),
        (
            ["cg", "--lambda", "2,1,1", "--d", "4"],
            None,
            lambda: cg_block(Partition([2, 1, 1]), 4).to_json(),
        ),
        (
            ["circuit", "--n", "4", "--d", "2", "--decompose"],
            "gate_list",
            lambda: two_level_decompose(schur_unitary(4, 2).matrix.astype(complex)).to_json(),
        ),
    ],
)
def test_to_json_is_the_file_read_back(argv, key, to_json, tmp_path, capsys):
    """to_json() equals json.load of the CLI's file, types included; "-0" is
    read as the float -0.0 (the circuit file holds some)."""
    path = tmp_path / "out.json"
    assert run(argv + ["--json", str(path)]) == 0
    capsys.readouterr()
    with open(path) as fh:
        data = json.load(fh, parse_int=_keep_negative_zero)
    if key is not None:
        data = data[key]
    assert _typed(to_json()) == _typed(data)


def _special_floats() -> np.ndarray:
    rng = np.random.default_rng(3)
    tiny = np.finfo(float).tiny
    values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, tiny, tiny / 3, 1.0, -1.0]
    values += rng.standard_normal(20).astype(np.float32).astype(float).tolist()
    values += (rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)).tolist()
    return np.array(values)


def test_array_floats_format_as_fmt_float():
    values = _special_floats()
    expected = [fmt_float(x) for x in values.tolist()]
    assert dumps(array(values)) == "[" + ",".join(expected) + "]"
    as_float32 = values[11:31].astype(np.float32)
    assert dumps(array(as_float32)) == "[" + ",".join(map(fmt_float, as_float32)) + "]"
    grid = values[:48].reshape(4, 12)
    assert dumps(array(grid)) == _list_text(grid.tolist())


def test_pairs_format_as_fmt_float():
    values = _special_floats()
    real = values[:48].reshape(6, 8)
    assert dumps(pairs(real)) == _list_text(
        [[[x, 0.0] for x in row] for row in real.tolist()]
    )
    # +0.0 imaginary parts print as "0", so a real matrix needs no complex copy
    assert dumps(pairs(real)) == dumps(pairs(real.astype(complex)))
    cplx = (values[:40] + 1j * values[::-1][:40]).reshape(5, 8)
    cplx[0, 0] = complex(1.0, -0.0)  # a complex array keeps its -0.0
    pair_lists = [[[z.real, z.imag] for z in row] for row in cplx.tolist()]
    assert dumps(pairs(cplx)) == _list_text(pair_lists)
    assert dumps(pairs(cplx)).startswith("[[[1,-0],")
    assert dumps(pairs(cplx.T)) == _list_text([list(r) for r in zip(*pair_lists)])


@pytest.mark.parametrize("width", [4096, 3])
def test_chunk_edges(width):
    rows_per_chunk = CHUNK_FLOATS // width
    rng = np.random.default_rng(width)
    for rows in (0, 1, rows_per_chunk, rows_per_chunk + 1, 2 * rows_per_chunk + 1):
        a = rng.standard_normal((rows, width))
        pieces: list[str] = []
        emit(array(a), pieces.append)
        text = "".join(pieces)
        assert text == _list_text(a.tolist()), rows
        assert json.loads(text) == a.tolist()
        # each write holds at most one chunk of rows, and every row is written
        assert max(p.count("[") for p in pieces) <= rows_per_chunk
        assert len(pieces) >= 2 + math.ceil(rows / rows_per_chunk)


def test_chunk_edges_of_pairs_and_empty_rows(tmp_path):
    rows_per_chunk = CHUNK_FLOATS // (2 * 64)
    rng = np.random.default_rng(0)
    for rows in (0, 1, rows_per_chunk, rows_per_chunk + 1):
        z = rng.standard_normal((rows, 64)) + 1j * rng.standard_normal((rows, 64))
        path = tmp_path / "z.json"
        dump({"m": pairs(z)}, str(path))
        expected = [[[v.real, v.imag] for v in row] for row in z.tolist()]
        assert path.read_text() == '{"m":' + _list_text(expected) + "}\n", rows
    assert dumps(array(np.zeros((3, 0)))) == "[[],[],[]]"
    assert dumps(pairs(np.zeros((0, 5)))) == "[]"


def test_containers_and_scalars():
    obj = {"a": [], "b": {}, "c": (1, np.int64(-2)), "d": [True, False], "e": 'q"\\', "f": 0.5}
    text = dumps(obj)
    assert text == '{"a":[],"b":{},"c":[1,-2],"d":[true,false],"e":"q\\"\\\\","f":0.5}'
    assert json.loads(text) == {"a": [], "b": {}, "c": [1, -2], "d": [True, False], "e": 'q"\\', "f": 0.5}
    assert lists(obj) == json.loads(text)


@pytest.mark.parametrize(
    "a",
    [
        np.arange(3),
        np.zeros(3),
        np.zeros((2, 2), dtype=np.float32),
        np.zeros(2, dtype=complex),
        np.zeros(2, dtype=bool),
        np.array(1.5),
        np.empty((0, 2)),
    ],
    ids=lambda a: f"{a.dtype}{a.shape}",
)
def test_bare_ndarray_is_rejected(a):
    """Only Records carry arrays: wrap one in `array` or `pairs`."""
    with pytest.raises(TypeError):
        dumps({"x": a})
    with pytest.raises(TypeError):
        lists([a])


def test_records_stream_sections_in_order():
    """Sections share one list: commas between them, none before an empty one,
    and every write holds at most one chunk of records."""
    rng = np.random.default_rng(5)
    rows_per_chunk = CHUNK_FLOATS // 3
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
    emit({"r": records}, pieces.append)
    text = "".join(pieces)
    assert text == '{"r":' + _list_text(expected) + "}"
    assert lists(records) == expected == json.loads(text)["r"]
    assert max(p.count("{") for p in pieces) <= rows_per_chunk
    assert dumps(Records(())) == dumps(Records((("[%.17g]", empty),))) == "[]"


def test_records_list_form_keeps_negative_zero():
    records = Records((("[%.17g,%d]", np.array([[-0.0, -0.0], [0.0, 1.0]])),))
    assert dumps(records) == "[[-0,0],[0,1]]"
    lists_form = lists(records)
    assert math.copysign(1.0, lists_form[0][0]) == -1.0
    assert dumps(lists_form) == dumps(records)
