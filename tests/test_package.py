"""The package surface: its export list, the identity semantics of the types
that hold arrays, and the input checks of the public constructors and
functions."""

import copy
import types

import numpy as np
import pytest

import schurkit
from schurkit.bases import (
    GzPattern,
    YyPath,
    decode_registers,
    encode_registers,
    enumerate_gz,
    enumerate_paths,
    ssyt_to_gz,
)
from schurkit.circuit import Gate
from schurkit.clebsch_gordan import cg_block
from schurkit.jsonform import Records
from schurkit.oracle import Permutation, StandardTableauFilling, extract_irrep
from schurkit.partitions import Partition, dim_Q, interlacing_set, remove_box
from schurkit.schur import schur_unitary
from schurkit.wigner import ReducedWignerQuery


def P(*parts):
    return Partition(parts)


def test_export_list_resolves_and_names_every_public_binding():
    for name in schurkit.__all__:
        assert hasattr(schurkit, name), name
    bound = {
        name
        for name, value in vars(schurkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(schurkit.__all__)
    assert len(schurkit.__all__) == len(set(schurkit.__all__))


@pytest.mark.parametrize(
    "make",
    [
        lambda: schur_unitary(2, 2),
        lambda: cg_block(P(2, 1), 3),
        lambda: Gate("rot", 0, 1, block=np.eye(2, dtype=complex)),
        lambda: Records((("%d", np.arange(3)),)),
    ],
    ids=["SchurUnitary", "CgBlock", "Gate", "Records"],
)
def test_types_holding_arrays_compare_and_hash_by_identity(make):
    x = make()
    hash(x)
    assert x == x
    assert x != copy.copy(x)
    assert len({x, x}) == 1


def _mismatched_lambda_bits():
    # the (3) field in front of the pattern and path of (2,1), at n = 3, d = 2
    lam = P(2, 1)
    bits = encode_registers(lam, enumerate_gz(lam, 2)[0], enumerate_paths(lam)[0], 3, 2)
    top = encode_registers(P(3), enumerate_gz(P(3), 2)[0], enumerate_paths(P(3))[0], 3, 2)
    return top[:4] + bits[4:]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GzPattern([P(1), (1,)]), ValueError, "chain entries must be Partitions"),
        (lambda: YyPath([]), ValueError, "empty path"),
        (lambda: enumerate_paths(P()), ValueError, "at least one box"),
        (lambda: ssyt_to_gz([[1], []], 2), ValueError, "empty tableau row"),
        (
            lambda: decode_registers(_mismatched_lambda_bits(), 3, 2),
            ValueError,
            "disagree on lambda",
        ),
        (
            lambda: setattr(Permutation([2, 1]), "images", (1, 2)),
            AttributeError,
            "Permutation is immutable",
        ),
        (lambda: setattr(P(1), "parts", (2,)), AttributeError, "Partition is immutable"),
        (lambda: Permutation([1]).compose(Permutation([2, 1])), ValueError, "size mismatch"),
        (
            lambda: StandardTableauFilling(P(2), [[1, 3]]),
            ValueError,
            "entries must be exactly 1..n",
        ),
        (
            lambda: StandardTableauFilling(P(1, 1), [[2], [1]]),
            ValueError,
            "columns must increase top to bottom",
        ),
        (
            lambda: extract_irrep(schur_unitary(3, 2), P(1, 1, 1), np.eye(2)),
            KeyError,
            "no block for",
        ),
        (lambda: P(1).part(0), IndexError, "rows are 1-based"),
        (lambda: interlacing_set(P(1, 1, 1), 2), ValueError, "needs more than d=2 rows"),
        (lambda: remove_box(P(2, 1), 0), ValueError, "row index j is 1-based"),
        (lambda: dim_Q(P(1), 0), ValueError, "d must be >= 1"),
        (lambda: ReducedWignerQuery(P(1), 1, P(), 0, 0), ValueError, "d must be >= 1"),
        (
            lambda: ReducedWignerQuery(P(2, 1), 1, P(1, 1), 1, 2),
            ValueError,
            "needs more than d-1 rows",
        ),
    ],
    ids=[
        "GzPattern-entry",
        "YyPath-empty",
        "enumerate_paths-empty",
        "ssyt_to_gz-empty-row",
        "decode_registers-lambda",
        "Permutation-assign",
        "Partition-assign",
        "Permutation-compose-sizes",
        "StandardTableauFilling-entries",
        "StandardTableauFilling-columns",
        "extract_irrep-no-block",
        "Partition-part-0",
        "interlacing_set-rows",
        "remove_box-0",
        "dim_Q-d0",
        "ReducedWignerQuery-d0",
        "ReducedWignerQuery-mu-prime-rows",
    ],
)
def test_input_checks_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
