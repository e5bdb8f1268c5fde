import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import brute_partitions, brute_ssyt, brute_syt
from schurkit.partitions import (
    Partition,
    add_box,
    canonical_key,
    canonical_sort,
    dim_P,
    dim_Q,
    enumerate_partitions,
    format_partition,
    interlaces,
    interlacing_set,
    parse_partition,
    remove_box,
    remove_box_set,
)


@st.composite
def partitions(draw, max_total=12):
    counts = draw(st.lists(st.integers(1, 4), min_size=0, max_size=5))
    parts = sorted(counts, reverse=True)
    while sum(parts) > max_total:
        parts.pop()
    return Partition(parts)


def test_normal_form_strips_trailing_zeros():
    assert Partition([2, 0]) == Partition([2])
    assert hash(Partition([3, 1, 0, 0])) == hash(Partition([3, 1]))
    assert len(Partition([0, 0])) == 0
    assert Partition([1] + [0] * 4000) == Partition([1])


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_parts_must_be_integers():
    for parts in ([2.7, 1.2], [2.0], ["3"], [1, 0.5], [None]):
        with pytest.raises(ValueError, match="must be integers"):
            Partition(parts)
    lam = Partition([np.int64(2), np.uint8(1), True])  # any integer type, as an int
    assert lam == Partition([2, 1, 1]) and all(type(v) is int for v in lam.parts)
    assert format_partition(lam) == "2,1,1"


def test_text_round_trip():
    assert format_partition(parse_partition("4,3,1,1")) == "4,3,1,1"
    assert parse_partition("4,3,1,1,0,0") == Partition([4, 3, 1, 1])
    assert format_partition(Partition()) == ""
    assert parse_partition("") == Partition()
    with pytest.raises(ValueError):
        parse_partition("a,b")


def test_enumerate_partitions_known_cases():
    assert enumerate_partitions(2, 2) == [Partition([2]), Partition([1, 1])]
    assert enumerate_partitions(2, 3) == [Partition([3]), Partition([2, 1])]
    assert enumerate_partitions(3, 4) == [
        Partition([4]),
        Partition([3, 1]),
        Partition([2, 2]),
        Partition([2, 1, 1]),
    ]
    assert enumerate_partitions(3, 0) == [Partition()]


def test_enumerate_partitions_matches_brute_force():
    for d in range(1, 5):
        for n in range(0, 9):
            got = enumerate_partitions(d, n)
            assert {p.parts for p in got} == brute_partitions(d, n)
            assert len(got) == len(set(got))
            assert all(p.size == n and len(p) <= d for p in got)


def test_canonical_order_is_descending_lex_and_idempotent():
    parts = enumerate_partitions(4, 7)
    keys = [canonical_key(p) for p in parts]
    assert keys == sorted(keys)
    assert canonical_sort(canonical_sort(parts[::-1])) == parts
    assert len(set(keys)) == len(keys)  # strict total order


def test_interlaces_examples():
    assert interlaces(Partition([3, 3, 1]), Partition([4, 3, 1, 1]))
    lam = Partition([4, 3, 1, 1])
    assert interlaces(Partition([4, 3, 1]), lam)  # drop the last part
    assert not interlaces(Partition([5]), lam)
    with pytest.raises(ValueError):
        interlaces(Partition([1, 1, 1, 1]), lam, d=4)
    with pytest.raises(ValueError):
        interlaces(Partition([1]), lam, d=3)


def test_interlacing_set_matches_definition():
    assert interlacing_set(Partition([3, 1]), 2) == [
        Partition([3]),
        Partition([2]),
        Partition([1]),
    ]
    for d, lam in [(2, Partition([4, 2])), (3, Partition([3, 2, 1])), (3, Partition([2]))]:
        mus = interlacing_set(lam, d)
        keys = [canonical_key(m) for m in mus]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for mu in mus:
            assert interlaces(mu, lam, d=d)
    assert interlacing_set(Partition([2]), 1) == [Partition()]
    with pytest.raises(ValueError, match="d must be"):
        interlacing_set(Partition(), 0)


def test_add_box_cases():
    assert add_box(Partition([3, 2, 1]), 2, d=3) == Partition([3, 3, 1])
    assert add_box(Partition([2, 2]), 2) is None  # (2,3) is not a partition
    assert add_box(Partition(), 1) == Partition([1])
    assert add_box(Partition([2]), 3) is None  # skips a row
    assert add_box(Partition([2]), 2, d=1) is None  # out of the d-row budget
    with pytest.raises(ValueError):
        add_box(Partition([1]), 0)


def test_remove_box_cases():
    assert set(remove_box_set(Partition([3, 2, 1]))) == {
        Partition([2, 2, 1]),
        Partition([3, 1, 1]),
        Partition([3, 2]),
    }
    # canonical (descending lex) order
    assert remove_box_set(Partition([3, 2, 1])) == [
        Partition([3, 2]),
        Partition([3, 1, 1]),
        Partition([2, 2, 1]),
    ]
    assert remove_box_set(Partition([5])) == [Partition([4])]
    assert remove_box_set(Partition([1, 1, 1])) == [Partition([1, 1])]
    assert remove_box_set(Partition()) == []
    assert remove_box(Partition([2, 2]), 1) is None
    assert remove_box(Partition([2, 2]), 2) == Partition([2, 1])


def test_remove_box_set_is_the_canonical_order_of_the_valid_removals():
    for n in range(9):
        for lam in enumerate_partitions(4, n):
            removals = (remove_box(lam, j) for j in range(1, len(lam) + 1))
            valid = [mu for mu in removals if mu is not None]
            assert remove_box_set(lam) == canonical_sort(valid)


def test_dim_P_examples_and_oracle():
    assert dim_P(Partition([2, 1])) == 2
    for n in range(1, 7):
        assert dim_P(Partition([n])) == 1
    assert dim_P(Partition([3, 2, 1])) == 16
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            assert dim_P(lam) == len(brute_syt(lam.parts))


def test_dim_Q_examples_and_oracle():
    assert dim_Q(Partition([2]), 2) == 3
    for l1 in range(5):
        for l2 in range(l1 + 1):
            assert dim_Q(Partition([l1, l2]), 2) == l1 - l2 + 1
    assert dim_Q(Partition([2, 1]), 3) == 8
    assert dim_Q(Partition([1, 1, 1]), 2) == 0
    for d in (2, 3):
        for n in range(0, 6):
            for lam in enumerate_partitions(d, n):
                assert dim_Q(lam, d) == len(brute_ssyt(lam.parts, d))


def test_pieri_identity():
    for d in range(1, 5):
        for m in range(0, 8):
            for lam in enumerate_partitions(d, m):
                total = 0
                for j in range(1, d + 1):
                    up = add_box(lam, j, d)
                    if up is not None:
                        total += dim_Q(up, d)
                assert d * dim_Q(lam, d) == total


def test_schur_duality_dimension_identity():
    for d in range(1, 5):
        for n in range(1, 9):
            total = sum(
                dim_Q(lam, d) * dim_P(lam) for lam in enumerate_partitions(d, n)
            )
            assert total == d**n


def test_branching_identities():
    for n in range(2, 8):
        for lam in enumerate_partitions(n, n):
            assert dim_P(lam) == sum(dim_P(mu) for mu in remove_box_set(lam))
    for d in range(2, 5):
        for n in range(0, 7):
            for lam in enumerate_partitions(d, n):
                assert dim_Q(lam, d) == sum(
                    dim_Q(mu, d - 1) for mu in interlacing_set(lam, d)
                )


@given(partitions())
def test_partition_properties(lam):
    assert Partition(lam.parts + (0, 0)) == lam
    for mu in remove_box_set(lam):
        assert mu.size == lam.size - 1
        assert interlaces(mu, lam)
    for j in range(1, len(lam) + 2):
        up = add_box(lam, j)
        if up is not None:
            assert up.size == lam.size + 1
            assert lam in remove_box_set(up)


@given(partitions(), st.integers(1, 5))
def test_dim_Q_monotone_in_d(lam, d):
    assert dim_Q(lam, d + 1) >= dim_Q(lam, d)
