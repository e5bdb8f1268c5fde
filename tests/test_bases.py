import pytest

from conftest import brute_ssyt, brute_syt
from schurkit.bases import (
    GzPattern,
    YyPath,
    decode_registers,
    encode_registers,
    enumerate_gz,
    enumerate_paths,
    format_path,
    format_ssyt,
    gz_to_ssyt,
    parse_path,
    parse_ssyt,
    path_from_record,
    rank_path,
    ssyt_to_gz,
    unrank_path,
)
from schurkit.partitions import Partition, dim_P, dim_Q, enumerate_partitions


def P(*parts):
    return Partition(parts)


def test_pattern_validation():
    GzPattern((P(2, 1), P(1)))
    with pytest.raises(ValueError):
        GzPattern((P(2, 1), P(3)))  # does not interlace
    with pytest.raises(ValueError):
        GzPattern((P(2), P(1, 1)))  # q_1 has too many parts
    with pytest.raises(ValueError):
        GzPattern(())


def test_path_validation():
    YyPath((P(2, 1), P(1, 1), P(1)))
    with pytest.raises(ValueError):
        YyPath((P(2, 1), P(1)))  # removes two boxes at once
    with pytest.raises(ValueError):
        YyPath((P(2),))  # does not end at (1)


def test_a_pattern_never_equals_a_path_of_the_same_partitions():
    chain = (P(2), P(1))
    q, p = GzPattern(chain), YyPath(chain)
    assert q != p and p != q and len({q, p}) == 2
    assert q == GzPattern(chain) and p == YyPath(chain)
    for label, name in ((q, "GzPattern"), (p, "YyPath")):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            label.chain = ()
        assert label.chain == chain
        assert repr(label) == f"{name}([[2], [1]])"


def test_defining_irrep_patterns():
    for d in (1, 2, 4):
        pats = enumerate_gz(P(1), d)
        assert len(pats) == d
        for j, pat in enumerate(pats, start=1):
            # chain {(0)^(j-1), (1)^(d-j+1)} for the basis vector |j>
            for level in range(1, d + 1):
                expected = P(1) if level >= j else P()
                assert pat.level(level) == expected


def test_enumerate_gz_counts_and_order():
    pats = enumerate_gz(P(2), 2)
    assert [pat.level(1) for pat in pats] == [P(2), P(1), P()]
    assert len(enumerate_gz(P(2, 1), 3)) == 8
    assert enumerate_gz(P(1, 1, 1), 2) == ()
    with pytest.raises(ValueError, match="d must be"):
        enumerate_gz(P(), 0)  # no level to stop at
    for d, n in [(3, 5), (4, 6)]:
        for lam in enumerate_partitions(d, n):
            assert len(enumerate_gz(lam, d)) == dim_Q(lam, d)


def test_enumerated_patterns_pass_public_validation():
    """enumerate_gz skips the interlacing checks; GzPattern(chain) agrees."""
    for d in range(1, 5):
        for n in range(7):
            for lam in enumerate_partitions(d, n):
                pats = enumerate_gz(lam, d)
                assert len(pats) == dim_Q(lam, d)
                for pat in pats:
                    assert GzPattern(pat.chain) == pat


def test_gz_to_ssyt_paper_chain():
    chain = (P(4, 3, 1, 1), P(3, 3, 1), P(3, 3, 1), P(3, 1), P(2))
    tableau = gz_to_ssyt(GzPattern(chain))
    assert tableau == [[1, 1, 2, 5], [2, 3, 3], [3], [5]]
    assert format_ssyt(tableau) == "1,1,2,5/2,3,3/3/5"
    assert parse_ssyt("1,1,2,5/2,3,3/3/5") == tableau


def test_gz_to_ssyt_defining_chain():
    for d in (1, 3):
        for j, pat in enumerate(enumerate_gz(P(1), d), start=1):
            assert gz_to_ssyt(pat) == [[j]]


def test_ssyt_round_trip_and_validation():
    for lam in enumerate_partitions(3, 3):
        for pat in enumerate_gz(lam, 3):
            assert ssyt_to_gz(gz_to_ssyt(pat), 3) == pat
    with pytest.raises(ValueError):
        ssyt_to_gz([[2, 1]], 2)  # row decreases
    with pytest.raises(ValueError):
        ssyt_to_gz([[1, 1], [1]], 2)  # column not strict
    with pytest.raises(ValueError):
        ssyt_to_gz([[1, 3]], 2)  # entry out of range


def test_ssyt_set_matches_brute_force():
    for d in (2, 3):
        for n in range(1, 5):
            for lam in enumerate_partitions(d, n):
                ours = {
                    tuple(tuple(r) for r in gz_to_ssyt(pat))
                    for pat in enumerate_gz(lam, d)
                }
                assert ours == set(brute_ssyt(lam.parts, d))


def test_enumerate_paths_counts():
    assert len(enumerate_paths(P(2, 1))) == 2
    assert len(enumerate_paths(P(5))) == 1
    assert len(enumerate_paths(P(3, 2, 1))) == 16
    for d, n in [(3, 5), (4, 6)]:
        for lam in enumerate_partitions(d, n):
            assert len(enumerate_paths(lam)) == dim_P(lam)


def test_enumerated_paths_pass_public_validation():
    """enumerate_paths skips the one-box checks; YyPath(chain) agrees."""
    for n in range(1, 10):
        for lam in enumerate_partitions(n, n):
            paths = enumerate_paths(lam)
            assert len(paths) == dim_P(lam)
            for path in paths:
                assert YyPath(path.chain) == path


def test_paths_match_standard_tableaux_counts():
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            assert len(enumerate_paths(lam)) == len(brute_syt(lam.parts))


def test_path_record_round_trip():
    p = path_from_record([1, 2, 1, 3])
    assert p.top == P(3, 1, 1)
    assert p.box_record == (1, 2, 1, 3)
    assert parse_path(format_path(p)) == p
    assert format_path(enumerate_paths(P(1))[0]) == ""
    with pytest.raises(ValueError):
        path_from_record([3])  # skips row 2 entirely


def test_rank_path_examples():
    paths = enumerate_paths(P(2, 1))
    assert [rank_path(p) for p in paths] == [1, 2]
    # first path under the order goes through the lex-largest predecessors
    assert paths[0].box_record == (1, 2)
    assert rank_path(enumerate_paths(P(4))[0]) == 1


def test_rank_unrank_round_trip_and_order():
    for lam in enumerate_partitions(3, 6):
        paths = enumerate_paths(lam)
        ranks = [rank_path(p) for p in paths]
        assert ranks == list(range(1, dim_P(lam) + 1))
        for p, r in zip(paths, ranks):
            assert unrank_path(lam, r) == p
    with pytest.raises(ValueError):
        unrank_path(P(2, 1), 3)
    with pytest.raises(ValueError):
        unrank_path(P(2, 1), 0)


def test_encode_registers_layout():
    lam = P(2)
    q = enumerate_gz(lam, 2)[0]
    p = enumerate_paths(lam)[0]
    bits = encode_registers(lam, q, p, 2, 2)
    # lambda fields, width ceil(log2(3)) = 2: "10" then "00"
    assert bits.startswith("10" + "00")
    # GZ triangle: q_2 = (2,0) then q_1 = (2); path j_1 = 1 stored as 0
    assert bits == "1000" + "1000" + "10" + "0"
    assert decode_registers(bits, 2, 2) == (lam, q, p)


def test_encode_all_first_row_path_is_zero_bits():
    lam = P(4)
    q = enumerate_gz(lam, 2)[0]
    p = enumerate_paths(lam)[0]
    bits = encode_registers(lam, q, p, 4, 2)
    width = 3  # ceil(log2(5))
    path_bits = bits[-(4 - 1) :]
    assert path_bits == "000"


def test_encode_decode_round_trip_all_n3_d2():
    n, d = 3, 2
    for lam in enumerate_partitions(d, n):
        for q in enumerate_gz(lam, d):
            for p in enumerate_paths(lam):
                bits = encode_registers(lam, q, p, n, d)
                assert set(bits) <= {"0", "1"}
                assert decode_registers(bits, n, d) == (lam, q, p)


def test_decode_rejects_malformed():
    lam = P(2, 1)
    q = enumerate_gz(lam, 2)[0]
    p = enumerate_paths(lam)[0]
    bits = encode_registers(lam, q, p, 3, 2)
    with pytest.raises(ValueError):
        decode_registers(bits[:-1], 3, 2)
    with pytest.raises(ValueError):
        decode_registers("2" + bits[1:], 3, 2)
    with pytest.raises(ValueError):
        encode_registers(lam, q, enumerate_paths(P(3))[0], 3, 2)


def test_d1_has_zero_width_path_fields():
    lam = P(3)
    q = enumerate_gz(lam, 1)[0]
    p = enumerate_paths(lam)[0]
    bits = encode_registers(lam, q, p, 3, 1)
    assert decode_registers(bits, 3, 1) == (lam, q, p)
