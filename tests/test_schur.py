import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest

from schurkit import clebsch_gordan, schur
from schurkit.bases import enumerate_gz, enumerate_paths, gz_to_ssyt
from schurkit.oracle import extract_perm_irrep, standard_fillings, transposition
from schurkit.partitions import Partition, dim_P, dim_Q, enumerate_partitions
from schurkit.schur import (
    ResourceLimitError,
    compress_p,
    decompress_p,
    schur_apply,
    schur_labels,
    schur_unitary,
)


def P(*parts):
    return Partition(parts)


S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)
S6 = 1 / math.sqrt(6)

# The displayed 4x4 change of basis (rows labeled by our canonical order:
# (2) top, (2) middle, (2) bottom, then (1,1)).
N2_EXPECTED = {
    (P(2), 0): [1, 0, 0, 0],
    (P(2), 1): [0, S2, S2, 0],
    (P(2), 2): [0, 0, 0, 1],
    (P(1, 1), 0): [0, S2, -S2, 0],
}

# The eight displayed n=3 basis vectors, keyed by (lambda, gz index); the
# two paths of (2,1) are a set per gz index.
N3_EXPECTED = {
    (P(3), 0): [[1, 0, 0, 0, 0, 0, 0, 0]],
    (P(3), 1): [[0, S3, S3, 0, S3, 0, 0, 0]],
    (P(3), 2): [[0, 0, 0, S3, 0, S3, S3, 0]],
    (P(3), 3): [[0, 0, 0, 0, 0, 0, 0, 1]],
    (P(2, 1), 0): [
        [0, 0, S2, 0, -S2, 0, 0, 0],
        [0, math.sqrt(2 / 3), -S6, 0, -S6, 0, 0, 0],
    ],
    (P(2, 1), 1): [
        [0, 0, 0, S2, 0, -S2, 0, 0],
        [0, 0, 0, S6, 0, S6, -math.sqrt(2 / 3), 0],
    ],
}


def _match_up_to_phase(row, expected, tol=1e-12):
    inner = abs(np.vdot(expected, row))
    return abs(inner - 1.0) < tol


def test_n1_is_identity_with_labels():
    for d in (1, 3):
        su = schur_unitary(1, d)
        assert np.array_equal(su.matrix, np.eye(d))
        assert len(su.row_labels) == d
        for j, (lam, q, p) in enumerate(su.row_labels, start=1):
            assert lam == P(1)
            assert q == enumerate_gz(P(1), d)[j - 1]
            assert p.box_record == ()


def test_n2_d2_matches_paper_rows():
    su = schur_unitary(2, 2)
    for (lam, q, p), row in zip(su.row_labels, su.matrix):
        qi = enumerate_gz(lam, 2).index(q)
        assert _match_up_to_phase(row, N2_EXPECTED[(lam, qi)])


def test_n3_d2_matches_paper_rows():
    su = schur_unitary(3, 2)
    used = set()
    for (lam, q, p), row in zip(su.row_labels, su.matrix):
        qi = enumerate_gz(lam, 2).index(q)
        candidates = N3_EXPECTED[(lam, qi)]
        hits = [
            k
            for k, exp in enumerate(candidates)
            if (lam, qi, k) not in used and _match_up_to_phase(row, exp)
        ]
        assert hits, (lam, qi, row)
        used.add((lam, qi, hits[0]))
    assert len(used) == 8


def test_row_labels_cover_and_index():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        su = schur_unitary(n, d)
        assert len(su.row_labels) == d**n
        assert len(set(su.row_labels)) == d**n
        assert schur_labels(n, d) == list(su.row_labels)
        total = 0
        for lam, start, dq, dp in su.blocks:
            assert start == total
            assert dq == dim_Q(lam, d) and dp == dim_P(lam)
            total += dq * dp
        assert total == d**n


def test_unitarity():
    for n, d in [(4, 2), (5, 2), (3, 3), (2, 5)]:
        m = schur_unitary(n, d).matrix
        assert np.max(np.abs(m @ m.T - np.eye(d**n))) < 1e-12


def test_forward_on_basis_state():
    su = schur_unitary(2, 2)
    out = schur_apply(np.array([1, 0, 0, 0]), 2, 2)
    r = su.row_labels.index((P(2), enumerate_gz(P(2), 2)[0], enumerate_paths(P(2))[0]))
    expect = np.zeros(4)
    expect[r] = 1
    assert np.allclose(out, expect, atol=1e-15)


def test_apply_round_trip_random():
    rng = np.random.default_rng(20)
    for n, d in [(2, 2), (3, 2), (4, 2), (6, 2), (3, 3)]:
        for _ in range(10):
            v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
            v /= np.linalg.norm(v)
            f = schur_apply(v, n, d, "forward")
            assert abs(np.linalg.norm(f) - 1.0) < 1e-12
            back = schur_apply(f, n, d, "inverse")
            assert np.max(np.abs(back - v)) < 1e-12


def test_rotation_only_conjugate_is_q_tensor_identity():
    # with s = e the conjugated tensor power is block diag q(U) (x) I_P
    from schurkit.oracle import conjugate_by_schur, haar_unitary

    rng = np.random.default_rng(23)
    for n, d in [(4, 2), (3, 3)]:
        su = schur_unitary(n, d)
        for _ in range(3):
            w = conjugate_by_schur(su, u=haar_unitary(d, rng))
            for lam, start, dq, dp in su.blocks:
                blk = w[start : start + dq * dp, start : start + dq * dp]
                w[start : start + dq * dp, start : start + dq * dp] = 0.0
                t = blk.reshape(dq, dp, dq, dp)
                qhat = t[:, 0, :, 0]
                expect = np.einsum("ac,bd->abcd", qhat, np.eye(dp))
                assert np.max(np.abs(t - expect)) < 1e-10
            assert np.max(np.abs(w)) < 1e-10


def test_forward_matches_matrix():
    rng = np.random.default_rng(21)
    # (4,4), (3,8), (2,16) reach CG blocks stored as weight sub-blocks
    for n, d in [(3, 2), (2, 3), (4, 2), (4, 4), (3, 8), (2, 16)]:
        su = schur_unitary(n, d)
        v = rng.standard_normal(d**n)
        assert np.allclose(schur_apply(v, n, d), su.matrix @ v, atol=1e-13)
        back = schur_apply(v, n, d, "inverse")
        assert np.allclose(back, su.matrix.T @ v, atol=1e-13)


def test_singlet_times_zero_lives_in_mixed_block():
    # (|12> - |21>)|1> / sqrt(2) has no overlap with the lambda = (3) block
    v = np.zeros(8)
    v[0b010] = S2  # |1,2,1>
    v[0b100] = -S2  # |2,1,1>
    out = schur_apply(v, 3, 2)
    su = schur_unitary(3, 2)
    for (lam, q, p), amp in zip(su.row_labels, out):
        if lam == P(3):
            assert abs(amp) < 1e-14
    assert abs(np.linalg.norm(out) - 1.0) < 1e-14


LAYOUT_SIZES = (
    [(n, 2) for n in range(1, 13)]
    + [(n, 3) for n in range(1, 8)]
    + [(n, 4) for n in range(1, 7)]
    + [(n, 6) for n in range(1, 5)]
)


def test_cascade_matches_matrix_in_every_layout():
    """Forward and inverse, with one and with three columns, real and
    complex, against the dense matrix: the step where the cascade leaves
    the paths-major layout depends on n, d and the number of columns."""
    rng = np.random.default_rng(24)
    switches = set()
    for n, d in LAYOUT_SIZES:
        dim = d**n
        m = schur_unitary(n, d).matrix
        for cols in (1, 3):
            rests = [d ** (n - k - 1) * cols for k in range(1, n)]
            layouts = [schur._step(k, d).layout(r) for k, r in enumerate(rests, 1)]
            switches.add(tuple(layouts))
            real = rng.standard_normal((dim, cols))
            for x in (real, real + 1j * rng.standard_normal((dim, cols))):
                for direction, ref in (("forward", m), ("inverse", m.T)):
                    out = schur_apply(x, n, d, direction)
                    case = (n, d, cols, x.dtype, direction)
                    assert out.shape == x.shape and out.dtype == x.dtype, case
                    assert np.max(np.abs(out - ref @ x)) < 1e-13, case
    # both layouts, and switches at many steps, were exercised
    assert {"pqr", "qrp"} <= {layout for seq in switches for layout in seq}
    assert len({seq.count("pqr") for seq in switches}) >= 8


@pytest.mark.parametrize("change", ["drop", "repeat"])
@pytest.mark.parametrize("route", ["forward", "inverse", "unitary"])
def test_cascade_step_rejects_a_wrong_route_table(monkeypatch, change, route):
    """The sector tensors start uninitialised, so a route missing from (or
    repeated in) a step's plan must raise when the plan is built, not leave
    garbage in a sector. The plan is corrupted through its input: one
    source's row layout at step 3 loses or repeats its last route."""
    n, d = 6, 3
    v = np.random.default_rng(25).standard_normal(d**n)
    run = {
        "forward": lambda: schur_apply(v, n, d),
        "inverse": lambda: schur_apply(v, n, d, "inverse"),
        "unitary": lambda: schur_unitary(n, d),
    }[route]
    run()
    real = schur.cg_rows
    source = enumerate_partitions(d, 3)[1]

    def corrupted(lam, dd):
        rows = real(lam, dd)
        if lam != source:
            return rows
        return rows[:-1] if change == "drop" else rows + rows[-1:]

    schur._step.cache_clear()
    monkeypatch.setattr(schur, "cg_rows", corrupted)
    try:
        with pytest.raises(RuntimeError, match="paths"):
            run()
    finally:
        monkeypatch.undo()
        schur._step.cache_clear()


def test_cascade_rejects_a_wrong_composed_index(monkeypatch):
    """A weight-grouped step moves each piece through one composed index
    (CgBlock.feeds) with np.take(mode="clip"), which would clip a bad
    entry silently. One stacked column of the grouped block of (3) at
    d = 4 is repeated, so the index from (2) into it is not a permutation:
    schur_apply must raise naming the step and lambda before it cuts any
    buffer into sectors."""
    n, d = 5, 4
    v = np.random.default_rng(26).standard_normal(d**n)
    schur_apply(v, n, d)
    real = clebsch_gordan.cg_block
    assert real(P(3), d).dense is None

    def corrupted(lam, dd):
        block = real(lam, dd)
        if (lam, dd) != (P(3), d):
            return block
        cols = block.cols.copy()
        cols[-1] = cols[0]
        return dataclasses.replace(block, cols=cols)

    cut = []
    sectors = schur._sectors
    real.cache_clear()
    monkeypatch.setattr(clebsch_gordan, "cg_block", corrupted)
    monkeypatch.setattr(schur, "_sectors", lambda *args: cut.append(args) or sectors(*args))
    try:
        for direction in ("forward", "inverse"):
            with pytest.raises(RuntimeError, match="step 2: the blocks after lambda = 2 "):
                schur_apply(v, n, d, direction)
        assert cut == []
    finally:
        monkeypatch.undo()
        real.cache_clear()
    assert np.max(np.abs(schur_apply(schur_apply(v, n, d), n, d, "inverse") - v)) < 1e-12


def test_schur_apply_batches_match_matrix():
    rng = np.random.default_rng(22)
    su = schur_unitary(3, 3)
    x = rng.standard_normal((27, 5))
    out = schur_apply(x, 3, 3)
    assert out.shape == (27, 5) and out.dtype == np.float64
    assert np.allclose(out, su.matrix @ x, atol=1e-13)
    # one column stays a batch, and integer input runs as float64
    col = schur_apply(x[:, :1], 3, 3, "inverse")
    assert col.shape == (27, 1)
    assert np.allclose(col, su.matrix.T @ x[:, :1], atol=1e-13)
    ints = schur_apply(np.eye(27, dtype=int)[4], 3, 3)
    assert ints.dtype == np.float64 and np.allclose(ints, su.matrix[:, 4], atol=1e-13)
    for direction in ("forward", "inverse"):
        empty = schur_apply(np.zeros((27, 0), complex), 3, 3, direction)
        assert empty.shape == (27, 0) and empty.dtype == np.complex128
    with pytest.raises(ValueError):
        schur_apply(x[:5], 3, 3)


def test_apply_argument_errors():
    # at (3,2): wrong length, a third axis, 0-d, and the tensor-shaped state
    for x in (np.zeros(7), np.zeros(9), np.zeros((8, 2, 1)), np.array(0.0), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=r"\(d\^n,\) or \(d\^n, m\)"):
            schur_apply(x, 3, 2)
    with pytest.raises(ValueError):
        schur_apply(np.zeros(8), 3, 2, "sideways")


def test_boundary_size_build_and_apply():
    # d^n = 4096 sits exactly at the default bound
    su = schur_unitary(6, 4)
    assert su.matrix.shape == (4096, 4096)
    rng = np.random.default_rng(30)
    v = rng.standard_normal(4096)
    f = schur_apply(v, 6, 4)
    assert np.max(np.abs(f - su.matrix @ v)) < 1e-12
    assert np.max(np.abs(schur_apply(f, 6, 4, "inverse") - v)) < 1e-12


def test_dense_matrix_bits_are_pinned_across_panels():
    """SHA-256 of the matrix bytes, sign bits included, at sizes that take
    several panels of identity columns; the last panel is partial at (7,3)
    and (5,5). Like the CLI's pins, these depend on numpy and its BLAS."""
    assert schur._PANEL < 3**7 and 3**7 % schur._PANEL and 5**5 % schur._PANEL
    pins = {
        (9, 2): "90e35455bc01a1c73248e8216a6a4d6beb8a9f03902ba0a717eb5a9ef28e9c78",
        (7, 3): "3b4b014bfb944cb8bfe9bb19047dc838b26755539552336e031cb781cb2c6770",
        (5, 5): "bd40ef05b62fc8ed8991b696d576fbdcbd02c73e510539cc7a418b2e6af2fd6e",
        (6, 4): "a1f864a2ecfca4dfe371bcb02472c4cedb767050f5dcbfc28737b57b3e095ddb",
        (12, 2): "9269ea4c24f24b1ab9a121200ae134cccae5500f430c7a78cb8fbcae837502b6",
    }
    for (n, d), digest in pins.items():
        matrix = schur_unitary(n, d).matrix
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == digest, (n, d)


def test_apply_bits_are_pinned_both_directions():
    """SHA-256 of schur_apply(y, n, d, direction) on seeded input: complex
    states at (12,2) and (16,2), whose cascade changes layout mid-way,
    complex 3-column batches at (7,3) and (6,4), whose blocks include
    weight-grouped ones, and a real state at (16,2), which stays float64.
    Like the other pins, these depend on numpy and its BLAS."""
    pins = {
        "forward": {
            (12, 2, None, True): "2abdb42582cb77e027ebe12519b8b89cb93a65903d0483d9468c09f51a3060ad",
            (16, 2, None, True): "c9cfe3dfff3efbc3818569296e9922671151426d8d5c6e493713b9534c8ce529",
            (7, 3, 3, True): "a72e561840e9d54781671ccbdf713f8f1ab45c9eec49226fad2730a9b3ae2587",
            (6, 4, 3, True): "eacd7f38584bff2845dde8522c125dd48c69105ab747780c772f5896389f2d7c",
            (16, 2, None, False): "221b705190478f1652af295fd857879d3d0ae2564e314366faff0cb4c3cfe3eb",
        },
        "inverse": {
            (12, 2, None, True): "748ea7b0609c6bea334ae2ce8101d2d0a260a53de9f2add7e168b38f7b3176c2",
            (16, 2, None, True): "4190f098c9016dba681e7a858e9ff44520ab2d7f1c6bc86ebbbeb25a6dc66b96",
            (7, 3, 3, True): "043c8158608a6bc031639e9b973dd0302495f2ef94a676c69b81253a0e65a573",
            (6, 4, 3, True): "567136b2f1fe3fe2e9e5c8879ced4304b9eed21e0088ceda53d0e3ef0662369d",
            (16, 2, None, False): "9d290473f7e75608b9a62583868ccd34572158ca166c18d6609d74712ced0918",
        },
    }
    for direction, by_size in pins.items():
        for (n, d, cols, is_complex), digest in by_size.items():
            m = cols or 1
            layouts = {
                schur._step(k, d).layout(d ** (n - k - 1) * m) for k in range(1, n)
            }
            grouped = any(
                schur.cg_block(lam, d).dense is None
                for k in range(1, n)
                for lam, *_ in schur._step(k, d).sources
            )
            assert layouts == {"pqr", "qrp"} and grouped == (d > 2), (n, d)
            rng = np.random.default_rng(1000 * n + d)
            shape = (d**n,) if cols is None else (d**n, cols)
            y = rng.standard_normal(shape)
            if is_complex:
                y = y + 1j * rng.standard_normal(shape)
            out = schur_apply(y, n, d, direction, max_dim=d**n)
            assert out.dtype == (np.complex128 if is_complex else np.float64)
            digest_now = hashlib.sha256(out.tobytes()).hexdigest()
            assert digest_now == digest, (direction, n, d, cols, is_complex)


def test_qudit_apply_bits_are_pinned():
    """SHA-256 of schur_apply on seeded complex states at (9,4) and (6,6),
    both directions: each runs weight-grouped blocks in both layouts, so
    these pin the grouped steps' batched products and composed indices.
    (7,5) is left out: its bits depend on the BLAS thread count."""
    pins = {
        (9, 4, "forward"): "981a8f82c2489b2879222406b2e001421ad77218fb98594102a250dae52ea25e",
        (9, 4, "inverse"): "55bfccc92ef2df5cb73e722f5812703b4ca882f990896350204bf5dabea663b0",
        (6, 6, "forward"): "67bc304b865a496baf877c8b2a34ad79ea0075ae7d895e47b03340ecf886eb8e",
        (6, 6, "inverse"): "d8fbdaf9ebd7495b2ce9bf860d8e53f936a68878a4c4df3379d467f29c07c562",
    }
    for (n, d, direction), digest in pins.items():
        grouped = {
            schur._step(k, d).layout(d ** (n - k - 1))
            for k in range(1, n)
            for lam, *_ in schur._step(k, d).sources
            if schur.cg_block(lam, d).dense is None
        }
        assert grouped == {"pqr", "qrp"}, (n, d)
        rng = np.random.default_rng(1000 * n + d)
        y = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        out = schur_apply(y, n, d, direction, max_dim=d**n)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest, (n, d, direction)


def _check_matrix_free(n, d, seed):
    """Round trip, and U = diag(x) scaling each Schur row (lambda, q, p) by
    the monomial x^wt(q), with wt read off the tableau of q."""
    dim = d**n
    with pytest.raises(ResourceLimitError):
        schur_apply(np.zeros(dim), n, d)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    f = schur_apply(v, n, d, max_dim=dim)
    assert abs(np.linalg.norm(f) - 1.0) < 1e-10
    assert np.max(np.abs(schur_apply(f, n, d, "inverse", max_dim=dim) - v)) < 1e-10

    x = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    phases = functools.reduce(np.kron, [x] * n)  # diag of U^(x)n
    weights, repeats = [], []
    for lam in enumerate_partitions(d, n):
        for q in enumerate_gz(lam, d):
            entries = [e - 1 for row in gz_to_ssyt(q) for e in row]
            weights.append(np.bincount(entries, minlength=d))
            repeats.append(dim_P(lam))
    monomials = np.prod(x ** np.repeat(weights, repeats, axis=0), axis=1)
    moved = schur_apply(phases * v, n, d, max_dim=dim)
    assert np.max(np.abs(moved - monomials * f)) < 1e-10


def test_matrix_free_apply_above_dense_bound():
    """At (8,4), D = 65536."""
    _check_matrix_free(8, 4, 40)


def test_matrix_free_apply_at_2_to_the_20():
    """At (20,2), D = 2^20: the benchmark's largest size, whose cascade
    switches from the paths-major layout to the other one midway."""
    _check_matrix_free(20, 2, 41)


@pytest.mark.parametrize("n, d", [(6, 3), (7, 2), (5, 4), (4, 3)])
def test_path_axis_follows_youngs_orthogonal_form(n, d):
    # In Young's orthogonal form the adjacent transposition (k, k+1) sends
    # the standard tableau T to (1/r) T + sqrt(1 - 1/r^2) T', where
    # r = c_{k+1} - c_k, c_m is the content (column - row) of the box
    # holding m, and T' is T with k and k+1 swapped (a standard tableau
    # whenever |r| > 1). The whole block, not only its diagonal, pins the
    # order in which each sector stacks its predecessors' paths.
    su = schur_unitary(n, d)
    for lam in enumerate_partitions(d, n):
        tableaux = [t.rows for t in standard_fillings(lam)]  # in rank order
        rank = {rows: a for a, rows in enumerate(tableaux)}
        contents = [  # one {entry: content} per tableau
            {v: c - r for r, row in enumerate(rows) for c, v in enumerate(row)}
            for rows in tableaux
        ]
        for k in range(1, n):
            swap = {k: k + 1, k + 1: k}
            expected = np.zeros((len(tableaux), len(tableaux)))
            for a, (rows, content) in enumerate(zip(tableaux, contents)):
                axial = content[k + 1] - content[k]
                expected[a, a] = 1 / axial
                swapped = tuple(tuple(swap.get(v, v) for v in row) for row in rows)
                if swapped in rank:
                    expected[rank[swapped], a] = math.sqrt(1 - 1 / axial**2)
            block = extract_perm_irrep(su, lam, transposition(n, k, k + 1))
            assert np.max(np.abs(block - expected)) < 1e-12, (lam, k)


def test_resource_bound():
    with pytest.raises(ResourceLimitError) as err:
        schur_unitary(20, 2, max_dim=1024)
    assert "1048576" in str(err.value)
    with pytest.raises(ResourceLimitError):
        schur_apply(np.zeros(2**12), 12, 2, max_dim=2048)


def test_compress_p_examples():
    for n in (2, 4):
        lam = P(n)
        q = enumerate_gz(lam, 2)[0]
        (path,) = enumerate_paths(lam)
        assert compress_p({(lam, q, path): 1.0}) == {(lam, q, 1): 1.0}
    lam = P(2, 1)
    q = enumerate_gz(lam, 2)[0]
    paths = enumerate_paths(lam)
    state = {(lam, q, p): 0.5 for p in paths}
    packed = compress_p(state)
    assert set(packed) == {(lam, q, 1), (lam, q, 2)}


def test_compress_round_trip_all_n4_labels():
    for lam, q, p in schur_labels(4, 2):
        state = {(lam, q, p): 1.0}
        assert decompress_p(compress_p(state)) == state
    with pytest.raises(ValueError):
        compress_p({(P(2), enumerate_gz(P(2), 2)[0], enumerate_paths(P(3))[0]): 1.0})


def test_compress_p_and_decompress_p_check_the_gz_label():
    lam, path = P(2, 1), enumerate_paths(P(2, 1))[0]
    with pytest.raises(ValueError, match="not a valid Schur label"):
        compress_p({(lam, enumerate_gz(P(3), 2)[0], path): 1.0})  # a pattern of (3)
    with pytest.raises(ValueError, match="not a valid Schur label"):
        compress_p({(lam, "not a pattern", path): 1.0})
    with pytest.raises(ValueError, match="not a valid Schur label"):
        decompress_p({(lam, "not a pattern", 1): 1.0})
    with pytest.raises(ValueError, match="not a valid Schur label"):
        decompress_p({(lam, enumerate_gz(P(3), 2)[0], 1): 1.0})


def test_block_rows_accessor():
    su = schur_unitary(3, 2)
    rows = su.block_rows(P(2, 1))
    assert rows.shape == (4, 8)
    with pytest.raises(KeyError):
        su.block_rows(P(1, 1, 1))


def test_to_json_schema():
    data = schur_unitary(2, 2).to_json()
    assert data["n"] == 2 and data["d"] == 2
    assert data["row_labels"][0] == {"lambda": "2", "gz": "1,1", "path": "1"}
    assert data["row_labels"][3] == {"lambda": "1,1", "gz": "1/2", "path": "2"}
    assert data["matrix"][0][0] == [1.0, 0.0]
