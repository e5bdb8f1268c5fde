import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from schurkit.bases import enumerate_gz
from schurkit.clebsch_gordan import cg_block
from schurkit.oracle import extract_irrep, haar_unitary, schur_polynomial
from schurkit.partitions import Partition, add_box, dim_Q, enumerate_partitions
from schurkit.schur import schur_unitary


def P(*parts):
    return Partition(parts)


def test_block_shapes_and_index_maps():
    block = cg_block(P(2, 1), 3)
    assert block.matrix.shape == (24, 24)
    # output blocks (3,1), (2,2), (2,1,1) have dims 15, 6, 3
    sizes = {}
    for j, q in block.out_labels:
        sizes[j] = sizes.get(j, 0) + 1
    assert sizes == {1: 15, 2: 6, 3: 3}
    assert len(block.in_labels) == dim_Q(P(2, 1), 3) * 3
    for label, c in block.in_index.items():
        assert block.in_labels[c] == label
    for label, r in block.out_index.items():
        assert block.out_labels[r] == label


def test_block_unitarity_sweep():
    for d in (1, 2, 3):
        for size in range(0, 6):
            for lam in enumerate_partitions(d, size):
                m = cg_block(lam, d).matrix
                assert m.shape[0] == m.shape[1]
                assert np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) < 1e-12


def test_block_unitarity_d4():
    for size in range(0, 5):
        for lam in enumerate_partitions(4, size):
            m = cg_block(lam, 4).matrix
            assert np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) < 1e-12


def test_n2_block_matches_singlet_triplet():
    block = cg_block(P(1), 2)
    # columns: (pattern mu'=(1), i=1..2), (pattern mu'=(0), i=1..2)
    # rows: j=1 -> (2,0) patterns (2),(1),(0); j=2 -> (1,1) pattern (1)
    s = 1 / math.sqrt(2)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, s, s, 0],
            [0, 0, 0, 1],
            [0, s, -s, 0],
        ]
    )
    assert np.allclose(block.matrix, expected, atol=1e-15)


def test_symmetric_stretch_amplitude_one():
    # i = 1 on the top pattern of (n) goes to the top pattern of (n+1)
    for n in (1, 3):
        block = cg_block(P(n), 2)
        top = enumerate_gz(P(n), 2)[0]
        col = block.in_index[(top, 1)]
        column = block.matrix[:, col]
        nz = np.nonzero(column)[0]
        assert len(nz) == 1 and abs(column[nz[0]] - 1.0) < 1e-15
        j, q_out = block.out_labels[nz[0]]
        assert j == 1 and q_out == enumerate_gz(P(n + 1), 2)[0]


def test_pieri_row_column_balance():
    for d in (2, 3, 4):
        for lam in [P(), P(1), P(2, 1), P(3, 3)]:
            if len(lam) > d:
                continue
            block = cg_block(lam, d)
            total = 0
            for j in range(1, d + 1):
                up = add_box(lam, j, d)
                if up is not None:
                    total += dim_Q(up, d)
            assert block.matrix.shape == (total, dim_Q(lam, d) * d)


def test_intertwining_against_bootstrap_irreps():
    """cg_block(lam, d) conjugates q_lam(U) (x) U into the direct sum of
    q_{lam+e_j}(U), with the irrep matrices read off Schur transforms of
    other sizes."""
    rng = np.random.default_rng(9)
    for d in (2, 3):
        for lam in [P(1), P(2), P(1, 1), P(2, 1)]:
            if len(lam) > d:
                continue
            n = lam.size
            block = cg_block(lam, d)
            lower = schur_unitary(n, d)
            upper = schur_unitary(n + 1, d)
            for _ in range(3):
                u = haar_unitary(d, rng)
                q_in = extract_irrep(lower, lam, u)
                lhs = block.matrix @ np.kron(q_in, u) @ block.matrix.T
                pos = 0
                for j in range(1, d + 1):
                    up = add_box(lam, j, d)
                    if up is None:
                        continue
                    w = dim_Q(up, d)
                    q_out = extract_irrep(upper, up, u)
                    assert (
                        np.max(np.abs(lhs[pos : pos + w, pos : pos + w] - q_out))
                        < 1e-10
                    )
                    lhs[pos : pos + w, pos : pos + w] = 0.0
                    pos += w
                assert np.max(np.abs(lhs)) < 1e-10  # off-block mass


def test_character_cross_oracle():
    rng = np.random.default_rng(4)
    schur = schur_unitary(4, 3)
    for lam in enumerate_partitions(3, 4):
        for _ in range(3):
            u = haar_unitary(3, rng)
            tr = np.trace(extract_irrep(schur, lam, u))
            ref = schur_polynomial(lam, np.linalg.eigvals(u))
            assert abs(tr - ref) < 1e-9


def test_cg_block_basis_example():
    """|(1), top pattern, i = 1> at d = 2 goes to the one pattern of (2)
    through j = 1, with amplitude 1 and nothing else."""
    block = cg_block(P(1), 2)
    top = enumerate_gz(P(1), 2)[0]
    x = np.zeros(block.size)
    x[block.in_index[(top, 1)]] = 1.0
    y = block.dot(x)
    target = enumerate_gz(P(2), 2)[0]
    assert [block.out_labels[r] for r in np.flatnonzero(y)] == [(1, target)]
    assert abs(y[block.out_index[(1, target)]] - 1.0) < 1e-15


def test_cg_block_zero_and_norm():
    """The block sends zero to zero and keeps the norm of random complex
    inputs placed by label (in_index), for every lambda up to 3 boxes at
    d = 2 and 3."""
    rng = np.random.default_rng(12)
    for d in (2, 3):
        for size in range(1, 4):
            for lam in enumerate_partitions(d, size):
                block = cg_block(lam, d)
                assert not block.dot(np.zeros(block.size)).any()
                pats = enumerate_gz(lam, d)
                keys = [(q, i) for q in pats for i in range(1, d + 1)]
                for _ in range(4):
                    amps = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(
                        len(keys)
                    )
                    amps /= np.linalg.norm(amps)
                    x = np.zeros(block.size, complex)
                    for key, amp in zip(keys, amps):
                        x[block.in_index[key]] = amp
                    out = block.dot(x)
                    assert len(out) == len(block.out_labels)
                    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_block_json_schema():
    data = cg_block(P(1), 2).to_json()
    assert data["lambda"] == "1"
    assert data["d"] == 2
    assert len(data["rows"]) == 4 and len(data["cols"]) == 4
    assert data["rows"][0] == {"j": 1, "gz": "1,1"}
    assert data["cols"][0] == {"gz": "1", "i": 1}
    entry = data["matrix"][0][0]
    assert entry == [1.0, 0.0]


def test_weight_grouped_product_matches_dense():
    rng = np.random.default_rng(31)
    cases = [
        (lam, d)
        for d in (1, 2, 3, 4)
        for size in range(5)
        for lam in enumerate_partitions(d, size)
    ]
    cases.append((P(5, 3, 1), 4))
    grouped = 0
    for lam, d in cases:
        block = cg_block(lam, d)
        m = block.matrix
        grouped += len(block.blocks) > 1
        shape = (m.shape[0], 2, 3)
        for x in (
            rng.standard_normal(shape),
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        ):
            flat = x.reshape(m.shape[0], -1)
            assert np.max(np.abs(block.dot(x).reshape(flat.shape) - m @ flat)) < 1e-13
            assert np.max(
                np.abs(block.dot(x, transpose=True).reshape(flat.shape) - m.T @ flat)
            ) < 1e-13
    assert grouped >= 2
    # (5,3,1) at d=4: 1440 x 1440, stored as weight sub-blocks none wider than 32
    big = cg_block(P(5, 3, 1), 4)
    assert max(b.shape[1] for b in big.blocks) <= 32
    assert sum(b.size for b in big.blocks) < 0.02 * big.matrix.size


@pytest.mark.parametrize("lam, d", [(P(1), 2), (P(5), 3)])
def test_dot_rejects_wrong_length_operand(lam, d):
    block = cg_block(lam, d)
    assert (block.dense is None) == (d == 3)  # one dense block, one grouped
    for x in (np.arange(2.0 * block.size), np.ones((block.size - 1, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match=f"{block.size}-row block"):
            block.dot(x)
        with pytest.raises(ValueError, match=f"{block.size}-row block"):
            block.dot(x, transpose=True)


def test_block_json_is_pinned():
    """SHA-256 of `schurkit cg --json` for fixed blocks, dense and grouped."""
    from schurkit.jsonform import dumps

    pins = {
        (P(2, 1), 3): "6574d9cf15d10c8e19fbd40d6dd250e26e009be7483e532e5486593bfc8b4d32",
        (P(3, 1), 2): "7826967ec61eba365ee61ce15f597e9e225c577a7522274c41f769c75f43b3dd",
        (P(2, 1, 1), 4): "3b90ff62786084c6bc255d3771f735e8b2bcdce13399fd9aab3ffbecfd5d6c75",
        (P(1), 6): "e60c6d5fc38826659377f5532bc5a4a55b005455c93441abc670d74d7bf157ed",
        (P(3, 2), 4): "22b953123ff2a73dad424ba826570cb511b02c448e38bc2411d1556fda6a3017",
    }
    for (lam, d), digest in pins.items():
        text = dumps(cg_block(lam, d).to_json()) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (lam, d)


def test_cross_weight_entry_raises(monkeypatch):
    """An entry linking labels of different torus weight breaks the build."""
    from schurkit import clebsch_gordan

    def cross_weight(lam_parts, d):
        # (r, p, i) = (2, 0, 1), r in the slice of j = 1: column (q = (1)/(1),
        # i = 1) has weight (2, 0); row (j = 1, pattern (2)/()) has (0, 2)
        return (0, 1, 1), np.array([[2], [0], [1]], dtype=np.int32), np.ones(1)

    cg_block.cache_clear()
    monkeypatch.setattr(clebsch_gordan, "_entries", cross_weight)
    try:
        with pytest.raises(RuntimeError, match="links weights"):
            cg_block(P(1), 2)
    finally:
        cg_block.cache_clear()


def test_unequal_weight_class_raises(monkeypatch):
    """A weight class with more rows than columns breaks the build."""
    from schurkit import clebsch_gordan

    patterns = clebsch_gordan._patterns

    def relabeled(lam_parts, d):
        runs, ids = patterns(lam_parts, d)
        if (lam_parts, d) == ((2,), 2):
            # pattern (2)/() of weight (0, 2) gets the class of weight (1, 1)
            ids = ids.copy()
            ids[2] = 1
        return runs, ids

    cg_block.cache_clear()
    monkeypatch.setattr(clebsch_gordan, "_patterns", relabeled)
    try:
        with pytest.raises(RuntimeError, match=r"\(1, 1\) has 3 rows but 2 columns"):
            cg_block(P(1), 2)
    finally:
        cg_block.cache_clear()


def test_translation_class_builds_once(monkeypatch):
    """lambda and lambda + c*1^d share one CG block, level tables and Wigner
    rows: from empty caches, the blocks of the (20,2) program (steps 1-19,
    109 partitions) stack one block per translation class, 20, and
    evaluate 210 Wigner rows, where one build per partition made 109 and
    824."""
    from schurkit import clebsch_gordan, wigner

    stacked, stack = [], clebsch_gordan._stack_by_weight
    monkeypatch.setattr(
        clebsch_gordan, "_stack_by_weight", lambda *args: stacked.append(args) or stack(*args)
    )
    for cached in (cg_block, clebsch_gordan._entries, clebsch_gordan._patterns, wigner._row):
        cached.cache_clear()
    for k in range(1, 20):
        for lam in enumerate_partitions(2, k):
            cg_block(lam, 2)
    assert len(stacked) <= 20
    assert wigner._row.cache_info().misses <= 210
    shifted, base = cg_block(P(5, 2), 2), cg_block(P(3), 2)
    assert shifted.lam == P(5, 2) and shifted.blocks[0] is base.blocks[0]


def test_block_rejects_d_below_one():
    # an empty lambda fits in any number of rows, so only the d check catches it
    with pytest.raises(ValueError, match="d must be"):
        cg_block(P(), 0)


def test_block_at_d16_builds_in_bounded_memory():
    """cg_block((2,1), 16) from empty caches, in a fresh process: the traced
    peak of the build, every level included, stays at most 24 MiB. The
    block stores 1.5 MB."""
    import schurkit

    src = os.path.dirname(os.path.dirname(os.path.abspath(schurkit.__file__)))
    code = (
        "import tracemalloc\n"
        "from schurkit.clebsch_gordan import cg_block\n"
        "from schurkit.partitions import Partition\n"
        "tracemalloc.start()\n"
        "cg_block(Partition((2, 1)), 16)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert int(run.stdout) <= 24 * 2**20
