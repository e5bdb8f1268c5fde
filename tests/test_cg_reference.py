"""cg_block against the per-column form of its recursion, bit for bit.

The reference below builds a block one column at a time, as the recursion
reads: peel off the top pattern row mu', run the U_{d-1} transform on the
tail (or relabel i = d as the j' = 0 branch), then mix j' -> j with the
reduced Wigner matrix. Its columns are memoised by parts-tuple chains and
its entries stacked into weight sub-blocks by a plain loop. It is slow and
kept only as the readable statement that cg_block's level-by-level arrays
compute: every value is the same product of Wigner coefficients, so the
stored arrays must agree in every bit, not just to a tolerance.
"""

from functools import cache, lru_cache

import numpy as np
import pytest

from schurkit.bases import enumerate_gz
from schurkit.clebsch_gordan import GATHER_COST, cg_block
from schurkit.partitions import Partition, add_box, dim_Q, enumerate_partitions
from schurkit.wigner import reduced_wigner, ReducedWignerQuery


def P(*parts):
    return Partition(parts)


@lru_cache(maxsize=None)
def _targets(lam_parts: tuple, d: int) -> tuple:
    lam = Partition(lam_parts)
    out = []
    for j in range(1, d + 1):
        target = add_box(lam, j, d)
        if target is not None:
            out.append((j, target.parts))
    return tuple(out)


@lru_cache(maxsize=None)
def _wigner(mu: tuple, j: int, mu_prime: tuple, j_prime: int, d: int) -> float:
    return reduced_wigner(
        ReducedWignerQuery(Partition(mu), j, Partition(mu_prime), j_prime, d)
    )


@lru_cache(maxsize=None)
def _column(lam_parts: tuple, d: int, chain: tuple, i: int) -> tuple:
    """U_CG |lambda, q, i> as ((j, chain of lambda + e_j, coeff), ...)."""
    targets = _targets(lam_parts, d)
    if d == 1:
        return ((1, (targets[0][1],), 1.0),)
    mu_prime = chain[1]
    tail = chain[1:]
    if i < d:
        routed = _column(mu_prime, d - 1, tail, i)
    else:
        routed = ((0, tail, 1.0),)
    out: dict = {}
    for j_prime, new_tail, coeff in routed:
        for j, target in targets:
            t = _wigner(lam_parts, j, mu_prime, j_prime, d)
            if t == 0.0:
                continue
            key = (j, (target,) + new_tail)
            out[key] = out.get(key, 0.0) + coeff * t
    return tuple((j, ch, c) for (j, ch), c in out.items())


@cache
def _pattern_keys(lam: Partition, d: int) -> tuple:
    """(parts-tuple chain, torus weight) per GZ pattern, in order."""
    out = []
    for q in enumerate_gz(lam, d):
        key = tuple(p.parts for p in q.chain)
        sizes = [0] + [sum(parts) for parts in reversed(key)]
        out.append((key, tuple(b - a for a, b in zip(sizes, sizes[1:]))))
    return tuple(out)


def _groups(row_weights: list, col_weights: list, entries: list) -> list:
    """(rows, cols, blocks) per sub-block size: classes by first appearance."""
    classes: dict = {}
    for r, w in enumerate(row_weights):
        classes.setdefault(w, ([], []))[0].append(r)
    for c, w in enumerate(col_weights):
        classes.setdefault(w, ([], []))[1].append(c)
    place = {}
    for rs, cs in classes.values():
        assert len(rs) == len(cs)
        place.update({("r", r): a for a, r in enumerate(rs)})
        place.update({("c", c): a for a, c in enumerate(cs)})
    blocks = {w: np.zeros((len(rs), len(rs))) for w, (rs, _) in classes.items()}
    for r, c, coeff in entries:
        assert row_weights[r] == col_weights[c]
        blocks[row_weights[r]][place["r", r], place["c", c]] = coeff
    by_size: dict = {}
    for w, (rs, cs) in classes.items():
        by_size.setdefault(len(rs), []).append((rs, cs, blocks[w]))
    return [
        (
            np.array([rs for rs, _, _ in subs], dtype=np.intp),
            np.array([cs for _, cs, _ in subs], dtype=np.intp),
            np.stack([b for _, _, b in subs]),
        )
        for _, subs in sorted(by_size.items())
    ]


def reference_block(lam: Partition, d: int) -> tuple:
    """(dense matrix, [(rows, cols, blocks) per group]) built column by column."""
    row_of = {}
    row_weights = []
    for j, target in _targets(lam.parts, d):
        for key, weight in _pattern_keys(Partition(target), d):
            row_of[j, key] = len(row_weights)
            row_weights.append(weight)
    size = dim_Q(lam, d) * d
    col_weights = []
    entries = []
    for key, weight in _pattern_keys(lam, d):
        for i in range(1, d + 1):
            c = len(col_weights)
            col_weights.append(weight[: i - 1] + (weight[i - 1] + 1,) + weight[i:])
            for j, chain, coeff in _column(lam.parts, d, key, i):
                entries.append((row_of[j, chain], c, coeff))
    dense = np.zeros((size, size))
    for r, c, coeff in entries:
        dense[r, c] = coeff
    groups = _groups(row_weights, col_weights, entries)
    if sum(b.size for _, _, b in groups) + GATHER_COST * size >= size * size:
        whole = np.arange(size, dtype=np.intp)[None]
        groups = [(whole, whole, dense[None])]
    return dense, groups


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


def _lifted(mu: Partition, c: int, d: int) -> Partition:
    """mu + c*1^d: a block that cg_block shares with that of mu."""
    return Partition([v + c for v in mu.parts + (0,) * (d - len(mu))])


CASES = (
    [(lam, d) for d in range(2, 6) for n in range(7) for lam in enumerate_partitions(d, n)]
    + [(P(2, 1), 6), (P(3, 1, 1), 6)]
    + [(_lifted(P(a), c, 2), 2) for a in range(7) for c in range(1, 4)]
    + [
        (_lifted(mu, c, 3), 3)
        for n in range(7)
        for mu in enumerate_partitions(3, n)
        for c in (1, 2)
    ]
)


@pytest.mark.parametrize("d", sorted({d for _, d in CASES}))
def test_blocks_match_per_column_recursion_bitwise(d):
    grouped = 0
    for lam, _ in [case for case in CASES if case[1] == d]:
        block = cg_block(lam, d)
        dense, groups = reference_block(lam, d)
        assert np.array_equal(_bits(block.matrix), _bits(dense)), (lam, d)
        assert block.rows.dtype == block.cols.dtype == np.intp
        rows = np.concatenate([r.reshape(-1) for r, _, _ in groups])
        cols = np.concatenate([c.reshape(-1) for _, c, _ in groups])
        assert block.rows.shape == block.cols.shape == rows.shape, (lam, d)
        assert np.array_equal(_bits(block.rows), _bits(rows)), (lam, d)
        assert np.array_equal(_bits(block.cols), _bits(cols)), (lam, d)
        assert len(block.blocks) == len(groups), (lam, d)
        for stored, (_, _, blocks) in zip(block.blocks, groups):
            assert stored.shape == blocks.shape, (lam, d)
            assert np.array_equal(_bits(stored), _bits(blocks)), (lam, d)
        grouped += len(groups) > 1
    assert d == 2 or grouped  # both stored forms are compared
