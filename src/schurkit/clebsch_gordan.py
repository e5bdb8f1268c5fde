"""The recursive Clebsch-Gordan transform for Q_lambda^d tensor Q_(1)^d.

cg_block(lambda, d) builds the unitary sending (GZ vector of lambda, qudit
level i) to the direct sum over valid j of GZ vectors of lambda + e_j.
Columns are built one at a time by the sparse recursion: peel off the top
pattern row mu', run the U_{d-1} transform on the tail (or relabel i = d as
the j' = 0 branch), then mix j' -> j with the reduced Wigner matrix.

The transform commutes with the torus of U_d, so it only links labels of
equal weight. A block is stored as its weight sub-blocks, stacked by size
so that one batched real product serves all sub-blocks of a size; the dense
matrix is assembled only when asked for.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Mapping

import numpy as np

from .bases import GzPattern, enumerate_gz, format_ssyt, gz_to_ssyt
from .jsonform import Pairs, json_lists
from .partitions import Partition, add_box, dim_Q, format_partition
from .wigner import _value as _wigner_value

# Cost of gathering and scattering one row of the operand, in dense
# multiply-adds per column. A block whose weight sub-blocks save less work
# than that is stored as one dense group (all blocks at d = 2 in practice).
GATHER_COST = 48


@lru_cache(maxsize=None)
def _targets(lam_parts: tuple, d: int) -> tuple:
    """((j, parts of lambda + e_j), ...) over the valid j in 1..d."""
    lam = Partition(lam_parts)
    out = []
    for j in range(1, d + 1):
        target = add_box(lam, j, d)
        if target is not None:
            out.append((j, target.parts))
    return tuple(out)


@lru_cache(maxsize=None)
def _cg_column(lam_parts: tuple, d: int, chain: tuple, i: int):
    """Sparse expansion of U_CG |lambda, q, i>: tuple of (j, chain', coeff).

    `chain` is the pattern's parts-tuple chain (q_d, ..., q_1); the same
    encoding is returned so recursion levels stay hashable.
    """
    targets = _targets(lam_parts, d)
    if d == 1:
        return ((1, (targets[0][1],), 1.0),)
    mu_prime = chain[1]
    tail = chain[1:]
    if i < d:
        routed = _cg_column(mu_prime, d - 1, tail, i)
    else:
        routed = ((0, tail, 1.0),)
    out: dict[tuple, float] = {}
    for j_prime, new_tail, coeff in routed:
        for j, target in targets:
            t = _wigner_value(lam_parts, j, mu_prime, j_prime, d)
            if t == 0.0:
                continue
            key = (j, (target,) + new_tail)
            out[key] = out.get(key, 0.0) + coeff * t
    return tuple((j, ch, c) for (j, ch), c in out.items())


@cache
def _pattern_keys(lam: Partition, d: int) -> tuple:
    """(parts-tuple chain, torus weight) per GZ pattern of lambda, in order.

    The weight is wt_k = |q_k| - |q_{k-1}| for k = 1..d.
    """
    out = []
    for q in enumerate_gz(lam, d):
        key = tuple(p.parts for p in q.chain)
        sizes = [0] + [sum(parts) for parts in reversed(key)]
        out.append((key, tuple(b - a for a, b in zip(sizes, sizes[1:]))))
    return tuple(out)


@dataclass(frozen=True)
class WeightGroup:
    """The k weight sub-blocks of one size s of a CG block.

    Sub-block b maps columns cols[b] to rows rows[b] through blocks[b]:
    matrix[rows[b][a], cols[b][c]] == blocks[b, a, c].
    """

    rows: np.ndarray  # (k, s) row indices
    cols: np.ndarray  # (k, s) column indices
    blocks: np.ndarray  # (k, s, s) real entries

    def __post_init__(self):
        for array in (self.rows, self.cols, self.blocks):
            array.setflags(write=False)


@dataclass(frozen=True)
class CgBlock:
    """CG unitary for one lambda, stored by weight, with labeled index maps.

    `groups` is the stored form: the weight sub-blocks stacked by size, or a
    single dense group when grouping saves no work (see GATHER_COST).
    `matrix` assembles the dense array on first access.
    """

    lam: Partition
    d: int
    in_labels: tuple  # (GzPattern, i) per column
    out_labels: tuple  # (j, GzPattern of lambda + e_j) per row
    in_index: Mapping
    out_index: Mapping
    groups: tuple  # WeightGroup per sub-block size

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense real block, read-only."""
        size = len(self.out_labels)
        out = np.zeros((size, size))
        for g in self.groups:
            out[g.rows[:, :, None], g.cols[:, None, :]] = g.blocks
        out.setflags(write=False)
        return out

    @cached_property
    def _orders(self) -> tuple:
        """Row and column orders of the stacked groups, and their inverses."""
        rows = np.concatenate([g.rows.reshape(-1) for g in self.groups])
        cols = np.concatenate([g.cols.reshape(-1) for g in self.groups])
        return rows, cols, np.argsort(rows), np.argsort(cols)

    def dot(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """matrix @ x, or matrix.T @ x, for x of shape (N, ...), real or complex.

        Each group is applied to the real view of x, so a complex operand
        costs real products only and the block is never upcast.
        """
        x = np.asarray(x)
        if not np.iscomplexobj(x):
            x = x.astype(np.float64, copy=False)
        elif x.dtype != np.complex128:
            x = x.astype(np.complex128)
        x = np.ascontiguousarray(x)
        flat = x.reshape(x.shape[0], -1)
        real = flat.view(np.float64)
        out = self._real_dot(real, transpose)
        if np.iscomplexobj(x):
            out = out.view(np.complex128)
        return out.reshape(x.shape)

    def _real_dot(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        if len(self.groups) == 1 and self.groups[0].blocks.shape[0] == 1:
            m = self.groups[0].blocks[0]  # one dense group: rows, cols in order
            return (m.T if transpose else m) @ x
        rows, cols, row_inv, col_inv = self._orders
        src, back = (rows, col_inv) if transpose else (cols, row_inv)
        gathered = x[src]
        out = np.empty_like(gathered)
        start = 0
        for g in self.groups:
            k, s, _ = g.blocks.shape
            stop = start + k * s
            blocks = g.blocks.transpose(0, 2, 1) if transpose else g.blocks
            np.matmul(
                blocks,
                gathered[start:stop].reshape(k, s, -1),
                out=out[start:stop].reshape(k, s, -1),
            )
            start = stop
        return out[back]

    def json_payload(self) -> dict:
        """Schema: lambda, d, rows, cols, matrix as [re, im] pairs (array form)."""
        return {
            "lambda": format_partition(self.lam),
            "d": self.d,
            "rows": [
                {"j": j, "gz": format_ssyt(gz_to_ssyt(q))} for j, q in self.out_labels
            ],
            "cols": [
                {"gz": format_ssyt(gz_to_ssyt(q)) if q.top.size else "", "i": i}
                for q, i in self.in_labels
            ],
            "matrix": Pairs(self.matrix),
        }

    def to_json(self) -> dict:
        return json_lists(self.json_payload())


def _weight_groups(row_weights: list, col_weights: list, entries: list) -> tuple:
    """Stack the weight sub-blocks of (row, col, coeff) entries by size."""
    classes: dict[tuple, tuple[list, list]] = {}
    for r, w in enumerate(row_weights):
        classes.setdefault(w, ([], []))[0].append(r)
    for c, w in enumerate(col_weights):
        classes.setdefault(w, ([], []))[1].append(c)
    row_place = [0] * len(row_weights)
    col_place = [0] * len(col_weights)
    for w, (rs, cs) in classes.items():
        if len(rs) != len(cs):
            raise RuntimeError(f"weight {w} has {len(rs)} rows but {len(cs)} columns")
        for a, r in enumerate(rs):
            row_place[r] = a
        for a, c in enumerate(cs):
            col_place[c] = a
    blocks = {w: np.zeros((len(rs), len(rs))) for w, (rs, _) in classes.items()}
    for r, c, coeff in entries:
        w = row_weights[r]
        if col_weights[c] != w:
            raise RuntimeError(
                f"entry ({r}, {c}) links weights {w} and {col_weights[c]}"
            )
        blocks[w][row_place[r], col_place[c]] = coeff
    by_size: dict[int, list] = {}
    for w, (rs, cs) in classes.items():
        by_size.setdefault(len(rs), []).append((rs, cs, blocks[w]))
    return tuple(
        WeightGroup(
            np.array([rs for rs, _, _ in subs], dtype=np.intp),
            np.array([cs for _, cs, _ in subs], dtype=np.intp),
            np.stack([b for _, _, b in subs]),
        )
        for _, subs in sorted(by_size.items())
    )


@cache
def cg_block(lam: Partition, d: int) -> CgBlock:
    """Build the CG block for lambda at dimension d.

    Rows run over valid j ascending, then GZ patterns of lambda + e_j in
    canonical order; columns over GZ patterns of lambda in canonical order,
    then i in 1..d. Unitary by construction (verified in tests to 1e-12).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(lam) > d:
        raise ValueError(f"lambda={lam} needs more than d={d} rows")
    in_labels = [(q, i) for q in enumerate_gz(lam, d) for i in range(1, d + 1)]
    out_labels = []
    row_of = {}
    row_weights = []
    for j, target in _targets(lam.parts, d):
        target = Partition(target)
        for q, (key, weight) in zip(enumerate_gz(target, d), _pattern_keys(target, d)):
            row_of[j, key] = len(out_labels)
            out_labels.append((j, q))
            row_weights.append(weight)
    size = dim_Q(lam, d) * d
    if not len(out_labels) == len(in_labels) == size:
        raise RuntimeError(
            f"CG block for {lam}, d={d}: {len(out_labels)} x {len(in_labels)}, "
            f"expected {size} x {size}"
        )
    col_weights = []
    entries = []
    for key, weight in _pattern_keys(lam, d):
        for i in range(1, d + 1):
            c = len(col_weights)
            col_weights.append(weight[: i - 1] + (weight[i - 1] + 1,) + weight[i:])
            for j, chain_key, coeff in _cg_column(lam.parts, d, key, i):
                entries.append((row_of[j, chain_key], c, coeff))
    groups = _weight_groups(row_weights, col_weights, entries)
    if sum(g.blocks.size for g in groups) + GATHER_COST * size >= size * size:
        dense = np.zeros((size, size))
        for r, c, coeff in entries:
            dense[r, c] = coeff
        whole = np.arange(size, dtype=np.intp)[None]
        groups = (WeightGroup(whole, whole, dense[None]),)
    return CgBlock(
        lam,
        d,
        tuple(in_labels),
        tuple(out_labels),
        {label: c for c, label in enumerate(in_labels)},
        {label: r for r, label in enumerate(out_labels)},
        groups,
    )


def cg_apply(state: Mapping, d: int) -> dict:
    """Apply the lambda-controlled CG transform to a labeled amplitude vector.

    Input keys are (lambda, GzPattern, i); output keys are (lambda, j,
    GzPattern of lambda + e_j) for the nonzero output amplitudes, with the
    lambda register retained. Norm is preserved exactly up to roundoff; an
    unnormalized input only warns.
    """
    norm2 = 0.0
    by_lam: dict[Partition, list] = {}
    for (lam, q, i), amp in state.items():
        if not isinstance(lam, Partition) or not isinstance(q, GzPattern):
            raise ValueError("state keys must be (Partition, GzPattern, i)")
        if q.d != d or not 1 <= i <= d or q.top != lam:
            raise ValueError(f"label ({lam}, {q}, {i}) inconsistent with d={d}")
        norm2 += abs(amp) ** 2
        by_lam.setdefault(lam, []).append(((q, i), amp))
    if state and abs(norm2 - 1.0) > 1e-9:
        warnings.warn(f"input norm deviates from 1 by {abs(norm2 - 1.0):.3e}")
    out: dict = {}
    for lam, amps in by_lam.items():
        block = cg_block(lam, d)
        dtype = np.result_type(float, *(amp for _, amp in amps))
        x = np.zeros(len(block.in_labels), dtype=dtype)
        for label, amp in amps:
            x[block.in_index[label]] += amp
        y = block.dot(x)
        for r in np.flatnonzero(y):
            j, q = block.out_labels[r]
            out[(lam, j, q)] = y[r].item()
    return out
