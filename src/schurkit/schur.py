"""The Schur transform on n qudits as a cascade of Clebsch-Gordan transforms.

Row order of the full unitary: lambda in canonical partition order, then GZ
patterns in canonical order, then Young-Yamanouchi paths in rank order.
Columns are the computational basis (i_1, ..., i_n), big-endian base d.

The cascade is carried per lambda sector: after k steps the state is a list of
sector tensors aligned with enumerate_partitions(d, k), each of shape
(dim Q_lambda, paths so far, d^k). Extending a sector with the next qudit and
slicing the CG block rows by j routes it into the sectors lambda + e_j. The
routing of each step is one cached table (_step): visiting lambda in
canonical order visits the predecessors of every target in the order its
path axis stacks them, which is exactly the path-rank order of the
multiplicity register. The forward step appends each row slice to its
target; the inverse step walks the same table and cuts each target's path
axis with a running cursor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Mapping

import numpy as np

from .bases import (
    GzPattern,
    YyPath,
    enumerate_gz,
    enumerate_paths,
    format_path,
    format_ssyt,
    gz_to_ssyt,
    rank_path,
    unrank_path,
)
from .clebsch_gordan import cg_block
from .jsonform import lists, pairs
from .partitions import (
    Partition,
    add_box,
    dim_P,
    dim_Q,
    enumerate_partitions,
    format_partition,
)

DEFAULT_MAX_DIM = 4096


class ResourceLimitError(RuntimeError):
    """Raised when a requested dense object exceeds the configured bound."""


@dataclass(frozen=True)
class SchurUnitary:
    """Dense d^n x d^n Schur transform with labeled rows."""

    n: int
    d: int
    matrix: np.ndarray
    row_labels: tuple  # (lambda, GzPattern, YyPath) per row
    row_index: Mapping
    blocks: tuple  # (lambda, row_start, dim_Q, dim_P) in row order

    def block_rows(self, lam: Partition) -> np.ndarray:
        """The rows of the lambda block, shape (dim_Q * dim_P, d^n)."""
        for blam, start, dq, dp in self.blocks:
            if blam == lam:
                return self.matrix[start : start + dq * dp]
        raise KeyError(f"no block for {lam}")

    def json_payload(self) -> dict:
        """Schema: n, d, row_labels, matrix as [re, im] pairs (array form)."""
        return {
            "n": self.n,
            "d": self.d,
            "row_labels": [
                {
                    "lambda": format_partition(lam),
                    "gz": format_ssyt(gz_to_ssyt(q)),
                    "path": format_path(p),
                }
                for lam, q, p in self.row_labels
            ],
            "matrix": pairs(self.matrix),
        }

    def to_json(self) -> dict:
        return lists(self.json_payload())


def _check_size(n: int, d: int, max_dim: int) -> int:
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    required = d**n
    if required > max_dim:
        raise ResourceLimitError(
            f"d^n = {required} exceeds the configured bound {max_dim}"
        )
    return required


def _attach_column_qudit(tensor: np.ndarray, d: int) -> np.ndarray:
    """(Q, P, C) -> (Q*d, P, C*d): a fresh qudit axis, minor on both sides.

    Used when building the matrix, where the column space grows with each
    consumed qudit.
    """
    nq, np_, cols = tensor.shape
    eye = np.eye(d)
    return (tensor[:, None, :, :, None] * eye[None, :, None, None, :]).reshape(
        nq * d, np_, cols * d
    )


def _consume_front_qudit(tensor: np.ndarray, d: int) -> np.ndarray:
    """(Q, P, d*R) -> (Q*d, P, R): pair the next (most significant) qudit
    of the remaining register with the GZ index."""
    nq, np_, rest = tensor.shape
    x = tensor.reshape(nq, np_, d, rest // d)
    return x.transpose(0, 2, 1, 3).reshape(nq * d, np_, rest // d)


def _release_front_qudit(tensor: np.ndarray, d: int) -> np.ndarray:
    """(Q*d, P, R) -> (Q, P, d*R): the inverse of _consume_front_qudit."""
    nqd, np_, rest = tensor.shape
    x = tensor.reshape(nqd // d, d, np_, rest)
    return x.transpose(0, 2, 1, 3).reshape(nqd // d, np_, d * rest)


@cache
def _step(k: int, d: int) -> tuple:
    """Routing of the CG step from k to k + 1 boxes, computed once.

    One (lambda, routes) per lambda in enumerate_partitions(d, k), in that
    order; routes are (t, rows) per valid j ascending, where t indexes
    lambda + e_j in enumerate_partitions(d, k + 1) and rows is its row slice
    of cg_block(lambda, d). A target stacks its predecessors in canonical
    order, so walking this table in order fills each path axis in rank order.
    """
    index = {lam.parts: t for t, lam in enumerate(enumerate_partitions(d, k + 1))}
    table = []
    for lam in enumerate_partitions(d, k):
        routes = []
        start = 0
        for j in range(1, d + 1):
            target = add_box(lam, j, d)
            if target is not None:
                stop = start + dim_Q(target, d)
                routes.append((index[target.parts], slice(start, stop)))
                start = stop
        table.append((lam, tuple(routes)))
    return tuple(table)


def _forward_step(state: list, k: int, d: int, prepare) -> list:
    """Sectors with k boxes -> sectors with k + 1 boxes.

    prepare pairs each sector with its next qudit, its CG block maps it into
    the sectors lambda + e_j, and each target concatenates its pieces along
    the path axis in the order the table visits its predecessors.
    """
    pieces: dict[int, list] = {}
    for (lam, routes), tensor in zip(_step(k, d), state):
        y = cg_block(lam, d).dot(prepare(tensor, d))
        for t, rows in routes:
            pieces.setdefault(t, []).append(y[rows])
    return [np.concatenate(pieces[t], axis=1) for t in range(len(pieces))]


def _inverse_step(state: list, k: int, d: int) -> list:
    """Sectors with k + 1 boxes -> sectors with k boxes, through the
    transposed blocks; the freed qudit returns to the front of the register."""
    cursor = [0] * len(state)
    prev = []
    for lam, routes in _step(k, d):
        width = dim_P(lam)
        pieces = []
        for t, _ in routes:
            pieces.append(state[t][:, cursor[t] : cursor[t] + width])
            cursor[t] += width
        x = cg_block(lam, d).dot(np.concatenate(pieces), transpose=True)
        prev.append(_release_front_qudit(x, d))
    return prev


def schur_unitary(n: int, d: int, max_dim: int = DEFAULT_MAX_DIM) -> SchurUnitary:
    """Build the dense Schur transform with labeled rows."""
    dim = _check_size(n, d, max_dim)
    state = [np.eye(d).reshape(d, 1, d)]
    for k in range(1, n):
        state = _forward_step(state, k, d, _attach_column_qudit)

    blocks = []
    start = 0
    for lam, tensor in zip(enumerate_partitions(d, n), state):
        dq, dp = dim_Q(lam, d), dim_P(lam)
        if tensor.shape != (dq, dp, dim):
            raise RuntimeError(
                f"sector {lam} has shape {tensor.shape}, not {(dq, dp, dim)}"
            )
        blocks.append((lam, start, dq, dp))
        start += dq * dp
    matrix = np.concatenate([t.reshape(-1, dim) for t in state], axis=0)
    if matrix.shape != (dim, dim):
        raise RuntimeError(f"sectors give {matrix.shape[0]} rows, not d^n = {dim}")
    matrix.setflags(write=False)
    row_labels = tuple(schur_labels(n, d))
    row_index = {label: r for r, label in enumerate(row_labels)}
    return SchurUnitary(n, d, matrix, row_labels, row_index, tuple(blocks))


def _cascade_apply(x: np.ndarray, n: int, d: int, direction: str) -> np.ndarray:
    """U_Sch @ x or U_Sch^T @ x for x of shape (d^n, m), through the cascade.

    Batched columns ride along as the least-significant part of the trailing
    axis. Forward input rows are the computational basis and output rows the
    canonical Schur order; the inverse swaps the two.
    """
    dim, m = x.shape
    if direction == "forward":
        state = [x.reshape(d, 1, d ** (n - 1) * m)]
        for k in range(1, n):
            state = _forward_step(state, k, d, _consume_front_qudit)
        return np.concatenate([t.reshape(-1, m) for t in state])
    state = []
    start = 0
    for lam in enumerate_partitions(d, n):
        dq, dp = dim_Q(lam, d), dim_P(lam)
        state.append(x[start : start + dq * dp].reshape(dq, dp, m))
        start += dq * dp
    for k in range(n - 1, 0, -1):
        state = _inverse_step(state, k, d)
    return state[0].reshape(dim, m)


def schur_matmul(x: np.ndarray, n: int, d: int, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """U_Sch @ x for x of shape (d^n, m), via the cascade.

    This costs far less than materializing the d^n square matrix. Rows of
    the result follow the canonical Schur row order.
    """
    dim = _check_size(n, d, max_dim)
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != dim:
        raise ValueError(f"x must have d^n = {dim} rows")
    return _cascade_apply(x, n, d, "forward")


def schur_labels(n: int, d: int) -> list[tuple[Partition, GzPattern, YyPath]]:
    """Row labels of the Schur basis in canonical row order."""
    out = []
    for lam in enumerate_partitions(d, n):
        for q in enumerate_gz(lam, d):
            for p in enumerate_paths(lam):
                out.append((lam, q, p))
    return out


def schur_apply(
    state: np.ndarray,
    n: int,
    d: int,
    direction: str = "forward",
    max_dim: int = DEFAULT_MAX_DIM,
) -> np.ndarray:
    """Apply the Schur transform (or its inverse) to a state vector.

    Forward input is a length-d^n amplitude vector over the computational
    basis; the output is ordered by the canonical Schur row order (see
    schur_labels). The inverse runs the same cascade backwards through the
    transposed CG blocks; neither direction materializes the full matrix.
    """
    dim = _check_size(n, d, max_dim)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    v = np.asarray(state, dtype=complex).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"state length {v.size} != d^n = {dim}")
    return _cascade_apply(v.reshape(dim, 1), n, d, direction).reshape(dim)


def compress_p(state: Mapping) -> dict:
    """Replace the YyPath label by its rank; amplitudes unchanged."""
    out = {}
    for (lam, q, p), amp in state.items():
        if not isinstance(p, YyPath) or p.top != lam:
            raise ValueError(f"label ({lam}, {q}, {p}) is not a valid Schur label")
        out[(lam, q, rank_path(p))] = amp
    return out


def decompress_p(state: Mapping) -> dict:
    """Inverse of compress_p: recover the path from (lambda, rank)."""
    out = {}
    for (lam, q, r), amp in state.items():
        out[(lam, q, unrank_path(lam, r))] = amp
    return out
