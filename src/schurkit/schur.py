"""The Schur transform on n qudits as a cascade of Clebsch-Gordan transforms.

Row order of the full unitary: lambda in canonical partition order, then GZ
patterns in canonical order, then Young-Yamanouchi paths in rank order.
Columns are the computational basis (i_1, ..., i_n), big-endian base d.

The cascade is carried per lambda sector: after k steps the state is a list
of sector tensors aligned with enumerate_partitions(d, k), each with a GZ
axis Q (dim Q_lambda), a path axis P (paths so far) and a rest axis R. In
schur_apply and schur_matmul R is the register still to be consumed, most
significant qudit first, times the batch columns; in the dense build it is
the columns consumed so far. Step k pairs each sector's GZ index with the
next qudit and applies the CG block of lambda, whose row slice for each
valid j lands in the sector lambda + e_j. The routing of each step is one
cached table (_step): visiting lambda in canonical order visits the
predecessors of every target in the order its path axis stacks them, which
is exactly the path-rank order of the multiplicity register. A running
cursor per target places each predecessor's paths, and every target's path
axis must come out exactly filled.

The cascade stores the sectors in one of two layouts, chosen so that
consuming the next qudit is a free reshape and each product writes its rows
once, straight into a slab of a preallocated target:

- "pqr", paths-major (P, Q, R): a route's product is batched over P.
- "qrp", (Q, R, P): a route's product is batched over R; the inverse
  applies the transposed block as one 2-D product per sector.

A step uses "pqr" while the sources' path axes are narrower on average than
the rest of the register, sum(dim_P) < sectors * d^(n-k-1) * m, and "qrp"
from there on; the state changes layout by one transpose. A weight-grouped
block (see CgBlock) instead gathers its operand into the block's stacked
order, multiplies it once, and each route takes its rows of the product
into its slab. The inverse walks the same tables backwards: one gather per
lambda copies its slab of each target into a contiguous operand (in the
stacked order for a grouped block), and one product with the transposed
block writes lambda's sector. The dense build keeps (Q, P, R), the "qpr"
layout, so that its last step writes the matrix in row order; a dense
block's route product is batched over P there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Mapping, NamedTuple

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
        """Schema: n, d, row_labels, matrix as [re, im] pairs (array form).

        Each distinct lambda, GZ pattern and path is formatted once: a
        pattern repeats dim_P times and a path dim_Q times.
        """
        lams, gzs, paths = {}, {}, {}
        for lam, q, p in self.row_labels:
            if lam not in lams:
                lams[lam] = format_partition(lam)
            if q not in gzs:
                gzs[q] = format_ssyt(gz_to_ssyt(q))
            if p not in paths:
                paths[p] = format_path(p)
        return {
            "n": self.n,
            "d": self.d,
            "row_labels": [
                {"lambda": lams[lam], "gz": gzs[q], "path": paths[p]}
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

    The operand of the dense build, where the column space grows with each
    consumed qudit.
    """
    nq, np_, cols = tensor.shape
    eye = np.eye(d)
    return (tensor[:, None, :, :, None] * eye[None, :, None, None, :]).reshape(
        nq * d, np_, cols * d
    )


# Memory order of a sector tensor's axes Q (GZ index), P (path index) and R
# (the rest: remaining register times batch columns, or the dense build's
# columns), as the permutation taking the stored axes to (Q, P, R). Each is
# its own inverse.
_AXES = {"pqr": (1, 0, 2), "qrp": (0, 2, 1), "qpr": (0, 1, 2)}


def _stored(shape: tuple, layout: str) -> tuple:
    """The stored shape of a sector tensor whose (Q, P, R) shape is `shape`."""
    a, b, c = _AXES[layout]
    return shape[a], shape[b], shape[c]


def _qpr(tensor: np.ndarray, layout: str) -> np.ndarray:
    """The (Q, P, R) view of a sector tensor stored in `layout`."""
    return tensor.transpose(_AXES[layout])


def _real(a: np.ndarray) -> np.ndarray:
    """The float64 view of a: two floats per complex entry on the last axis."""
    return a.view(np.float64) if a.dtype == np.complex128 else a


def _q_at(tensor: np.ndarray, layout: str, axis: int) -> np.ndarray:
    """Real view of a sector tensor or slab with its Q axis at `axis`,
    0 or 1 (Q is stored first or second)."""
    return _real(tensor if layout.index("q") == axis else tensor.swapaxes(0, 1))


def _along_q(tensor: np.ndarray, layout: str) -> np.ndarray:
    """Real view of a contiguous sector tensor as (P, Q, R) or (Q, rest)."""
    if layout[0] == "q":
        tensor = tensor.reshape(tensor.shape[0], -1)
    return _real(tensor)


def _sectors(shapes, layout: str, dtype, out=None) -> list:
    """Empty sector tensors of the given (Q, P, R) shapes, stored in
    `layout` and cut in order from one flat buffer: `out` if given, which
    they must fill exactly."""
    sizes = [dq * dp * rest for dq, dp, rest in shapes]
    flat = np.empty(sum(sizes), dtype) if out is None else out.reshape(-1)
    if flat.size != sum(sizes):
        raise RuntimeError(f"sectors hold {sum(sizes)} entries, not {flat.size}")
    tensors = []
    start = 0
    for shape, size in zip(shapes, sizes):
        tensors.append(flat[start : start + size].reshape(_stored(shape, layout)))
        start += size
    return tensors


def _relayout(state: list, old: str, new: str, out: np.ndarray) -> list:
    """The sector tensors stored in layout `new`, copied into `out`."""
    moved = _sectors([_qpr(t, old).shape for t in state], new, state[0].dtype, out)
    for src, dst in zip(state, moved):
        _qpr(dst, new)[...] = _qpr(src, old)
    return moved


class _Step(NamedTuple):
    """Routing of the CG step from k to k + 1 boxes (see _step)."""

    sources: tuple  # (lambda, dim_Q, dim_P, routes) per lambda with k boxes
    targets: tuple  # (dim_Q, dim_P) per lambda with k + 1 boxes
    paths: int  # sum of dim_P over the sources

    def layout(self, rest: int) -> str:
        """Paths-major "pqr" while the path axes are narrower on average
        than the rest of the register, then "qrp"."""
        return "pqr" if self.paths < len(self.sources) * rest else "qrp"


@cache
def _step(k: int, d: int) -> _Step:
    """Routing of the CG step from k to k + 1 boxes, computed once.

    One source per lambda in enumerate_partitions(d, k), in that order; its
    routes are (t, rows) per valid j ascending, where t indexes lambda + e_j
    in enumerate_partitions(d, k + 1) and rows is its row slice of
    cg_block(lambda, d). A target stacks its predecessors in canonical
    order, so walking the sources in order fills each path axis in rank
    order.
    """
    targets = enumerate_partitions(d, k + 1)
    index = {lam.parts: t for t, lam in enumerate(targets)}
    sources = []
    for lam in enumerate_partitions(d, k):
        routes = []
        start = 0
        for j in range(1, d + 1):
            target = add_box(lam, j, d)
            if target is not None:
                stop = start + dim_Q(target, d)
                routes.append((index[target.parts], slice(start, stop)))
                start = stop
        sources.append((lam, dim_Q(lam, d), dim_P(lam), tuple(routes)))
    shapes = tuple((dim_Q(lam, d), dim_P(lam)) for lam in targets)
    return _Step(tuple(sources), shapes, sum(dp for _, _, dp, _ in sources))


def _paths(cursors: list, t: int, count: int, width: int, k: int) -> slice:
    """The next `count` paths of sector t, whose path axis is `width` wide."""
    start = cursors[t]
    stop = cursors[t] = start + count
    if stop > width:
        raise RuntimeError(f"step {k}: routes overrun the {width} paths of sector {t}")
    return slice(start, stop)


def _check_cursors(k: int, cursors: list, targets: tuple) -> None:
    """Raise unless every target's path axis was met exactly."""
    for t, (cursor, (_, width)) in enumerate(zip(cursors, targets)):
        if cursor != width:
            raise RuntimeError(
                f"step {k}: routes cover {cursor} of the {width} paths of sector {t}"
            )


def _forward_step(
    state: list, k: int, d: int, layout: str, rest: int, operand=None, out=None, work=None
) -> list:
    """Sectors with k boxes -> sectors with k + 1 boxes, (dim_Q, dim_P, rest).

    A sector's operand is (Q*d, P, rest) in the same layout: by default the
    next qudit of the register, a free reshape; `operand(tensor, d)` in the
    dense build. Each route's rows land in the paths its target holds for
    this predecessor. Every route of a dense block is its own product,
    written straight into that slab. A weight-grouped block's operand is
    gathered into the block's stacked order in work[0] and multiplied whole
    into work[1] (new buffers if work is None), and each route takes its
    rows of the product into its slab. The targets are cut from `out` if
    given.
    """
    step = _step(k, d)
    shapes = [(dq, dp, rest) for dq, dp in step.targets]
    targets = _sectors(shapes, layout, state[0].dtype, out)
    cursors = [0] * len(targets)
    p_lead = (slice(None),) * layout.index("p")  # the axes before P
    for (lam, dq, dp, routes), tensor in zip(step.sources, state):
        block = cg_block(lam, d)
        if operand is None:
            x = tensor.reshape(_stored((dq * d, dp, rest), layout))
        else:
            x = operand(tensor, d)
        dense = block.dense
        if dense is None:
            x = _q_at(x, layout, 0)
            if work is None:
                y, product = np.empty(x.shape), np.empty(x.shape)
            else:
                y, product = (_real(w)[: x.size].reshape(x.shape) for w in work)
            np.take(x, block.cols, axis=0, out=y, mode="clip")
            block.stacked_dot(y, product)
        else:
            x = _q_at(x, layout, 1)
        for t, rows in routes:
            slab = targets[t][p_lead + (_paths(cursors, t, dp, step.targets[t][1], k),)]
            if dense is None:
                at = block.row_at[rows]
                np.take(product, at, axis=0, out=_q_at(slab, layout, 0), mode="clip")
            else:
                np.matmul(dense[rows], x, out=_q_at(slab, layout, 1))
    _check_cursors(k, cursors, step.targets)
    return targets


def _inverse_step(
    state: list, k: int, d: int, layout: str, rest: int, out: np.ndarray, work: list
) -> list:
    """Sectors with k + 1 boxes -> sectors with k boxes, (dim_Q, dim_P, d*rest).

    For each lambda, one gather copies its slab of every target into a
    contiguous (Q*d, P, rest) operand, and one product with the transposed
    block writes lambda's sector, the freed qudit leading the register. A
    dense block's operand is cut from work[0] in the step's layout; a
    weight-grouped block's is cut from work[0] with Q first, its rows in
    the block's stacked order, and its product from work[1] is scattered
    into the sector. The sectors are cut from `out`.
    """
    step = _step(k, d)
    dtype = state[0].dtype
    shapes = [(dq, dp, d * rest) for _, dq, dp, _ in step.sources]
    prev = _sectors(shapes, layout, dtype, out)
    cursors = [0] * len(state)
    q_lead = (slice(None),) * layout.index("q")  # the axes before Q
    p_lead = (slice(None),) * layout.index("p")  # the axes before P
    for (lam, dq, dp, routes), sector in zip(step.sources, prev):
        block = cg_block(lam, d)
        x = sector.reshape(_stored((dq * d, dp, rest), layout))
        if block.dense is None:
            shape = _q_at(x, layout, 0).shape
            y, product = (_real(w)[: _real(x).size].reshape(shape) for w in work)
            for t, rows in routes:
                paths = _paths(cursors, t, dp, step.targets[t][1], k)
                y[block.row_at[rows]] = _q_at(state[t][p_lead + (paths,)], layout, 0)
            block.stacked_dot(y, product, transpose=True)
            _q_at(x, layout, 0)[block.cols] = product
        else:
            y = work[0][: x.size].reshape(x.shape)
            for t, rows in routes:
                paths = _paths(cursors, t, dp, step.targets[t][1], k)
                y[q_lead + (rows,)] = state[t][p_lead + (paths,)]
            np.matmul(block.dense.T, _along_q(y, layout), out=_along_q(x, layout))
    _check_cursors(k, cursors, step.targets)
    return prev


def schur_unitary(n: int, d: int, max_dim: int = DEFAULT_MAX_DIM) -> SchurUnitary:
    """Build the dense Schur transform with labeled rows."""
    dim = _check_size(n, d, max_dim)
    matrix = np.empty((dim, dim))
    state = [np.eye(d).reshape(d, 1, d)]
    for k in range(1, n):
        last = matrix if k == n - 1 else None
        state = _forward_step(state, k, d, "qpr", d ** (k + 1), _attach_column_qudit, last)
    if n == 1:
        matrix[...] = state[0].reshape(d, d)
    blocks = []
    start = 0
    for lam in enumerate_partitions(d, n):
        dq, dp = dim_Q(lam, d), dim_P(lam)
        blocks.append((lam, start, dq, dp))
        start += dq * dp
    matrix.setflags(write=False)
    row_labels = tuple(schur_labels(n, d))
    row_index = {label: r for r, label in enumerate(row_labels)}
    return SchurUnitary(n, d, matrix, row_labels, row_index, tuple(blocks))


def _cascade_apply(x: np.ndarray, n: int, d: int, direction: str) -> np.ndarray:
    """U_Sch @ x or U_Sch^T @ x for x of shape (d^n, m), through the cascade.

    Batched columns ride along as the least-significant part of the rest
    axis. Forward input rows are the computational basis and output rows the
    canonical Schur order; the inverse swaps the two. The result is a new
    array.
    """
    dim, m = x.shape
    x = np.ascontiguousarray(x, np.complex128 if np.iscomplexobj(x) else np.float64)
    if n == 1:
        return x.copy()
    rests = [d ** (n - k - 1) * m for k in range(n)]  # the rest after step k
    layouts = {k: _step(k, d).layout(rests[k]) for k in range(1, n)}
    row_layout = "qrp" if m == 1 else "qpr"  # its sectors lie in row order
    # Every pass reads the state from one buffer and writes the other; work
    # holds gathered operands and whole-block products (see the steps).
    buffers = [np.empty(dim * m, x.dtype) for _ in range(2)]
    work = [np.empty(dim * m, x.dtype) for _ in range(2)]

    def spare() -> np.ndarray:
        buffers.reverse()
        return buffers[0]

    if direction == "forward":
        layout = layouts[1]
        state = _sectors([(d, 1, d * rests[1])], layout, x.dtype, x)
        for k in range(1, n):
            if layout != layouts[k]:
                state = _relayout(state, layout, layouts[k], spare())
                layout = layouts[k]
            state = _forward_step(state, k, d, layout, rests[k], out=spare(), work=work)
        if layout != row_layout:
            _relayout(state, layout, row_layout, spare())
        return buffers[0].reshape(dim, m)
    shapes = [(dq, dp, m) for dq, dp in _step(n - 1, d).targets]
    state = _sectors(shapes, row_layout, x.dtype, x)
    layout = row_layout
    for k in range(n - 1, 0, -1):
        if layout != layouts[k]:
            state = _relayout(state, layout, layouts[k], spare())
            layout = layouts[k]
        state = _inverse_step(state, k, d, layout, rests[k], spare(), work)
    return buffers[0].reshape(dim, m)


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
