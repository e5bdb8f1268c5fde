"""The Schur transform on n qudits as a cascade of Clebsch-Gordan transforms.

Row order of the full unitary: lambda in canonical partition order, then GZ
patterns in canonical order, then Young-Yamanouchi paths in rank order.
Columns are the computational basis (i_1, ..., i_n), big-endian base d.

The cascade is carried per lambda sector: after k steps the state is a list
of sector tensors aligned with enumerate_partitions(d, k), each with a GZ
axis Q (dim Q_lambda), a path axis P (paths so far) and a rest axis R: the
register still to be consumed, most significant qudit first, times the
batch columns. schur_apply is the one driver of the cascade: it takes a
state or a batch of columns, in either direction, and schur_unitary is
schur_apply on panels of identity columns. Step k pairs each sector's GZ
index with the next qudit and applies the CG block of lambda, whose row
slice for each valid j (see cg_rows) lands in the sector lambda + e_j. The
routing of each step is a plan (_step), built and checked once per (k, d),
the join of the two branching tables: each route fixes its target, its row
slice of the block (cg_rows) and the slice of the target's path axis that
lambda's paths fill (path_offsets, the path-rank order of the multiplicity
register). Building a plan raises RuntimeError unless every target's path
axis is filled exactly, before any buffer is allocated, so the steps
themselves only move data.

The cascade stores the sectors in one of two layouts, chosen so that
consuming the next qudit is a free reshape and each product writes its rows
once, straight into a slab of a preallocated target:

- "pqr", paths-major (P, Q, R): a route's product is batched over P.
- "qrp", (Q, R, P): a route's product is batched over R.

A step uses "pqr" while the sources' path axes are narrower on average than
the rest of the register, sum(dim_P) < sectors * d^(n-k-1) * m, and "qrp"
from there on; the state changes layout by one transpose. One routine,
_cg_step, runs a step in either direction over the same plan: it multiplies
each lambda's operand by its block, or by the transposed block for the
inverse, and writes the product in pieces read off the routes, each once
and straight into its destination. Between steps both directions hold the
next step's operands, one (Q*d, P, R) tensor per lambda in its block's
stacked order (see CgBlock): forward the columns' order, inverse the rows';
a dense block's is the natural order. Each route writes its piece into the
positions it fills through one composed index (CgBlock.feeds), so a
weight-grouped block multiplies its operand where it lies, batched over P
in "pqr". The inverse walks the plans backwards. Beyond the steps' own
writes, each direction moves the whole state only at entry, at exit and
where the layout changes.

A batch's rows in Schur order are its sectors stored (Q, P, R), the "qpr"
layout, with R the m columns; a state (m = 1) reads the same memory as
"qrp".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat
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
    path_offsets,
    rank_path,
    unrank_path,
)
from .clebsch_gordan import cg_block, cg_rows
from .jsonform import lists, pairs
from .partitions import (
    Partition,
    dim_P,
    dim_Q,
    enumerate_partitions,
    format_partition,
)

DEFAULT_MAX_DIM = 4096
# Identity columns per schur_apply call in schur_unitary.
_PANEL = 256


class ResourceLimitError(RuntimeError):
    """Raised when a requested dense object exceeds the configured bound."""


@dataclass(frozen=True)
class SchurUnitary:
    """Dense d^n x d^n Schur transform with labeled rows."""

    n: int
    d: int
    matrix: np.ndarray
    row_labels: tuple  # (lambda, GzPattern, YyPath) per row
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


# Memory order of a sector tensor's axes Q (GZ index), P (path index) and R
# (the rest: remaining register times batch columns), as the permutation
# taking the stored axes to (Q, P, R); "qpr" is only a batch's row layout.
# Each is its own inverse.
_AXES = {"pqr": (1, 0, 2), "qrp": (0, 2, 1), "qpr": (0, 1, 2)}


def _stored(shape: tuple, layout: str) -> tuple:
    """The stored shape of a sector tensor whose (Q, P, R) shape is `shape`."""
    a, b, c = _AXES[layout]
    return shape[a], shape[b], shape[c]


def _qpr(tensor: np.ndarray, layout: str) -> np.ndarray:
    """The (Q, P, R) view of a sector tensor stored in `layout`."""
    return tensor.transpose(_AXES[layout])


def _real_q1(tensor: np.ndarray, layout: str) -> np.ndarray:
    """The float64 view, two floats per complex entry on the last axis, of
    a sector tensor, operand or slab with its Q axis moved to axis 1."""
    return (tensor if layout[1] == "q" else tensor.swapaxes(0, 1)).view(np.float64)


def _sectors(shapes, layout: str, out: np.ndarray) -> list:
    """Sector tensors of the given (Q, P, R) shapes, stored in `layout` and
    cut in order from the buffer `out`, which they must fill exactly."""
    sizes = [dq * dp * rest for dq, dp, rest in shapes]
    flat = out.reshape(-1)
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
    moved = _sectors([_qpr(t, old).shape for t in state], new, out)
    for src, dst in zip(state, moved):
        _qpr(dst, new)[...] = _qpr(src, old)
    return moved


class _Step(NamedTuple):
    """The plan of the CG step from k to k + 1 boxes (see _step)."""

    sources: tuple  # (lambda, dim_Q, dim_P, routes) per lambda with k boxes
    targets: tuple  # (lambda, dim_Q, dim_P) per lambda with k + 1 boxes
    incoming: tuple  # the routes into each target, (source, rows, paths, r)
    paths: int  # sum of dim_P over the sources

    def layout(self, rest: int) -> str:
        """Paths-major "pqr" while the path axes are narrower on average
        than the rest of the register, then "qrp"."""
        return "pqr" if self.paths < len(self.sources) * rest else "qrp"


@cache
def _step(k: int, d: int) -> _Step:
    """The plan of the CG step from k to k + 1 boxes, built and checked once.

    One source per lambda in enumerate_partitions(d, k), in that order; its
    routes are (t, rows, paths) per row slice of cg_rows(lambda, d): t
    indexes lambda + e_j in enumerate_partitions(d, k + 1), rows is its row
    slice of cg_block(lambda, d) and paths the slice of t's path axis that
    lambda's paths fill, from path_offsets. incoming lists the same routes
    by target, as (s, rows, paths, r) with s the source's index and r the
    route's index among its routes, in source order. Raises RuntimeError
    unless the routes into every target are as wide as its path axis.
    """
    lams = enumerate_partitions(d, k + 1)
    index = {lam: t for t, lam in enumerate(lams)}
    filled = [0] * len(lams)
    incoming = [[] for _ in lams]
    sources = []
    for s, lam in enumerate(enumerate_partitions(d, k)):
        dp = dim_P(lam)
        routes = []
        for _, nu, rows in cg_rows(lam, d):
            t, start = index[nu], path_offsets(nu)[lam]
            paths = slice(start, start + dp)
            incoming[t].append((s, rows, paths, len(routes)))
            routes.append((t, rows, paths))
            filled[t] += dp
        sources.append((lam, dim_Q(lam, d), dp, tuple(routes)))
    targets = tuple((lam, dim_Q(lam, d), dim_P(lam)) for lam in lams)
    for t, (width, (_, _, dp)) in enumerate(zip(filled, targets)):
        if width != dp:
            raise RuntimeError(
                f"step {k}: routes cover {width} of the {dp} paths of sector {t}"
            )
    return _Step(
        tuple(sources),
        targets,
        tuple(map(tuple, incoming)),
        sum(dp for _, _, dp, _ in sources),
    )


def _gather(state: list, old: str, step: _Step, blocks, d: int, rest: int, out) -> list:
    """The operands of step's sources, cut from `out` with their rows in
    the blocks' stacked order, copied from the sectors of its targets
    stored in `old`: each route's rows from the paths its target holds for
    this source."""
    layout = step.layout(rest)
    ops = _sectors([(dq * d, dp, rest) for _, dq, dp, _ in step.sources], layout, out)
    for (_, _, _, routes), op, block in zip(step.sources, ops, blocks):
        for t, rows, paths in routes:
            at = rows if block.dense is not None else block.row_at[rows]
            _qpr(op, layout)[at] = _qpr(state[t], old)[:, paths]
    return ops


def _cg_step(
    state: list, k: int, d: int, rest: int, out, product, blocks: list, inverse: bool
) -> list:
    """The CG step of _step(k, d) from k to k + 1 boxes, or back if inverse.

    blocks[k] holds the step's blocks; the cascade ends at step
    len(blocks) - 1 forward and at step 1 inverse. Between steps both
    directions hold each lambda's operand (Q*d, P, rest), stored in the
    step's layout, in its block's stacked order: forward the columns', a
    free reshape of the tensor (Q, P, d*rest) in state; inverse the rows'.
    The operand is multiplied by the block (inverse: its transpose) and the
    product written in pieces, one per route, each once into the result cut
    from `out`: forward, each route's rows into the paths its target holds
    for lambda, in the order of the target's next operand (at the end, of
    its sector); inverse, each route's paths of lambda's sector
    (Q, P, d*rest) into its rows of the predecessor's operand, or at the end
    or a layout change the sector whole (_gather moves it on). A piece from
    a dense block to a dense block or the end is one product in place; else
    the product is made in `product` (whole if grouped, per piece if dense)
    and the piece moves by one index: the predecessor's CgBlock.feeds, or at
    the end the block's own order.
    """
    step = _step(k, d)
    layout = step.layout(rest)
    q_lead = (slice(None),) * layout.index("q")  # the axes before Q
    p_lead = (slice(None),) * layout.index("p")  # the axes before P
    sectors = k == 1 if inverse else k == len(blocks) - 1  # the result in natural order
    if not inverse:
        result = _sectors([(dq, dp, rest) for _, dq, dp in step.targets], layout, out)
        pieces = [routes for *_, routes in step.sources]
    elif not sectors and (prev := _step(k - 1, d)).layout(d * rest) == layout:
        shapes = [(dq * d, dp, d * rest) for _, dq, dp, _ in prev.sources]
        result = _sectors(shapes, layout, out)
        pieces, prior = prev.incoming, blocks[k - 1]
    else:
        sectors = True
        shapes = [(dq, dp, d * rest) for _, dq, dp, _ in step.sources]
        result = _sectors(shapes, layout, out)
        pieces = [((s, slice(None), slice(None), None),) for s in range(len(result))]
    for (_, dq, dp, _), x, block, routes in zip(step.sources, state, blocks[k], pieces):
        if not inverse:  # the next qudit joins Q by a free reshape
            x = x.reshape(_stored((dq * d, dp, rest), layout))
        dense = block.dense
        y = None if product is None else product[: x.size].reshape(x.shape)
        if dense is None:  # the whole product, stacked, batched over P in "pqr"
            shape = (dp if q_lead else 1, dq * d, -1)
            block.stacked_dot(*(a.view(np.float64).reshape(shape) for a in (x, y)), inverse)
        elif inverse:
            dense = dense.T
        if not sectors:
            feeds = [prior[s].feeds[r] for s, _, _, r in routes] if inverse else block.feeds
        elif dense is None:
            own = block.cols if inverse else block.row_at
            feeds = [own[route[1]] for route in routes]
        else:
            feeds = repeat(None)
        if inverse:
            for (s, rows, paths, _), feed in zip(routes, feeds):
                dest, at = result[s], _real_q1(x[p_lead + (paths,)], layout)
                width = dest.shape[len(p_lead)]
                if feed is None:  # its rows of the predecessor's operand, in order
                    dest = dest[q_lead + (rows,)]
                    dest = dest.reshape(_stored((dq * d, width, rest), layout))
                    np.matmul(dense, at, out=_real_q1(dest, layout))
                    continue
                piece = y[p_lead + (paths,)]
                if dense is not None:
                    np.matmul(dense, at, out=_real_q1(piece, layout))
                height = dest.shape[len(q_lead)] * d  # its rows times the freed qudit
                dest = dest.reshape(_stored((height, width, rest), layout))
                dest[q_lead + (feed,)] = piece
            continue
        operand = _real_q1(x, layout)
        for (t, rows, paths), feed in zip(routes, feeds):
            dest = result[t][p_lead + (paths,)]
            if feed is None:  # the target's rows, in order
                np.matmul(dense[rows], operand, out=_real_q1(dest, layout))
                continue
            if dense is not None:
                np.matmul(dense[rows], operand, out=_real_q1(y[q_lead + (rows,)], layout))
            f = 1 if sectors else d  # the next qudit joins the target's rows
            dest = dest.reshape(_stored((len(feed), dp, rest // f), layout))
            src = y.reshape(_stored((dq * d * f, dp, rest // f), layout))
            if dest.flags.c_contiguous:
                np.take(src, feed, axis=len(q_lead), out=dest, mode="clip")
            else:  # np.take would copy a strided `out` in and back
                dest[...] = np.take(src, feed, axis=len(q_lead), mode="clip")
    return result


def schur_unitary(n: int, d: int, max_dim: int = DEFAULT_MAX_DIM) -> SchurUnitary:
    """Build the dense Schur transform with labeled rows.

    The matrix is schur_apply on the identity, _PANEL columns per call, so
    the cascade's buffers hold one panel rather than the whole matrix.
    """
    dim = _check_size(n, d, max_dim)
    steps = [_step(k, d) for k in range(n)]  # checked before the matrix exists
    matrix = np.empty((dim, dim))
    for a in range(0, dim, _PANEL):
        w = min(_PANEL, dim - a)
        matrix[:, a : a + w] = schur_apply(np.eye(dim, w, -a), n, d, max_dim=dim)
    blocks = []
    start = 0
    for lam, dq, dp in steps[-1].targets:
        blocks.append((lam, start, dq, dp))
        start += dq * dp
    matrix.setflags(write=False)
    return SchurUnitary(n, d, matrix, tuple(schur_labels(n, d)), tuple(blocks))


def schur_labels(n: int, d: int) -> list[tuple[Partition, GzPattern, YyPath]]:
    """Row labels of the Schur basis in canonical row order."""
    out = []
    for lam in enumerate_partitions(d, n):
        for q in enumerate_gz(lam, d):
            for p in enumerate_paths(lam):
                out.append((lam, q, p))
    return out


def schur_apply(
    x: np.ndarray,
    n: int,
    d: int,
    direction: str = "forward",
    max_dim: int = DEFAULT_MAX_DIM,
) -> np.ndarray:
    """U_Sch @ x, or U_Sch^T @ x for the inverse, through the cascade.

    x is one state of shape (d^n,) or a batch of columns (d^n, m), real or
    complex; the result is a new array of x's shape, float64 for real
    input and complex128 for complex input. Forward input rows are the
    computational basis and output rows the canonical Schur order (see
    schur_labels); the inverse swaps the two and runs the same cascade
    backwards through the transposed CG blocks. Batched columns ride along
    as the least-significant part of the rest axis, and neither direction
    materializes the full matrix.
    """
    dim = _check_size(n, d, max_dim)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    x = np.asarray(x)
    shape = x.shape
    if shape[:1] != (dim,) or x.ndim > 2:
        raise ValueError(f"x must be (d^n,) or (d^n, m) with d^n = {dim}, not {shape}")
    m = shape[1] if x.ndim == 2 else 1
    dtype = np.complex128 if np.iscomplexobj(x) else np.float64
    x = np.ascontiguousarray(x, dtype).reshape(dim, m)
    if n == 1:
        return x.reshape(shape).copy()
    rests = [d ** (n - k - 1) * m for k in range(n)]  # the rest after step k
    steps = [_step(k, d) for k in range(n)]
    layouts = {k: steps[k].layout(rests[k]) for k in range(1, n)}
    row_layout = "qrp" if m == 1 else "qpr"  # its sectors lie in row order
    blocks = [None] + [[cg_block(src[0], d) for src in step.sources] for step in steps[1:]]
    for block in (block for step in blocks[1:-1] for block in step):
        block.feeds  # built and checked before any buffer
    grouped = any(block.dense is None for step in blocks[1:] for block in step)
    # Every pass reads the state from one buffer and writes the other;
    # product holds whole-block products where some block is grouped.
    buffers = [np.empty(dim * m, dtype) for _ in range(2)]
    product = np.empty(dim * m, dtype) if grouped else None

    def spare() -> np.ndarray:
        buffers.reverse()
        return buffers[0]

    if direction == "forward":
        layout = layouts[1]
        state = _sectors([(d * d, 1, rests[1])], layout, x)  # the operand of (1)
        if (first := blocks[1][0]).dense is None:  # into its block's stacked order
            into, axis = spare().reshape(state[0].shape), layout.index("q")
            state = [np.take(state[0], first.cols, axis=axis, out=into, mode="clip")]
        for k in range(1, n):
            if layout != layouts[k]:
                state = _relayout(state, layout, layouts[k], spare())
                layout = layouts[k]
            state = _cg_step(state, k, d, rests[k], spare(), product, blocks, inverse=False)
        if layout != row_layout:
            _relayout(state, layout, row_layout, spare())
        return buffers[0].reshape(shape)
    state = _sectors([(dq, dp, m) for _, dq, dp in steps[-1].targets], row_layout, x)
    state = _gather(state, row_layout, steps[-1], blocks[-1], d, m, spare())
    for k in range(n - 1, 0, -1):
        state = _cg_step(state, k, d, rests[k], spare(), product, blocks, inverse=True)
        if k > 1 and layouts[k - 1] != layouts[k]:
            step, rest = steps[k - 1], rests[k - 1]
            state = _gather(state, layouts[k], step, blocks[k - 1], d, rest, spare())
    return buffers[0].reshape(shape)


def compress_p(state: Mapping) -> dict:
    """Replace the YyPath label by its rank; amplitudes unchanged."""
    out = {}
    for (lam, q, p), amp in state.items():
        _check_label(lam, q, p, isinstance(p, YyPath) and p.top == lam)
        out[(lam, q, rank_path(p))] = amp
    return out


def decompress_p(state: Mapping) -> dict:
    """Inverse of compress_p: recover the path from (lambda, rank)."""
    out = {}
    for (lam, q, r), amp in state.items():
        _check_label(lam, q, r, True)  # unrank_path checks the rank
        out[(lam, q, unrank_path(lam, r))] = amp
    return out


def _check_label(lam: Partition, q, p, path_ok: bool) -> None:
    """Raise ValueError unless q is a GZ pattern of lambda and path_ok."""
    if not (path_ok and isinstance(q, GzPattern) and q.top == lam):
        raise ValueError(f"label ({lam}, {q}, {p}) is not a valid Schur label")
