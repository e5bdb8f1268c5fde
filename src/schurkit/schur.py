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
register). Building a plan raises RuntimeError unless the routes into
every target tile its path axis exactly, before any buffer is allocated,
so the steps themselves only move data.

The cascade stores the sectors in one of two layouts, chosen so that
consuming the next qudit is a free reshape and each product writes its rows
once, straight into a slab of a preallocated target:

- "pqr", paths-major (P, Q, R): a route's product is batched over P.
- "qrp", (Q, R, P): a route's product is batched over R.

A step uses "pqr" while the sources' path axes are narrower on average than
the rest of the register, sum(dim_P) < sectors * d^(n-k-1) * m, and "qrp"
from there on; the state changes layout by one transpose. One walk,
_compile, runs a step in either direction over the same plan: it multiplies
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

schur_apply compiles the cascade once per (n, d, m, dtype) into a program
(_Program), keeps the _KEPT programs used last and runs them by four rules:

- Walk twice, then record, then replay: a direction's first _WALKS calls
  walk the cascade, the next records each numpy call (_compile), later ones
  replay the record, binding only the views into their input, a fresh
  output (written last, so it never shares the state buffer) and, for a
  weight-grouped block (never at d = 2), a fresh product buffer.
- One fixed buffer for states of at most 16 MiB: the front of _WORK, never
  replaced, so a record stays valid for the life of the process. Touched
  pages stay resident, rounded up to 2 MiB where transparent huge pages
  back it. A larger state walks in a temporary buffer and is never recorded.
- One lock that callers wait for: a call holds _LOCK while it runs.
- One check per call: _step and cg_block are caches only ever cleared whole,
  so a program is current while one entry of each is what it was built from;
  else every kept program is dropped. A function put in place of either
  without clearing its cache is noticed only if that entry changes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, repeat
from threading import Lock
from typing import NamedTuple

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


@dataclass(frozen=True, eq=False)
class SchurUnitary:
    """Dense d^n x d^n Schur transform with labeled rows."""

    n: int
    d: int
    matrix: np.ndarray
    row_labels: tuple  # (lambda, GzPattern, YyPath) per row
    blocks: tuple  # (lambda, row_start, dim_Q, dim_P) in row order

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
    # d^n above 2 * max_dim^2 (a bit's margin over float rounding) is not built
    if d > 1 and n * math.log2(d) > 2 * math.log2(max(max_dim, 1)) + 1:
        raise ResourceLimitError(f"d^n = {d}^{n} exceeds the configured bound {max_dim}")
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
_SET = np.ndarray.__setitem__  # a copy, gather or scatter: dest[key] = src
_KEPT = 4  # programs kept, the least recently used dropped first
_WALKS = 2  # the calls in a direction that walk the cascade before one records it
# The state buffer of every cascade call, which holds _LOCK while it runs.
_WORK, _LOCK = np.empty(1 << 24, np.uint8), Lock()


def _take(src: np.ndarray, index, axis: int, out: np.ndarray) -> None:
    """out = src taken at index along axis (np.take copies a strided out)."""
    if out.flags.c_contiguous:
        src.take(index, axis, out, "clip")
    else:
        out[...] = src.take(index, axis, None, "clip")


@lru_cache(maxsize=_KEPT)
def _kept(n: int, d: int, m: int, dtype) -> _Program:
    return _Program(n, d, m)


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
    unless the routes into every target tile its path axis [0, dim_P)
    exactly: no gap, no overlap.
    """
    lams = enumerate_partitions(d, k + 1)
    index = {lam: t for t, lam in enumerate(lams)}
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
        sources.append((lam, dim_Q(lam, d), dp, tuple(routes)))
    targets = tuple((lam, dim_Q(lam, d), dim_P(lam)) for lam in lams)
    for t, ((_, _, dp), into) in enumerate(zip(targets, incoming)):
        spans = sorted((paths.start, paths.stop) for _, _, paths, _ in into)
        ends = [0] + [b for _, b in spans]  # each span starts where the last ends
        if [a for a, _ in spans] != ends[:-1] or ends[-1] != dp:
            raise RuntimeError(
                f"step {k}: the routes into sector {t} do not tile its {dp} paths: {spans}"
            )
    return _Step(
        tuple(sources),
        targets,
        tuple(map(tuple, incoming)),
        sum(dp for _, _, dp, _ in sources),
    )


def _compile(n: int, d: int, m: int, steps, inverse: bool, work, record: bool, *bases):
    """One direction of the cascade, run on `bases` (x, out, product) over
    the state buffer `work` and, if `record`, returned as the flat tuple of its
    numpy calls (function, arguments, binds): products, takes (_take) and
    index assignments (_SET). Step k multiplies each lambda's operand, in
    its block's stacked order, by blocks[k] (inverse: the transpose) and
    writes each route's piece once: forward into the paths its target holds
    for lambda, in the target's next stacked order; inverse into its rows
    of the predecessor's operand, or the sector whole at the end or a layout
    change (gather moves it on), by one index (CgBlock.feeds) unless both
    blocks are dense."""
    size, (x, out, product) = d**n * m, bases
    blocks = [None] + [[cg_block(lam, d) for lam, *_ in step.sources] for step in steps[1:]]
    rests = [d ** (n - k - 1) * m for k in range(n)]  # the rest after step k
    layouts = {k: steps[k].layout(rests[k]) for k in range(1, n)}
    row_layout = "qrp" if m == 1 else "qpr"  # its sectors lie in row order
    # a pass per step and per layout change, plus the moves at entry and exit
    passes = n - 1 + sum(layouts[k] != layouts[k + 1] for k in range(1, n - 1))
    passes += 1 if inverse else (blocks[1][0].dense is None) + (layouts[n - 1] != row_layout)
    states = [work, out.reshape(-1)][:: 1 if passes % 2 else -1]  # the last: out
    calls = [] if record else None
    owners = [b if b is None or b.base is None else b.base for b in (work, *bases)]
    origins = [b.__array_interface__["data"][0] for b in bases if b is not None]

    def emit(fn, *args):  # runs the call, then records it, to bind x, out, product anew
        fn(*args)
        if calls is None:
            return
        args, binds = list(args), []
        for i, a in enumerate(args):
            if not isinstance(a, np.ndarray) or a.base is owners[0]:
                continue  # an index or a view of the state buffer
            base = [j for j, b in enumerate(owners[1:]) if b is not None and a.base is b]
            if not base and a.flags.writeable:  # a block's arrays are read-only
                raise RuntimeError(f"{fn.__name__}: an operand is not a view of a buffer")
            for j in base:
                at = a.__array_interface__["data"][0] - origins[j]
                args[i] = None
                binds.append((i, j, at, a.shape, a.strides, a.dtype))
        calls.append((fn, tuple(args), tuple(binds)))

    def stored(tensor, shape: tuple, layout: str) -> np.ndarray:  # (Q, P, R) shape
        return tensor.reshape([shape[i] for i in _AXES[layout]])

    def qpr(tensor, layout: str) -> np.ndarray:  # the (Q, P, R) view
        return tensor.transpose(_AXES[layout])

    def cut(shapes, layout: str, buffer=None) -> list:  # from the next state buffer
        if buffer is None:
            states.reverse()
            buffer = states[0]
        sizes = [dq * dp * rest for dq, dp, rest in shapes]
        if sum(sizes) != size:
            raise RuntimeError(f"sectors hold {sum(sizes)} entries, not {size}")
        starts = list(accumulate(sizes, initial=0))
        return [stored(buffer[a:b], s, layout) for s, a, b in zip(shapes, starts, starts[1:])]

    def relayout(state: list, old: str, new: str) -> list:
        moved = cut([qpr(t, old).shape for t in state], new)
        for src, dst in zip(state, moved):
            emit(_SET, qpr(dst, new), Ellipsis, qpr(src, old))
        return moved

    def gather(state: list, old: str, k: int) -> list:  # step k's operands, stacked
        ops = cut([(dq * d, dp, rests[k]) for _, dq, dp, _ in steps[k].sources], layouts[k])
        for (_, _, _, routes), op, block in zip(steps[k].sources, ops, blocks[k]):
            for t, rows, paths in routes:
                at = rows if block.dense is not None else block.row_at[rows]
                emit(_SET, qpr(op, layouts[k]), at, qpr(state[t], old)[:, paths])
        return ops

    def cg_step(state: list, k: int) -> list:
        step, rest, layout = steps[k], rests[k], layouts[k]
        q_lead = (slice(None),) * layout.index("q")  # the axes before Q
        p_lead = (slice(None),) * layout.index("p")  # the axes before P
        def real(tensor):  # its float64 view, Q moved to axis 1
            return (tensor if layout[1] == "q" else tensor.swapaxes(0, 1)).view(np.float64)
        sectors = k == 1 if inverse else k == n - 1  # the result in natural order
        if not inverse:
            result = cut([(dq, dp, rest) for _, dq, dp in step.targets], layout)
            pieces = [routes for *_, routes in step.sources]
        elif not sectors and layouts[k - 1] == layout:
            shapes = [(dq * d, dp, d * rest) for _, dq, dp, _ in steps[k - 1].sources]
            result, pieces, prior = cut(shapes, layout), steps[k - 1].incoming, blocks[k - 1]
        else:
            sectors = True
            result = cut([(dq, dp, d * rest) for _, dq, dp, _ in step.sources], layout)
            pieces = [((s, slice(None), slice(None), None),) for s in range(len(result))]
        for (_, dq, dp, _), x, block, routes in zip(step.sources, state, blocks[k], pieces):
            if not inverse:  # the next qudit joins Q by a free reshape
                x = stored(x, (dq * d, dp, rest), layout)
            dense = block.dense
            y = None if product is None else product[: x.size].reshape(x.shape)
            if dense is None:  # the whole product, stacked, batched over P in "pqr"
                shape = (dp if q_lead else 1, dq * d, -1)
                operands = (a.view(np.float64).reshape(shape) for a in (x, y))
                block.stacked_dot(*operands, inverse, lambda *args: emit(np.matmul, *args))
            elif inverse:
                dense = dense.T
            if not sectors:
                feeds = [prior[s].feeds[r] for s, _, _, r in routes] if inverse else block.feeds
            elif dense is None:
                feeds = [(block.cols if inverse else block.row_at)[r[1]] for r in routes]
            else:
                feeds = repeat(None)
            if inverse:
                for (s, rows, paths, _), feed in zip(routes, feeds):
                    dest, at = result[s], real(x[p_lead + (paths,)])
                    width = dest.shape[len(p_lead)]
                    if feed is None:  # its rows of the predecessor's operand, in order
                        dest = stored(dest[q_lead + (rows,)], (dq * d, width, rest), layout)
                        emit(np.matmul, dense, at, real(dest))
                        continue
                    piece = y[p_lead + (paths,)]
                    if dense is not None:
                        emit(np.matmul, dense, at, real(piece))
                    height = dest.shape[len(q_lead)] * d  # its rows times the freed qudit
                    dest = stored(dest, (height, width, rest), layout)
                    emit(_SET, dest, q_lead + (feed,), piece)
                continue
            for (t, rows, paths), feed in zip(routes, feeds):
                dest = result[t][p_lead + (paths,)]
                if feed is None:  # the target's rows, in order
                    emit(np.matmul, dense[rows], real(x), real(dest))
                    continue
                if dense is not None:
                    emit(np.matmul, dense[rows], real(x), real(y[q_lead + (rows,)]))
                f = 1 if sectors else d  # the next qudit joins the target's rows
                dest = stored(dest, (len(feed), dp, rest // f), layout)
                emit(_take, stored(y, (dq * d * f, dp, rest // f), layout), feed, len(q_lead), dest)
        return result

    if not inverse:
        layout = layouts[1]
        state = cut([(d * d, 1, rests[1])], layout, x.reshape(-1))  # the operand of (1)
        if (first := blocks[1][0]).dense is None:  # into its block's stacked order
            source, state = state[0], cut([(d * d, 1, rests[1])], layout)
            emit(_take, source, first.cols, layout.index("q"), state[0])
        for k in range(1, n):
            if layout != layouts[k]:
                state, layout = relayout(state, layout, layouts[k]), layouts[k]
            state = cg_step(state, k)
        if layout != row_layout:
            relayout(state, layout, row_layout)
    else:
        state = cut([(dq, dp, m) for _, dq, dp in steps[-1].targets], row_layout, x.reshape(-1))
        state = gather(state, row_layout, n - 1)
        for k in range(n - 1, 0, -1):
            state = cg_step(state, k)
            if k > 1 and layouts[k - 1] != layouts[k]:
                state = gather(state, layouts[k], k - 1)
    if states[0].base is not out:
        raise RuntimeError(f"{passes} passes do not end in the output")
    return None if calls is None else tuple(calls)


class _Program:
    """The cascade at one (n, d, m, dtype) (see the module docstring), with
    its plans, a weak reference to its first block and its records by direction."""

    def __init__(self, n: int, d: int, m: int):
        self.shape, self.steps, self.calls = (n, d, m), tuple(_step(k, d) for k in range(n)), {}
        blocks = [cg_block(lam, d) for step in self.steps[1:] for lam, *_ in step.sources]
        for block in blocks[: -len(self.steps[-1].sources)]:  # the last step's feed the output
            block.feeds  # built and checked before any buffer
        self.first, self.grouped = weakref.ref(blocks[0]), any(b.dense is None for b in blocks)

    def current(self) -> bool:  # one entry of _step and of cg_block (module docstring)
        d, step = self.shape[1], self.steps[1]
        return _step(1, d) is step and cg_block(step.sources[0][0], d) is self.first()

    def run(self, x: np.ndarray, direction: str) -> np.ndarray:
        """The cascade on x, (d^n, m) contiguous: walked or recorded with
        the front of _WORK as its state buffer (x larger than _WORK: a
        temporary buffer, and never recorded), or replayed."""
        bases = (x, np.empty_like(x), np.empty(x.size, x.dtype) if self.grouped else None)
        walks = self.calls.get(direction, 0)
        if isinstance(walks, int):  # not recorded yet
            if x.nbytes > _WORK.nbytes:
                state, record = np.empty(x.size, x.dtype), False
            else:
                state, record = _WORK[: x.nbytes].view(x.dtype), walks == _WALKS
            args = (self.steps, direction == "inverse", state, record, *bases)
            self.calls[direction] = _compile(*self.shape, *args) or walks + 1
            return bases[1]
        for fn, args, binds in self.calls[direction]:
            if binds:
                args = list(args)
                for i, base, offset, shape, strides, dtype in binds:
                    args[i] = np.ndarray(shape, dtype, bases[base], offset, strides)
            fn(*args)
        return bases[1]


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
    if n == 1 or m == 0:
        return x.reshape(shape).copy()
    with _LOCK:  # another thread's call waits
        if not _kept(n, d, m, dtype).current():  # then no kept program is
            _kept.cache_clear()
        return _kept(n, d, m, dtype).run(x, direction).reshape(shape)
