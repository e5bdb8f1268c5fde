"""The recursive Clebsch-Gordan transform for Q_lambda^d tensor Q_(1)^d.

cg_block(lambda, d) builds the unitary sending (GZ vector of lambda, qudit
level i) to the direct sum over valid j of GZ vectors of lambda + e_j.
It is built level by level, as the Wigner-Eckart recursion reads: for each
top pattern row mu', the U_{d-1} transform of mu' acts on the pattern tail
(the i = d branch is the identity, relabeled j' = 0), then the reduced
Wigner matrix of (lambda, mu') mixes j' -> j. A level is a table of the
nonzero entries as arrays, made from the tables of the level below by index
arithmetic, so every entry is the product of one Wigner coefficient per
level, formed once.

The transform commutes with the torus of U_d, so it only links labels of
equal weight. A block is stored in one form, its weight sub-blocks stacked
by size: the row and the column of each stacked position, and one (k, s, s)
array per sub-block size, so that one batched real product serves all
sub-blocks of a size. Both directions of the Schur cascade hold their
operands in that order between steps (see CgBlock.feeds); the dense matrix
and the labels are assembled only when asked for.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Mapping

import numpy as np

from .bases import GzPattern, enumerate_gz, format_ssyt, gz_to_ssyt
from .jsonform import lists, pairs
from .partitions import Partition, add_box, dim_Q, format_partition, interlacing_set
from .wigner import _value as _wigner_value

# Cost of gathering and scattering one row of the operand, in dense
# multiply-adds per column. A block whose weight sub-blocks save less work
# than that is stored as one dense group (all blocks at d = 2 in practice).
GATHER_COST = 48


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: the caches below share it."""
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _targets(lam_parts: tuple, d: int) -> tuple:
    """((j, parts of lambda + e_j), ...) over the valid j in 1..d."""
    lam = Partition(lam_parts)
    nus = ((j, add_box(lam, j, d)) for j in range(1, min(len(lam_parts) + 1, d) + 1))
    return tuple((j, nu.parts) for j, nu in nus if nu is not None)


@lru_cache(maxsize=None)
def _patterns(lam_parts: tuple, d: int) -> tuple:
    """(runs, sums) of the GZ patterns of lambda at d, in canonical order.

    runs maps each q_{d-1} (parts) to the index of its first pattern: the
    patterns sharing q_{d-1} form one run, runs in interlacing order.
    sums[p] = (|q_1|, ..., |q_d|) for pattern p. Its torus weight is
    wt_k = |q_k| - |q_{k-1}|, so patterns of equal weight have equal sums.
    """
    if d == 1:
        return {}, _frozen(np.array([[sum(lam_parts)]], dtype=np.intp))
    runs = {}
    lower = []
    count = 0
    for mu in interlacing_set(Partition(lam_parts), d):
        runs[mu.parts] = count
        lower.append(_patterns(mu.parts, d - 1)[1])
        count += len(lower[-1])
    sums = np.empty((count, d), dtype=np.intp)
    np.concatenate(lower, out=sums[:, :-1])
    sums[:, -1] = sum(lam_parts)
    return runs, _frozen(sums)


@lru_cache(maxsize=None)
def _entries(lam_parts: tuple, d: int) -> tuple:
    """The nonzero entries of the CG block of lambda at d: (ints, vals).

    The rows of ints are (j, s, p, i): an entry sits in the row of
    pattern s of lambda + e_j and in the column of (pattern p of lambda,
    qudit level i); vals holds the values.

    For each mu', the entries of mu' at d - 1 and its i = d branch (j' = 0,
    see _branch) move to the run of mu' among the patterns of lambda; for
    each valid j, row (j', s') moves to pattern s' of the run of mu' + e_j'
    among the patterns of lambda + e_j, its value times T(lambda, j, mu', j').
    Every entry comes from exactly one lower entry. Every block at d = 1 is
    the same 1 x 1 identity.
    """
    if d == 1:
        if lam_parts:
            return _entries((), 1)
        unit = np.array([[1], [0], [0], [1]], dtype=np.intp)  # (j, s, p, i)
        return _frozen(unit), _frozen(np.ones(1))
    targets = _targets(lam_parts, d)
    runs = _patterns(lam_parts, d)[0]
    # coeffs[t][m*d + j'] = T(lambda, j_t, mu'_m, j'); offsets[t][m*d + j'] is
    # where the run of mu'_m + e_j' starts among the patterns of lambda + e_j_t.
    coeffs = [[0.0] * (len(runs) * d) for _ in targets]
    offsets = [[0] * (len(runs) * d) for _ in targets]
    for t, (j, nu) in enumerate(targets):
        nu_runs = _patterns(nu, d)[0]
        for m, mu in enumerate(runs):
            for jp, mupp in ((0, mu),) + _targets(mu, d - 1):
                c = _wigner_value(lam_parts, j, mu, jp, d)
                if c != 0.0:
                    coeffs[t][m * d + jp] = c
                    offsets[t][m * d + jp] = nu_runs[mupp]
    lower = [
        (_entries(mu, d - 1), _branch(dim_Q(Partition(mu), d - 1), d)) for mu in runs
    ]
    ints = np.concatenate([x[0] for pair in lower for x in pair], axis=1)
    # Each mu' moves to its run: key m*d + j', pattern o + p.
    shift = np.array([(m * d, 0, o, 0) for m, o in enumerate(runs.values())]).T
    ints += shift.repeat([a[1].size + b[1].size for a, b in lower], axis=1)
    key = ints[0]  # m*d + j'
    coeffs = np.array(coeffs)[:, key]
    t, e = coeffs.nonzero()
    out = ints[:, e]
    out[1] += np.array(offsets)[t, key[e]]
    out[0] = np.array([j for j, _ in targets])[t]
    vals = np.concatenate([x[1] for pair in lower for x in pair])
    return _frozen(out), _frozen(vals[e] * coeffs[t, e])


@lru_cache(maxsize=None)
def _branch(n: int, d: int) -> tuple:
    """The i = d branch of n patterns as entries one level down: j' = 0,
    pattern s' = p, value 1."""
    ints = np.zeros((4, n), dtype=np.intp)
    ints[1] = ints[2] = np.arange(n)
    ints[3] = d
    return _frozen(ints), _frozen(np.ones(n))


@dataclass(frozen=True)
class CgBlock:
    """CG unitary for one lambda, stored by weight.

    The stored form is the weight sub-blocks stacked by size: position a of
    the stacked order holds row rows[a] and column cols[a], and `blocks`
    holds one (k, s, s) array per sub-block size s, ascending, whose k
    sub-blocks cover the next k * s positions in turn. A block whose
    sub-blocks save no work (see GATHER_COST) is one dense sub-block, rows
    and columns in natural order. `matrix` assembles the dense array, and
    the labels and index maps are enumerated, on first access.
    """

    lam: Partition
    d: int
    rows: np.ndarray  # (size,) row of each stacked position
    cols: np.ndarray  # (size,) column of each stacked position
    blocks: tuple  # (k, s, s) real sub-blocks per size s, ascending

    def __post_init__(self):
        for array in (self.rows, self.cols, *self.blocks):
            array.setflags(write=False)

    @property
    def size(self) -> int:
        """Rows (= columns) of the block."""
        return len(self.rows)

    @cached_property
    def row_at(self) -> np.ndarray:
        """The stacked position of each row."""
        return _frozen(np.argsort(self.rows))

    @cached_property
    def in_labels(self) -> tuple:
        """(GzPattern, i) per column."""
        return tuple(
            (q, i) for q in enumerate_gz(self.lam, self.d) for i in range(1, self.d + 1)
        )

    @cached_property
    def out_labels(self) -> tuple:
        """(j, GzPattern of lambda + e_j) per row."""
        return tuple(
            (j, q)
            for j, nu, _ in cg_rows(self.lam, self.d)
            for q in enumerate_gz(nu, self.d)
        )

    @cached_property
    def in_index(self) -> Mapping:
        return {label: c for c, label in enumerate(self.in_labels)}

    @cached_property
    def out_index(self) -> Mapping:
        return {label: r for r, label in enumerate(self.out_labels)}

    def _spans(self):
        """(positions, sub-blocks) per size: the slice of the stacked order
        that each (k, s, s) array covers."""
        start = 0
        for blocks in self.blocks:
            stop = start + blocks.shape[0] * blocks.shape[1]
            yield slice(start, stop), blocks
            start = stop

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense real block, read-only."""
        out = np.zeros((self.size, self.size))
        for at, blocks in self._spans():
            k, s, _ = blocks.shape
            out[self.rows[at].reshape(k, s, 1), self.cols[at].reshape(k, 1, s)] = blocks
        return _frozen(out)

    @cached_property
    def dense(self):
        """The block as one real array when it is stored as one dense
        sub-block, else None."""
        blocks = self.blocks[0]
        return blocks[0] if len(self.blocks) == 1 and len(blocks) == 1 else None

    def dot(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """matrix @ x, or matrix.T @ x, for x of shape (size, ...), real or
        complex.

        The rows of x are gathered into the stacked order, multiplied by
        stacked_dot and scattered back. A complex operand is multiplied
        through its real view, so it costs real products only and the block
        is never upcast.
        """
        x = np.asarray(x)
        if x.ndim == 0 or len(x) != self.size:
            raise ValueError(f"operand of shape {x.shape} for a {self.size}-row block")
        x = np.ascontiguousarray(x, np.complex128 if np.iscomplexobj(x) else np.float64)
        real = x.reshape(len(x), -1).view(np.float64)
        src, dst = (self.rows, self.cols) if transpose else (self.cols, self.rows)
        product = np.empty_like(real)
        self.stacked_dot(real[src][None], product[None], transpose)
        out = np.empty_like(real)
        out[dst] = product
        return out.view(x.dtype).reshape(x.shape)

    def stacked_dot(self, x: np.ndarray, out: np.ndarray, transpose: bool = False) -> None:
        """The sub-blocks' products, one batched product per size.

        x and out are real arrays of shape (batch, size, rest), contiguous
        over their last two axes, in the stacked order: row a of x[b] is
        operand row cols[a] and row a of out[b] is product row rows[a] (the
        other way round when transposed). np.matmul broadcasts over batch.
        """
        batch, _, rest = x.shape
        for at, blocks in self._spans():
            k, s, _ = blocks.shape
            blocks = blocks.transpose(0, 2, 1) if transpose else blocks
            shape = (batch, k, s, rest)
            np.matmul(blocks, x[:, at].reshape(shape), out=out[:, at].reshape(shape))

    @cached_property
    def feeds(self) -> tuple:
        """Where the next blocks read the product, per (j, nu, rows) of
        cg_rows: None if both blocks are dense, else the position of each
        stacked column (p, i) of cg_block(nu, d) among the product's stacked
        rows times the d levels of the next qudit, that is row rows.start + p
        at level i - 1. Raises RuntimeError, naming the cascade step |lambda|
        and lambda, unless together they hit each position once.
        """
        d, feeds, hits = self.d, [], []
        for _, nu, rows in cg_rows(self.lam, d):
            nxt = cg_block(nu, d)
            q, i = np.divmod(nxt.cols, d)
            hits.append(_frozen(self.row_at.take(rows.start + q, mode="clip") * d + i))
            feeds.append(None if self.dense is not None and nxt.dense is not None else hits[-1])
        if not np.array_equal(np.sort(np.concatenate(hits)), np.arange(d * self.size)):
            raise RuntimeError(
                f"step {self.lam.size}: the blocks after lambda = "
                f"{format_partition(self.lam)} read its product other than once"
            )
        return tuple(feeds)

    def json_payload(self) -> dict:
        """Schema: lambda, d, rows, cols, matrix as [re, im] pairs (array form).

        Each column pattern is formatted once, not once per qudit level.
        """
        gzs = {q: format_ssyt(gz_to_ssyt(q)) for q in enumerate_gz(self.lam, self.d)}
        return {
            "lambda": format_partition(self.lam),
            "d": self.d,
            "rows": [
                {"j": j, "gz": format_ssyt(gz_to_ssyt(q))} for j, q in self.out_labels
            ],
            "cols": [{"gz": gzs[q], "i": i} for q, i in self.in_labels],
            "matrix": pairs(self.matrix),
        }

    def to_json(self) -> dict:
        return lists(self.json_payload())


def _weight(sums: np.ndarray) -> tuple:
    return tuple(np.diff(sums, prepend=0).tolist())


def _stack_by_weight(row_sums: np.ndarray, col_sums: np.ndarray, rows, cols, vals):
    """(rows, cols, blocks) of a square block with entries (rows, cols, vals):
    the stored form of CgBlock.

    Labels of equal pattern sums (see _patterns) form a weight class. The
    stacked order runs over class sizes ascending; within a size, classes in
    order of first appearance, rows before columns; rows and columns ascend
    within a class. A block whose sub-blocks save less than GATHER_COST per
    row is one dense sub-block in natural order.
    """
    size = len(row_sums)
    both = np.concatenate((row_sums, col_sums))
    order = np.lexsort(both.T)  # stable: a class's first label leads it
    ordered = both[order]
    new = np.zeros(2 * size, dtype=bool)  # where each class starts in order
    new[0] = True
    new[1 + (ordered[1:] != ordered[:-1]).nonzero()[0]] = True
    ids = np.empty(2 * size, dtype=np.intp)
    ids[order] = new.cumsum() - 1
    row_ids, col_ids = ids[:size], ids[size:]
    appears = order[new]  # the first label of each class
    n_rows = np.bincount(row_ids, minlength=len(appears)).tolist()
    n_cols = np.bincount(col_ids, minlength=len(appears)).tolist()
    if n_rows != n_cols:
        c = min(
            (c for c, n in enumerate(n_rows) if n != n_cols[c]),
            key=lambda c: appears[c],
        )
        raise RuntimeError(
            f"weight {_weight(ordered[new][c])} has {n_rows[c]} rows but "
            f"{n_cols[c]} columns"
        )
    linked = (row_ids[rows] != col_ids[cols]).nonzero()[0]
    if linked.size:
        r, c = rows[linked[0]], cols[linked[0]]
        raise RuntimeError(
            f"entry ({r}, {c}) links weights {_weight(row_sums[r])} "
            f"and {_weight(col_sums[c])}"
        )
    if sum(n * n for n in n_rows) + GATHER_COST * size >= size * size:
        dense = np.zeros((1, size, size))
        dense.reshape(-1)[rows * size + cols] = vals
        whole = np.arange(size, dtype=np.intp)
        return whole, whole, (dense,)
    by_size = np.lexsort((appears, n_rows))  # size, then first appearance
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(len(by_size))
    sizes = np.array(n_rows)[by_size]
    first = np.cumsum(sizes) - sizes  # first row (and column) of each class
    starts = np.cumsum(sizes * sizes) - sizes * sizes  # and its first entry
    row_order = np.argsort(rank[row_ids], kind="stable")
    col_order = np.argsort(rank[col_ids], kind="stable")
    place = np.empty(2 * size, dtype=np.intp)  # position within the class
    shift = np.repeat(first, sizes)
    place[row_order] = np.arange(size) - shift
    place[size + col_order] = np.arange(size) - shift
    cls = rank[row_ids[rows]]
    flat = np.zeros(starts[-1] + sizes[-1] ** 2)
    flat[starts[cls] + place[rows] * sizes[cls] + place[size + cols]] = vals
    bounds = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist(), len(sizes)]
    blocks = []
    for a, b in zip(bounds, bounds[1:]):
        k, s, e = b - a, int(sizes[a]), int(starts[a])
        blocks.append(flat[e : e + k * s * s].reshape(k, s, s))
    return row_order, col_order, tuple(blocks)


@cache
def cg_rows(lam: Partition, d: int) -> tuple:
    """The row layout of cg_block(lambda, d): ((j, lambda + e_j, rows), ...).

    Rows run over the valid j ascending, then the GZ patterns of lambda + e_j
    in canonical order; rows is the slice that lambda + e_j fills.
    """
    out = []
    start = 0
    for j, nu in _targets(lam.parts, d):
        nu = Partition(nu)
        stop = start + dim_Q(nu, d)
        out.append((j, nu, slice(start, stop)))
        start = stop
    return tuple(out)


@cache
def cg_block(lam: Partition, d: int) -> CgBlock:
    """Build the CG block for lambda at dimension d.

    Rows are laid out by cg_rows; columns run over GZ patterns of lambda in
    canonical order, then i in 1..d. Unitary by construction (verified in
    tests to 1e-12).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(lam) > d:
        raise ValueError(f"lambda={lam} needs more than d={d} rows")
    rows = cg_rows(lam, d)
    row_sums = np.concatenate([_patterns(nu.parts, d)[1] for _, nu, _ in rows])
    sums = _patterns(lam.parts, d)[1]
    size = dim_Q(lam, d) * d
    if not len(row_sums) == len(sums) * d == size:
        raise RuntimeError(
            f"CG block for {lam}, d={d}: {len(row_sums)} x {len(sums) * d}, "
            f"expected {size} x {size}"
        )
    # Column (p, i) has the weight of pattern p plus e_i: |q_k| + 1 for k >= i.
    steps = np.array([[int(k >= i) for k in range(d)] for i in range(d)])
    col_sums = (sums[:, None, :] + steps).reshape(size, d)
    starts = np.zeros(d + 1, dtype=np.intp)  # first row of each valid j
    for j, _, at in rows:
        starts[j] = at.start
    (j, s, p, i), vals = _entries(lam.parts, d)
    stacked = _stack_by_weight(row_sums, col_sums, starts[j] + s, p * d + i - 1, vals)
    return CgBlock(lam, d, *stacked)


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
