"""The recursive Clebsch-Gordan transform for Q_lambda^d tensor Q_(1)^d.

cg_block(lambda, d) builds the unitary sending (GZ vector of lambda, qudit
level i) to the direct sum over valid j of GZ vectors of lambda + e_j.
It is built level by level, as the Wigner-Eckart recursion reads: for each
top pattern row mu', the U_{d-1} transform of mu' acts on the pattern tail
(the i = d branch is the identity, relabeled j' = 0), then the reduced
Wigner matrix of (lambda, mu') mixes j' -> j. A level is a table of the
nonzero entries as arrays, made from the tables of the level below by index
arithmetic, so every entry is the product of one Wigner coefficient per
level, formed once; the coefficients come one (lambda, mu') row at a time
(wigner._row).

The transform commutes with the torus of U_d, so it only links labels of
equal weight. Each level gives every pattern one integer weight class from
the class below (see _patterns), so a label's weight is one integer, never a
row of d sums. A block is stored in one form, its weight sub-blocks stacked
by size: the row and the column of each stacked position, and one (k, s, s)
array per sub-block size, so that one batched real product serves all
sub-blocks of a size. Both directions of the Schur cascade hold their
operands in that order between steps (see CgBlock.feeds); the dense matrix
and the labels are assembled only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Mapping

import numpy as np

from .bases import enumerate_gz, format_ssyt, gz_to_ssyt
from .jsonform import lists, pairs
from .partitions import Partition, add_box, dim_Q, format_partition, interlacing_set
from .wigner import _row as _wigner_row

# Cost per column, in dense multiply-adds, of an operand row held in a
# grouped block's stacked order: its product row moves through a buffer and
# an index (CgBlock.feeds), not in place. A block whose weight sub-blocks
# save less is one dense group (all at d = 2 in practice); a new value would
# change which blocks are dense, and so the output bits.
GATHER_COST = 48


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: the caches below share it."""
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _targets(lam_parts: tuple, d: int) -> tuple:
    """((j, parts of lambda + e_j), ...) over the valid j in 1..d."""
    lam = Partition._trusted(lam_parts)
    nus = ((j, add_box(lam, j, d)) for j in range(1, min(len(lam_parts) + 1, d) + 1))
    return tuple((j, nu.parts) for j, nu in nus if nu is not None)


@lru_cache(maxsize=None)
def _patterns(lam_parts: tuple, d: int) -> tuple:
    """(runs, ids) of the GZ patterns of lambda at d, in canonical order.

    runs maps each q_{d-1} (parts) to the index of its first pattern: the
    patterns sharing q_{d-1} form one run, runs in interlacing order.
    ids[p] is the weight class of pattern p, built level by level from the
    pair (class of its pattern below, |q_{d-1}|) as
    C(|q_{d-1}| + d - 2, d - 1) + class below: the rank of the partial sums
    (|q_1|, ..., |q_{d-1}|) in the combinatorial number system. The torus
    weight is wt_k = |q_k| - |q_{k-1}|, so two patterns of as many boxes
    have equal weight if and only if they have equal ids, and the weights
    of N boxes take the ids below C(N + d - 1, d - 1): one small integer
    per pattern where a key of the d sums would not fit (5^32 > 2^63).
    """
    if d == 1:
        return {}, _frozen(np.zeros(1, dtype=np.intp))
    runs, lower, count = {}, [], 0
    for mu in interlacing_set(Partition._trusted(lam_parts), d):
        runs[mu.parts] = count
        lower.append(_patterns(mu.parts, d - 1)[1] + math.comb(mu.size + d - 2, d - 1))
        count += len(lower[-1])
    return runs, _frozen(np.concatenate(lower))


@lru_cache(maxsize=None)
def _columns(lam_parts: tuple, d: int) -> np.ndarray:
    """The weight class (see _patterns) of each column (p, i) of the CG
    block of lambda at d, the weight of pattern p plus e_i, as a
    (patterns, d) array: for i < d the class of column (p', i) one level
    down with |q_{d-1}| one larger, for i = d that of pattern p itself."""
    runs, ids = _patterns(lam_parts, d)
    if d == 1:
        return _frozen(ids.reshape(1, 1))
    lower = [_columns(mu, d - 1) for mu in runs]
    out = np.empty((len(ids), d), dtype=np.intp)
    np.concatenate(lower, out=out[:, :-1])
    shifts = np.array([math.comb(sum(mu) + d - 1, d - 1) for mu in runs])
    out[:, :-1] += shifts.repeat(list(map(len, lower)))[:, None]
    out[:, -1] = ids
    return _frozen(out)


@lru_cache(maxsize=None)
def _entries(lam_parts: tuple, d: int) -> tuple:
    """The nonzero entries of the CG block of lambda at d: (bounds, ints, vals).

    The entries come grouped by row slice: those in the slice of the t-th
    valid j (see _targets) are bounds[t]:bounds[t + 1]. The rows of ints are
    (r, p, i): an entry sits in row r of the block, in the slice of
    lambda + e_j (see cg_rows), and in the column of (pattern p of lambda,
    qudit level i); vals holds the values. ints is int32, 20 bytes an entry
    with its value: a block with 2^31 rows would not fit in memory.

    For each mu', the entries of mu' at d - 1, a group per valid j', and its
    i = d branch (j' = 0, see _branch) move to the run of mu' among the
    patterns of lambda; for each valid j, group j' moves to the run of
    mu' + e_j' among the patterns of lambda + e_j, its values times
    T(lambda, j, mu', j'). Each nonzero coefficient moves one segment of the
    lower entries, and all segments are gathered by one index, so every
    entry comes from exactly one lower entry. Every block at d = 1 is the
    same 1 x 1 identity.
    """
    if d == 1:
        if lam_parts:
            return _entries((), 1)
        unit = np.array([[0], [0], [1]], dtype=np.int32)  # (r, p, i)
        return (0, 1), _frozen(unit), _frozen(np.ones(1))
    # Per mu': its run start, its coefficient row and, per group j', the
    # parts of mu' + e_j', its first entry in the concatenated lower entries,
    # its length and the first row of its slice of the block of mu'.
    lower, groups, at = [], [], 0
    for mu, start in _patterns(lam_parts, d)[0].items():
        bounds, ints, vals = _entries(mu, d - 1)
        count = len(_patterns(mu, d - 1)[1])
        lower += (_branch(count, d), (ints, vals))
        spans, first = [(mu, at, count, 0)], 0
        at += count
        for (_, nu), a, b in zip(_targets(mu, d - 1), bounds, bounds[1:]):
            spans.append((nu, at + a, b - a, first))
            first += len(_patterns(nu, d - 1)[1])
        at += vals.size
        groups.append((start, spans, _wigner_row(lam_parts, mu, d)[2]))
    # One segment per nonzero coefficient: (its first lower entry less its
    # first entry here, its length, row shift, column pattern shift).
    segments, coeffs, bounds, top = [], [], [0], 0  # top: the slice's first row
    for t, (_, nu) in enumerate(_targets(lam_parts, d)):
        nu_runs, nu_ids = _patterns(nu, d)
        out = bounds[-1]
        for start, spans, row in groups:
            for (mupp, a, n, first), c in zip(spans, row[t]):
                if c != 0.0:
                    segments += (a - out, n, top + nu_runs[mupp] - first, start)
                    coeffs.append(c)
                    out += n
        bounds.append(out)
        top += len(nu_ids)
    segments = np.fromiter(segments, np.intp, len(segments)).reshape(-1, 4)
    lengths = segments[:, 1]
    index = segments[:, 0].repeat(lengths)
    index += np.arange(len(index))
    ints = np.concatenate([x[0] for x in lower], axis=1).take(index, axis=1)
    ints[:2] += segments[:, 2:].T.astype(np.int32).repeat(lengths, axis=1)
    vals = np.concatenate([x[1] for x in lower])[index]
    vals *= np.array(coeffs).repeat(lengths)
    return tuple(bounds), _frozen(ints), _frozen(vals)


@lru_cache(maxsize=None)
def _branch(n: int, d: int) -> tuple:
    """The i = d branch of n patterns as entries one level down: row
    r' = p, level d, value 1."""
    ints = np.empty((3, n), dtype=np.int32)
    ints[0] = ints[1] = np.arange(n)
    ints[2] = d
    return _frozen(ints), _frozen(np.ones(n))


@dataclass(frozen=True, eq=False)
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
        """The stacked position of each row: rows inverted."""
        at = np.empty_like(self.rows)
        at[self.rows] = np.arange(self.size)
        return _frozen(at)

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

    def stacked_dot(
        self, x: np.ndarray, out: np.ndarray, transpose: bool = False, matmul=np.matmul
    ) -> None:
        """The sub-blocks' products, one batched product per size.

        x and out are real arrays of shape (batch, size, rest), contiguous
        over their last two axes, in the stacked order: row a of x[b] is
        operand row cols[a] and row a of out[b] is product row rows[a] (the
        other way round when transposed). np.matmul broadcasts over batch.
        Each product is matmul(sub-blocks, operand, out), so a caller may
        record the calls instead of making them (see schur._compile).
        """
        batch, _, rest = x.shape
        for at, blocks in self._spans():
            k, s, _ = blocks.shape
            blocks = blocks.transpose(0, 2, 1) if transpose else blocks
            shape = (batch, k, s, rest)
            matmul(blocks, x[:, at].reshape(shape), out[:, at].reshape(shape))

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
        counts = np.bincount(np.concatenate(hits), minlength=d * self.size)
        if len(counts) != d * self.size or not (counts == 1).all():
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


def _weight(key: int, d: int, boxes: int) -> tuple:
    """The torus weight of class key (see _patterns) among the weights of
    `boxes` boxes in d rows: each partial sum |q_{k-1}| is the largest s
    with C(s + k - 2, k - 1) <= the class left at level k."""
    sums = [boxes]
    for k in range(d, 1, -1):
        s = 0
        while math.comb(s + k - 1, k - 1) <= key:
            s += 1
        key -= math.comb(s + k - 2, k - 1)
        sums.append(s)
    sums.append(0)
    return tuple(a - b for a, b in zip(sums[-2::-1], sums[::-1]))


def _stack_by_weight(row_ids, col_ids, rows, cols, vals, d: int, boxes: int):
    """(rows, cols, blocks) of a square block with entries (rows, cols, vals):
    the stored form of CgBlock.

    Labels of equal class id (see _patterns) form a weight class. The
    stacked order runs over class sizes ascending; within a size, classes in
    order of first appearance, rows before columns; rows and columns ascend
    within a class. A block whose sub-blocks save less than GATHER_COST per
    row is one dense sub-block in natural order. d and boxes name the
    weights in the messages.
    """
    size = len(row_ids)
    both = np.concatenate((row_ids, col_ids))
    # One stable sort on the class id, held in the narrowest unsigned type
    # that fits, so that a class's first label leads it.
    order = np.argsort(both.astype(np.min_scalar_type(int(both.max()))), kind="stable")
    ordered = both[order]
    new = np.empty(2 * size, dtype=bool)  # where each class starts in order
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    heads = new.nonzero()[0]
    appears = order[heads]  # the first label of each class
    is_row = order < size
    n_rows = np.add.reduceat(is_row, heads, dtype=np.intp)
    n_cols = np.add.reduceat(~is_row, heads, dtype=np.intp)
    if (unequal := (n_rows != n_cols).nonzero()[0]).size:
        c = min(unequal, key=lambda c: appears[c])
        raise RuntimeError(
            f"weight {_weight(int(ordered[heads[c]]), d, boxes)} has {n_rows[c]} rows "
            f"but {n_cols[c]} columns"
        )
    linked = (row_ids[rows] != col_ids[cols]).nonzero()[0]
    if linked.size:
        r, c = rows[linked[0]], cols[linked[0]]
        raise RuntimeError(
            f"entry ({r}, {c}) links weights {_weight(int(row_ids[r]), d, boxes)} "
            f"and {_weight(int(col_ids[c]), d, boxes)}"
        )
    if int(n_rows @ n_rows) + GATHER_COST * size >= size * size:
        dense = np.zeros((1, size, size))
        dense.reshape(-1)[rows * size + cols] = vals
        whole = np.arange(size, dtype=np.intp)
        return whole, whole, (dense,)
    by_size = np.lexsort((appears, n_rows))  # size, then first appearance
    sizes = n_rows[by_size]
    first = np.cumsum(sizes) - sizes  # first row (and column) of each class
    starts = np.cumsum(sizes * sizes) - sizes * sizes  # and its first entry
    # Stacked position a of a class of size s starting at (first, start)
    # holds row a - first and column a - first of its s x s sub-block. A
    # class's rows lead its labels in order, ascending, and its columns
    # follow them: read each class's out in stacked order.
    width = sizes.repeat(sizes)  # of the class at each stacked position
    within = np.arange(size) - first.repeat(sizes)
    at = heads[by_size].repeat(sizes) + within
    row_order = order[at]
    col_order = order[at + width] - size
    row_at = np.empty(size, dtype=np.intp)  # entry offset of each row
    row_at[row_order] = starts.repeat(sizes) + within * width
    col_at = np.empty(size, dtype=np.intp)
    col_at[col_order] = within
    flat = np.zeros(starts[-1] + sizes[-1] ** 2)
    flat[row_at[rows] + col_at[cols]] = vals
    bounds = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist(), len(sizes)]
    sizes, starts = sizes.tolist(), starts.tolist()
    blocks = []
    for a, b in zip(bounds, bounds[1:]):
        k, s, e = b - a, sizes[a], starts[a]
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
        nu = Partition._trusted(nu)
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
    row_ids = np.concatenate([_patterns(nu.parts, d)[1] for _, nu, _ in rows])
    col_ids = _columns(lam.parts, d).reshape(-1)
    size = dim_Q(lam, d) * d
    if not len(row_ids) == len(col_ids) == size:
        raise RuntimeError(
            f"CG block for {lam}, d={d}: {len(row_ids)} x {len(col_ids)}, "
            f"expected {size} x {size}"
        )
    _, (r, p, i), vals = _entries(lam.parts, d)
    c = np.multiply(p, d, dtype=np.intp) + (i - 1)  # column (p, i)
    stacked = _stack_by_weight(row_ids, col_ids, r.astype(np.intp), c, vals, d, lam.size + 1)
    return CgBlock(lam, d, *stacked)

