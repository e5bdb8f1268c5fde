"""Subgroup-adapted bases: Gel'fand-Zetlin patterns and Young-Yamanouchi paths.

A GzPattern is a chain of interlacing partitions (q_d = lambda, ..., q_1)
indexing a basis vector of Q_lambda^d; it is equivalent to a semistandard
tableau. A YyPath is a chain (p_n = lambda, ..., p_1 = (1)) of single-box
removals indexing a basis vector of P_lambda; it is equivalent to a standard
tableau and to the box-addition record (j_1, ..., j_{n-1}). Both are one
chain type, branching down U_d > ... > U_1 or S_n > ... > S_1, and
gz_to_ssyt fills any chain level by level: a pattern gives its semistandard
tableau, a path its standard tableau.
"""

from __future__ import annotations

from functools import cache

from .partitions import (
    Partition,
    add_box,
    dim_P,
    interlaces,
    interlacing_set,
    remove_box_set,
)


class _Chain:
    """An immutable chain of partitions, top first. Equality needs the exact
    type: a pattern never equals a path of the same partitions."""

    __slots__ = ("chain",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, chain: tuple):
        """A chain already known to be valid for cls; no checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "chain", chain)
        return self

    @property
    def top(self) -> Partition:
        """The irrep label lambda, the first partition of the chain."""
        return self.chain[0]

    def level(self, j: int) -> Partition:
        """The partition at level j, 1-based from the bottom of the chain."""
        return self.chain[len(self.chain) - j]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.chain == other.chain

    def __hash__(self) -> int:
        return hash(self.chain)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({[list(q.parts) for q in self.chain]})"


class GzPattern(_Chain):
    """Chain (q_d = lambda, q_{d-1}, ..., q_1) with q_j interlacing q_{j+1}."""

    __slots__ = ()

    def __init__(self, chain):
        chain = tuple(chain)
        if not chain:
            raise ValueError("empty GZ chain")
        for level, q in zip(range(len(chain), 0, -1), chain):
            if not isinstance(q, Partition):
                raise ValueError("chain entries must be Partitions")
            if len(q) > level:
                raise ValueError(f"q_{level}={q} has more than {level} parts")
        for upper, lower in zip(chain, chain[1:]):
            if not interlaces(lower, upper):
                raise ValueError(f"{lower} does not interlace {upper}")
        object.__setattr__(self, "chain", chain)

    @property
    def d(self) -> int:
        return len(self.chain)


class YyPath(_Chain):
    """Chain (p_n = lambda, ..., p_1 = (1)); each step removes one box."""

    __slots__ = ()

    def __init__(self, chain):
        chain = tuple(chain)
        if not chain:
            raise ValueError("empty path")
        if chain[-1] != Partition([1]):
            raise ValueError("path must end at the single-box partition")
        for upper, lower in zip(chain, chain[1:]):
            if lower not in remove_box_set(upper):
                raise ValueError(f"{lower} is not {upper} minus one box")
        object.__setattr__(self, "chain", chain)

    @property
    def n(self) -> int:
        return len(self.chain)

    @property
    def box_record(self) -> tuple[int, ...]:
        """(j_1, ..., j_{n-1}): row receiving the box at each growth step."""
        js = []
        for k in range(1, self.n):
            lo, hi = self.level(k), self.level(k + 1)
            j = next(i for i in range(1, len(hi) + 1) if hi.part(i) != lo.part(i))
            js.append(j)
        return tuple(js)


def path_from_record(js) -> YyPath:
    """Rebuild a path from its box-addition record (j_1, ..., j_{n-1})."""
    cur = Partition([1])
    chain = [cur]
    for j in js:
        nxt = add_box(cur, j)
        if nxt is None:
            raise ValueError(f"record {tuple(js)} adds an invalid box at row {j}")
        chain.append(nxt)
        cur = nxt
    return YyPath(reversed(chain))


def format_path(p: YyPath) -> str:
    """Wire form "j1,j2,...,j{n-1}"; empty for n=1."""
    return ",".join(str(j) for j in p.box_record)


def parse_path(text: str) -> YyPath:
    text = text.strip()
    js = [int(tok) for tok in text.split(",")] if text else []
    return path_from_record(js)


def _chains(top: Partition, depth: int, below) -> list[tuple]:
    """The chains (top, ...) of `depth` partitions, each one in
    below(previous, level of previous) with top at level depth: depth first,
    in the order `below` gives. A stack, not recursion, so deep chains stay
    within the recursion limit; `below` runs once per (partition, level),
    never on an empty partition: its one chain below is all empty.
    """
    if depth == 1 or not top:
        return [(top,) * depth]
    memo = {}
    out = []
    chain = [top]
    stack = [iter(below(top, depth))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            chain.pop()
        elif len(chain) == depth - 1 or not node:
            out.append((*chain, node) + (node,) * (depth - len(chain) - 1))
        else:
            chain.append(node)
            key = node, depth - len(chain) + 1
            if key not in memo:
                memo[key] = below(*key)
            stack.append(iter(memo[key]))
    return out


@cache
def enumerate_gz(lam: Partition, d: int) -> tuple[GzPattern, ...]:
    """All GZ patterns of Q_lambda^d in canonical order.

    Ordered by q_{d-1} in canonical partition order, then recursively, so
    patterns sharing a U_{d-1} label form contiguous runs.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(lam) > d:
        return ()
    # interlacing_set yields exactly the mu that interlace lam with at most
    # d - 1 parts, so every chain is valid by construction.
    return tuple(GzPattern._trusted(chain) for chain in _chains(lam, d, interlacing_set))


@cache
def enumerate_paths(lam: Partition) -> tuple[YyPath, ...]:
    """All removal chains from lambda down to (1), in rank order."""
    if lam.size < 1:
        raise ValueError("lambda must have at least one box")
    # remove_box_set yields exactly lambda minus one box, so every chain is
    # valid by construction, and each of lam.size partitions ends at (1).
    chains = _chains(lam, lam.size, lambda mu, _: remove_box_set(mu))
    return tuple(YyPath._trusted(chain) for chain in chains)


def gz_to_ssyt(p: GzPattern | YyPath) -> list[list[int]]:
    """Fill each box in level j but not level j - 1 with j; rows of the
    tableau: a pattern's semistandard tableau, a path's standard one."""
    lam = p.top
    rows = [[0] * lam.part(r) for r in range(1, len(lam) + 1)]
    prev = Partition()
    for j in range(1, len(p.chain) + 1):
        q = p.level(j)
        for r in range(1, len(q) + 1):
            for c in range(prev.part(r), q.part(r)):
                rows[r - 1][c] = j
        prev = q
    return rows


def ssyt_to_gz(rows: list[list[int]], d: int) -> GzPattern:
    """Inverse of gz_to_ssyt for entries in 1..d; validates semistandardness."""
    for r, row in enumerate(rows):
        if not row:
            raise ValueError("empty tableau row")
        for c, v in enumerate(row):
            if not 1 <= v <= d:
                raise ValueError(f"entry {v} outside 1..{d}")
            if c > 0 and row[c - 1] > v:
                raise ValueError("rows must be nondecreasing")
            if r > 0 and (c >= len(rows[r - 1]) or rows[r - 1][c] >= v):
                raise ValueError("columns must be strictly increasing")
    chain = []
    for j in range(d, 0, -1):
        parts = [sum(1 for v in row if v <= j) for row in rows]
        chain.append(Partition(parts))
    return GzPattern(chain)


def format_ssyt(rows: list[list[int]]) -> str:
    """Rows joined by slashes: "1,1,2,5/2,3,3/3/5"."""
    return "/".join(",".join(str(v) for v in row) for row in rows)


def parse_ssyt(text: str) -> list[list[int]]:
    return [[int(v) for v in row.split(",")] for row in text.strip().split("/")]


@cache
def path_offsets(nu: Partition) -> dict:
    """{mu: where the paths through mu start among nu's paths, 0-based} over
    mu in remove_box_set(nu): nu's paths list those through each mu in
    canonical order, dim_P(mu) each. The one statement of the path order,
    read by rank_path, unrank_path and the cascade's plans."""
    offsets, start = {}, 0
    for mu in remove_box_set(nu):
        offsets[mu] = start
        start += dim_P(mu)
    return offsets


def rank_path(p: YyPath) -> int:
    """Position of p in the canonical path order, 1-based: one plus the
    path_offsets of each level of its chain within the level above."""
    return 1 + sum(path_offsets(nu)[mu] for nu, mu in zip(p.chain, p.chain[1:]))


def unrank_path(lam: Partition, rank: int) -> YyPath:
    """Inverse of rank_path for 1 <= rank <= dim_P(lam)."""
    if lam.size < 1:
        raise ValueError("lambda must have at least one box")
    if not 1 <= rank <= dim_P(lam):
        raise ValueError(f"rank {rank} outside [1, {dim_P(lam)}] for {lam}")
    chain, r = [lam], rank - 1
    while chain[-1].size > 1:  # the last mu whose paths start at or before r
        mu, start = next(e for e in reversed(path_offsets(chain[-1]).items()) if e[1] <= r)
        chain.append(mu)
        r -= start
    return YyPath._trusted(tuple(chain))


def _bits(value: int, width: int) -> str:
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


def encode_registers(lam: Partition, q: GzPattern, p: YyPath, n: int, d: int) -> str:
    """Fixed-width bit layout for the triple (lambda, q, p).

    lambda: d fields of ceil(log2(n+1)) bits; q: the triangular GZ array as
    d + (d-1) + ... + 1 fields of the same width (row q_d first); p: n-1
    fields of ceil(log2 d) bits holding j_k - 1.
    """
    if q.d != d or len(lam) > d or p.n != n or q.top != lam or p.top != lam:
        raise ValueError("inconsistent (lambda, q, p, n, d) triple")
    w = (n + 1 - 1).bit_length()  # ceil(log2(n+1)) for n >= 1
    jw = (d - 1).bit_length()  # ceil(log2 d)
    bits = [_bits(lam.part(i), w) for i in range(1, d + 1)]
    for j in range(d, 0, -1):
        qj = q.level(j)
        bits.extend(_bits(qj.part(i), w) for i in range(1, j + 1))
    record = p.box_record
    bits.extend(_bits(j - 1, jw) for j in record)
    return "".join(bits)


def decode_registers(bits: str, n: int, d: int) -> tuple[Partition, GzPattern, YyPath]:
    """Inverse of encode_registers; validates all chain invariants."""
    w = (n + 1 - 1).bit_length()
    jw = (d - 1).bit_length()
    expected = d * w + (d * (d + 1) // 2) * w + (n - 1) * jw
    if len(bits) != expected or set(bits) - {"0", "1"}:
        raise ValueError(f"expected {expected} bits, got {len(bits)}")
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        field = bits[pos : pos + width]
        pos += width
        return int(field, 2) if width else 0

    lam = Partition(take(w) for _ in range(d))
    chain = []
    for j in range(d, 0, -1):
        chain.append(Partition(take(w) for _ in range(j)))
    q = GzPattern(chain)
    js = [take(jw) + 1 for _ in range(n - 1)]
    p = path_from_record(js)
    if q.top != lam or p.top != lam:
        raise ValueError("decoded registers disagree on lambda")
    return lam, q, p
