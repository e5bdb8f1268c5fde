"""Exact integer combinatorics of partitions.

Partitions (nonincreasing sequences of nonnegative integers) label both the
unitary-group irreps Q_lambda^d and the symmetric-group irreps P_lambda.
Everything here is exact big-integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product
from operator import index
from typing import Iterator


class Partition:
    """A partition in normal form (trailing zeros stripped).

    Two partitions differing only by trailing zeros compare equal; equality
    and hashing act on the normal form. Parts must be integers.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        try:
            parts = tuple(map(index, parts))
        except TypeError:
            raise ValueError(f"parts must be integers, not {parts!r}") from None
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        parts = parts[:end]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not nonincreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def _trusted(cls, parts: tuple) -> Partition:
        """A partition from parts already in normal form; no checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    @property
    def size(self) -> int:
        """Number of boxes (the integer being partitioned)."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def part(self, i: int) -> int:
        """Row length lambda_i, 1-based, zero beyond the last row."""
        if i < 1:
            raise IndexError("rows are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return format_partition(self)


def parse_partition(text: str) -> Partition:
    """Parse "4,3,1,1" (trailing zeros accepted, empty string allowed)."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad partition text {text!r}") from exc
    return Partition(parts)


def format_partition(p: Partition) -> str:
    """Comma-separated parts with trailing zeros stripped; empty -> ""."""
    return ",".join(str(x) for x in p.parts)


def canonical_key(p: Partition) -> tuple[int, ...]:
    """Sort key for the canonical order: descending lexicographic.

    Sorting ascending by this key puts lexicographically larger partitions
    first, e.g. (4) < (3,1) < (2,2) < (2,1,1) in canonical position. The
    trailing 0 sentinel makes implicit zero padding compare correctly when
    one partition extends another, e.g. (2,1) before (2).
    """
    return tuple(-x for x in p.parts) + (0,)


def canonical_sort(partitions) -> list[Partition]:
    return sorted(partitions, key=canonical_key)


def enumerate_partitions(d: int, n: int) -> list[Partition]:
    """All partitions of n into at most d parts, in canonical order."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[Partition] = []

    def build(prefix: list[int], remaining: int, cap: int, slots: int):
        if remaining == 0:
            out.append(Partition._trusted(tuple(prefix)))
            return
        # Largest feasible first part keeps the output in descending lex order.
        # ceil: must leave a nonincreasing tail, so the last slot takes all
        # that remains and no call is left with parts but no slots
        lo = -(-remaining // slots)
        for first in range(min(cap, remaining), lo - 1, -1):
            build(prefix + [first], remaining - first, first, slots - 1)

    build([], n, n, d)
    return out


def interlaces(mu: Partition, lam: Partition, d: int | None = None) -> bool:
    """Whether mu interlaces lam: lam_1 >= mu_1 >= lam_2 >= ... >= lam_d.

    With d given, enforces the length contract (mu fits in d-1 rows, lam in
    d rows) and raises ValueError on violation.
    """
    if d is not None:
        if len(lam) > d:
            raise ValueError(f"lambda={lam} needs more than d={d} rows")
        if len(mu) > d - 1:
            raise ValueError(f"mu={mu} needs more than d-1={d - 1} rows")
    for i in range(1, max(len(lam), len(mu)) + 1):
        if not (lam.part(i) >= mu.part(i) >= lam.part(i + 1)):
            return False
    return True


def interlacing_set(lam: Partition, d: int) -> list[Partition]:
    """All mu with <= d-1 parts interlacing lam, in canonical order."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(lam) > d:
        raise ValueError(f"lambda={lam} needs more than d={d} rows")
    rows = (range(lam.part(i), lam.part(i + 1) - 1, -1) for i in range(1, d))
    # each range is descending and stops at the next row, so every mu is
    # nonincreasing with its zeros last
    return [Partition._trusted(mu[: mu.index(0)] if 0 in mu else mu) for mu in product(*rows)]


def add_box(lam: Partition, j: int, d: int | None = None) -> Partition | None:
    """lam + e_j when that is a valid partition (in <= d rows), else None."""
    if j < 1:
        raise ValueError("row index j is 1-based")
    if d is not None and j > d:
        return None
    new = list(lam.parts) + [0] * max(0, j - len(lam.parts))
    new[j - 1] += 1
    if j >= 2 and new[j - 2] < new[j - 1]:
        return None
    return Partition._trusted(tuple(new))  # j <= len + 1 here, so no zero


def remove_box(lam: Partition, j: int) -> Partition | None:
    """lam - e_j when that is a valid partition, else None."""
    if j < 1:
        raise ValueError("row index j is 1-based")
    if j > len(lam):
        return None
    new = list(lam.parts)
    new[j - 1] -= 1
    if new[j - 1] < (new[j] if j < len(new) else 0):
        return None
    return Partition._trusted(tuple(new[:-1] if new[-1] == 0 else new))


def remove_box_set(lam: Partition) -> list[Partition]:
    """lam - box: all single-box removals that stay a partition, in
    canonical order, which is the order of the removed box's row descending."""
    removals = (remove_box(lam, j) for j in range(len(lam), 0, -1))
    return [mu for mu in removals if mu is not None]


def _weyl_product(lam: Partition, d: int) -> int:
    """prod_{1<=i<j<=d}(lambda_i - lambda_j + j - i), the numerator of dim_Q."""
    shifted = [x - i for i, x in enumerate(lam.parts + (0,) * (d - len(lam)))]
    return math.prod([a - b for i, a in enumerate(shifted) for b in shifted[i + 1 :]])


@cache
def dim_P(lam: Partition) -> int:
    """Dimension of the S_n irrep P_lambda (count of standard tableaux)."""
    d = len(lam)
    if d == 0:
        return 1
    num = math.factorial(lam.size) * _weyl_product(lam, d)
    den = 1
    for i in range(1, d + 1):
        den *= math.factorial(lam.part(i) + d - i)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"hook-length division for {lam} leaves {r}: {num}/{den}")
    return q


@cache
def dim_Q(lam: Partition, d: int) -> int:
    """Dimension of the U_d irrep Q_lambda^d (count of SSYT with entries <= d).

    Weyl formula: prod_{1<=i<j<=d}(lambda_i - lambda_j + j - i) divided by
    prod_{m=1}^{d-1} m!, which equals prod_{i<j}(j - i). Zero when lambda
    needs more than d rows.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(lam) > d:
        return 0
    num = _weyl_product(lam, d)
    den = 1
    for m in range(1, d):
        den *= math.factorial(m)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl division for {lam}, d={d} leaves {r}: {num}/{den}")
    return q
