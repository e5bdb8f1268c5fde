"""Reduced Wigner coefficients for tensoring in the defining irrep of U_d.

The scalar T-hat(mu, j, mu', j') relates a U_d Clebsch-Gordan matrix element
to the underlying U_{d-1} one: it is the amplitude for the step
(mu, mu') -> (mu + e_j, mu' + e_{j'}) of the top two pattern rows, with j' = 0
encoding the trivial-irrep branch (the added box sits in row d, invisible to
U_{d-1}).

Coefficients are evaluated from the exact shifted weights

    mu~_i  = mu_i  + d - i       (i = 1..d)
    mu~'_i = mu'_i + d - 1 - i   (i = 1..d-1)

as signed square roots of one exact integer ratio:

    num = prod_{s in [d-1], s != j'} (mu~_j - mu~'_s)
        * prod_{t in [d],   t != j } (mu~'_j' - mu~_t + 1)
    den = prod_{s in [d],   s != j } (mu~_j - mu~_s)
        * prod_{t in [d-1], t != j'} (mu~'_j' - mu~'_t + 1)

with sign -1 iff 0 < j' < j. At j' = 0 there is no mu~'_{j'}: every factor
naming it is left out, so the second products of num and den are empty and
the first product of num runs over all of [d-1]. The published
index scheme for these products is garbled (it indexes mu~' beyond its d-1
components) and the printed sign rule assigns the n=2 singlet amplitudes to
the triplet block; the convention above is fixed empirically by requiring
exact unitarity of the d x d reduced Wigner matrix, agreement with the
spin-(J) x spin-(1/2) Clebsch-Gordan table at d=2, and block-diagonal
intertwining at d >= 3.

Invalid couplings (box additions leaving the partition lattice, interlacing
failures) are exactly 0 by convention. Valid couplings always have a
nonnegative radicand; that is checked on the exact integers (a negative one
raises ArithmeticError), never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import ge

import numpy as np

from .partitions import Partition, drop_columns, remove_box


@dataclass(frozen=True)
class ReducedWignerQuery:
    """One coefficient request; j' = 0 selects the trivial-irrep branch."""

    mu: Partition
    j: int
    mu_prime: Partition
    j_prime: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 1 <= self.j <= self.d:
            raise ValueError(f"j={self.j} outside 1..{self.d}")
        if not 0 <= self.j_prime <= self.d - 1:
            raise ValueError(f"j'={self.j_prime} outside 0..{self.d - 1}")
        if len(self.mu) > self.d:
            raise ValueError(f"mu={self.mu} needs more than d={self.d} rows")
        if len(self.mu_prime) > self.d - 1:
            raise ValueError(f"mu'={self.mu_prime} needs more than d-1 rows")


@lru_cache(maxsize=None)
def _value(mu_parts: tuple, j: int, mup_parts: tuple, j_prime: int, d: int) -> float:
    """The coefficient from parts tuples, read off its row (see _row)."""
    if j < 1:
        raise ValueError("row index j is 1-based")
    if j_prime < 0:
        raise ValueError("j' is 0 (the trivial branch) or a 1-based row index")
    js, jps, table = _row(mu_parts, mup_parts, d)
    if j not in js or j_prime not in jps:
        return 0.0
    return table[js.index(j)][jps.index(j_prime)]


@lru_cache(maxsize=None)
def _row(mu_parts: tuple, mup_parts: tuple, d: int) -> tuple:
    """Every coefficient of one (mu, mu') pair at d: (js, jps, table).

    js are the j with mu + e_j a partition in d rows, jps the j' with
    mu' + e_j' one in d - 1 rows, 0 first, and table[a][b] is
    T(mu, js[a], mu', jps[b]); any other (j, j') is exactly 0. The products
    are shared across the row: per j the product of its factors
    (mu~_j - mu~'_s) over all s, per j' that of (mu~'_j' - mu~_t + 1) over
    all t, so each num and den is a few exact integer steps, dividing out
    the one factor that j' (or j) leaves out; each coefficient is the
    correctly rounded sign * sqrt(num / den).

    A pair with mu_d >= 1 whose mu' spans d - 1 rows, each at least mu_d,
    reads the row of (mu - mu_d*1^d, mu' - mu_d*1^{d-1}): every factor is a
    difference of shifted weights, so the row is the same in every bit. Any
    other pair, a non-interlacing one with mu'_{d-1} < mu_d among them,
    takes the direct path (which gives it zeros).
    """
    c = mu_parts[-1] if len(mu_parts) == d > 1 else 0
    if c and len(mup_parts) == d - 1 and mup_parts[-1] >= c:
        return _row(drop_columns(mu_parts, c), drop_columns(mup_parts, c), d)
    mu, js, mt, den_js = _shifted(mu_parts, d, 0)
    mup, jps, mpt, den_jps = _shifted(mup_parts, d - 1, 1)
    jps = (0, *jps)
    if not (all(map(ge, mu[:d], mup)) and all(map(ge, mup, mu[1 : d + 1]))):
        return js, jps, tuple((0.0,) * len(jps) for _ in js)
    # Per j' >= 1: y = mu~'_j', the factors (y - mu~_t + 1) over t, their
    # product, and whether mu'_j' = mu_j' (then mu'' passes lam unless j = j').
    lower = []
    for jp, den_jp in zip(jps[1:], den_jps):
        y = mpt[jp - 1]
        g = [y - x + 1 for x in mt]
        lower.append((jp, y, g, math.prod(g), den_jp, mup[jp - 1] == mu[jp - 1]))
    table = []
    for j, den_j in zip(js, den_js):
        x = mt[j - 1]
        f = [x - y for y in mpt]  # (mu~_j - mu~'_s), s = 1..d-1
        f_all = math.prod(f)
        # lam and mu'' interlace unless a box of one passes the other: lam's
        # new box passes mu' if mu'_{j-1} = mu_j, unless j' = j - 1.
        ahead = j > 1 and mup[j - 2] == mu[j - 1]
        if ahead:
            row = [0.0]
        else:  # j' = 0
            if den_j == 0 or f_all * den_j < 0:
                raise _radicand_error(f_all, den_j, mu_parts, j, mup_parts, 0, d)
            row = [math.sqrt(f_all / den_j)]
        for jp, y, g, g_all, den_jp, full in lower:
            if (ahead and jp != j - 1) or (full and jp != j):
                row.append(0.0)
                continue
            # Leave out f[j' - 1] = x - y and g[j - 1] = 1 - (x - y).
            step = x - y
            if step and step != 1:
                num = f_all * g_all // (step * (1 - step))
            else:
                num = math.prod(f[: jp - 1] + f[jp:]) * math.prod(g[: j - 1] + g[j:])
            den = den_j * den_jp
            if den == 0 or num * den < 0:
                raise _radicand_error(num, den, mu_parts, j, mup_parts, jp, d)
            root = math.sqrt(num / den)
            row.append(-root if jp < j else root)
        table.append(tuple(row))
    return js, jps, tuple(table)


@lru_cache(maxsize=None)
def _shifted(parts: tuple, rows: int, plus: int) -> tuple:
    """What a row (see _row) reads of one partition in `rows` rows: (parts
    padded to rows + 1, the rows k where a box can be added within `rows`
    rows, the shifted weights m~_i = m_i + rows - i, and per such k
    prod_{t != k} (m~_k - m~_t + plus))."""
    m = parts + (0,) * (rows + 1 - len(parts))
    ks = tuple(k for k in range(1, rows + 1) if k == 1 or m[k - 2] != m[k - 1])
    mt = tuple(m[i] + rows - 1 - i for i in range(rows))
    dens = tuple(
        math.prod([mt[k - 1] + plus - z for t, z in enumerate(mt, 1) if t != k]) for k in ks
    )
    return m, ks, mt, dens


def _radicand_error(num: int, den: int, mu_parts, j, mup_parts, jp, d) -> ArithmeticError:
    return ArithmeticError(
        f"radicand {num}/{den} for (mu={_text(mu_parts)}, j={j}, "
        f"mu'={_text(mup_parts)}, j'={jp}, d={d})"
    )


def _text(parts: tuple) -> str:
    return ",".join(str(p) for p in parts)


def reduced_wigner(q: ReducedWignerQuery) -> float:
    """The reduced Wigner coefficient; exactly 0 for invalid couplings."""
    return _value(q.mu.parts, q.j, q.mu_prime.parts, q.j_prime, q.d)


def reduced_wigner_matrix(mu: Partition, mu_dprime: Partition, d: int) -> np.ndarray:
    """The d x d reduced Wigner operator controlled by (mu, mu'').

    Entry (j, j') is the coefficient for mu' = mu'' - e_{j'} (the j' = 0
    column uses mu' = mu''). Rows are j = 1..d, columns j' = 0..d-1, both
    0-indexed in the array. Restricted to its nonzero rows and columns the
    matrix is unitary; incompatible (mu, mu'') give the zero matrix.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(mu) > d:
        raise ValueError(f"mu={mu} needs more than d={d} rows")
    if len(mu_dprime) > max(d - 1, 0):
        raise ValueError(f"mu''={mu_dprime} needs more than d-1 rows")
    out = np.zeros((d, d))
    for jp in range(d):
        mup = mu_dprime if jp == 0 else remove_box(mu_dprime, jp)
        if mup is None:
            continue
        js, jps, table = _row(mu.parts, mup.parts, d)
        if jp in jps:
            out[[j - 1 for j in js], jp] = [row[jps.index(jp)] for row in table]
    return out
