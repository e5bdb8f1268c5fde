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

import numpy as np

from .partitions import Partition, remove_box


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
    """The coefficient from parts tuples; no Partition is built."""
    if j < 1:
        raise ValueError("row index j is 1-based")
    if j_prime < 0:
        raise ValueError("j' is 0 (the trivial branch) or a 1-based row index")
    mu = mu_parts + (0,) * (d + 1 - len(mu_parts))  # mu_1..mu_{d+1}
    mup = mup_parts + (0,) * (d - len(mup_parts))  # mu'_1..mu'_d
    # lam = mu + e_j and mu'' = mu' + e_j' must be partitions in d and d-1 rows.
    if not 1 <= j <= d or (j > 1 and mu[j - 2] == mu[j - 1]):
        return 0.0
    if j_prime > d - 1 or (j_prime > 1 and mup[j_prime - 2] == mup[j_prime - 1]):
        return 0.0
    lam = list(mu)
    lam[j - 1] += 1
    mupp = list(mup)
    if j_prime:
        mupp[j_prime - 1] += 1
    for i in range(d):
        if not (mu[i] >= mup[i] >= mu[i + 1] and lam[i] >= mupp[i] >= lam[i + 1]):
            return 0.0

    mt = [mu[i - 1] + d - i for i in range(1, d + 1)]
    mpt = [mup[i - 1] + d - 1 - i for i in range(1, d)]

    x = mt[j - 1]
    num = den = 1
    for s in range(1, d):
        if s != j_prime:
            num *= x - mpt[s - 1]
    for s in range(1, d + 1):
        if s != j:
            den *= x - mt[s - 1]
    if j_prime:  # the mu~'_{j'} factors; j' = 0 has none
        y = mpt[j_prime - 1]
        for t in range(1, d + 1):
            if t != j:
                num *= y - mt[t - 1] + 1
        for t in range(1, d):
            if t != j_prime:
                den *= y - mpt[t - 1] + 1
    if den == 0 or num * den < 0:
        raise ArithmeticError(
            f"radicand {num}/{den} for (mu={_text(mu_parts)}, j={j}, "
            f"mu'={_text(mup_parts)}, j'={j_prime}, d={d})"
        )
    root = math.sqrt(num / den)
    return -root if 0 < j_prime < j else root


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
        for j in range(1, d + 1):
            out[j - 1, jp] = _value(mu.parts, j, mup.parts, jp, d)
    return out
