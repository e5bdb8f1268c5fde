"""Ground truth for the Schur transform: permutation/tensor-power
representations, Young symmetrizers, irrep extraction, and Schur-polynomial
characters.

One routine conjugates: it forms rows of W = C A S^T, with A = U^{tensor n}
P(s) applied axis by axis to the transposed dense matrix S and the left
product by C = U_Sch run through the cascade (schur_apply). conjugate_by_schur
takes all rows, the extractors one lambda block's, and a W that is not finite
raises ConsistencyError there. W has q (x) p blocks only if C and S are the
same labeled Schur transform, so one run referees both: a wrong coefficient,
or a matrix that disagrees with the cascade, shows up as a residual of the one
factor (x) I reader, which the extractors and verify share. Dense
representation matrices pass schur's own size check at DEFAULT_MAX_DIM
(4096): n and d below 1 raise ValueError, and d^n above the bound raises
its ResourceLimitError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index

import numpy as np

from .bases import enumerate_gz, enumerate_paths, gz_to_ssyt
from .partitions import Partition, dim_P
from .schur import DEFAULT_MAX_DIM, SchurUnitary, _check_size, schur_apply


class ConsistencyError(RuntimeError):
    """The oracle found the transform wrong: a conjugated block that is not
    factor (x) I, or a conjugation that is not finite."""


class Permutation:
    """A bijection on 1..n, stored as the image tuple (s(1), ..., s(n))."""

    __slots__ = ("images",)

    def __init__(self, images):
        try:
            images = tuple(map(index, images))
        except TypeError:
            raise ValueError(f"images must be integers, not {images!r}") from None
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{len(images)}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    @property
    def sign(self) -> int:
        seen = [False] * self.n
        sign = 1
        for i in range(self.n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity_permutation(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def transposition(n: int, a: int, b: int) -> Permutation:
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return Permutation(images)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation(rng.permutation(n) + 1)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(d) sample via QR with phase correction."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _perm_dest(s: Permutation, d: int, n: int) -> np.ndarray:
    """dest[c] = row index of P(s)|c>: tensor factor k moves to slot s(k),
    so dest is the (d,)*n index tensor with axis s(k) moved to place k."""
    return np.arange(d**n).reshape((d,) * n).transpose(np.subtract(s.images, 1)).ravel()


def perm_matrix(s: Permutation, d: int) -> np.ndarray:
    """P(s) on (C^d)^{tensor n}: |i_1..i_n> -> |i_{s^-1(1)}..i_{s^-1(n)}>."""
    n = s.n
    _check_size(n, d, DEFAULT_MAX_DIM)
    dest = _perm_dest(s, d, n)
    out = np.zeros((d**n, d**n))
    out[dest, np.arange(d**n)] = 1.0
    return out


def apply_perm(s: Permutation, d: int, x: np.ndarray) -> np.ndarray:
    """P(s) @ x without materializing the permutation matrix; the result is
    C-contiguous whatever x's memory order."""
    n = s.n
    dest = _perm_dest(s, d, n)
    out = np.empty(x.shape, x.dtype)
    out[dest] = x
    return out


def tensor_power(u: np.ndarray, n: int) -> np.ndarray:
    """Q(U) = U^{tensor n}, in the same basis order as perm_matrix."""
    u = np.asarray(u)
    d = u.shape[0]
    _check_size(n, d, DEFAULT_MAX_DIM)
    # checked before the residual, whose product warns on a non-finite u
    finite = u.shape == (d, d) and np.isfinite(u).all()
    if not finite or not unitarity_residual(u) <= 1e-10:
        raise ValueError("input is not unitary to 1e-10")
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, u)
    return out


def apply_tensor_power(u: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """U^{tensor n} @ x for x of shape (d^n, m), grouped-axis matmuls.

    Axes are consumed in groups of g (with d^g <= 64) via broadcast matmul,
    so the data is traversed about n/g times and never transposed.
    """
    d = u.shape[0]
    m = x.shape[1]
    g = 1
    while d ** (g + 1) <= 64 and g + 1 <= n:
        g += 1
    t = np.ascontiguousarray(x, dtype=complex)
    k = 0
    while k < n:
        step = min(g, n - k)
        block = np.ones((1, 1), dtype=complex)
        for _ in range(step):
            block = np.kron(block, u)
        pre = d**k
        post = d ** (n - k - step) * m
        t = np.matmul(block, t.reshape(pre, d**step, post))
        k += step
    return t.reshape(d**n, m)


def unitarity_residual(u: np.ndarray) -> float:
    eye = np.eye(u.shape[0])
    return float(np.max(np.abs(u.conj().T @ u - eye)))


@dataclass(frozen=True)
class StandardTableauFilling:
    """Entries 1..n filling shape lambda, increasing along rows and columns."""

    shape: Partition
    rows: tuple

    def __post_init__(self):
        try:
            rows = tuple(tuple(map(index, row)) for row in self.rows)
        except TypeError:
            raise ValueError(f"entries must be integers, not {self.rows!r}") from None
        object.__setattr__(self, "rows", rows)
        if tuple(len(r) for r in rows) != self.shape.parts:
            raise ValueError("rows do not match shape")
        n = self.shape.size
        if sorted(v for row in rows for v in row) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if c > 0 and row[c - 1] >= v:
                    raise ValueError("rows must increase left to right")
                if r > 0 and rows[r - 1][c] >= v:
                    raise ValueError("columns must increase top to bottom")

    @property
    def n(self) -> int:
        return self.shape.size


def standard_fillings(lam: Partition) -> list[StandardTableauFilling]:
    """All standard tableaux of shape lambda: each path's fill, in path order."""
    return [StandardTableauFilling(lam, gz_to_ssyt(path)) for path in enumerate_paths(lam)]


def _setwise_stabilizer(blocks, n: int):
    """All permutations of 1..n that map each block onto itself."""
    blocks = [block for block in blocks if len(block) > 1]
    base = list(range(1, n + 1))
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        images = base[:]
        for block, perm in zip(blocks, combo):
            for src, dst in zip(block, perm):
                images[src - 1] = dst
        yield Permutation(images)


def young_symmetrizer(t: StandardTableauFilling, d: int) -> np.ndarray:
    """(dim P / n!) * (sum_col sgn(c) P(c)) * (sum_row P(r)); a projector
    whose support carries a copy of Q_lambda^d."""
    n = t.n
    _check_size(n, d, DEFAULT_MAX_DIM)
    dim = d**n
    cols = np.arange(dim)
    rsum = np.zeros((dim, dim))
    for r in _setwise_stabilizer(t.rows, n):
        rsum[_perm_dest(r, d, n), cols] += 1.0
    csum = np.zeros((dim, dim))
    width = t.shape.part(1)
    columns = [[row[c] for row in t.rows if len(row) > c] for c in range(width)]
    for c in _setwise_stabilizer(columns, n):
        csum[_perm_dest(c, d, n), cols] += c.sign
    return (dim_P(t.shape) / math.factorial(n)) * (csum @ rsum)


def _conjugate_rows(
    schur: SchurUnitary, rows: slice, u: np.ndarray | None, s: Permutation | None
) -> np.ndarray:
    """Rows and columns `rows` of W = C A S^T; ConsistencyError unless finite.

    A's factors act on the transposed Schur rows, a view that the first pass
    writing a new array (apply_perm, apply_tensor_power's complex cast, or the
    cascade's contiguous copy) reads in place, so no transposed copy is made.
    """
    c = schur.matrix[rows].T
    if s is not None:
        c = apply_perm(s, schur.d, c)
    if u is not None:
        c = apply_tensor_power(u, schur.n, c)
    w = schur_apply(c, schur.n, schur.d, max_dim=len(schur.matrix))[rows]
    if not np.isfinite(w).all():
        raise ConsistencyError(f"conjugation at n={schur.n} d={schur.d} is not finite")
    return w


def conjugate_by_schur(
    schur: SchurUnitary, u: np.ndarray | None = None, s: Permutation | None = None
) -> np.ndarray:
    """W = U_Sch (U^{tensor n} P(s)) U_Sch^dag, with either factor optional."""
    return _conjugate_rows(schur, slice(None), u, s)


def _factor_residual(w: np.ndarray) -> tuple[np.ndarray, float]:
    """(w[:, 0, :, 0], max |w - factor (x) I|) for a block shaped
    (factor, other, factor, other); the off-diagonal other blocks count."""
    factor = w[:, 0, :, 0]
    res = w.copy()
    for b in range(w.shape[1]):
        res[:, b, :, b] -= factor
    return factor, float(np.max(np.abs(res)))


def _read_factor(schur: SchurUnitary, lam: Partition, u=None, s=None) -> np.ndarray:
    """The q factor (given u) or p factor (given s) of lambda's conjugated
    block, which must be factor (x) I to 1e-9, else the labels are wrong."""
    for blam, start, dq, dp in schur.blocks:
        if blam == lam:
            w = _conjugate_rows(schur, slice(start, start + dq * dp), u, s)
            w = w.reshape(dq, dp, dq, dp)
            factor, other = ("q", "p") if s is None else ("p", "q")
            out, res = _factor_residual(w if s is None else w.transpose(1, 0, 3, 2))
            if not res <= 1e-9:  # NaN fails
                raise ConsistencyError(
                    f"{factor}-block of {lam} depends on the fixed {other} index"
                )
            return out
    raise KeyError(f"no block for {lam}")


def extract_irrep(schur: SchurUnitary, lam: Partition, u: np.ndarray) -> np.ndarray:
    """q_lambda(U), read off the conjugated lambda block at a fixed path index."""
    return _read_factor(schur, lam, u=u)


def extract_perm_irrep(schur: SchurUnitary, lam: Partition, s: Permutation) -> np.ndarray:
    """p_lambda(s), read off the conjugated lambda block at a fixed GZ index."""
    return _read_factor(schur, lam, s=s)


def schur_polynomial(lam: Partition, x) -> complex:
    """s_lambda(x_1..x_d) as the monomial sum over semistandard tableaux."""
    x = list(x)
    d = len(x)
    if len(lam) > d:
        raise ValueError(f"lambda={lam} needs more than {d} variables")
    total = 0.0 + 0.0j
    for pattern in enumerate_gz(lam, d):
        term = 1.0 + 0.0j
        for row in gz_to_ssyt(pattern):
            for entry in row:
                term *= x[entry - 1]
        total += term
    return total


# ---------------------------------------------------------------------------
# Residual report used by `schurkit verify` and the acceptance suite.


def offdiag_block_mass(schur: SchurUnitary, w: np.ndarray) -> float:
    """Frobenius norm of w outside the diagonal lambda blocks.

    Summed directly over the off-block entries (a norm difference would lose
    the answer to float cancellation): the squares of each block's row
    strips left and right of the block, read in place through views.
    """
    total = 0.0
    for _, start, dq, dp in schur.blocks:
        stop = start + dq * dp
        for strip in (w[start:stop, :start], w[start:stop, stop:]):
            for part in (strip.real, strip.imag) if np.iscomplexobj(w) else (strip,):
                total += float(np.einsum("ij,ij->", part, part))
    return math.sqrt(total)


def perm_block_residual(pblk: np.ndarray) -> float:
    """Max deviation of a conjugated-P(s) block (dq, dp, dq, dp) from
    I_q (x) p(s), with p(s) read off the first diagonal q slice."""
    return _factor_residual(pblk.transpose(1, 0, 3, 2))[1]


def kron_factor_residual(w: np.ndarray, dq: int, dp: int) -> float:
    """Relative distance of a (dq*dp) square block from a q (x) p product."""
    b = w.reshape(dq, dp, dq, dp).transpose(0, 2, 1, 3).reshape(dq * dq, dp * dp)
    svals = np.linalg.svd(b, compute_uv=False)
    total = float(np.sum(svals**2))
    if total == 0.0:
        return 0.0
    # Sum the tail directly; total - svals[0]**2 would cancel to noise.
    return math.sqrt(float(np.sum(svals[1:] ** 2)) / total)


def verify_report(n: int, d: int, trials: int, seed: int) -> dict:
    """Residual summary for (n, d): unitarity, block structure, characters.

    Keys: unitarity, max_off_mass, max_factor_residual, max_q_constancy,
    max_char_residual, ok (all within the spec tolerances).
    """
    from .schur import schur_unitary

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    schur = schur_unitary(n, d)
    m = schur.matrix
    unit = float(np.max(np.abs(m @ m.T - np.eye(m.shape[0]))))

    max_off = 0.0
    max_factor = 0.0
    max_qconst = 0.0
    max_char = 0.0
    for _ in range(trials):
        u = haar_unitary(d, rng)
        s = random_permutation(n, rng)
        w = conjugate_by_schur(schur, u=u, s=s)
        max_off = max(max_off, offdiag_block_mass(schur, w))
        wp = conjugate_by_schur(schur, s=s)
        max_off = max(max_off, offdiag_block_mass(schur, wp))
        for lam, start, dq, dp in schur.blocks:
            b = slice(start, start + dq * dp)
            max_factor = max(max_factor, kron_factor_residual(w[b, b], dq, dp))
            pblk = wp[b, b].reshape(dq, dp, dq, dp)
            max_qconst = max(max_qconst, perm_block_residual(pblk))
        eig = np.linalg.eigvals(u)
        for lam, *_ in schur.blocks:
            tr = np.trace(extract_irrep(schur, lam, u))
            ref = schur_polynomial(lam, eig)
            max_char = max(max_char, abs(tr - ref))
    return {
        "n": n,
        "d": d,
        "trials": trials,
        "seed": seed,
        "unitarity": unit,
        "max_off_mass": max_off,
        "max_factor_residual": max_factor,
        "max_q_constancy": max_qconst,
        "max_char_residual": max_char,
        "ok": bool(
            unit < 1e-12
            and max_off < 1e-10
            and max_factor < 1e-10
            and max_qconst < 1e-10
            and max_char < 1e-9
        ),
    }
