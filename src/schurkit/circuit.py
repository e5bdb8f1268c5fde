"""Two-level (Givens) synthesis of dense unitaries, and the cascade's
controlled-rotation census.

A GateList replays left to right: the product gate[0] @ gate[1] @ ... equals
the source unitary within the stated tolerance. gate_count_report counts the
distinct reduced-Wigner controls appearing in the Schur cascade, the
structural quantity behind the polynomial gate-count claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jsonform import Records, lists
from .partitions import add_box, enumerate_partitions, interlacing_set
from .wigner import _row


@dataclass(frozen=True, eq=False)
class Gate:
    """A two-level rotation on basis states (a, b), or a phase on state a."""

    kind: str  # "rot" | "phase"
    a: int
    b: int | None = None
    block: np.ndarray | None = None  # 2x2 unitary for "rot"
    value: complex | None = None  # unit phase for "phase"

    def embed(self, size: int) -> np.ndarray:
        """The gate as a dense size x size matrix (reference for replay)."""
        out = np.eye(size, dtype=complex)
        if self.kind == "rot":
            out[np.ix_((self.a, self.b), (self.a, self.b))] = self.block
        else:
            out[self.a, self.a] = self.value
        return out


# One JSON record per gate: indices with %d, floats with %.17g like every
# other float the CLI writes. GateList.json_payload fills them row by row.
_ROT_RECORD = (
    '{"kind":"rot","a":%d,"b":%d,"block":'
    "[[[%.17g,%.17g],[%.17g,%.17g]],[[%.17g,%.17g],[%.17g,%.17g]]]}"
)
_PHASE_RECORD = '{"kind":"phase","a":%d,"value":[%.17g,%.17g]}'


@dataclass(frozen=True, eq=False)
class GateList:
    """Two-level gates reconstructing a size x size unitary, stored as arrays.

    Replay order is every rotation in turn, then every phase: rotation k
    acts on basis states pairs[k] = (a, b) with the 2x2 unitary blocks[k],
    phase k multiplies state phase_index[k] by phases[k]. That is the order
    a Givens sweep produces; the phases act on distinct states, so they
    commute with each other.
    """

    size: int
    pairs: np.ndarray  # (R, 2) int
    blocks: np.ndarray  # (R, 2, 2) complex
    phase_index: np.ndarray  # (P,) int, distinct
    phases: np.ndarray  # (P,) complex

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=np.intp).reshape(-1, 2)
        blocks = np.ascontiguousarray(self.blocks, dtype=complex).reshape(-1, 2, 2)
        phase_index = np.asarray(self.phase_index, dtype=np.intp).reshape(-1)
        phases = np.ascontiguousarray(self.phases, dtype=complex).reshape(-1)
        if len(blocks) != len(pairs) or len(phases) != len(phase_index):
            raise ValueError("one block per pair and one phase per index")
        indices = np.concatenate([pairs.ravel(), phase_index])
        if np.any((indices < 0) | (indices >= self.size)):
            raise ValueError(f"gate index outside 0..{self.size - 1}")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("a rotation needs two distinct states")
        ordered = np.sort(phase_index)  # np.unique would import numpy.ma, ~20 ms cold
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("phase indices must be distinct")
        for name, value in (
            ("pairs", pairs),
            ("blocks", blocks),
            ("phase_index", phase_index),
            ("phases", phases),
        ):
            object.__setattr__(self, name, value)

    @property
    def rotation_count(self) -> int:
        return len(self.pairs)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in replay order, one Gate each (built on first use)."""
        rotations = (
            Gate("rot", a, b, block=block)
            for (a, b), block in zip(self.pairs.tolist(), self.blocks)
        )
        phases = (
            Gate("phase", a, value=value)
            for a, value in zip(self.phase_index.tolist(), self.phases.tolist())
        )
        return (*rotations, *phases)

    def replay(self) -> np.ndarray:
        """The product gate[0] @ gate[1] @ ..., built in place.

        Works on the transpose of the product, so a rotation mixes two
        contiguous rows (a, b) by its transposed 2x2 block, O(size) each;
        the phases then scale their rows in one step.
        """
        t = np.eye(self.size, dtype=complex)
        rows = np.empty((2, self.size), dtype=complex)
        for (a, b), block_t in zip(self.pairs.tolist(), self.blocks.transpose(0, 2, 1)):
            target = t[a :: b - a][:2]  # rows a and b, in that order
            rows[...] = target
            np.matmul(block_t, rows, out=target)
        t[self.phase_index] *= self.phases[:, None]
        return t.T

    def json_payload(self) -> dict:
        """Schema: size, gates in replay order (array form)."""
        rotations = np.concatenate([self.pairs, self.blocks.view(float).reshape(-1, 8)], axis=1)
        phases = np.column_stack([self.phase_index, self.phases.real, self.phases.imag])
        return {
            "size": self.size,
            "gates": Records(((_ROT_RECORD, rotations), (_PHASE_RECORD, phases))),
        }

    def to_json(self) -> dict:
        return lists(self.json_payload())


def two_level_decompose(u: np.ndarray, tol: float = 1e-10) -> GateList:
    """Decompose a unitary into at most D(D-1)/2 two-level rotations + phases.

    Column-major Givens sweep: for each column, entries below the diagonal
    are zeroed against the pivot row; the residual diagonal becomes phase
    gates. Reconstruction residual stays below 10 * tol.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("input must be square")
    size = u.shape[0]
    # Non-finite entries are rejected before the product, which would warn on
    # them; the comparison is written so that a NaN residual fails too.
    finite = np.isfinite(u).all()
    if not finite or not np.max(np.abs(u.conj().T @ u - np.eye(size))) < tol:
        raise ValueError(f"input is not unitary to {tol}")
    v = u.copy()
    pairs: list[tuple[int, int]] = []
    mixers: list[np.ndarray] = []  # per column, the 2x2 g of each rotation
    rows = np.empty((2, size), dtype=complex)
    for c in range(size):
        # A rotation on rows (c, r) changes column c only at row r, so the
        # nonzero rows below the pivot are found once per column.
        below = (np.flatnonzero(v[c + 1 :, c]) + c + 1).tolist()
        if not below:
            continue
        column = np.empty((len(below), 2, 2), dtype=complex)
        pivot = v[c]
        for g, r in zip(column, below):
            x, y = pivot[c], v[r, c]
            nm = np.hypot(abs(x), abs(y))
            g[0, 0] = np.conj(x) / nm
            g[0, 1] = np.conj(y) / nm
            g[1, 0] = -y / nm
            g[1, 1] = x / nm
            # The update stays one full-width product of the two rows, read
            # from a contiguous copy. Over columns >= c alone it turns some
            # +0.0 into -0.0, and entry by entry it rounds differently; both
            # change the gate bits and so the JSON.
            target = v[c :: r - c][:2]
            rows[...] = target
            np.matmul(g, rows, out=target)
            v[r, c] = 0.0
        pairs += [(c, r) for r in below]
        mixers.append(column)
    # Rotation k acts on the product as g_k^H; conjugation and transposition
    # are exact, so the blocks keep every bit of the g_k.
    stack = np.concatenate(mixers) if mixers else np.empty((0, 2, 2), dtype=complex)
    diagonal = np.diagonal(v)
    phase_index = np.flatnonzero(diagonal != 1.0)
    return GateList(
        size,
        np.array(pairs, dtype=np.intp).reshape(-1, 2),
        stack.conj().transpose(0, 2, 1),
        phase_index,
        diagonal[phase_index],
    )


@dataclass(frozen=True)
class CascadeStepCount:
    """Controlled reduced-Wigner census for one CG step of the cascade."""

    step: int  # k: combines qudit k+1, diagrams carry k boxes
    wigner_dim: int  # the rotations are d x d
    control_pairs: int  # distinct (mu, mu'') control values at this step
    rotation_classes: int  # distinct rotation matrices at this step


@dataclass(frozen=True)
class GateCountReport:
    n: int
    d: int
    steps: tuple[CascadeStepCount, ...]
    total_control_pairs: int = field(default=0)
    total_rotation_classes: int = field(default=0)  # distinct across all steps


def _control_pairs(d: int, k: int) -> set[tuple]:
    """The (mu, mu'') reduced-Wigner controls applied at cascade step k: those
    with some T(mu, j, mu', j') nonzero, mu'' = mu' + e_j' (mu' at j' = 0)."""
    pairs = set()
    for mu in enumerate_partitions(d, k):
        for mu_p in interlacing_set(mu, d):
            _, jps, table = _row(mu.parts, mu_p.parts, d)
            for b, j_p in enumerate(jps):
                if any(row[b] for row in table):
                    mupp = mu_p if j_p == 0 else add_box(mu_p, j_p)
                    pairs.add((mu.parts, mupp.parts))
    return pairs


def _translation_class(mu: tuple, mupp: tuple, d: int) -> tuple:
    """Canonical representative of (mu, mu'') modulo mu -> mu + c*(1,..,1).

    The reduced-Wigner coefficients depend only on the shifted-weight
    differences, which this simultaneous translation leaves fixed.
    """
    mu_full = mu + (0,) * (d - len(mu))
    mupp_full = mupp + (0,) * (d - 1 - len(mupp))
    c = mu_full[-1]
    return (
        tuple(v - c for v in mu_full),
        tuple(v - c for v in mupp_full),
    )


def gate_count_report(n: int, d: int) -> GateCountReport:
    """Census of the distinct controlled d x d reduced-Wigner rotations
    across the n-1 CG steps of the Schur cascade."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    steps = []
    all_pairs = 0
    all_classes: set[tuple] = set()
    for k in range(1, n):
        pairs = _control_pairs(d, k)
        classes = {_translation_class(mu, mupp, d) for mu, mupp in pairs}
        steps.append(CascadeStepCount(k, d, len(pairs), len(classes)))
        all_pairs += len(pairs)
        all_classes |= classes
    return GateCountReport(n, d, tuple(steps), all_pairs, len(all_classes))
