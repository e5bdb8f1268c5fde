"""Two-level (Givens) synthesis of dense unitaries, and the cascade's
controlled-rotation census.

A GateList replays left to right: the product gate[0] @ gate[1] @ ... equals
the source unitary within the stated tolerance. gate_count_report counts the
distinct reduced-Wigner controls appearing in the Schur cascade, the
structural quantity behind the polynomial gate-count claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jsonform import Pairs, json_lists
from .partitions import (
    Partition,
    add_box,
    enumerate_partitions,
    interlaces,
    interlacing_set,
)


@dataclass(frozen=True)
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

    def json_payload(self) -> dict:
        """Schema of one gate, the block as [re, im] pairs (array form)."""
        if self.kind == "rot":
            return {"kind": "rot", "a": self.a, "b": self.b, "block": Pairs(self.block)}
        return {
            "kind": "phase",
            "a": self.a,
            "value": [float(self.value.real), float(self.value.imag)],
        }


@dataclass(frozen=True)
class GateList:
    """Ordered two-level gates reconstructing a size x size unitary."""

    size: int
    gates: tuple[Gate, ...]

    @property
    def rotation_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "rot")

    def replay(self) -> np.ndarray:
        """The product gate[0] @ gate[1] @ ..., built in place.

        A rotation right-multiplies columns (a, b) by its 2x2 block and a
        phase scales column a, so each gate costs O(size), not a dense
        size x size product.
        """
        out = np.eye(self.size, dtype=complex)
        for g in self.gates:
            if g.kind == "rot":
                cols = [g.a, g.b]
                out[:, cols] = out[:, cols] @ g.block
            else:
                out[:, g.a] *= g.value
        return out

    def json_payload(self) -> dict:
        """Schema: size, gates in replay order (array form)."""
        return {"size": self.size, "gates": [g.json_payload() for g in self.gates]}

    def to_json(self) -> dict:
        return json_lists(self.json_payload())


def two_level_decompose(u: np.ndarray, tol: float = 1e-10) -> GateList:
    """Decompose a unitary into at most D(D-1)/2 two-level rotations + phases.

    Column-major Givens sweep: for each column, entries below the diagonal
    are zeroed against the pivot row; the residual diagonal becomes phase
    gates. Reconstruction residual stays below 10 * tol.
    """
    u = np.asarray(u, dtype=complex)
    size = u.shape[0]
    if u.ndim != 2 or u.shape[1] != size:
        raise ValueError("input must be square")
    if np.max(np.abs(u.conj().T @ u - np.eye(size))) >= tol:
        raise ValueError(f"input is not unitary to {tol}")
    v = u.copy()
    gates: list[Gate] = []
    for c in range(size):
        # A rotation on rows (c, r) changes column c only at row r, so the
        # nonzero rows below the pivot are found once per column. The update
        # stays full width: a product over columns >= c alone rounds some
        # zeros to -0.0 where the full one gives +0.0, which changes the JSON.
        for r in (np.flatnonzero(v[c + 1 :, c]) + c + 1).tolist():
            nm = np.hypot(abs(v[c, c]), abs(v[r, c]))
            g = np.array(
                [
                    [np.conj(v[c, c]) / nm, np.conj(v[r, c]) / nm],
                    [-v[r, c] / nm, v[c, c] / nm],
                ]
            )
            v[[c, r], :] = g @ v[[c, r], :]
            v[r, c] = 0.0
            gates.append(Gate("rot", c, r, block=g.conj().T))
    for i in np.flatnonzero(np.diagonal(v) != 1.0).tolist():
        gates.append(Gate("phase", i, value=complex(v[i, i])))
    return GateList(size, tuple(gates))


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
    """All (mu, mu'') reduced-Wigner controls reachable at cascade step k."""
    pairs = set()
    for mu in enumerate_partitions(d, k):
        if len(mu) > d:
            continue
        targets = [add_box(mu, j, d) for j in range(1, d + 1)]
        targets = [t for t in targets if t is not None]
        seen: set[Partition] = set()
        for mu_p in interlacing_set(mu, d):
            for j_p in range(d):
                mupp = mu_p if j_p == 0 else add_box(mu_p, j_p, d - 1)
                if mupp is None or mupp in seen:
                    continue
                if any(interlaces(mupp, t) for t in targets):
                    seen.add(mupp)
        pairs.update((mu.parts, m.parts) for m in seen)
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
