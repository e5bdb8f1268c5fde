"""Output checks for the benchmark's operations.

Each check rests on a property the Schur transform must have, computed here
with plain numpy and apart from the Clebsch-Gordan numbers: unitarity,
torus weights read off the GZ patterns, the Schur-Weyl norm invariants, block
diagonalisation of U^(x)n P(s), and gate-list replay by in-place 2x2
updates. A failed check raises CheckFailed; the caller counts the operation
as failed. Nothing here is timed.
"""

from __future__ import annotations

import math

import numpy as np

ROUNDTRIP_TOL = 1e-10
TORUS_TOL = 1e-10
NORM_TOL = 1e-10
ORTHO_TOL = 1e-12
OFF_BLOCK_TOL = 1e-10
REPLAY_TOL = 1e-9
# The tolerances `schurkit verify` documents for its residuals.
VERIFY_TOLS = {
    "unitarity": 1e-12,
    "max_off_mass": 1e-10,
    "max_factor_residual": 1e-10,
    "max_q_constancy": 1e-10,
    "max_char_residual": 1e-9,
}


class CheckFailed(Exception):
    """An operation's output broke a property it must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- inputs -------------------------------------------------------------------


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(d) sample: QR of a complex Gaussian, R's phases moved into Q."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def tensor_power_apply(u: np.ndarray, n: int, v: np.ndarray) -> np.ndarray:
    """U^(x)n v over big-endian qudits, a few axes at a time.

    Each pass contracts the leading axes with a Kronecker power of U and
    moves them to the end; after n axes the order is back where it started.
    """
    d = u.shape[0]
    group = 1
    while group < n and d ** (group + 1) <= 16:
        group += 1
    t = np.asarray(v, dtype=complex).reshape(-1)
    done = 0
    while done < n:
        step = min(group, n - done)
        block = u
        for _ in range(step - 1):
            block = np.kron(block, u)
        t = np.ascontiguousarray((block @ t.reshape(d**step, -1)).T).reshape(-1)
        done += step
    return t


def permute_qudits(v: np.ndarray, perm, d: int) -> np.ndarray:
    """Move qudit perm[k] into slot k."""
    n = len(perm)
    return np.ascontiguousarray(np.reshape(v, (d,) * n).transpose(perm)).reshape(-1)


def permutation_matrix(perm, d: int) -> np.ndarray:
    n = len(perm)
    dim = d**n
    dest = permute_qudits(np.arange(dim), perm, d)
    out = np.zeros((dim, dim))
    out[np.arange(dim), dest] = 1.0
    return out


def kron_power(u: np.ndarray, n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, u)
    return out


# -- schur_apply ----------------------------------------------------------------


def _blocks(vec: np.ndarray, blocks):
    pos = 0
    for dq, dp in blocks:
        yield vec[pos : pos + dq * dp].reshape(dq, dp)
        pos += dq * dp


def check_roundtrip(v: np.ndarray, back: np.ndarray) -> None:
    """inverse(forward(v)) must return v."""
    err = float(np.max(np.abs(back - v)))
    _require(err < ROUNDTRIP_TOL, f"inverse(forward(v)) differs from v by {err:.3e}")


def check_norm(out: np.ndarray) -> None:
    err = abs(float(np.linalg.norm(out)) - 1.0)
    _require(err < NORM_TOL, f"forward output norm differs from 1 by {err:.3e}")


def check_torus(out: np.ndarray, out_torus: np.ndarray, weights: np.ndarray, theta) -> None:
    """forward(diag(x)^(x)n v) == x^wt(q) * forward(v), with x = exp(i theta).

    ``weights`` holds one row per output amplitude: the number of entries
    equal to 1..d in the semistandard tableau of the row's GZ pattern.
    """
    expected = np.exp(1j * (weights @ np.asarray(theta))) * out
    err = float(np.max(np.abs(out_torus - expected)))
    _require(err < TORUS_TOL, f"torus weights violated by {err:.3e}")


def check_column_norms(out: np.ndarray, out_haar: np.ndarray, blocks) -> None:
    """U^(x)n acts on the GZ index only: column norms of each block stay."""
    for lam_block, (a, b) in enumerate(zip(_blocks(out, blocks), _blocks(out_haar, blocks))):
        err = float(np.max(np.abs(np.linalg.norm(a, axis=0) - np.linalg.norm(b, axis=0))))
        _require(err < NORM_TOL, f"block {lam_block}: column norms moved by {err:.3e}")


def check_row_norms(out: np.ndarray, out_perm: np.ndarray, blocks) -> None:
    """A qudit permutation acts on the path index only: row norms stay."""
    for lam_block, (a, b) in enumerate(zip(_blocks(out, blocks), _blocks(out_perm, blocks))):
        err = float(np.max(np.abs(np.linalg.norm(a, axis=1) - np.linalg.norm(b, axis=1))))
        _require(err < NORM_TOL, f"block {lam_block}: row norms moved by {err:.3e}")


# -- the dense CLI route ------------------------------------------------------------


def check_exit(code: int) -> None:
    _require(code == 0, f"exit code {code}, expected 0")


def complex_matrix(rows) -> np.ndarray:
    """Parse a JSON matrix of [re, im] pairs."""
    a = np.asarray(rows, dtype=float)
    _require(a.ndim == 3 and a.shape[2] == 2, f"matrix of shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def check_orthogonal(m: np.ndarray) -> None:
    _require(m.ndim == 2 and m.shape[0] == m.shape[1], f"matrix of shape {m.shape}")
    err = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
    _require(err < ORTHO_TOL, f"not unitary: residual {err:.3e}")
    imag = float(np.max(np.abs(m.imag)))
    _require(imag == 0.0, f"not real: imaginary part up to {imag:.3e}")


def lambda_blocks(row_labels) -> list[tuple[int, int]]:
    """(start, size) of each run of equal lambda labels; each lambda once."""
    runs: list[list] = []
    for row in row_labels:
        if runs and runs[-1][0] == row["lambda"]:
            runs[-1][2] += 1
        else:
            runs.append([row["lambda"], sum(r[2] for r in runs), 1])
    lams = [r[0] for r in runs]
    _require(len(set(lams)) == len(lams), "a lambda label occurs in two separate runs")
    return [(start, size) for _, start, size in runs]


def off_block_mass(w: np.ndarray, blocks) -> float:
    off = w.copy()
    for start, size in blocks:
        off[start : start + size, start : start + size] = 0.0
    return float(np.linalg.norm(off))


def check_schur_json(payload: dict, n: int, d: int, u: np.ndarray, perm) -> np.ndarray:
    """Orthogonal, and block-diagonalises U^(x)n P(s) per lambda."""
    _require(payload.get("n") == n and payload.get("d") == d, "wrong (n, d) in output")
    m = complex_matrix(payload["matrix"])
    _require(m.shape == (d**n, d**n), f"matrix of shape {m.shape}, expected d^n square")
    _require(len(payload["row_labels"]) == d**n, "one row label per row expected")
    check_orthogonal(m)
    m = m.real
    blocks = lambda_blocks(payload["row_labels"])
    action = kron_power(u, n) @ permutation_matrix(perm, d)
    w = m @ action @ m.T
    mass = off_block_mass(w, blocks)
    _require(mass < OFF_BLOCK_TOL, f"off-block mass {mass:.3e}")
    return m


def check_verify_json(payload: dict, trials: int) -> None:
    """ok is true, every residual is under its tolerance, trials were run."""
    _require(trials >= 1 and payload.get("trials") == trials, "trials not run as asked")
    _require(payload.get("ok") is True, "verify reports ok = false")
    for key, tol in VERIFY_TOLS.items():
        value = payload.get(key)
        # The CLI writes floats with "%.17g", so an exact zero reads back as 0.
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        _require(
            is_number and math.isfinite(value) and 0.0 <= value < tol,
            f"{key} = {value!r}, tolerance {tol}",
        )


def replay_gates(gate_list: dict) -> tuple[np.ndarray, int]:
    """gate[0] @ gate[1] @ ... built by in-place updates of column pairs.

    Works on the transpose so that each update touches two contiguous rows.
    Returns the product and the number of rotations.
    """
    size = gate_list["size"]
    t = np.eye(size, dtype=complex)  # transpose of the running product
    rotations = 0
    for g in gate_list["gates"]:
        a = g["a"]
        if g["kind"] == "rot":
            b = g["b"]
            (b00, b01), (b10, b11) = [[complex(*x) for x in row] for row in g["block"]]
            ra, rb = t[a].copy(), t[b].copy()
            t[a] = b00 * ra + b10 * rb
            t[b] = b01 * ra + b11 * rb
            rotations += 1
        elif g["kind"] == "phase":
            t[a] *= complex(*g["value"])
        else:
            raise CheckFailed(f"unknown gate kind {g['kind']!r}")
    return t.T, rotations


def check_gate_list(gate_list: dict, reference: np.ndarray) -> None:
    """Replaying the gates reproduces the Schur matrix, within D(D-1)/2
    rotations."""
    size = reference.shape[0]
    _require(gate_list.get("size") == size, "gate list size differs from the matrix")
    product, rotations = replay_gates(gate_list)
    _require(rotations <= size * (size - 1) // 2, f"{rotations} rotations exceed D(D-1)/2")
    err = float(np.max(np.abs(product - reference)))
    _require(err < REPLAY_TOL, f"gate list replays to a residual of {err:.3e}")


def check_replay(residual: float, rotations: int, size: int) -> None:
    """GateList.replay matches the source unitary."""
    _require(rotations <= size * (size - 1) // 2, f"{rotations} rotations exceed D(D-1)/2")
    _require(residual < REPLAY_TOL, f"replay differs from the source by {residual:.3e}")


def check_cg_json(payload: dict) -> None:
    m = complex_matrix(payload["matrix"])
    _require(
        m.shape == (len(payload["rows"]), len(payload["cols"])),
        "matrix shape differs from its labels",
    )
    check_orthogonal(m)
