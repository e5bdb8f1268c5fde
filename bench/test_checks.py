"""Each output check of the benchmark accepts true output and rejects a
deliberately corrupted one, so that none passes vacuously.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from schurkit import Partition, cg_block, schur_apply, schur_unitary, two_level_decompose  # noqa: E402
from schurkit.oracle import verify_report  # noqa: E402
from workloads import ApplyWorkload  # noqa: E402

N, D = 5, 3  # d^n = 243: several lambda blocks with dim_Q, dim_P >= 2


@pytest.fixture(scope="module")
def layout():
    return ApplyWorkload("apply-qudit", 0).layout(N, D)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def fwd(v):
    return schur_apply(v, N, D)


def _swap(vec, a, b):
    out = vec.copy()
    out[[a, b]] = out[[b, a]]
    return out


def _flip(vec, i):
    out = vec.copy()
    out[i] = -out[i]
    return out


def _block_starts(blocks):
    starts, pos = [], 0
    for dq, dp in blocks:
        starts.append(pos)
        pos += dq * dp
    return starts


def _big_block(blocks):
    """Index and start of the first block with dim_Q >= 2 and dim_P >= 2."""
    for k, ((dq, dp), start) in enumerate(zip(blocks, _block_starts(blocks))):
        if dq >= 2 and dp >= 2:
            return k, start, dp
    raise AssertionError("no block with two rows and two columns")


# -- helpers the checks rest on -----------------------------------------------------


def test_tensor_power_and_permutation_helpers_agree_with_dense_matrices(rng):
    u = checks.haar_unitary(D, rng)
    v = checks.random_state(D**N, rng)
    dense = checks.kron_power(u, N) @ v
    assert np.allclose(checks.tensor_power_apply(u, N, v), dense, atol=1e-13)
    perm = rng.permutation(N)
    assert np.allclose(checks.permute_qudits(v, perm, D), checks.permutation_matrix(perm, D) @ v)
    assert np.allclose(u.conj().T @ u, np.eye(D), atol=1e-13)


# -- schur_apply checks -------------------------------------------------------------


def test_apply_checks_accept_true_output(layout, rng):
    blocks, weights = layout
    v = checks.random_state(D**N, rng)
    out = fwd(v)
    checks.check_norm(out)
    checks.check_roundtrip(v, schur_apply(out, N, D, "inverse"))
    theta = rng.uniform(0, 2 * np.pi, D)
    moved = checks.tensor_power_apply(np.diag(np.exp(1j * theta)), N, v)
    checks.check_torus(out, fwd(moved), weights, theta)
    moved = checks.tensor_power_apply(checks.haar_unitary(D, rng), N, v)
    checks.check_column_norms(out, fwd(moved), blocks)
    moved = checks.permute_qudits(v, rng.permutation(N), D)
    checks.check_row_norms(out, fwd(moved), blocks)


def test_roundtrip_rejects_a_sign_flip(rng):
    v = checks.random_state(D**N, rng)
    back = schur_apply(fwd(v), N, D, "inverse")
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(v, _flip(back, 7))


def test_norm_rejects_a_scaled_output(rng):
    out = fwd(checks.random_state(D**N, rng))
    with pytest.raises(CheckFailed):
        checks.check_norm(1.001 * out)


def test_torus_rejects_swapped_rows_of_unequal_weight(layout, rng):
    _, weights = layout
    a = 0
    b = next(i for i in range(len(weights)) if not np.array_equal(weights[i], weights[a]))
    v = checks.random_state(D**N, rng)
    theta = rng.uniform(0, 2 * np.pi, D)
    moved = checks.tensor_power_apply(np.diag(np.exp(1j * theta)), N, v)
    with pytest.raises(CheckFailed):
        checks.check_torus(_swap(fwd(v), a, b), _swap(fwd(moved), a, b), weights, theta)


def test_torus_rejects_a_sign_flip_inside_a_block(layout, rng):
    blocks, weights = layout
    _, start, dp = _big_block(blocks)
    v = checks.random_state(D**N, rng)
    theta = rng.uniform(0, 2 * np.pi, D)
    moved = checks.tensor_power_apply(np.diag(np.exp(1j * theta)), N, v)
    with pytest.raises(CheckFailed):
        checks.check_torus(fwd(v), _flip(fwd(moved), start + dp + 1), weights, theta)


def test_column_norms_reject_entries_swapped_across_columns(layout, rng):
    blocks, _ = layout
    _, start, dp = _big_block(blocks)
    a, b = start, start + dp + 1  # (q=0, p=0) and (q=1, p=1)
    v = checks.random_state(D**N, rng)
    moved = checks.tensor_power_apply(checks.haar_unitary(D, rng), N, v)
    with pytest.raises(CheckFailed):
        checks.check_column_norms(_swap(fwd(v), a, b), _swap(fwd(moved), a, b), blocks)


def test_row_norms_reject_entries_swapped_across_rows(layout, rng):
    blocks, _ = layout
    _, start, dp = _big_block(blocks)
    a, b = start, start + dp + 1
    v = checks.random_state(D**N, rng)
    moved = checks.permute_qudits(v, np.array([1, 2, 3, 4, 0]), D)
    with pytest.raises(CheckFailed):
        checks.check_row_norms(_swap(fwd(v), a, b), _swap(fwd(moved), a, b), blocks)


# -- dense CLI route checks ---------------------------------------------------------

n2, d2 = 4, 2


@pytest.fixture(scope="module")
def schur_payload():
    return schur_unitary(n2, d2).to_json()


def _schur_args(rng):
    return checks.haar_unitary(d2, rng), rng.permutation(n2)


def test_exit_code_check():
    checks.check_exit(0)
    with pytest.raises(CheckFailed):
        checks.check_exit(2)


def test_schur_json_accepts_true_output(schur_payload, rng):
    m = checks.check_schur_json(schur_payload, n2, d2, *_schur_args(rng))
    assert np.array_equal(m, schur_unitary(n2, d2).matrix)


def test_schur_json_rejects_a_sign_flip_inside_a_block(schur_payload, rng):
    bad = copy.deepcopy(schur_payload)
    # A row with one nonzero may change sign freely (phases are a
    # convention); flipping one of several nonzeros breaks unitarity.
    row = next(r for r in bad["matrix"] if sum(re != 0.0 for re, _ in r) >= 2)
    col = next(c for c, (re, _) in enumerate(row) if re != 0.0)
    row[col][0] = -row[col][0]
    with pytest.raises(CheckFailed):
        checks.check_schur_json(bad, n2, d2, *_schur_args(rng))


def test_schur_json_rejects_rows_swapped_between_blocks(schur_payload, rng):
    bad = copy.deepcopy(schur_payload)
    last = len(bad["matrix"]) - 1  # the first and last rows lie in different lambda blocks
    bad["matrix"][0], bad["matrix"][last] = bad["matrix"][last], bad["matrix"][0]
    with pytest.raises(CheckFailed, match="off-block"):
        checks.check_schur_json(bad, n2, d2, *_schur_args(rng))


def test_verify_json_accepts_true_output_and_rejects_breaches():
    report = verify_report(3, 2, 2, 0)
    checks.check_verify_json(report, 2)
    for key, value in (("ok", False), ("max_off_mass", 1e-6), ("unitarity", float("nan"))):
        with pytest.raises(CheckFailed):
            checks.check_verify_json({**report, key: value}, 2)
    with pytest.raises(CheckFailed):
        checks.check_verify_json({**report, "trials": 0}, 0)


@pytest.fixture(scope="module")
def gate_payload():
    su = schur_unitary(n2, d2)
    return two_level_decompose(su.matrix.astype(complex)).to_json(), su.matrix


def test_gate_list_replay_accepts_true_output(gate_payload):
    gates, matrix = gate_payload
    checks.check_gate_list(gates, matrix)


def test_gate_list_replay_rejects_a_perturbed_gate(gate_payload):
    gates, matrix = gate_payload
    bad = copy.deepcopy(gates)
    g = next(g for g in bad["gates"] if g["kind"] == "rot")
    c, s = np.cos(1e-6), np.sin(1e-6)
    block = checks.complex_matrix(g["block"]) @ np.array([[c, -s], [s, c]])
    g["block"] = [[[x.real, x.imag] for x in row] for row in block]
    with pytest.raises(CheckFailed):
        checks.check_gate_list(bad, matrix)


def test_replay_check_rejects_residual_and_excess_rotations():
    checks.check_replay(1e-14, 10, 8)
    with pytest.raises(CheckFailed):
        checks.check_replay(1e-6, 10, 8)
    with pytest.raises(CheckFailed):
        checks.check_replay(1e-14, 29, 8)


def test_cg_json_accepts_true_output_and_rejects_a_perturbed_entry():
    payload = cg_block(Partition([2, 1]), 3).to_json()
    checks.check_cg_json(payload)
    bad = copy.deepcopy(payload)
    bad["matrix"][1][1][0] += 1e-9
    with pytest.raises(CheckFailed):
        checks.check_cg_json(bad)
