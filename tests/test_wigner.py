import math

import numpy as np
import pytest

from conftest import cs_reduced_wigner_d2, intertwiner_nullspace, su2_irrep
from schurkit.clebsch_gordan import cg_block
from schurkit.partitions import (
    Partition,
    add_box,
    dim_Q,
    enumerate_partitions,
    interlacing_set,
)
from schurkit.wigner import (
    ReducedWignerQuery,
    _value,
    reduced_wigner,
    reduced_wigner_matrix,
)


def P(*parts):
    return Partition(parts)


def test_query_validation():
    with pytest.raises(ValueError):
        ReducedWignerQuery(P(1), 3, P(), 0, 2)
    with pytest.raises(ValueError):
        ReducedWignerQuery(P(1), 1, P(1), 1, 1)  # mu' too long for d=1
    with pytest.raises(ValueError):
        ReducedWignerQuery(P(1), 1, P(), 2, 2)  # j' outside 0..d-1


def test_d1_base_case():
    assert reduced_wigner_matrix(P(3), P(), 1) == np.ones((1, 1))
    assert reduced_wigner(ReducedWignerQuery(P(), 1, P(), 0, 1)) == 1.0


def test_invalid_couplings_are_exactly_zero():
    # add_box(mu, j) undefined
    assert reduced_wigner(ReducedWignerQuery(P(2, 2), 2, P(2), 1, 2)) == 0.0
    # mu' does not interlace mu
    assert reduced_wigner(ReducedWignerQuery(P(1), 1, P(3), 0, 2)) == 0.0
    # mu' + e_{j'} does not interlace mu + e_j
    assert reduced_wigner(ReducedWignerQuery(P(3, 1), 2, P(3), 1, 2)) == 0.0


def test_example_matrix_all_half_sqrt2():
    mat = reduced_wigner_matrix(P(1), P(1), 2)
    assert np.allclose(np.abs(mat), 1 / math.sqrt(2), atol=1e-15)
    assert np.allclose(mat @ mat.T, np.eye(2), atol=1e-15)


def test_d2_matches_condon_shortley_table():
    for mu in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2), (5, 5)]:
        for m2 in range(mu[1], mu[0] + 2):
            ours = reduced_wigner_matrix(P(*mu), P(m2), 2)
            ref = cs_reduced_wigner_d2(mu, m2)
            assert np.allclose(ours, ref, atol=1e-14), (mu, m2, ours, ref)


def test_matrix_unitary_on_nonzero_support():
    for d in (2, 3):
        for size in range(0, 6):
            for mu in enumerate_partitions(d, size):
                seen = set()
                for mup in interlacing_set(mu, d):
                    for jp in range(d):
                        mupp = mup if jp == 0 else add_box(mup, jp, d - 1)
                        if mupp is None or mupp in seen:
                            continue
                        seen.add(mupp)
                        mat = reduced_wigner_matrix(mu, mupp, d)
                        rows = np.abs(mat).sum(axis=1) > 0
                        cols = np.abs(mat).sum(axis=0) > 0
                        if not rows.any():
                            continue
                        sub = mat[np.ix_(rows, cols)]
                        assert sub.shape[0] == sub.shape[1], (mu, mupp)
                        assert np.max(np.abs(sub.T @ sub - np.eye(sub.shape[0]))) < 1e-12


def test_column_norms_one():
    mu, mupp, d = P(3, 1), P(2), 3
    mat = reduced_wigner_matrix(mu, mupp, d)
    for jp in range(d):
        col = mat[:, jp]
        if np.any(col != 0):
            assert abs(np.dot(col, col) - 1.0) < 1e-14


def test_incompatible_control_gives_zero_matrix():
    # mu'' cannot interlace any mu + e_j here
    mat = reduced_wigner_matrix(P(1), P(3), 2)
    assert np.all(mat == 0.0)


def test_matrix_rejects_mu_beyond_d_rows():
    # The same input ReducedWignerQuery and cg_block reject.
    with pytest.raises(ValueError, match="mu="):
        reduced_wigner_matrix(P(3, 2, 1), P(1), 2)
    with pytest.raises(ValueError):
        ReducedWignerQuery(P(3, 2, 1), 1, P(1), 0, 2)
    with pytest.raises(ValueError, match="d must be"):
        reduced_wigner_matrix(P(), P(), 0)


def _two_branch_value(mu_parts, j, mup_parts, j_prime, d):
    """The coefficient as first written: one product formula for j' = 0 and
    one for j' >= 1, with the sign rule apart."""
    mu = mu_parts + (0,) * (d + 1 - len(mu_parts))
    mup = mup_parts + (0,) * (d - len(mup_parts))
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
    num = 1
    den = 1
    if j_prime == 0:
        for s in range(1, d):
            num *= mt[j - 1] - mpt[s - 1]
        for s in range(1, d + 1):
            if s != j:
                den *= mt[j - 1] - mt[s - 1]
    else:
        for s in range(1, d):
            if s != j_prime:
                num *= mt[j - 1] - mpt[s - 1]
        for t in range(1, d + 1):
            if t != j:
                num *= mpt[j_prime - 1] - mt[t - 1] + 1
        for s in range(1, d + 1):
            if s != j:
                den *= mt[j - 1] - mt[s - 1]
        for t in range(1, d):
            if t != j_prime:
                den *= mpt[j_prime - 1] - mpt[t - 1] + 1
    assert den != 0 and num * den >= 0
    sign = 1 if j_prime == 0 or j <= j_prime else -1
    return sign * math.sqrt(num / den)


def test_one_formula_matches_the_two_branch_reference_bit_for_bit():
    checked = 0
    for d in range(1, 7):
        for k in range(8):
            for mu in enumerate_partitions(d, k):
                for mup in interlacing_set(mu, d):
                    for j in range(1, d + 1):
                        for jp in range(d):
                            args = (mu.parts, j, mup.parts, jp, d)
                            ours, ref = _value(*args), _two_branch_value(*args)
                            # == alone would let a sign flip of 0.0 through
                            assert ours.hex() == ref.hex(), args
                            checked += 1
    assert checked == 19586


def test_negative_j_prime_has_its_own_message():
    with pytest.raises(ValueError, match="j' is 0"):
        _value((1,), 1, (), -1, 2)
    with pytest.raises(ValueError, match="1-based"):
        _value((1,), 0, (), 0, 2)


def test_memo_is_consistent():
    q = ReducedWignerQuery(P(2, 1), 1, P(2), 1, 3)
    assert reduced_wigner(q) == reduced_wigner(q)


def test_large_profile_fuzz_unitary_and_valid_radicands():
    # big row profiles exercise the index scheme far from the small cases;
    # the radicand assertion inside _value guards every draw
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(800):
        d = int(rng.integers(2, 6))
        mu = Partition(sorted(rng.integers(0, 40, size=d).tolist(), reverse=True))
        mups = interlacing_set(mu, d)
        mup = mups[rng.integers(len(mups))]
        jp = int(rng.integers(0, d))
        mupp = mup if jp == 0 else add_box(mup, jp, d - 1)
        if mupp is None:
            continue
        mat = reduced_wigner_matrix(mu, mupp, d)
        rows = np.abs(mat).sum(axis=1) > 0
        cols = np.abs(mat).sum(axis=0) > 0
        if not rows.any():
            continue
        sub = mat[np.ix_(rows, cols)]
        assert sub.shape[0] == sub.shape[1]
        assert np.max(np.abs(sub.T @ sub - np.eye(sub.shape[0]))) < 1e-12
        checked += 1
    assert checked > 500


def test_su2_lstsq_intertwiner_oracle():
    """Solve the d=2 intertwining equation from scratch and compare
    coefficient magnitudes with the recursive construction."""
    rng = np.random.default_rng(42)

    def haar2():
        z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for a, b in [(1, 0), (2, 0), (2, 1), (3, 1), (2, 2)]:
        mu = P(a, b) if b else P(a)
        samples = [haar2() for _ in range(4)]
        lhs = [np.kron(su2_irrep(u, a, b), u) for u in samples]
        targets = [t for j in (1, 2) if (t := add_box(mu, j, 2)) is not None]
        rhs = []
        for u in samples:
            blocks = [su2_irrep(u, t.part(1), t.part(2)) for t in targets]
            dim = sum(blk.shape[0] for blk in blocks)
            big = np.zeros((dim, dim), dtype=complex)
            pos = 0
            for blk in blocks:
                big[pos : pos + blk.shape[0], pos : pos + blk.shape[0]] = blk
                pos += blk.shape[0]
            rhs.append(big)
        null = intertwiner_nullspace(lhs, rhs)
        # one phase per output irrep
        assert null.shape[1] == len(targets)
        # a generic nullspace element has per-block-row phases only, so its
        # entrywise magnitudes are the canonical CG magnitudes
        coeffs = null @ rng.standard_normal(null.shape[1])
        rows = sum(dim_Q(t, 2) for t in targets)
        x = coeffs.reshape(2 * dim_Q(mu, 2), rows).T  # undo column-stacking
        ours = cg_block(mu, 2).matrix
        # each block-row of x is e^{i phi} times an isometry row set
        pos = 0
        for t in targets:
            rows_t = dim_Q(t, 2)
            xt = x[pos : pos + rows_t]
            scale = np.linalg.norm(xt[0]) or 1.0
            xt = xt / scale
            assert np.allclose(np.abs(xt), np.abs(ours[pos : pos + rows_t]), atol=1e-8)
            pos += rows_t


def test_wigner_eckart_factorization_constancy():
    """Every U_CG^[d] entry on the i < d routes factors as a reduced Wigner
    coefficient times the matching U_CG^[d-1] entry."""
    for d in (2, 3):
        for size in range(0, 4):
            for mu in enumerate_partitions(d, size):
                upper = cg_block(mu, d)
                for (q, i), c in upper.in_index.items():
                    if i == d:
                        continue
                    mup = q.level(d - 1)
                    lower = cg_block(mup, d - 1)
                    tail = q.chain[1:]
                    lcol = lower.in_index[
                        (type(q)(tail), i)
                    ]
                    for (j, q_out), r in upper.out_index.items():
                        val = upper.matrix[r, c]
                        if val == 0:
                            continue
                        mupp = q_out.level(d - 1)
                        diff = [
                            jj
                            for jj in range(1, d)
                            if mupp.part(jj) != mup.part(jj)
                        ]
                        if len(diff) != 1:
                            continue  # j' = 0 route handled elsewhere
                        jp = diff[0]
                        lrow = lower.out_index.get((jp, type(q)(q_out.chain[1:])))
                        if lrow is None:
                            continue
                        lval = lower.matrix[lrow, lcol]
                        if abs(lval) < 1e-12:
                            continue
                        ratio = val / lval
                        ref = reduced_wigner(
                            ReducedWignerQuery(mu, j, mup, jp, d)
                        )
                        assert abs(ratio - ref) < 1e-9, (mu, d, j, jp)
