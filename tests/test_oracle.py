import math

import numpy as np
import pytest

from conftest import brute_ssyt, brute_syt
from schurkit import clebsch_gordan, oracle
from schurkit.bases import GzPattern, enumerate_gz, enumerate_paths, gz_to_ssyt
from schurkit.cli import run
from schurkit.oracle import (
    ConsistencyError,
    Permutation,
    StandardTableauFilling,
    apply_perm,
    apply_tensor_power,
    conjugate_by_schur,
    extract_irrep,
    extract_perm_irrep,
    haar_unitary,
    identity_permutation,
    kron_factor_residual,
    offdiag_block_mass,
    perm_block_residual,
    perm_matrix,
    random_permutation,
    schur_polynomial,
    standard_fillings,
    tensor_power,
    transposition,
    verify_report,
    young_symmetrizer,
)
from schurkit.partitions import Partition, add_box, dim_P, dim_Q, enumerate_partitions
from schurkit.schur import ResourceLimitError, SchurUnitary, schur_apply, schur_unitary


def P(*parts):
    return Partition(parts)


def test_permutation_basics():
    s = Permutation([2, 1, 3])
    assert s(1) == 2 and s(3) == 3
    assert s.inverse() == s
    assert s.sign == -1
    assert s.compose(s) == identity_permutation(3)
    assert transposition(4, 2, 4) == Permutation([1, 4, 3, 2])
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])


def test_permutation_images_must_be_integers():
    for images in ([1.5, 2], [1.0, 2.0], ["1", "2"]):
        with pytest.raises(ValueError, match="must be integers"):
            Permutation(images)
    s = Permutation(np.array([2, 1]))
    assert s == transposition(2, 1, 2) and all(type(v) is int for v in s.images)


def _digit_table_dest(s, d, n):
    """dest[c] = row index of P(s)|c>, built digit by digit: factor k of c
    moves to slot s(k)."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    rem = idx
    for k in range(n - 1, -1, -1):
        digits[:, k] = rem % d
        rem = rem // d
    out_digits = np.empty_like(digits)
    for k in range(1, n + 1):
        out_digits[:, s(k) - 1] = digits[:, k - 1]
    dest = np.zeros(d**n, dtype=np.int64)
    for k in range(n):
        dest = dest * d + out_digits[:, k]
    return dest


def test_perm_dest_matches_the_digit_table():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        perms = [random_permutation(n, rng) for _ in range(4)]
        if n >= 3:  # a 3-cycle is not its own inverse
            perms.append(Permutation([2, 3, 1] + list(range(4, n + 1))))
        for d in range(1, 4):
            for s in perms:
                want = _digit_table_dest(s, d, n)
                assert np.array_equal(oracle._perm_dest(s, d, n), want)


def test_perm_matrix_swaps_first_two_factors():
    s = transposition(3, 1, 2)
    m = perm_matrix(s, 2)
    # P(s)|i1,i2,i3> = |i2,i1,i3>
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                src = (i1 * 2 + i2) * 2 + i3
                dst = (i2 * 2 + i1) * 2 + i3
                assert m[dst, src] == 1.0
    assert np.array_equal(
        perm_matrix(identity_permutation(3), 2), np.eye(8)
    )


def test_perm_matrix_homomorphism_and_orthogonality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s1 = random_permutation(4, rng)
        s2 = random_permutation(4, rng)
        m1, m2 = perm_matrix(s1, 2), perm_matrix(s2, 2)
        assert np.array_equal(m1 @ m2, perm_matrix(s1.compose(s2), 2))
        assert np.array_equal(m1 @ m1.T, np.eye(16))


def test_dense_oracle_bound_raises_resource_limit():
    """At (13,2), d^n = 8192: the oracle's dense matrices raise the same
    exception as schur_unitary, so one handler catches either."""
    n, d = 13, 2
    lam = P(7, 6)
    tableau = StandardTableauFilling(lam, (tuple(range(1, 8)), tuple(range(8, 14))))
    for build in (
        lambda: perm_matrix(identity_permutation(n), d),
        lambda: tensor_power(np.eye(d), n),
        lambda: young_symmetrizer(tableau, d),
    ):
        with pytest.raises(ResourceLimitError, match="d\\^n = 8192 exceeds"):
            build()
    # the bound is schur's own check, which also refuses n = 0
    for build in (
        lambda: perm_matrix(Permutation(()), d),
        lambda: tensor_power(np.eye(d), 0),
    ):
        with pytest.raises(ValueError, match="n and d must be >= 1"):
            build()


def test_tensor_power_examples():
    assert np.array_equal(tensor_power(np.eye(3), 2), np.eye(9))
    diag = np.diag([1.0, 1j])
    tp = tensor_power(diag, 2)
    assert np.allclose(tp, np.diag([1, 1j, 1j, -1]))
    with pytest.raises(ValueError):
        tensor_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tensor_power_rejects_non_finite_input(bad):
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with pytest.raises(ValueError, match="not unitary"):
        tensor_power(u, 2)


def test_tensor_power_commutes_with_permutations():
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = haar_unitary(2, rng)
        s = random_permutation(4, rng)
        q = tensor_power(u, 4)
        p = perm_matrix(s, 2)
        assert np.max(np.abs(p @ q - q @ p)) < 1e-12


def test_appliers_match_dense():
    rng = np.random.default_rng(8)
    u = haar_unitary(3, rng)
    s = random_permutation(4, rng)
    x = rng.standard_normal((81, 3))
    assert np.allclose(apply_tensor_power(u, 4, x), tensor_power(u, 4) @ x)
    assert np.allclose(apply_perm(s, 3, x), perm_matrix(s, 3) @ x)


def test_standard_fillings_enumeration():
    t = standard_fillings(P(2, 1))
    assert {f.rows for f in t} == {((1, 2), (3,)), ((1, 3), (2,))}
    with pytest.raises(ValueError):
        StandardTableauFilling(P(2, 1), ((1, 3), (2, 4)))
    with pytest.raises(ValueError):
        StandardTableauFilling(P(2, 1), ((2, 1), (3,)))


def test_standard_fillings_are_the_path_fills_in_path_order():
    for n in range(1, 8):
        for lam in enumerate_partitions(n, n):
            fillings = standard_fillings(lam)
            assert sorted(f.rows for f in fillings) == sorted(brute_syt(lam.parts))
            for f, path in zip(fillings, enumerate_paths(lam), strict=True):
                # entry k + 1 sits in the row that step k of the path grows
                row_of = {v: r for r, row in enumerate(f.rows, 1) for v in row}
                assert row_of[1] == 1
                assert tuple(row_of[v] for v in range(2, n + 1)) == path.box_record


def test_standard_filling_entries_must_be_integers():
    with pytest.raises(ValueError, match="must be integers"):
        StandardTableauFilling(P(2, 1), ((1, 2.5), (3,)))
    assert StandardTableauFilling(P(1), ((np.int64(1),),)).rows == ((1,),)


def test_young_symmetrizer_symmetric_and_singlet():
    for d in (2, 3):
        for n in (2, 3):
            (filling,) = standard_fillings(P(n))
            pi = young_symmetrizer(filling, d)
            assert abs(np.trace(pi) - dim_Q(P(n), d)) < 1e-9
    (filling,) = standard_fillings(P(1, 1))
    pi = young_symmetrizer(filling, 2)
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    assert np.allclose(pi, np.outer(singlet, singlet), atol=1e-12)
    assert abs(np.trace(pi) - 1.0) < 1e-12


def test_young_symmetrizer_idempotent_and_trace():
    for d in (2, 3):
        for n in range(1, 5):
            for lam in enumerate_partitions(n, n):
                for filling in standard_fillings(lam):
                    pi = young_symmetrizer(filling, d)
                    assert np.max(np.abs(pi @ pi - pi)) < 1e-9
                    assert abs(np.trace(pi) - dim_Q(lam, d)) < 1e-9


def test_young_symmetrizer_conjugated_support():
    d = 2
    for n in (2, 3):
        su = schur_unitary(n, d)
        for lam in enumerate_partitions(d, n):
            for filling in standard_fillings(lam):
                pi = young_symmetrizer(filling, d)
                w = su.matrix @ pi @ su.matrix.T
                for blam, start, dq, dp in su.blocks:
                    blk = w[start : start + dq * dp, start : start + dq * dp]
                    if blam != lam:
                        w[start : start + dq * dp, start : start + dq * dp] = 0.0
                        assert np.max(np.abs(blk)) < 1e-9
                        continue
                    # inside the block: (rank-1 in p) (x) (identity on q)
                    t = blk.reshape(dq, dp, dq, dp)
                    y = t[0, :, 0, :]
                    assert abs(np.trace(y) - 1.0) < 1e-9
                    assert np.max(np.abs(y @ y - y)) < 1e-9
                    for a in range(dq):
                        for b in range(dq):
                            expect = y if a == b else np.zeros_like(y)
                            assert np.max(np.abs(t[a, :, b, :] - expect)) < 1e-9
                    w[start : start + dq * dp, start : start + dq * dp] = 0.0
                assert np.max(np.abs(w)) < 1e-9


def test_extract_irrep_identity_and_multiplicativity():
    su = schur_unitary(3, 2)
    lam = P(2, 1)
    assert np.allclose(extract_irrep(su, lam, np.eye(2)), np.eye(2), atol=1e-12)
    assert np.allclose(
        extract_perm_irrep(su, lam, identity_permutation(3)), np.eye(2), atol=1e-12
    )
    rng = np.random.default_rng(14)
    for _ in range(5):
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        m1 = extract_irrep(su, lam, u1)
        m2 = extract_irrep(su, lam, u2)
        m12 = extract_irrep(su, lam, u1 @ u2)
        assert np.max(np.abs(m1 @ m2 - m12)) < 1e-10
        s1, s2 = random_permutation(3, rng), random_permutation(3, rng)
        p1 = extract_perm_irrep(su, lam, s1)
        p2 = extract_perm_irrep(su, lam, s2)
        p12 = extract_perm_irrep(su, lam, s1.compose(s2))
        assert np.max(np.abs(p1 @ p2 - p12)) < 1e-10
        # Young's orthogonal form is real orthogonal
        assert np.max(np.abs(p1.imag)) < 1e-12
        assert np.max(np.abs(p1 @ p1.T - np.eye(2))) < 1e-10


def test_adjacent_transpositions_real_orthogonal():
    for n, d in [(3, 2), (4, 2), (4, 3)]:
        su = schur_unitary(n, d)
        for k in range(1, n):
            s = transposition(n, k, k + 1)
            for lam in enumerate_partitions(d, n):
                if dim_Q(lam, d) == 0:
                    continue
                m = extract_perm_irrep(su, lam, s)
                assert np.max(np.abs(m.imag)) < 1e-12
                r = m.real
                assert np.max(np.abs(r @ r.T - np.eye(r.shape[0]))) < 1e-10


def test_extract_irrep_detects_mislabeled_rows():
    su = schur_unitary(3, 2)
    m = su.matrix.copy()
    # swap a (q,p) row against a different q to break the block product form
    m[[4, 7]] = m[[7, 4]]
    broken = SchurUnitary(su.n, su.d, m, su.row_labels, su.blocks)
    rng = np.random.default_rng(1)
    with pytest.raises(ConsistencyError):
        extract_irrep(broken, P(2, 1), haar_unitary(2, rng))


@pytest.mark.parametrize("lam", [P(2, 1), P(3)])
def test_extract_irrep_rejects_nan(lam):
    # (3) has one path index, so no consistency comparison runs at all
    su = schur_unitary(3, 2)
    u = haar_unitary(2, np.random.default_rng(2))
    u[0, 1] = np.nan
    with pytest.raises(ConsistencyError):
        extract_irrep(su, lam, u)


@pytest.mark.parametrize("n, d, lam", [(3, 2, P(2, 1)), (3, 3, P(1, 1, 1))])
def test_extract_perm_irrep_rejects_nan(n, d, lam):
    # (1,1,1) at d = 3 has one GZ index, so no comparison runs at all
    su = schur_unitary(n, d)
    m = su.matrix.copy()
    row = next(r for r, label in enumerate(su.row_labels) if label[0] == lam)
    m[row, 0] = np.nan
    broken = SchurUnitary(su.n, su.d, m, su.row_labels, su.blocks)
    with pytest.raises(ConsistencyError):
        extract_perm_irrep(broken, lam, transposition(n, 1, 2))


def test_schur_polynomial_basics():
    x = np.array([0.3 + 0.1j, -0.7, 1.1 - 0.2j])
    assert abs(schur_polynomial(P(1), x) - x.sum()) < 1e-14
    assert abs(schur_polynomial(P(2), [1, 1]) - 3) < 1e-14
    # s_(1,1)(x, y) = x y
    assert abs(schur_polynomial(P(1, 1), x[:2]) - x[0] * x[1]) < 1e-14
    brute = sum(
        np.prod([x[v - 1] for row in tab for v in row])
        for tab in brute_ssyt((2, 1), 3)
    )
    assert abs(schur_polynomial(P(2, 1), x) - brute) < 1e-12
    with pytest.raises(ValueError):
        schur_polynomial(P(1, 1, 1), x[:2])


def test_haar_unitary_seeded_and_unitary():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    u1 = haar_unitary(4, rng1)
    u2 = haar_unitary(4, rng2)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) < 1e-12


def _changed_wigner_value(monkeypatch, key, change):
    """Replace the reduced Wigner coefficient at `key` by change(value), with
    the CG caches cleared on entry and exit."""
    from schurkit import clebsch_gordan

    value = clebsch_gordan._wigner_value

    def changed(*args):
        c = value(*args)
        return change(c) if args == key else c

    clebsch_gordan.cg_block.cache_clear()
    clebsch_gordan._entries.cache_clear()
    monkeypatch.setattr(clebsch_gordan, "_wigner_value", changed)
    try:
        yield
    finally:
        clebsch_gordan.cg_block.cache_clear()
        clebsch_gordan._entries.cache_clear()


@pytest.fixture
def flipped_wigner_sign(monkeypatch):
    """The reduced Wigner coefficient T((1), 2, (1), 0) at d = 2, negated."""
    yield from _changed_wigner_value(monkeypatch, ((1,), 2, (1,), 0, 2), lambda c: -c)


@pytest.fixture
def nan_wigner_coefficient(monkeypatch):
    """The reduced Wigner coefficient T((2), 1, (2), 1) at d = 2, set to NaN."""
    yield from _changed_wigner_value(monkeypatch, ((2,), 1, (2,), 1, 2), lambda c: np.nan)


def test_verify_exits_4_on_a_nan_wigner_coefficient(nan_wigner_coefficient, capsys):
    # exited 2 with "SVD did not converge", an argument error
    assert run(["verify", "--n", "4", "--d", "2", "--trials", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not finite" in captured.err


def test_verify_report_rejects_a_nan_off_the_blocks(monkeypatch):
    # max(0.0, nan) is 0.0, so the report read max_off_mass 0.0 and ok: true
    apply = oracle.schur_apply

    def nan_off_block(x, *args, **kwargs):
        out = apply(x, *args, **kwargs)
        if out.shape[0] == out.shape[1]:  # the full conjugation, not a block's
            out[0, -1] = np.nan  # a (3) row against a (2,1) column
        return out

    monkeypatch.setattr(oracle, "schur_apply", nan_off_block)
    with pytest.raises(ConsistencyError, match="not finite"):
        verify_report(3, 2, 2, 0)


@pytest.mark.parametrize("factor", ["q", "p"])
def test_extractors_compare_the_whole_block(monkeypatch, factor):
    # Only the diagonal blocks of the held-fixed index were compared, so an
    # entry between two different held-fixed indices went unread.
    su = schur_unitary(3, 2)
    lam = P(2, 1)
    _, start, dq, dp = next(b for b in su.blocks if b[0] == lam)
    # (q, p) = (0, 0) against (0, 1) for q, against (1, 0) for p
    col = 1 if factor == "q" else dp
    apply = oracle.schur_apply

    def perturbed(x, *args, **kwargs):
        out = apply(x, *args, **kwargs)
        out[start, col] += 1e-6
        return out

    monkeypatch.setattr(oracle, "schur_apply", perturbed)
    rng = np.random.default_rng(4)
    with pytest.raises(ConsistencyError, match=f"{factor}-block of .* depends on"):
        if factor == "q":
            extract_irrep(su, lam, haar_unitary(2, rng))
        else:
            extract_perm_irrep(su, lam, transposition(3, 1, 2))


def _worst_sector_mass_residual(n, d, seeds):
    """Worst, over seeded probes, of |mass of sector lambda - expected| in the
    forward of V^{tensor n} |x>, for a basis state x of content w and a Haar V.

    Sector lambda is invariant under V^{tensor n} and under permuting the
    qudits, so every x of content w puts the same mass in it: dim P_lambda
    times the multiplicity K_{lambda,w} of weight w in Q_lambda, over the
    (n choose w) states of that content. No matrix is built.
    """
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        digits = rng.integers(d, size=n)
        w = np.bincount(digits, minlength=d).tolist()
        x = np.zeros((d**n, 1), dtype=complex)
        x[np.ravel_multi_index(tuple(digits), (d,) * n)] = 1
        y = schur_apply(apply_tensor_power(haar_unitary(d, rng), n, x), n, d, max_dim=d**n)
        states = math.factorial(n) // math.prod(math.factorial(c) for c in w)
        start = 0
        for lam in enumerate_partitions(d, n):
            fills = (sum(gz_to_ssyt(q), []) for q in enumerate_gz(lam, d))
            kostka = sum(all(f.count(i + 1) == c for i, c in enumerate(w)) for f in fills)
            size = dim_Q(lam, d) * dim_P(lam)
            mass = np.sum(np.abs(y[start : start + size]) ** 2)
            worst = max(worst, abs(mass - dim_P(lam) * kostka / states))
            start += size
        assert start == d**n  # the sectors tile the output
    return worst


@pytest.mark.parametrize("n, d", [(16, 2), (9, 4), (7, 5)])
def test_cascade_puts_the_weight_multiplicity_in_each_sector(n, d):
    # above the dense bound: the cascade's sector masses against exact integers
    assert _worst_sector_mass_residual(n, d, range(3)) < 1e-12


def test_sector_masses_expose_a_flipped_wigner_sign(flipped_wigner_sign):
    assert _worst_sector_mass_residual(16, 2, range(3)) > 1e-2


@pytest.fixture
def flipped_grouped_wigner_sign(monkeypatch):
    """T((2,1), 1, (2,1), 0) at d = 4, negated: it enters the weight-grouped
    block of (2,1), which the cascade multiplies in its stacked order."""
    yield from _changed_wigner_value(monkeypatch, ((2, 1), 1, (2, 1), 0, 4), lambda c: -c)


def test_sector_masses_expose_a_flipped_sign_in_a_grouped_block(flipped_grouped_wigner_sign):
    # the composed indices are dropped with the cg_block cache, so the
    # rebuilt blocks reach every step
    assert clebsch_gordan.cg_block(P(2, 1), 4).dense is None
    assert _worst_sector_mass_residual(9, 4, range(3)) > 1e-2


def _gt_raising(lam, d, k):
    """J_lambda(E_{k,k+1}) on the GZ patterns of lambda, from the normalized
    Gel'fand-Tsetlin formula (Molev, math/0211289), not from the CG layer.

    E_{k,k+1} sends pattern L to the sum over i of c_i times L + delta_{ki}
    (row q_k gains a box in part i), with l_{ji} = m_{ji} - i + 1 and
    c_i^2 = -prod_j (l_ki - l_{k+1,j}) prod_j (l_ki - l_{k-1,j} + 1)
    / prod_{j != i} (l_ki - l_kj)(l_ki - l_kj + 1).
    """
    patterns = enumerate_gz(lam, d)
    index = {q: a for a, q in enumerate(patterns)}
    out = np.zeros((len(patterns), len(patterns)))
    for a, q in enumerate(patterns):
        below, row, above = (
            [q.level(j).part(i) - i + 1 for i in range(1, j + 1)] for j in (k - 1, k, k + 1)
        )
        for i, lki in enumerate(row):
            chain = list(q.chain)
            chain[d - k] = add_box(q.level(k), i + 1, k)
            b = index.get(GzPattern._trusted(tuple(chain)))
            if b is None:  # not an interlacing pattern
                continue
            num = -math.prod(lki - x for x in above) * math.prod(lki - x + 1 for x in below)
            den = math.prod((lki - x) * (lki - x + 1) for j, x in enumerate(row) if j != i)
            out[b, a] = math.sqrt(num / den)
    return out


def _gt_residual(n, d, seed=0, signs=1.0):
    """Worst over k = 1..d-1 of |U E_k x - (sum_lambda J_lambda(E_k) x I_P) U x|
    / |E_k x| for a seeded real unit probe x, U applied by schur_apply and
    E_k = sum over sites of |k><k+1|; both sides' rows are multiplied by
    signs. No matrix is built."""
    x = np.random.default_rng(seed).standard_normal(d**n)
    x /= np.linalg.norm(x)
    ux = signs * schur_apply(x, n, d, max_dim=d**n)
    worst = 0.0
    for k in range(1, d):
        ex, digits = np.zeros((d,) * n), x.reshape((d,) * n)
        for site in range(n):  # level k + 1 (index k) becomes level k
            lead = (slice(None),) * site
            ex[lead + (k - 1,)] += digits[lead + (k,)]
        lhs = signs * schur_apply(ex.reshape(-1), n, d, max_dim=d**n)
        rhs = np.empty_like(lhs)
        start = 0
        for lam in enumerate_partitions(d, n):
            size = dim_Q(lam, d) * dim_P(lam)
            block = ux[start : start + size].reshape(dim_Q(lam, d), dim_P(lam))
            rhs[start : start + size] = (_gt_raising(lam, d, k) @ block).reshape(-1)
            start += size
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(ex))
    return worst


@pytest.mark.parametrize("n, d", [(12, 2), (16, 2), (9, 4), (7, 5)])
def test_cascade_rows_carry_the_gelfand_tsetlin_raising_operators(n, d):
    # above the dense bound: the GZ rows are the GT basis, generator by generator
    assert _gt_residual(n, d) < 1e-13


def test_gt_residual_exposes_a_flipped_wigner_sign(flipped_wigner_sign):
    assert _gt_residual(12, 2) > 1e-2


def test_gt_residual_exposes_a_flipped_sign_in_a_grouped_block(flipped_grouped_wigner_sign):
    assert clebsch_gordan.cg_block(P(2, 1), 4).dense is None
    assert _gt_residual(9, 4) > 1e-2


@pytest.mark.parametrize("n, d", [(12, 2), (9, 4)])
def test_gt_residual_exposes_a_changed_gz_sign_convention(n, d):
    """One GZ basis vector, the second pattern of the second sector, negated
    on both sides: the sector masses cannot see it, the raising operators
    can."""
    first, second = enumerate_partitions(d, n)[:2]
    row = dim_Q(first, d) * dim_P(first) + dim_P(second)  # (second, q_2, path 1)
    signs = np.ones(d**n)
    signs[row : row + dim_P(second)] = -1
    assert _gt_residual(n, d, signs=signs) > 1e-2


@pytest.mark.parametrize("n", [4, 7])
def test_verify_report_catches_a_flipped_wigner_sign(flipped_wigner_sign, n):
    with pytest.raises(ConsistencyError):
        verify_report(n, 2, 1, 0)


def test_conjugation_residuals_expose_a_flipped_wigner_sign(flipped_wigner_sign):
    su = schur_unitary(4, 2)
    rng = np.random.default_rng(0)
    u, s = haar_unitary(2, rng), random_permutation(4, rng)
    w = conjugate_by_schur(su, u=u, s=s)
    wp = conjugate_by_schur(su, s=s)
    factor = qconst = 0.0
    for _, start, dq, dp in su.blocks:
        b = slice(start, start + dq * dp)
        factor = max(factor, kron_factor_residual(w[b, b], dq, dp))
        qconst = max(qconst, perm_block_residual(wp[b, b].reshape(dq, dp, dq, dp)))
    assert offdiag_block_mass(su, w) > 0.1
    assert factor > 0.1
    assert qconst > 0.1


def test_conjugation_exposes_a_matrix_that_disagrees_with_the_cascade():
    su = schur_unitary(3, 2)
    m = su.matrix.copy()
    m[[0, 4]] = m[[4, 0]]  # a (3) row swapped against a (2,1) row
    broken = SchurUnitary(su.n, su.d, m, su.row_labels, su.blocks)
    rng = np.random.default_rng(3)
    w = conjugate_by_schur(broken, u=haar_unitary(2, rng), s=random_permutation(3, rng))
    assert offdiag_block_mass(broken, w) > 1e-10


def test_verify_report_needs_a_trial():
    with pytest.raises(ValueError, match="trials"):
        verify_report(2, 2, 0, 0)
