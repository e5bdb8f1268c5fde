from functools import reduce

import numpy as np
import pytest

from schurkit.circuit import Gate, GateList, gate_count_report, two_level_decompose
from schurkit.oracle import haar_unitary
from schurkit.partitions import Partition
from schurkit.schur import schur_unitary


from conftest import brute_control_pairs


def test_identity_is_empty():
    gl = two_level_decompose(np.eye(7))
    assert gl.gates == ()
    assert np.array_equal(gl.replay(), np.eye(7))


def test_single_2x2_is_one_rotation():
    rng = np.random.default_rng(0)
    u = haar_unitary(2, rng)
    gl = two_level_decompose(u)
    assert gl.rotation_count == 1
    assert np.max(np.abs(gl.replay() - u)) < 1e-12


def test_random_8x8_within_bounds():
    rng = np.random.default_rng(1)
    u = haar_unitary(8, rng)
    gl = two_level_decompose(u)
    assert gl.rotation_count <= 28
    assert np.max(np.abs(gl.replay() - u)) < 1e-10


def test_replay_many_sizes():
    rng = np.random.default_rng(2)
    for size in (3, 4, 9, 16, 32):
        u = haar_unitary(size, rng)
        gl = two_level_decompose(u, tol=1e-10)
        assert gl.rotation_count <= size * (size - 1) // 2
        assert np.max(np.abs(gl.replay() - u)) < 1e-10


def test_replay_matches_product_of_embeds():
    """In-place replay equals the left-to-right product of dense embeds."""
    rng = np.random.default_rng(4)
    size = 16
    pairs = [rng.choice(size, 2, replace=False) for _ in range(45)]
    blocks = [haar_unitary(2, rng) for _ in pairs]
    phase_index = rng.choice(size, 10, replace=False)
    phases = np.exp(2j * np.pi * rng.random(10))
    gl = GateList(size, pairs, blocks, phase_index, phases)
    assert [g.kind for g in gl.gates] == ["rot"] * 45 + ["phase"] * 10
    assert any(a > b for a, b in gl.pairs.tolist())
    reference = reduce(np.matmul, (g.embed(size) for g in gl.gates))
    assert np.max(np.abs(gl.replay() - reference)) < 1e-13


def test_gate_list_rejects_malformed_arrays():
    ok = dict(pairs=[(0, 2)], blocks=[np.eye(2)], phase_index=[1], phases=[1j])
    assert GateList(3, **ok).rotation_count == 1
    for bad in (
        dict(blocks=[]),  # a pair without a block
        dict(phases=[]),  # an index without a phase
        dict(pairs=[(0, 3)]),  # outside the 3 states
        dict(phase_index=[-1]),
        dict(pairs=[(1, 1)]),  # not two-level
        dict(phase_index=[1, 1], phases=[1j, 1j]),  # replay scales once
    ):
        with pytest.raises(ValueError):
            GateList(3, **{**ok, **bad})


def test_replay_reproduces_schur_transform():
    su = schur_unitary(7, 2)
    gl = two_level_decompose(su.matrix.astype(complex), tol=1e-10)
    assert gl.rotation_count > 0
    assert np.max(np.abs(gl.replay() - su.matrix)) < 1e-10


def test_rejects_non_unitary():
    with pytest.raises(ValueError):
        two_level_decompose(np.ones((3, 3)))
    with pytest.raises(ValueError):
        two_level_decompose(np.zeros((2, 3)))
    for bad in (np.array(1.0), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="input must be square"):
            two_level_decompose(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (2, 1), (1, 2)])
def test_rejects_non_finite_input(bad, entry):
    # A NaN residual fails every comparison, so the check must not pass it.
    u = np.eye(3, dtype=complex)
    u[entry] = bad
    with pytest.raises(ValueError, match="not unitary"):
        two_level_decompose(u)


def test_gate_json_schema():
    rng = np.random.default_rng(3)
    u = haar_unitary(3, rng)
    data = two_level_decompose(u).to_json()
    assert data["size"] == 3
    kinds = {g["kind"] for g in data["gates"]}
    assert kinds <= {"rot", "phase"}
    rot = next(g for g in data["gates"] if g["kind"] == "rot")
    assert set(rot) == {"kind", "a", "b", "block"}
    assert len(rot["block"]) == 2 and len(rot["block"][0][0]) == 2
    phase = next(g for g in data["gates"] if g["kind"] == "phase")
    assert set(phase) == {"kind", "a", "value"}


def test_gate_embed_shapes():
    g = Gate("rot", 0, 2, block=np.eye(2, dtype=complex))
    assert np.array_equal(g.embed(4), np.eye(4))
    g = Gate("phase", 1, value=1j)
    assert g.embed(3)[1, 1] == 1j


def test_gate_count_report_steps():
    r = gate_count_report(2, 2)
    assert len(r.steps) == 1
    assert r.steps[0].control_pairs == 3
    r = gate_count_report(5, 2)
    assert len(r.steps) == 4
    assert [s.control_pairs for s in r.steps] == [3, 6, 8, 12]


def test_control_pairs_match_independent_enumeration():
    for d in (2, 3):
        for n in range(2, 9):
            r = gate_count_report(n, d)
            for st in r.steps:
                assert st.control_pairs == len(brute_control_pairs(d, st.step)), (
                    d,
                    st.step,
                )
            assert r.total_control_pairs == sum(s.control_pairs for s in r.steps)


def test_rotation_classes_are_translation_reduced():
    # (mu, mu'') and (mu + c, mu'' + c) produce identical matrices
    from schurkit.wigner import reduced_wigner_matrix

    mu, mupp = Partition([3, 1]), Partition([2])
    shifted = Partition([5, 3, 2]), Partition([4, 2])
    a = reduced_wigner_matrix(mu, mupp, 3)
    b = reduced_wigner_matrix(*shifted, 3)
    assert np.allclose(a, b, atol=1e-15)
    r = gate_count_report(6, 2)
    for st in r.steps:
        assert st.rotation_classes <= st.control_pairs
