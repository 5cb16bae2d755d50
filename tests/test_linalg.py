"""Norm, distance, class-check and sampler behavior."""

import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

from irrepsk.errors import ClassError, DimError, InvalidMatrix
from irrepsk.linalg import (
    check_class,
    dist,
    matmul_stack,
    op_norm,
    qconj,
    qdist,
    qmul,
    quaternion_to_su2,
    random_su,
    random_traceless_hermitian,
    sl_residual,
    su2_to_quaternion,
    su_normalize,
    unitarity_residual,
)

from helpers import random_sl_near_identity

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0 + 0j, -1.0 + 0j])


def test_op_norm_values():
    assert op_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert op_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_rejects_nonsquare():
    with pytest.raises(InvalidMatrix):
        op_norm(np.ones((2, 3)))
    with pytest.raises(InvalidMatrix):
        op_norm([[1.0, np.nan], [0.0, 1.0]])


def test_dist_closed_form():
    # diag(e^{it}, e^{-it}) lies at exactly 2 sin(t/2) from the identity
    m = np.diag([np.exp(0.1j), np.exp(-0.1j)])
    assert dist(m, np.eye(2)) == pytest.approx(2 * np.sin(0.05), abs=1e-12)
    assert dist(m, np.eye(2)) == pytest.approx(0.0999583385413566, abs=1e-12)


def test_dist_shape_mismatch():
    with pytest.raises(DimError):
        dist(np.eye(2), np.eye(3))


def test_dist_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = (random_su(2, rng) for _ in range(3))
        u = random_su(2, rng)
        assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
        # unitary invariance on both sides
        assert dist(u @ a, u @ b) == pytest.approx(dist(a, b), abs=1e-10)
        assert dist(a @ u, b @ u) == pytest.approx(dist(a, b), abs=1e-10)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-12


def test_aligned_dist_minimizes_over_phases():
    rng = np.random.default_rng(3)
    a = random_su(2, rng)
    assert dist(-a, a, (1.0, -1.0)) == pytest.approx(0.0, abs=1e-12)
    assert dist(a, a) == 0.0
    # a phase outside the candidate set is not matched
    assert dist(1j * a, a, (1.0, -1.0)) > 0.5
    w = np.exp(2j * np.pi / 3)
    b = random_su(3, rng)
    roots = (1.0, w, w ** 2)
    assert dist(w * b, b, roots) == pytest.approx(0.0, abs=1e-12)
    # a stack gives one distance per matrix, each exactly the one-matrix value
    for d, phases in ((2, (1.0, -1.0)), (3, roots)):
        t = random_su(d, rng)
        stack = np.stack([random_su(d, rng) for _ in range(50)])
        stack[7] = phases[-1] * t
        got = dist(stack, t, phases)
        assert got.shape == (50,)
        assert all(got[i] == dist(stack[i], t, phases) for i in range(50))
        # against numpy's own spectral norm, per matrix and phase
        ref = [min(np.linalg.norm(m - z * t, 2) for z in phases) for m in stack]
        assert got == pytest.approx(ref, abs=1e-14)
        assert got[7] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimError):
        dist(np.stack([np.eye(3)] * 4), np.eye(2))
    bad = np.stack([np.eye(2, dtype=complex)] * 4)
    bad[2, 0, 1] = np.nan
    with pytest.raises(InvalidMatrix):
        dist(bad, np.eye(2))


def test_dist_pairs_stacks():
    rng = np.random.default_rng(5)
    a = np.stack([random_su(3, rng) for _ in range(20)])
    b = np.stack([random_su(3, rng) for _ in range(20)])
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    got = dist(a, b, roots)
    assert got.shape == (20,)
    assert all(got[i] == dist(a[i], b[i], roots) for i in range(20))
    with pytest.raises(DimError):
        dist(a, b[:5])


def random_stack(rng, n, d):
    return rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))


@pytest.mark.parametrize("n", [1, 64, 4096])
@pytest.mark.parametrize("d", [2, 3])
def test_matmul_stack_rows_are_their_one_row_calls(n, d):
    # the kernel is elementwise, so a product's bits do not depend on the
    # stack it is in; it is the matrix product up to round-off
    rng = np.random.default_rng(n + d)
    a, b = random_stack(rng, n, d), random_stack(rng, n, d)
    got = matmul_stack(a, b)
    assert got.shape == (n, d, d)
    for i in range(n):
        assert got[i].tobytes() == matmul_stack(a[i], b[i]).tobytes()
    assert np.abs(got - a @ b).max() <= 8 * d * 2.0 ** -52 * np.abs(a).max() * np.abs(b).max()


@pytest.mark.parametrize("d", [2, 3])
def test_matmul_stack_broadcasts_as_the_loop_of_single_products(d):
    rng = np.random.default_rng(40 + d)
    a, g = random_stack(rng, 9, d), random_stack(rng, 5, d)
    cand = matmul_stack(a[:, None], g)  # (n, 1, d, d) x (g, d, d), frontier-major
    assert cand.shape == (9, 5, d, d)
    for i, j in itertools.product(range(9), range(5)):
        assert cand[i, j].tobytes() == matmul_stack(a[i], g[j]).tobytes()
    left = matmul_stack(g[0], a)  # (d, d) x (S, d, d), and the other way round
    right = matmul_stack(a, g[0])
    for i in range(9):
        assert left[i].tobytes() == matmul_stack(g[0], a[i]).tobytes()
        assert right[i].tobytes() == matmul_stack(a[i], g[0]).tobytes()


def test_qmul_and_qconj_match_the_matrix_product_and_adjoint():
    # on random stacks, one row broadcast against many, and stacks of stacks
    rng = np.random.default_rng(12)
    a = su2_to_quaternion(np.stack([random_su(2, rng) for _ in range(40)]))
    b = su2_to_quaternion(np.stack([random_su(2, rng) for _ in range(40)]))
    ma, mb = quaternion_to_su2(a), quaternion_to_su2(b)
    for x, y, want in ((a, b, ma @ mb), (a[:1], b, ma[:1] @ mb), (a, b[3], ma @ mb[3]),
                       (a[3], b[5], ma[3] @ mb[5]),
                       (a.reshape(2, 20, 4), b[:20], ma.reshape(2, 20, 2, 2) @ mb[:20])):
        got = qmul(x, y)
        assert got.shape == want.shape[:-2] + (4,)
        assert np.abs(got - su2_to_quaternion(want.reshape(-1, 2, 2)).reshape(got.shape)).max() \
            <= 4 * 2.0 ** -52
    assert np.array_equal(quaternion_to_su2(qconj(a)), ma.conj().swapaxes(1, 2))


def test_qmul_by_the_identity_is_bit_exact():
    # multiplying by (1, 0, 0, 0) adds only products with 0, so either side
    # gives the other factor bit for bit
    q = np.random.default_rng(13).normal(size=(50, 4))
    one = np.array([1.0, 0, 0, 0])
    assert np.array_equal(qmul(one, q), q) and np.array_equal(qmul(q, one[None]), q)


def _unit_rows(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.sqrt((q * q).sum(1))[:, None]


def test_qdist_has_the_bits_of_a_tree_query():
    # EpsNet._scan measures its candidates with qdist and settles a row
    # only if it would rank them as the k-d tree does, so the two must give
    # the same distance bits
    rng = np.random.default_rng(14)
    data, x = _unit_rows(rng, 2000), _unit_rows(rng, 1000)
    d, j = cKDTree(data).query(x, k=2)
    for k in (0, 1):
        assert qdist(x, data[j[:, k]]).tobytes() == d[:, k].tobytes()


def test_qdist_is_the_summed_form_and_the_operator_norm():
    # sk_depths measures (1, 4) and (K, 4) stacks, and one row, against the
    # target's (4,); the distance is the operator-norm dist of the matrices
    rng = np.random.default_rng(15)
    q, t = _unit_rows(rng, 512), _unit_rows(rng, 1)[0]
    for p in (q[:1], q[:16], q, q[0]):
        assert qdist(p, t).tobytes() == np.sqrt(((p - t) ** 2).sum(-1)).tobytes()
    want = dist(quaternion_to_su2(q), quaternion_to_su2(t))
    assert np.abs(qdist(q, t) - want).max() <= 1e-14
    assert qdist(q[:, None], q[:3]).shape == (512, 3)


def test_su_normalize_pauli_branch():
    # det X = -1; the principal square root is i, so X maps to -iX
    assert np.allclose(su_normalize(X), -1j * X, atol=1e-12)
    got = su_normalize(np.diag([1.0, np.exp(0.25j * np.pi)]))
    want = np.diag([np.exp(-0.125j * np.pi), np.exp(0.125j * np.pi)])
    assert np.allclose(got, want, atol=1e-12)


def test_su_normalize_idempotent_and_det_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        m = su_normalize(q)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(su_normalize(m), m, atol=1e-12)


def test_su_normalize_rejects_nonunitary():
    with pytest.raises(ClassError):
        su_normalize(np.diag([2.0, 0.5]))


def test_check_class():
    with pytest.raises(ClassError):
        check_class(X, "su")  # det -1
    check_class(su_normalize(X), "su")
    check_class(np.diag([2.0, 0.5]), "sl")
    with pytest.raises(ClassError):
        check_class(np.diag([2.0, 1.0]), "sl")


def test_residuals():
    assert unitarity_residual(su_normalize(X)) <= 1e-12
    assert unitarity_residual(np.diag([2.0, 0.5])) > 0.5
    assert sl_residual(np.diag([2.0, 0.5])) <= 1e-12
    assert sl_residual(np.diag([2.0, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_random_su_is_special_unitary_and_seeded():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        m = random_su(d, rng)
        assert unitarity_residual(m) <= 1e-10
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
    a = random_su(2, np.random.default_rng(42))
    b = random_su(2, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_random_traceless_hermitian():
    rng = np.random.default_rng(8)
    h = random_traceless_hermitian(3, rng)
    assert abs(np.trace(h)) <= 1e-12
    assert np.allclose(h, h.conj().T, atol=1e-12)
    assert op_norm(h) == pytest.approx(1.0, abs=1e-12)


def test_random_sl_near_identity_respects_radius():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = random_sl_near_identity(2, rng, 0.3)
        assert dist(m, np.eye(2)) <= 0.3
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)
