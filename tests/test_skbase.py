"""Commutator decomposition and the inverse-allowed base compiler."""

import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import irrepsk.skbase as skbase
from irrepsk import EpsNet, SKParams, base_params, build_gateset_net, parse_gateset
from irrepsk.errors import ClassError, DimError, InvalidMatrix, NetTooCoarse, TooFar
from irrepsk.gateset import GateWord, load_gateset, make_word, word_product
from irrepsk.linalg import dist, qmul, quaternion_to_su2, random_su, su2_to_quaternion
from irrepsk.net import extended_generators, extended_inverse
from irrepsk.skbase import (
    NEAR_MISS,
    balanced_commutator_decompose,
    rotation,
    sk_depths,
)

# the angles sk_depths searches at ROTATIONS = 16: pi r / 16, the 16 pairs
# at even r and their midpoints at odd r
ANGLES = np.pi * np.arange(32) / 16


def _first_within(gs, target, eps, params):
    """The first word sk_depths (given eps) yields within eps, as a GateWord
    over extended_generators(gs): its freely reduced tokens and its tracked
    product as a matrix.  sk_depths' errors propagate (NetTooCoarse at the
    depth cap)."""
    signed, q = next((i, p) for _, i, p, err, _ in sk_depths(gs, target, params, eps)
                     if err <= eps)
    return GateWord(params.net.gather(signed, extended_inverse(gs)), quaternion_to_su2(q))


def _plain(monkeypatch):
    """Turn the top-level search off: the plain recursion."""
    monkeypatch.setattr(skbase, "ROTATIONS", 1)


def _decompose(delta):
    """The matrices A, B of balanced_commutator_decompose for one delta
    matrix."""
    return quaternion_to_su2(balanced_commutator_decompose(su2_to_quaternion(delta)[None])[:, 0])


def _rotations(rng, count, low=-10, high=-0.5):
    """Quaternions of the identity and of count rotations by 10^U(low, high)
    about random axes."""
    return su2_to_quaternion(np.array(
        [np.eye(2)] + [rotation(rng.normal(size=3), 10 ** rng.uniform(low, high))
                       for _ in range(count)]))


def _rodrigues_family(deltas, angles):
    """Reference: balanced_commutator_decompose's plain pairs (2, n, 4) with
    both factors conjugated by the rotation by phi about delta's axis, for
    each phi of angles, as (2, n, k, 4), for an (n, 4) stack of deltas.
    Conjugation keeps a quaternion's w and turns its vector part x about the
    unit axis a (Rodrigues): x cos phi + (a x x) sin phi + a (a . x)(1 - cos phi)."""
    ab = balanced_commutator_decompose(deltas)[:, :, None]
    v = deltas[:, None, 1:]
    vn = np.sqrt((v * v).sum(-1, keepdims=True))
    a = v / (vn + (vn == 0))
    x = ab[..., 1:]
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    along = (a * x).sum(-1, keepdims=True) * a
    turned = x * cos + np.cross(a, x) * sin + along * (1.0 - cos)
    return np.concatenate([np.broadcast_to(ab[..., :1], turned.shape[:-1] + (1,)),
                           turned], axis=-1)


def _singular_deltas(theta, rng):
    """Quaternions of the rotations by theta about axes at and near +-m, the
    axis of the x/y pair's commutator, where the rotation carrying m onto
    delta's axis is ill-conditioned (near -m) or undefined (at +-m)."""
    s = np.sqrt(np.sin(theta / 4))
    m = np.array([s, -s, np.sqrt(1 - s * s)]) / np.sqrt(1 + s * s)
    deltas = []
    for sign in (1, -1):
        for offset in (0.0, 1e-16, 1e-12, 1e-8, 1e-4):
            n = sign * m + offset * rng.normal(size=3)
            n /= np.linalg.norm(n)
            deltas.append(np.concatenate([[np.cos(theta / 2)], np.sin(theta / 2) * n]))
    return np.array(deltas)


def _commutators(ab):
    """A B A^dag B^dag of each pair of a (2, ..., 4) quaternion array."""
    a, b = quaternion_to_su2(ab)
    dag = np.swapaxes(np.conj(np.stack([a, b])), -1, -2)
    return a @ b @ dag[0] @ dag[1]


def _reference_decompose(deltas: np.ndarray, angles=None) -> np.ndarray:
    """balanced_commutator_decompose as it was before its factor axes were
    read from index tables, kept verbatim as the bit-for-bit reference."""
    deltas = np.asarray(deltas)
    if deltas.ndim != 2 or deltas.shape[1] != 4 or not np.isrealobj(deltas):
        raise DimError(f"expected a real (n, 4) stack, got {deltas.dtype} {deltas.shape}")
    q = np.ascontiguousarray(deltas.T)  # rows w, x, y, z: unit-stride reads
    w, v = q[0], q[1:]
    vv = (v * v).sum(0)
    gap = np.sqrt((w - 1.0) ** 2 + vv)
    if gap.max() > 0.25 + 1e-12:
        raise TooFar(f"dist(delta, I) = {gap.max():.4f} > 1/4")
    vn = np.sqrt(vv)
    s = np.sqrt(np.sin(0.5 * np.arctan2(vn, w)))
    c = np.sqrt(1.0 - s * s)
    m = np.array([s, -s, c]) / np.sqrt(1.0 + s * s)
    # at delta = I, s = 0 makes A = B = I whatever n is; n = 0 keeps it finite
    n = v / (vn + (vn == 0))
    # R turns by the angle between m and n about k = m x n, with k's
    # rounding taken off m so that R m = n stays accurate as n nears -m.
    # Its quaternion is (|m + n|, |m - n| k / |k|) / 2.  If n = +-m exactly,
    # any k normal to m serves; (1, 1, 0) is, and for n = -m R swaps x and y
    k = _reference_cross(m, n)
    k -= (m * k).sum(0) * m
    kn = np.sqrt((k * k).sum(0))
    if not kn.all():
        k[:, kn == 0] = [[1.0], [1.0], [0.0]]
        kn[kn == 0] = math.sqrt(2.0)
    h = 0.5 * np.sqrt((np.array([m + n, m - n]) ** 2).sum(1))
    r = np.concatenate([h[:1], h[1] / kn * k])
    if angles is not None:
        half = 0.5 * np.asarray(angles)
        sv = np.sin(half)[:, None] * n.T[:, None]
        sw = np.broadcast_to(np.cos(half)[:, None], sv.shape[:-1] + (1,))
        r = np.moveaxis(qmul(np.concatenate([sw, sv], -1), r.T[:, None]), -1, 0)
        c, s = np.broadcast_to(c[:, None], r.shape[1:]), s[:, None]
    # A and B turn by phi about the first two columns of R's rotation
    # matrix, written with the products rr[i, j] = r_i r_j
    rr = r[:, None] * r
    q = np.array([[c, 1 - 2 * (rr[2, 2] + rr[3, 3]), 2 * (rr[1, 2] + rr[0, 3]),
                   2 * (rr[1, 3] - rr[0, 2])],
                  [c, 2 * (rr[1, 2] - rr[0, 3]), 1 - 2 * (rr[1, 1] + rr[3, 3]),
                   2 * (rr[2, 3] + rr[0, 1])]])
    q[:, 1:] *= s
    return np.moveaxis(q, 1, -1)


def _reference_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for 3-vectors along the first axis."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def test_quaternion_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        u = random_su(2, rng)
        q = su2_to_quaternion(u)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(quaternion_to_su2(q), u, atol=1e-12)


def test_quaternion_stacks_roundtrip():
    q = np.random.default_rng(39).normal(size=(3, 5, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    u = quaternion_to_su2(q)
    assert u.shape == (3, 5, 2, 2)
    assert np.array_equal(u[1, 2], quaternion_to_su2(q[1, 2]))
    assert np.array_equal(su2_to_quaternion(u.reshape(-1, 2, 2)), q.reshape(-1, 4))


def test_rotation_axis_and_angle():
    # rotation(axis, theta) has quaternion (cos(theta/2), sin(theta/2) axis),
    # and 2 atan2(|v|, w) reads theta back to full precision
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    for theta in (0.7, 1e-6, 1e-12):
        u = rotation(axis, theta)
        w, *v = su2_to_quaternion(u)
        assert 2 * np.arctan2(np.linalg.norm(v), w) == pytest.approx(theta, rel=1e-15)
        assert np.allclose(v / np.linalg.norm(v), axis, atol=1e-15)
        assert dist(u, np.eye(2)) == pytest.approx(2 * np.sin(theta / 4), rel=1e-12)


def test_commutator_exact_on_target():
    # the decomposition is exact in SU(2): A B A^dag B^dag reproduces delta
    # to a few ulps in absolute terms, for angles from 1e-12 up to the 1/4
    # gap, because the closed form loses no digits near the identity
    rng = np.random.default_rng(32)
    seen = 0
    for _ in range(2000):
        axis = rng.normal(size=3)
        delta = rotation(axis, 10 ** rng.uniform(-12, np.log10(0.9)))
        if dist(delta, np.eye(2)) > 0.25:
            continue
        a, b = _decompose(delta)
        got = a @ b @ a.conj().T @ b.conj().T
        assert dist(got, delta) <= 4 * 2.0 ** -52
        seen += 1
    assert seen > 1500


@pytest.mark.parametrize("theta", [1e-9, 1e-3, 0.3])
def test_commutator_near_the_singular_axes(theta):
    # the x/y pair's commutator turns about m = (s, -s, c) / sqrt(1 + s^2);
    # the rotation carrying m onto delta's axis is ill-conditioned as that
    # axis nears -m, and undefined at +-m, yet the residual stays at round-off
    for q in _singular_deltas(theta, np.random.default_rng(41)):
        delta = quaternion_to_su2(q)
        a, b = _decompose(delta)
        assert dist(a @ b @ a.conj().T @ b.conj().T, delta) <= 4 * 2.0 ** -52
        # every rotated pair of the family is an exact decomposition too
        got = _commutators(balanced_commutator_decompose(q[None], ANGLES)[:, 0])
        assert dist(got, np.broadcast_to(delta, got.shape)).max() <= 1e-12


def test_commutator_family_is_exact_and_starts_at_the_plain_pair():
    # conjugating both factors by a rotation about delta's axis keeps the
    # commutator, at the pairs' angles and at their midpoints alike; phi = 0
    # is balanced_commutator_decompose's pair bit for bit, and the
    # identity's factors stay I at every angle
    deltas = _rotations(np.random.default_rng(48), 300)
    family = balanced_commutator_decompose(deltas, ANGLES)
    assert family.shape == (2, 301, 32, 4)
    assert np.array_equal(family[:, :, 0], balanced_commutator_decompose(deltas))
    got = _commutators(family)
    assert dist(got.reshape(-1, 2, 2),
                np.repeat(quaternion_to_su2(deltas), 32, axis=0)).max() <= 1e-12
    assert np.array_equal(family[:, 0], np.broadcast_to([1.0, 0, 0, 0], (2, 32, 4)))
    # the pairs differ, and each factor keeps its distance to I
    assert np.abs(family[:, 1:, 1:] - family[:, 1:, :1]).max() > 0
    gaps = np.linalg.norm(family - [1.0, 0, 0, 0], axis=-1)
    assert np.allclose(gaps, gaps[..., :1], rtol=0, atol=1e-15)


def test_commutator_family_matches_the_rodrigues_reference():
    # composing the rotation about delta's axis into R turns both factors
    # as conjugating them by it does, at every angle the search reads, for
    # the identity, random deltas and deltas at and near the singular axes
    rng = np.random.default_rng(53)
    deltas = np.concatenate([_rotations(rng, 300)]
                            + [_singular_deltas(theta, rng) for theta in (1e-9, 1e-3, 0.3)])
    family = balanced_commutator_decompose(deltas, ANGLES)
    assert np.abs(family - _rodrigues_family(deltas, ANGLES)).max() <= 1e-15
    assert np.array_equal(family[:, :, 0], balanced_commutator_decompose(deltas))
    assert np.array_equal(family[:, 0], np.broadcast_to([1.0, 0, 0, 0], (2, 32, 4)))


def test_commutator_factors_batch_matches_rows():
    # a stack mixing the identity, the singular axes +-m and ordinary rows
    # gives every row the factors it gets alone
    theta = 1e-3
    s = np.sqrt(np.sin(theta / 4))
    m = np.array([s, -s, np.sqrt(1 - s * s)]) / np.sqrt(1 + s * s)
    rng = np.random.default_rng(43)
    deltas = np.concatenate([
        [[1.0, 0, 0, 0]],
        [np.concatenate([[np.cos(theta / 2)], sign * np.sin(theta / 2) * m]) for sign in (1, -1)],
        su2_to_quaternion(np.array([rotation(rng.normal(size=3), rng.uniform(0, 0.4))
                                    for _ in range(5)]))])
    ab = balanced_commutator_decompose(deltas)
    for j, delta in enumerate(deltas):
        assert np.array_equal(ab[:, j], balanced_commutator_decompose(delta[None])[:, 0])


def test_commutator_factor_distance_scaling():
    # balanced means both factors sit at O(sqrt(dist(delta, I))) from I
    rng = np.random.default_rng(33)
    eye = np.eye(2)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(1e-8, 0.9)
        delta = rotation(axis, theta)
        gap = dist(delta, eye)
        if gap > 0.25:
            continue
        a, b = _decompose(delta)
        bound = 2.0 * np.sqrt(gap)
        assert dist(a, eye) <= bound
        assert dist(b, eye) <= bound


def test_commutator_identity_and_too_far():
    a, b = _decompose(np.eye(2))
    assert np.array_equal(a, np.eye(2))
    with pytest.raises(TooFar):
        _decompose(rotation(np.array([0, 0, 1.0]), 3.0))


def test_commutator_takes_only_a_real_stack_of_quaternions():
    # an (n, 2, 2) stack of matrices would be cast to real with only a
    # ComplexWarning and give wrong factors; it and any other shape raise
    q = _rotations(np.random.default_rng(54), 3)
    for bad in (quaternion_to_su2(q), q.astype(complex), q[0], q[:, :3], q[None]):
        with pytest.raises(DimError):
            balanced_commutator_decompose(bad)


def _same_bits(a, b):
    """Equal shapes and equal values, the signs of zeros included."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_commutator_factors_are_the_reference_bit_for_bit():
    # the index tables, the preallocated stacks and the in-place products
    # keep every floating-point operation of the reference on every element
    rng = np.random.default_rng(57)
    s = np.sqrt(np.sin(1e-3 / 4))
    m = np.array([s, -s, np.sqrt(1 - s * s)]) / np.sqrt(1 + s * s)
    singular = np.array([np.concatenate([[np.cos(1e-3 / 2)], sign * np.sin(1e-3 / 2) * m])
                         for sign in (1, -1)])
    identity = np.array([[1.0, 0, 0, 0]] * 3)
    stacks = [_rotations(rng, height - 1) for height in (1, 2, 32, 128)]
    stacks += [identity, singular, rng.permutation(np.concatenate(stacks + [identity, singular]))]
    for deltas in stacks:
        assert _same_bits(balanced_commutator_decompose(deltas), _reference_decompose(deltas))
        assert _same_bits(balanced_commutator_decompose(deltas, ANGLES),
                          _reference_decompose(deltas, ANGLES))


def test_commutator_edge_inputs():
    # an empty stack gives empty factors, as EpsNet.nearest takes them; a
    # non-finite row is an invalid input, not a small or a far delta
    for angles, shape in ((None, (2, 0, 4)), (ANGLES, (2, 0, 32, 4))):
        assert balanced_commutator_decompose(np.zeros((0, 4)), angles).shape == shape
        for bad in (np.nan, np.inf):
            deltas = np.array([[1.0, 0, 0, 0], [bad, 0, 0, 0]])
            with pytest.raises(InvalidMatrix):
                balanced_commutator_decompose(deltas, angles)


def test_symbol_words(ht_gateset, slp_gateset):
    # base-compiler words index extended_generators, and extended_inverse
    # names the index of each entry's inverse, up to a global phase
    rng = np.random.default_rng(30)
    eye = np.eye(2)
    for gs in (ht_gateset, slp_gateset):
        phases = gs.phase_candidates
        gens = extended_generators(gs)
        inv = extended_inverse(gs)
        m = len(gens)
        assert len(inv) == m and gs.gen_count < m < 2 * gs.gen_count - 1
        assert [inv[inv[e]] for e in range(m)] == list(range(m))
        for e in range(m):
            assert dist(gens[inv[e]] @ gens[e], eye, phases) <= 1e-12
        w = make_word(gens, tuple(int(e) for e in rng.integers(m, size=9)))
        w_inv = make_word(gens, tuple(inv[e] for e in reversed(w.tokens)))
        assert dist(w_inv.product @ w.product, eye, phases) <= 1e-12
        if gs.mode == "su":
            assert dist(w_inv.product, w.product.conj().T, phases) <= 1e-12


def test_alphabet_adds_only_the_inverses_no_generator_gives(ht_gateset):
    # X, Y, Z and H are their own inverses up to sign, so both Pauli sets
    # add one letter, the inverse of their T-type gate; an S3 set adds none
    # for its group, whose 3-cycles are each other's inverses
    tprime = load_gateset(Path(__file__).resolve().parent.parent / "perfbench" / "gatesets"
                          / "pauli_ht_tprime.json")
    for gs in (ht_gateset, tprime):
        gens, inv = extended_generators(gs), extended_inverse(gs)
        assert gs.names[1:5] == ("X", "Y", "Z", "H")
        assert len(gens) == 7 and inv.tolist() == [0, 1, 2, 3, 4, 6, 5]
        assert np.array_equal(gens[6], gs.matrices[5].conj().T)
        assert extended_generators(gs) is gens  # computed once per gate set
    s3 = parse_gateset({"dimension": 2, "mode": "su", "irrep": {"builtin": "s3"}, "gates": [
        {"name": "R", "matrix": [[float(v.real), float(v.imag)]
                                 for v in rotation([1, 2, 3], 1.0).ravel()]}]})
    assert s3.names[1:3] == ("r1", "r2")
    assert extended_inverse(s3).tolist() == [0, 2, 1, 3, 4, 5, 7, 6]
    # a genuine irrep's SU(2) set is compared up to sign as well, so its
    # Hadamard, whose inverse is -H, adds no letter either
    q8 = parse_gateset({"dimension": 2, "mode": "su", "irrep": {"builtin": "q8"},
                        "gates": [{"name": "H", "matrix": [[0.5 ** 0.5, 0], [0.5 ** 0.5, 0],
                                                           [0.5 ** 0.5, 0],
                                                           [-(0.5 ** 0.5), 0]]}]})
    assert q8.phase_candidates == (1, -1)
    assert extended_inverse(q8).tolist()[-1] == 8


def test_params_guardrails(ht_gateset):
    net = build_gateset_net(ht_gateset, 2, with_inverses=True)
    p = SKParams(net=net)
    assert p.max_depth == 10


def test_sk_compile_identity_and_net_points(ht_gateset, ht_params):
    w = _first_within(ht_gateset, np.eye(2), 1e-6, ht_params)
    assert dist(w.product, np.eye(2)) <= 1e-6
    # a net point compiles to itself at depth zero
    target = ht_params.net.products[37]
    w = _first_within(ht_gateset, target, 1e-9, ht_params)
    assert dist(w.product, target) <= 1e-9


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_sk_compile_random_targets(ht_gateset, ht_params, eps):
    rng = np.random.default_rng(35)
    for _ in range(5):
        t = random_su(2, rng)
        w = _first_within(ht_gateset, t, eps, ht_params)
        assert dist(w.product, t) <= eps


def test_sk_compile_rejects_hopeless_net(ht_gateset):
    pocket = SKParams(net=build_gateset_net(ht_gateset, 1, with_inverses=True),
                      max_depth=2)
    rng = np.random.default_rng(36)
    with pytest.raises(NetTooCoarse):
        _first_within(ht_gateset, random_su(2, rng), 1e-6, pocket)


def _counted_calls(monkeypatch):
    """Record the rows of every EpsNet.nearest and balanced_commutator_decompose
    call."""
    calls = {"nearest": [], "commutator": []}
    nearest, factors = EpsNet.nearest, skbase.balanced_commutator_decompose

    def counted_nearest(self, q):
        calls["nearest"].append(len(q))
        return nearest(self, q)

    def counted_factors(deltas, angles=None):
        calls["commutator"].append(len(deltas))
        return factors(deltas, angles)

    monkeypatch.setattr(EpsNet, "nearest", counted_nearest)
    monkeypatch.setattr(skbase, "balanced_commutator_decompose", counted_factors)
    return calls


def test_sk_compile_reuses_the_previous_depth(ht_gateset, monkeypatch):
    # depth k starts from the depth-(k - 1) word, so deepening to depth 3
    # looks up 3^3 leaf targets in 1 + 1 + 2 + 4 batched queries and
    # decomposes 1 + 3 + 9 commutators in 1 + 2 + 4 batched calls
    calls = _counted_calls(monkeypatch)
    _plain(monkeypatch)
    params = dataclasses.replace(base_params(ht_gateset, 10), max_depth=3)
    with pytest.raises(NetTooCoarse):
        _first_within(ht_gateset, random_su(2, np.random.default_rng(0)), 1e-12, params)
    assert sum(calls["nearest"]) == 27 and sum(calls["commutator"]) == 13
    assert len(calls["nearest"]) == 8 and len(calls["commutator"]) == 7


def test_the_search_adds_rows_not_calls(ht_gateset, monkeypatch):
    # the same calls as the plain recursion, but each depth's top level sends
    # the 2K factors of its K pairs as one stack: 2K rows where the plain
    # recursion sends 2, so every row count below the top grows K-fold
    calls = _counted_calls(monkeypatch)
    params = dataclasses.replace(base_params(ht_gateset, 10), max_depth=3)
    k = skbase.ROTATIONS
    assert k == 16
    with pytest.raises(NetTooCoarse):
        _first_within(ht_gateset, random_su(2, np.random.default_rng(0)), 1e-12, params)
    assert calls["nearest"] == [1, 2 * k, 2 * k, 4 * k, 2 * k, 4 * k, 4 * k, 8 * k]
    assert calls["commutator"] == [1, 1, 2 * k, 1, 2 * k, 2 * k, 4 * k]


def test_sk_compile_rejects_targets_off_su2(ht_gateset, ht_params):
    # plain H has det -1 and 1.5 I is not unitary; neither may reach the
    # quaternion recursion, which would read only the first row
    # neither may a NaN in the second row, which the first row's quaternion
    # does not see
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    half_nan = np.array([[1, 0], [np.nan, 1]], dtype=complex)
    for t, residual in ((hadamard, "1.414e+00"), (1.5 * np.eye(2), "1.250e+00"),
                        (half_nan, "nan")):
        with pytest.raises(ClassError, match=re.escape(f"residual {residual}")):
            _first_within(ht_gateset, t, 1e-3, ht_params)


def test_base_words_hold_no_inverted_irrep_token(ht_gateset, ht_params):
    # an irrep element's inverse is an irrep element up to a phase, so the
    # only letters past the generators are inverted extra gates, and every
    # gathered base word's tokens multiply to its tracked product up to sign
    gs = ht_gateset
    n = gs.gen_count
    gens = extended_generators(gs)
    inv = extended_inverse(gs)
    rng = np.random.default_rng(37)
    for _ in range(3):
        t = random_su(2, rng)
        for _, signed, product, *_ in itertools.islice(sk_depths(gs, t, ht_params), 4):
            base = ht_params.net.gather(signed, inv)
            assert all(inv[e] >= gs.rep.order for e in base if e >= n)
            assert dist(word_product(gens, base), quaternion_to_su2(product),
                        gs.phase_candidates) <= 1e-10


def test_sk_compile_tracks_the_product_of_its_tokens(ht_gateset, ht_params):
    # the recursion multiplies subword products instead of its tokens, so
    # check the tracked product against an independent one, which equals it
    # up to sign
    gens = extended_generators(ht_gateset)
    for seed in (0, 1, 2, 3):
        t = random_su(2, np.random.default_rng(seed))
        w = _first_within(ht_gateset, t, 1e-3, ht_params)
        assert all(0 <= e < len(gens) for e in w.tokens)
        tol = 4 * w.length * 2.0 ** -52
        p = word_product(gens, w.tokens)
        assert min(np.linalg.norm(w.product - z * p, 2) for z in (1, -1)) <= tol


def test_word_length_growth_per_depth(ht_gateset, ht_params, monkeypatch):
    """Each extra recursion level multiplies length by a bounded factor."""
    _plain(monkeypatch)
    rng = np.random.default_rng(38)
    t = random_su(2, rng)
    lengths = []
    for eps in (1e-2, 1e-3, 1e-4):
        w = _first_within(ht_gateset, t, eps, ht_params)
        lengths.append(w.length)
    assert lengths == sorted(lengths)
    # 5 recursive subwords per level: growth stays under that with slack
    for a, b in zip(lengths, lengths[1:]):
        assert b <= 8 * a + 50


def test_word_length_growth_per_depth_with_the_search(ht_gateset, ht_params):
    """Each extra recursion level multiplies length by a bounded factor.

    With the search, the first words within eps = 1e-3 and 1e-4 may be two
    depths apart (259 -> 6,619 tokens for the target above), so consecutive depths
    are read from sk_depths instead, at each eps."""
    inv = np.asarray(extended_inverse(ht_gateset))
    rng = np.random.default_rng(38)
    for _ in range(8):
        t = random_su(2, rng)
        for eps in (1e-2, 1e-4):
            lengths = [len(ht_params.net.gather(signed, inv)) for _, signed, *_
                       in itertools.islice(sk_depths(ht_gateset, t, ht_params, eps), 4)]
            for a, b in zip(lengths, lengths[1:]):
                assert b <= 8 * a + 50


def test_a_depth_after_a_near_miss_tries_the_plain_word_first(ht_gateset, ht_params,
                                                              monkeypatch):
    # depth 0 is one word with or without the search, so after a depth 0
    # within NEAR_MISS of eps, depth 1 is the plain recursion's word when
    # that is within eps, and the full search's (as at eps = 0) when not.
    # Depth 0 has no commutator pair, so no second depth-0 word comes first
    gs = ht_gateset
    rng = np.random.default_rng(49)
    seen = {"plain": 0, "searched": 0}
    for _ in range(12):
        t = random_su(2, rng)
        with monkeypatch.context() as m:
            _plain(m)
            plain = list(itertools.islice(sk_depths(gs, t, ht_params), 2))
        full = list(itertools.islice(sk_depths(gs, t, ht_params, 0.0), 2))
        full_picks = [r for *_, r in full]
        eps = plain[0][3] / 1.4
        assert eps < plain[0][3] <= NEAR_MISS * eps
        got = list(itertools.islice(sk_depths(gs, t, ht_params, eps), 2))
        assert [g[0] for g in got] == [0, 1]
        picks = [r for *_, r in got]
        _, signed, product, err, _ = got[1]
        if plain[1][3] <= eps:
            assert picks == [0, 0] and err == plain[1][3]
            assert np.array_equal(signed, plain[1][1])
            assert np.array_equal(product, plain[1][2])
            seen["plain"] += full_picks[1] != 0
        else:
            assert picks == full_picks and err == full[1][3]
            assert np.array_equal(signed, full[1][1])
            assert np.array_equal(product, full[1][2])
            seen["searched"] += full_picks[1] != 0
    # in both cases some targets take a word the other rule would not
    assert seen["plain"] >= 3 and seen["searched"] >= 1


def test_the_closed_form_error_is_dist(ht_gateset, ht_params):
    # sk_depths scores its words by |q - q_target|, which is dist on SU(2):
    # to 4 ulps on random stacks.  A tracked quaternion's norm drifts from 1
    # by round-off (to about 4e-13 at depth 4 here, far inside the tie
    # width), but the difference of that quaternion's matrix to the target
    # is |q - q_target| times an SU(2) matrix all the same, and the two
    # agree to 4 ulps there too
    ulps = 4 * 2.0 ** -52
    rng = np.random.default_rng(61)
    p, t = np.stack([random_su(2, rng) for _ in range(500)]), random_su(2, rng)
    closed = np.linalg.norm(su2_to_quaternion(p) - su2_to_quaternion(t), axis=-1)
    assert np.abs(closed - dist(p, t)).max() <= ulps
    for _ in range(6):
        t = random_su(2, rng)
        for _, _, product, err, _ in itertools.islice(sk_depths(ht_gateset, t, ht_params), 5):
            assert abs(np.linalg.norm(product) - 1) < 1e-12
            assert abs(err - dist(quaternion_to_su2(product), t)) <= ulps


@pytest.mark.parametrize("nudge,pick", [
    ({}, 10),
    ({10: 4e-13, 22: -4e-13}, 10),   # round-off favours the later of the shortest
    ({0: -4e-13, 10: 4e-13}, 10),    # round-off favours a longer word
    ({0: -5e-12}, 0),                # a real difference, beyond the tie width
])
def test_the_search_breaks_exact_ties_by_gross_tokens_then_r(ht_gateset, ht_params,
                                                             monkeypatch, nudge, pick):
    # every depth-1 pair is made (I, B_r) with B_r a stored word, so every
    # candidate B_r B_r^dag W has W's product in exact arithmetic and differs
    # only by round-off.  B_r has 3 tokens at r = 10 and 22 and 6 elsewhere, so the
    # fewest gross tokens, then the lowest r, give r = 10, whichever
    # candidate round-off makes closest; nudge shifts the error of pair r
    # by the given amount to act as that round-off
    net = ht_params.net
    sizes = np.diff(net.offsets)
    short, long_ = np.flatnonzero(sizes == 3)[:2], np.flatnonzero(sizes == 6)[:32]
    words = {r: long_[r] for r in range(32)} | {10: short[0], 22: short[1]}
    target = random_su(2, np.random.default_rng(62))
    target_q = su2_to_quaternion(target)

    def pairs_of_stored_words(deltas, angles=None):
        q = np.zeros((2, len(deltas), len(angles), 4))
        q[0, ..., 0] = 1.0
        q[1] = su2_to_quaternion(net.products[[words[r] for r in range(len(angles))]])
        return q

    nudged = []

    def nudged_products(a, b):
        # the 16 candidates' products: their last factor is W's one row
        q = qmul(a, b)
        if q.shape == (16, 4) and np.shape(b) == (1, 4):
            d = q - target_q
            shift = np.array([nudge.get(r, 0.0) for r in range(0, 32, 2)])
            q = target_q + d * (1 + shift / np.linalg.norm(d, axis=-1))[:, None]
            nudged.append(np.linalg.norm(d, axis=-1))
        return q

    monkeypatch.setattr(skbase, "balanced_commutator_decompose", pairs_of_stored_words)
    monkeypatch.setattr(skbase, "qmul", nudged_products)
    (_, w0, *_), (depth, signed, _, _, r) = itertools.islice(
        sk_depths(ht_gateset, target, ht_params), 2)
    assert len(nudged) == 1 and np.ptp(nudged[0]) < 1e-14  # tied before the nudge
    assert depth == 1 and r == pick
    assert signed.tolist() == [0, words[pick], ~0, ~words[pick], w0[0]]


def _every_yield(gs, target, params, eps):
    """(depth, error, rotation) of every word sk_depths yields to a consumer
    that rejects them all, up to the depth cap."""
    got = []
    with pytest.raises(NetTooCoarse):
        for depth, _, _, err, r in sk_depths(gs, target, params, eps):
            got.append((depth, err, r))
    return got


def test_one_word_per_depth_at_eps_zero_and_in_the_plain_recursion(ht_gateset, ht_params,
                                                                   monkeypatch):
    # no depth is a near miss at eps = 0, and the plain recursion has no
    # midpoint pairs to search, even at an eps that one depth misses by 1.2x
    params = dataclasses.replace(ht_params, max_depth=4)
    rng = np.random.default_rng(51)
    for _ in range(4):
        t = random_su(2, rng)
        assert [d for d, *_ in _every_yield(ht_gateset, t, params, 0.0)] == [0, 1, 2, 3, 4]
        with monkeypatch.context() as m:
            _plain(m)
            errors = [e for _, e, _ in _every_yield(ht_gateset, t, params, 0.0)]
            for eps in [e / 1.2 for e in errors[1:]]:
                got = _every_yield(ht_gateset, t, params, eps)
                assert [(d, r) for d, _, r in got] == [(d, 0) for d in range(5)]
                assert [e for _, e, _ in got] == errors


def test_a_depth_comes_again_only_with_a_smaller_error(ht_gateset, ht_params, monkeypatch):
    # a consumer that rejects every word: yielded depths never decrease, a
    # depth comes at most twice, and the second word of a depth is a
    # midpoint pair (odd rotation), strictly closer than the first, which
    # came within NEAR_MISS of eps.  The next depth starts from the first
    # word: with every midpoint made the plain pair, which is never closer,
    # the words are the first words of each depth
    params = dataclasses.replace(ht_params, max_depth=4)
    decompose = skbase.balanced_commutator_decompose

    def plain_midpoints(deltas, angles=None):
        ab = decompose(deltas, angles)
        if angles is not None:
            ab[:, :, 1::2] = ab[:, :, :1]
        return ab

    rng = np.random.default_rng(52)
    again = 0
    for _ in range(6):
        t = random_su(2, rng)
        errors = [e for _, e, _ in _every_yield(ht_gateset, t, params, 0.0)]
        for eps in [e / 1.2 for e in errors[1:]] + [1e-3]:
            got = _every_yield(ht_gateset, t, params, eps)
            with monkeypatch.context() as m:
                m.setattr(skbase, "balanced_commutator_decompose", plain_midpoints)
                firsts = _every_yield(ht_gateset, t, params, eps)
            assert firsts == [g for i, g in enumerate(got) if i == 0 or got[i - 1][0] < g[0]]
            depths = [d for d, *_ in got]
            assert depths == sorted(depths) and depths[-1] == 4
            assert all(depths.count(d) in (1, 2) for d in range(5))
            assert depths.count(0) == 1
            assert got[0][2] == 0
            for (d0, e0, r0), (d1, e1, r1) in zip(got, got[1:]):
                if d1 == d0:
                    assert r0 % 2 == 0 and r1 % 2 == 1 and e1 < e0 <= NEAR_MISS * eps
                    again += 1
                else:
                    assert r1 % 2 == 0
    assert again >= 10


def test_sk_compile_passes_the_old_plateau(ht_gateset):
    # depth 6 gets below 1e-7 only if the commutator step keeps its digits
    # near the identity; theta = 2 arccos(w) loses half of them there, and
    # the SK error then levels off near 3e-7.  The word's own product is
    # the target's up to sign
    params = dataclasses.replace(base_params(ht_gateset, 12), max_depth=6)
    for seed in (0, 1, 2):
        t = random_su(2, np.random.default_rng(seed))
        w = _first_within(ht_gateset, t, 1e-7, params)
        assert dist(w.product, t) <= 1e-7
        assert dist(word_product(extended_generators(ht_gateset), w.tokens), t,
                    ht_gateset.phase_candidates) <= 1e-7


def test_sk_compile_deep_recursion(ht_gateset):
    # depth 7 reaches 1e-10 with words of about 610k tokens, measured up to
    # sign by an independent product of the tokens
    params = dataclasses.replace(base_params(ht_gateset, 12), max_depth=7)
    gens = extended_generators(ht_gateset)
    for seed in (0, 1, 2):
        t = random_su(2, np.random.default_rng(seed))
        w = _first_within(ht_gateset, t, 1e-10, params)
        assert dist(word_product(gens, w.tokens), t, ht_gateset.phase_candidates) <= 1e-10
