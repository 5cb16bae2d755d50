"""Word-product nets: enumeration, nearest queries, persistence."""

import json

import numpy as np
import pytest

from irrepsk import build_gateset_net, load_net, parse_gateset, save_net
from irrepsk.errors import BudgetExceeded, FormatError, StaleGateSet
from irrepsk.linalg import (dist, quaternion_to_su2, random_sl_near_identity, random_su,
                            su2_to_quaternion)
from irrepsk.net import extended_generators, probe_density
from irrepsk.skbase import rotation
from scipy.linalg import expm


@pytest.fixture(scope="module")
def pauli_only():
    return parse_gateset({"dimension": 2, "mode": "su", "irrep": {"builtin": "pauli"}})


def test_pauli_words_close_into_eight_products(pauli_only):
    # su-form Pauli products land exactly in {+-I, +-X, +-Y, +-Z}
    net = build_gateset_net(pauli_only, 2)
    assert len(net) == 8
    net3 = build_gateset_net(pauli_only, 3)
    assert len(net3) == 8


def test_zero_length_net_is_identity_only(pauli_only):
    net = build_gateset_net(pauli_only, 0)
    assert len(net) == 1
    assert net.words[0] == ()
    assert np.allclose(net.products[0], np.eye(2), atol=1e-15)


def test_nearest_matches_brute_force(ht_gateset):
    net = build_gateset_net(ht_gateset, 5)
    rng = np.random.default_rng(21)
    for _ in range(100):
        t = random_su(2, rng)
        word, got = net.nearest(t)
        brute = dist(net.products, t).min()
        assert got == pytest.approx(brute, abs=1e-8)
        assert dist(word.product, t) == pytest.approx(got, abs=1e-8)


def test_nearest_on_near_identity_target(pauli_only):
    # exp(0.1 i X) is closer to I than to any su-form Pauli
    net = build_gateset_net(pauli_only, 1)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    word, got = net.nearest(expm(0.1j * x))
    assert word.tokens.tolist() == []
    assert got == pytest.approx(2 * np.sin(0.05), abs=1e-9)


def test_nearest_tie_break_prefers_store_order(ht_gateset):
    net = build_gateset_net(ht_gateset, 3)
    # the identity product duplicates many times; dedup keeps the first,
    # so an exact identity query returns the empty word
    word, got = net.nearest(np.eye(2))
    assert word.tokens.tolist() == []
    # the quaternion distance has no cancellation, so an exact hit reads 0
    assert got == 0.0


def test_nearest_equidistant_pauli_goes_to_store_order(pauli_only):
    # a quarter turn about x, y or z lies 2 sin(pi/8) from I and, for +pi/2,
    # equally far from that axis's su-form Pauli; the empty word comes first
    net = build_gateset_net(pauli_only, 1)
    for axis in np.eye(3):
        for angle in (np.pi / 2, -np.pi / 2):
            t = rotation(axis, angle)
            word, got = net.nearest(t)
            assert word.tokens.tolist() == []
            assert got == pytest.approx(2 * np.sin(np.pi / 8), abs=1e-15)
        ds = dist(net.products, rotation(axis, np.pi / 2))
        assert np.sum(ds <= ds[0] + 1e-12) == 2


def test_midpoint_ties_go_to_store_order(ht_gateset):
    # the quaternion midpoint of two stored products is equidistant from
    # both; over the Clifford-rich length-3 net many such targets tie with
    # two or more products, and the k-d tree alone returns any of them
    net = build_gateset_net(ht_gateset, 3)
    q = su2_to_quaternion(net.products)
    ties = 0
    for a in range(len(net)):
        for b in range(a + 1, len(net)):
            m = q[a] + q[b]
            if np.linalg.norm(m) < 1e-6:
                continue
            t = quaternion_to_su2(m / np.linalg.norm(m))
            ds = dist(net.products, t)
            tied = np.nonzero(ds <= ds.min() + 1e-12)[0]
            ties += len(tied) > 1
            assert net.nearest(t)[0].tokens.tolist() == list(net.words[tied[0]])
    assert ties > 500


@pytest.fixture(scope="module")
def ht_base8(ht_gateset):
    net = build_gateset_net(ht_gateset, 8, with_inverses=True)
    assert len(net) == 960
    return net


def test_index_matches_svd_brute_force(ht_base8):
    rng = np.random.default_rng(24)
    for _ in range(200):
        t = random_su(2, rng)
        word, got = ht_base8.nearest(t)
        svd = dist(ht_base8.products, t)
        i = int(np.argmin(svd))
        assert word.tokens.tolist() == list(ht_base8.words[i])
        assert got == pytest.approx(svd[i], abs=1e-14)


def test_batched_query_keeps_the_tie_rule(ht_gateset, ht_base8):
    # nearest asks query one row at a time; a whole batch must pick the
    # same store index, on the midpoint ties above and on Haar targets
    net = build_gateset_net(ht_gateset, 3)
    q = su2_to_quaternion(net.products)
    mid = q[:, None] + q[None]
    mid = mid[np.triu_indices(len(net), 1)]
    norm = np.linalg.norm(mid, axis=1, keepdims=True)
    mid = mid[norm[:, 0] >= 1e-6] / norm[norm[:, 0] >= 1e-6]
    rng = np.random.default_rng(29)
    haar = su2_to_quaternion(np.array([random_su(2, rng) for _ in range(200)]))
    for store, targets in ((net, mid), (ht_base8, haar)):
        idx, d = store.query(targets)
        for t, i, di in zip(targets, idx, d):
            word, got = store.nearest(quaternion_to_su2(t))
            assert word.tokens.tolist() == list(store.words[i]) and got == di
    d, _ = net._tree.query(mid, k=2)
    assert np.count_nonzero(d[:, 1] - d[:, 0] <= 1e-12) > 500


def test_index_is_exact_near_a_stored_product(ht_base8):
    # ||P - P R|| = ||I - R|| = 2 sin(theta / 4) for a rotation R by theta;
    # a scan through sqrt(2 - Re tr) misses this by up to ~1e-8
    rng = np.random.default_rng(25)
    for j in rng.choice(len(ht_base8), size=5, replace=False):
        axis = rng.normal(size=3)
        for k in range(3, 13):
            theta = 10.0 ** -k
            t = ht_base8.products[j] @ rotation(axis, theta)
            word, got = ht_base8.nearest(t)
            assert word.tokens.tolist() == list(ht_base8.words[j])
            assert abs(got - 2 * np.sin(theta / 4)) <= 1e-15


def test_off_group_target_falls_back_to_svd(ht_gateset):
    # none of these targets is in SU(2), so each query scans with the SVD
    # and the quaternion index stays unbuilt
    net = build_gateset_net(ht_gateset, 4)
    u = random_su(2, np.random.default_rng(28))
    targets = [
        # plain Hadamard is unitary with det -1, far from every SU(2) product
        (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), 0.5),
        # a scaled SU(2) matrix is not unitary
        ((1 + 1e-7) * u, 0.0),
        # a phase e^{i pi/4} takes a unitary off det 1
        (np.exp(1j * np.pi / 4) * u, 0.0),
    ]
    for t, floor in targets:
        word, got = net.nearest(t)
        svd = dist(net.products, t)
        i = int(np.argmin(svd))
        assert word.tokens.tolist() == list(net.words[i])
        assert got == svd[i]
        assert got > floor
    assert net._tree is None


def test_sl_net_queries_match_svd(slp_net):
    rng = np.random.default_rng(26)
    for _ in range(20):
        t = random_sl_near_identity(2, rng, 0.3)
        word, got = slp_net.nearest(t)
        svd = dist(slp_net.products, t)
        i = int(np.argmin(svd))
        assert word.tokens.tolist() == list(slp_net.words[i])
        assert got == svd[i]


def test_words_do_not_exceed_length(ht_gateset):
    net = build_gateset_net(ht_gateset, 4)
    assert max(len(w) for w in net.words) <= 4
    # BFS stores shorter words first
    lens = [len(w) for w in net.words]
    assert lens == sorted(lens)


def test_extended_generators_appends_inverses(ht_gateset):
    gens = extended_generators(ht_gateset)
    n = len(ht_gateset.matrices)
    assert gens.shape[0] == 2 * n - 1  # identity is not duplicated
    for k in range(n, gens.shape[0]):
        base = ht_gateset.matrices[k - n + 1]
        assert np.allclose(gens[k] @ base, np.eye(2), atol=1e-12)


def test_probe_density_reports_coverage(ht_gateset):
    rng = np.random.default_rng(22)
    coarse = build_gateset_net(ht_gateset, 4)
    fine = build_gateset_net(ht_gateset, 8)
    dc = probe_density(coarse, 50, rng)
    df = probe_density(fine, 50, np.random.default_rng(22))
    assert 0 < df < dc < 2.0


def test_save_load_roundtrip(tmp_path, ht_gateset):
    net = build_gateset_net(ht_gateset, 4)
    p = tmp_path / "net.json"
    save_net(net, p)
    back = load_net(p, ht_gateset)
    assert back.words == net.words
    assert np.array_equal(back.products, net.products)
    assert back.fingerprint == net.fingerprint


def test_load_net_rejects_other_gateset(tmp_path, ht_gateset, skew_gateset):
    net = build_gateset_net(ht_gateset, 3)
    p = tmp_path / "net.json"
    save_net(net, p)
    with pytest.raises(StaleGateSet):
        load_net(p, skew_gateset)


def test_load_net_rejects_corrupt_file(tmp_path, ht_gateset):
    net = build_gateset_net(ht_gateset, 3)
    p = tmp_path / "net.json"
    save_net(net, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")  # word-count mismatch
    with pytest.raises(FormatError):
        load_net(p, ht_gateset)
    # same count, different word: the recomputed-product digest must catch it
    tampered = lines[:]
    tampered[-1] = "0 0 0"
    p.write_text("\n".join(tampered) + "\n")
    with pytest.raises(FormatError):
        load_net(p, ht_gateset)
    p.write_text("{ truncated")
    with pytest.raises(FormatError):
        load_net(p, ht_gateset)
    # malformed header fields, and a net an older version cut short
    for key, value in (("word_length", "three"), ("dedup_tol", None),
                       ("achieved_density", "low"), ("usable", False)):
        header = json.loads(lines[0]) | {key: value}
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(FormatError, match="header|truncated"):
            load_net(p, ht_gateset)


def test_budget_raises_budget_exceeded(ht_gateset):
    with pytest.raises(BudgetExceeded, match="budget 20 exceeded at word length"):
        build_gateset_net(ht_gateset, 4, budget=20)
    assert len(build_gateset_net(ht_gateset, 2, budget=100)) <= 100


def test_inverse_extended_net_roundtrip(tmp_path, ht_gateset):
    net = build_gateset_net(ht_gateset, 3, with_inverses=True)
    p = tmp_path / "ext.json"
    save_net(net, p)
    back = load_net(p, ht_gateset, with_inverses=True)
    assert back.words == net.words
    with pytest.raises(StaleGateSet):
        load_net(p, ht_gateset)  # flag mismatch changes the fingerprint


def test_reloaded_base_net_answers_like_the_built_one(tmp_path, ht_gateset):
    net = build_gateset_net(ht_gateset, 6, with_inverses=True)
    p = tmp_path / "base.json"
    save_net(net, p)
    back = load_net(p, ht_gateset, with_inverses=True)
    rng = np.random.default_rng(27)
    for _ in range(50):
        t = random_su(2, rng)
        assert back.nearest(t)[0].tokens.tolist() == net.nearest(t)[0].tokens.tolist()


def test_distances_match_aligned_queries(ht_gateset):
    net = build_gateset_net(ht_gateset, 4)
    rng = np.random.default_rng(23)
    t = random_su(2, rng)
    ds = dist(net.products, t)
    assert ds.shape == (len(net),)
    k = int(rng.integers(len(net)))
    assert ds[k] == pytest.approx(dist(net.products[k], t), abs=1e-12)
