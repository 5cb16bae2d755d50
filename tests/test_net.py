"""Word-product nets: enumeration, nearest queries, persistence."""

import numpy as np
import pytest

from irrepsk import build_gateset_net, load_net, parse_gateset, save_net
from irrepsk.errors import FormatError, StaleGateSet
from irrepsk.linalg import dist, random_su
from irrepsk.net import extended_generators, probe_density
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
        brute = min(dist(p, t) for p in net.products)
        assert got == pytest.approx(brute, abs=1e-8)
        assert dist(word.product, t) == pytest.approx(got, abs=1e-8)


def test_nearest_on_near_identity_target(pauli_only):
    # exp(0.1 i X) is closer to I than to any su-form Pauli
    net = build_gateset_net(pauli_only, 1)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    word, got = net.nearest(expm(0.1j * x))
    assert word.tokens == ()
    assert got == pytest.approx(2 * np.sin(0.05), abs=1e-9)


def test_nearest_tie_break_prefers_store_order(ht_gateset):
    net = build_gateset_net(ht_gateset, 3)
    # the identity product duplicates many times; dedup keeps the first,
    # so an exact identity query returns the empty word
    word, got = net.nearest(np.eye(2))
    assert word.tokens == ()
    # the bulk SU(2) scan loses half its digits near zero; exactness is not
    # promised below sqrt(eps_machine)
    assert got <= 1e-7


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


def test_budget_marks_net_unusable(ht_gateset):
    net = build_gateset_net(ht_gateset, 4, budget=20)
    assert not net.usable
    assert len(net) <= 20


def test_inverse_extended_net_roundtrip(tmp_path, ht_gateset):
    net = build_gateset_net(ht_gateset, 3, with_inverses=True)
    p = tmp_path / "ext.json"
    save_net(net, p)
    back = load_net(p, ht_gateset, with_inverses=True)
    assert back.words == net.words
    with pytest.raises(StaleGateSet):
        load_net(p, ht_gateset)  # flag mismatch changes the fingerprint


def test_distances_match_aligned_queries(ht_gateset):
    net = build_gateset_net(ht_gateset, 4)
    rng = np.random.default_rng(23)
    t = random_su(2, rng)
    ds = net.distances_to(t)
    assert ds.shape == (len(net),)
    k = int(rng.integers(len(net)))
    assert ds[k] == pytest.approx(dist(net.products[k], t), abs=1e-7)
