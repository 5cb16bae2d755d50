"""Word-product nets: enumeration, nearest queries, persistence."""

import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import irrepsk.net
from irrepsk import (EpsNet, build_gateset_net, load_gateset, load_net, parse_gateset,
                     save_net)
from irrepsk.errors import BudgetExceeded, DimUnsupported, EmptyNet, FormatError, StaleGateSet
from irrepsk.linalg import dist, quaternion_to_su2, random_su, su2_to_quaternion
from irrepsk.gateset import word_product
from irrepsk.net import (REACH, auto_net, build_net, extended_generators, extended_inverse,
                         free_reduce, probe_density)
from irrepsk.skbase import rotation, sk_depths
from scipy.linalg import expm
from scipy.spatial import cKDTree

# an SU(2) net stores and answers up to sign
SIGNS = (1.0, -1.0)
ROOT = Path(__file__).resolve().parent.parent
GATESETS = ROOT / "gatesets"
TPRIME = ROOT / "perfbench" / "gatesets" / "pauli_ht_tprime.json"


def nearest_of(net, targets):
    """Store indices and distances of net.nearest for a stack of SU(2)
    matrices."""
    hits, d = net.nearest(su2_to_quaternion(np.asarray(targets)))
    return hits % len(net), d


def words_of(net) -> list[tuple[int, ...]]:
    """The net's words as tuples of Python ints, in store order."""
    tokens, offsets = net.tokens.tolist(), net.offsets.tolist()
    return [tuple(tokens[a:b]) for a, b in zip(offsets, offsets[1:])]


@pytest.fixture(scope="module")
def pauli_only():
    return parse_gateset({"dimension": 2, "mode": "su", "irrep": {"builtin": "pauli"}})


def test_pauli_words_close_into_eight_products(pauli_only):
    # su-form Pauli products land exactly in {+-I, +-X, +-Y, +-Z}, which an
    # SU(2) net stores up to sign: the four words of length at most 1
    net = build_gateset_net(pauli_only, 2)
    assert len(net) == 4
    assert words_of(net) == [(), (1,), (2,), (3,)]
    net3 = build_gateset_net(pauli_only, 3)
    assert len(net3) == 4


def test_zero_length_net_is_identity_only(pauli_only):
    net = build_gateset_net(pauli_only, 0)
    assert len(net) == 1
    assert words_of(net) == [()]
    assert np.allclose(net.products[0], np.eye(2), atol=1e-15)


def test_empty_net_raises_at_construction():
    # the builder and load_net always store the empty word; a net without
    # it is refused before any query reaches it
    with pytest.raises(EmptyNet):
        EpsNet(dim=2, mode="su", word_length=0, dedup_tol=1e-3, fingerprint="",
               tokens=np.zeros(0, np.uint8), offsets=np.zeros(1, np.intp),
               parents=np.zeros(0, np.intp), products=np.zeros((0, 2, 2), complex))


def test_nearest_matches_brute_force(ht_gateset):
    net = build_gateset_net(ht_gateset, 5)
    rng = np.random.default_rng(21)
    targets = [random_su(2, rng) for _ in range(100)]
    for t, i, got in zip(targets, *nearest_of(net, targets)):
        brute = dist(net.products, t, SIGNS).min()
        assert got == pytest.approx(brute, abs=1e-8)
        assert dist(net.word(i).product, t, SIGNS) == pytest.approx(got, abs=1e-8)


def test_nearest_on_near_identity_target(pauli_only):
    # exp(0.1 i X) is closer to I than to any su-form Pauli
    net = build_gateset_net(pauli_only, 1)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    (i,), (got,) = nearest_of(net, [expm(0.1j * x)])
    assert net.word(i).tokens.tolist() == []
    assert got == pytest.approx(2 * np.sin(0.05), abs=1e-9)


def test_nearest_tie_break_prefers_store_order(ht_gateset):
    net = build_gateset_net(ht_gateset, 3)
    # the identity product duplicates many times; dedup keeps the first,
    # so an exact identity query returns the empty word
    (i,), (got,) = nearest_of(net, [np.eye(2)])
    assert i == 0 and net.word(i).tokens.tolist() == []
    # the quaternion distance has no cancellation, so an exact hit reads 0
    assert got == 0.0


def test_nearest_equidistant_pauli_goes_to_store_order(pauli_only):
    # a quarter turn about x, y or z lies 2 sin(pi/8) from I and, for +pi/2,
    # equally far from that axis's su-form Pauli; the empty word comes first
    net = build_gateset_net(pauli_only, 1)
    i, got = nearest_of(net, [rotation(axis, angle) for axis in np.eye(3)
                              for angle in (np.pi / 2, -np.pi / 2)])
    assert i.tolist() == [0] * 6
    assert np.abs(got - 2 * np.sin(np.pi / 8)).max() <= 1e-15
    for axis in np.eye(3):
        ds = dist(net.products, rotation(axis, np.pi / 2))
        assert np.sum(ds <= ds[0] + 1e-12) == 2


def test_midpoint_ties_go_to_store_order(ht_gateset):
    # the quaternion midpoint of two stored products, or of one and the
    # other's negation, is equidistant from both up to sign; over the
    # Clifford-rich length-3 net many such targets tie with two or more
    # products, and the k-d tree alone returns any of them
    net = build_gateset_net(ht_gateset, 3)
    q = su2_to_quaternion(net.products)
    targets, first, ties = [], [], 0
    for a, b, z in itertools.product(range(len(net)), range(len(net)), SIGNS):
        m = q[a] + z * q[b]
        if b <= a or np.linalg.norm(m) < 1e-6:
            continue
        t = quaternion_to_su2(m / np.linalg.norm(m))
        ds = dist(net.products, t, SIGNS)
        tied = np.nonzero(ds <= ds.min() + 1e-12)[0]
        ties += len(tied) > 1
        targets.append(t)
        first.append(tied[0])
    assert nearest_of(net, targets)[0].tolist() == first
    assert ties > 500


@pytest.fixture(scope="module")
def ht_base8(ht_gateset):
    net = build_gateset_net(ht_gateset, 8, with_inverses=True)
    assert len(net) == 480
    return net


def two_sheets(net, q):
    """Reference for EpsNet.nearest on an (n, 4) stack: the distances to every
    stored quaternion and to its negation, brute force, and among those
    within 1e-12 of the smallest the lowest word index, then sign +1.
    Returns (index, sign, distance, tied) per row, tied the number of
    quaternions within 1e-12 of the smallest distance."""
    p = su2_to_quaternion(net.products)
    d = np.linalg.norm(q[:, None] - np.concatenate([p, -p])[None], axis=-1)
    out = []
    for row in d:
        tied = np.flatnonzero(row <= row.min() + 1e-12)
        j = min(tied.tolist(), key=lambda k: (k % len(net), k))
        out.append((j % len(net), 1.0 if j < len(net) else -1.0, row.min(), len(tied)))
    return out


def test_index_matches_svd_brute_force(ht_base8):
    rng = np.random.default_rng(24)
    targets = [random_su(2, rng) for _ in range(200)]
    for t, i, got in zip(targets, *nearest_of(ht_base8, targets)):
        svd = dist(ht_base8.products, t, SIGNS)
        assert i == np.argmin(svd)
        assert got == pytest.approx(svd[i], abs=1e-14)


def test_query_matches_a_two_sheet_brute_force(ht_gateset, ht_base8):
    # Haar targets, targets on the equator w = 0 (where q and -q of a
    # stored product are equally near), the stored products and their
    # negations, and midpoints of stored pairs of either sign, which tie
    net = build_gateset_net(ht_gateset, 3)
    p = su2_to_quaternion(net.products)
    rng = np.random.default_rng(63)
    haar = rng.normal(size=(300, 4))
    equator = haar[:100] * [0.0, 1, 1, 1]
    mid = np.concatenate([p[:, None] + p[None], p[:, None] - p[None]]).reshape(-1, 4)
    mid = mid[np.linalg.norm(mid, axis=1) >= 1e-6]
    ties = 0
    for store, q in ((ht_base8, np.concatenate([haar, equator])), (net, np.concatenate(
            [p, -p, mid[rng.choice(len(mid), 600, replace=False)]]))):
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        hits, d = store.nearest(q)
        ref = two_sheets(store, q)
        i, sign = hits % len(store), np.where(hits < len(store), 1.0, -1.0)
        assert i.tolist() == [r[0] for r in ref] and sign.tolist() == [r[1] for r in ref]
        assert np.abs(d - [r[2] for r in ref]).max() <= 1e-15
        # the signed quaternion is the near one
        signed = store.signed(hits)
        assert np.array_equal(signed, sign[:, None] * su2_to_quaternion(store.products[i]))
        assert np.abs(np.linalg.norm(signed - q, axis=1) - d).max() <= 1e-15
        ties += sum(r[3] > 1 for r in ref)
    assert ties > 100


def test_batched_query_keeps_the_tie_rule(ht_gateset, ht_base8):
    # a whole batch must pick the same hit and distance as one row at a
    # time, on the midpoint ties above (of either sign) and on Haar targets
    net = build_gateset_net(ht_gateset, 3)
    q = su2_to_quaternion(net.products)
    mid = np.concatenate([(q[:, None] + z * q[None])[np.triu_indices(len(net), 1)]
                          for z in SIGNS])
    norm = np.linalg.norm(mid, axis=1, keepdims=True)
    mid = mid[norm[:, 0] >= 1e-6] / norm[norm[:, 0] >= 1e-6]
    rng = np.random.default_rng(29)
    haar = su2_to_quaternion(np.array([random_su(2, rng) for _ in range(200)]))
    for store, targets in ((net, mid), (ht_base8, haar)):
        hits, d = store.nearest(targets)
        for t, j, dj in zip(targets, hits, d):
            (one,), (one_d,) = store.nearest(t[None])
            assert one == j and one_d == dj
    d, _ = net._tree.query(mid, k=2)
    assert np.count_nonzero(d[:, 1] - d[:, 0] <= 1e-12) > 500


def test_index_is_exact_near_a_stored_product(ht_base8):
    # ||P - P R|| = ||I - R|| = 2 sin(theta / 4) for a rotation R by theta;
    # a scan through sqrt(2 - Re tr) misses this by up to ~1e-8
    rng = np.random.default_rng(25)
    stored = rng.choice(len(ht_base8), size=5, replace=False)
    thetas = 10.0 ** -np.arange(3, 13)
    targets = []
    for j in stored:
        axis = rng.normal(size=3)
        targets += [ht_base8.products[j] @ rotation(axis, theta) for theta in thetas]
    i, got = nearest_of(ht_base8, targets)
    assert i.tolist() == np.repeat(stored, len(thetas)).tolist()
    assert np.abs(got - 2 * np.sin(np.tile(thetas, 5) / 4)).max() <= 1e-15


def test_sl_net_has_no_lookup(slp_net):
    # an sl net's products are not unitary: a tree over their first rows
    # would answer with wrong distances, so the lookup refuses before
    # building one
    with pytest.raises(DimUnsupported):
        slp_net.nearest(np.array([[1.0, 0, 0, 0]]))
    assert slp_net._tree is None


def test_words_do_not_exceed_length(ht_gateset):
    net = build_gateset_net(ht_gateset, 4)
    lens = np.diff(net.offsets).tolist()
    assert max(lens) <= 4
    # BFS stores shorter words first
    assert lens == sorted(lens)


def test_extended_generators_appends_inverses(ht_gateset):
    # only T's inverse is no generator up to sign
    gens = extended_generators(ht_gateset)
    inverse = extended_inverse(ht_gateset)
    n = len(ht_gateset.matrices)
    assert gens.shape[0] == n + 1
    assert np.array_equal(gens[:n], ht_gateset.matrices)
    for k in range(n, gens.shape[0]):
        assert np.allclose(gens[k] @ ht_gateset.matrices[inverse[k]], np.eye(2), atol=1e-12)


def _stack_reduce(tokens, inverse) -> list[int]:
    """Reference free reduction: one token at a time onto a stack, popping
    it instead when it cancels the top."""
    out = []
    for t in tokens:
        if out and out[-1] == inverse[t]:
            out.pop()
        else:
            out.append(t)
    return out


def _laid_out(net, signed, inverse) -> list[int]:
    """Reference gather without the reduction: the named words end to end,
    ~i read back to front through inverse, one word at a time."""
    out = []
    for s in np.asarray(signed).tolist():
        w = net.word(s if s >= 0 else ~s).tokens.tolist()
        out += w if s >= 0 else [int(inverse[t]) for t in reversed(w)]
    return out


def _check_reduced(gs, net, signed):
    """gather(signed) against the stack reduction of the laid-out words:
    equal, idempotent, with no g inverse[g] left, and with the product of
    the laid-out word to 4 len 2^-52, up to sign (g inverse[g] is -I for
    g = X)."""
    inverse = np.asarray(extended_inverse(gs))
    gens = extended_generators(gs)
    laid = _laid_out(net, signed, inverse)
    got = net.gather(np.asarray(signed, dtype=np.intp), inverse)
    assert got.tolist() == _stack_reduce(laid, inverse)
    assert free_reduce(got, inverse).tolist() == got.tolist()
    assert not np.any(got[1:] == inverse[got[:-1]])
    assert (dist(word_product(gens, got), word_product(gens, laid), SIGNS)
            <= 4 * max(1, len(laid)) * 2.0 ** -52)
    return len(laid), len(got)


def test_gather_reduces_like_a_stack_on_random_signed_words(ht_gateset, ht_params):
    # pieces of random signed words: single words either way round, the
    # empty word (0 and ~0), whole-word pairs i ~i, and runs of words
    # followed by their inverse; a run of 40 or more tokens cascades deeper
    # than one round's REACH
    net = ht_params.net
    lengths = np.diff(net.offsets)
    rng = np.random.default_rng(60)
    deepest = 0
    for _ in range(150):
        signed = []
        for _ in range(rng.integers(1, 8)):
            kind = rng.integers(5)
            i = int(rng.integers(1, len(net)))
            if kind == 0:
                signed.append(i if rng.integers(2) else ~i)
            elif kind == 1:
                signed.append(0 if rng.integers(2) else ~0)
            elif kind == 2:
                signed += [i, ~i] if rng.integers(2) else [~i, i]
            else:
                run = rng.integers(1, len(net), size=rng.integers(1, 8)).tolist()
                if kind == 4:  # at least 40 tokens, with empty words inside
                    while lengths[run].sum() < 40:
                        run.append(int(rng.integers(1, len(net))))
                    run.insert(int(rng.integers(len(run))), 0)
                signed += run + [~j for j in reversed(run)]
                deepest = max(deepest, int(lengths[run].sum()))
        _check_reduced(ht_gateset, net, signed)
    assert deepest >= 40 > REACH


def test_gather_reduces_like_a_stack_on_the_pinned_base_words(ht_gateset, ht_params):
    # every word sk_depths yields up to depth 3 for the five pauli_ht targets
    # that test_refine.py's word pins compile at 1e-3; most of them shrink
    rng = np.random.default_rng(7)
    shrunk = 0
    for _ in range(5):
        for _, signed, *_ in itertools.islice(sk_depths(ht_gateset, random_su(2, rng),
                                                        ht_params, 1e-3), 4):
            laid, got = _check_reduced(ht_gateset, ht_params.net, signed)
            shrunk += got < laid
    assert shrunk >= 10


def test_free_reduce_handles_the_edges():
    inverse = np.array([0, 3, 4, 1, 2])
    assert free_reduce(np.zeros(0, np.intp), inverse).tolist() == []
    assert free_reduce(np.array([1]), inverse).tolist() == [1]
    assert free_reduce(np.array([0, 0]), inverse).tolist() == []  # the identity
    # a word of 2 REACH tokens followed by its inverse, and a pair left over
    w = np.tile([1, 2], REACH)
    word = np.concatenate([[2], w, inverse[w[::-1]], [3]])
    assert free_reduce(word, inverse).tolist() == [2, 3]


def test_free_reduce_cancels_involutions(ht_gateset):
    # X, Y, Z and H are their own inverses up to sign, so g g cancels for
    # them, cascading, and T T^-1 as before
    inverse = extended_inverse(ht_gateset)
    assert inverse[[1, 2, 3, 4]].tolist() == [1, 2, 3, 4]
    assert free_reduce(np.array([4, 1, 1, 4]), inverse).tolist() == []
    assert free_reduce(np.array([5, 2, 4, 4, 2, 6, 3]), inverse).tolist() == [3]
    assert free_reduce(np.array([1, 2, 2, 1, 1]), inverse).tolist() == [1]


def test_probe_density_reports_coverage(ht_gateset):
    rng = np.random.default_rng(22)
    coarse = build_gateset_net(ht_gateset, 4)
    fine = build_gateset_net(ht_gateset, 8)
    dc = probe_density(coarse, 50, rng)
    df = probe_density(fine, 50, np.random.default_rng(22))
    assert 0 < df < dc < 2.0
    # an SU(2) net answers all probes with one lookup, from the draws and
    # with the distances of one lookup per probe
    loop = np.random.default_rng(22)
    worst = max(nearest_of(fine, [random_su(2, loop)])[1][0] for _ in range(50))
    assert abs(df - worst) <= 1e-15
    assert rng.normal() == loop.normal()


def test_probe_density_on_an_sl_net(slp_gateset):
    # an sl net has no lookup: each probe scans every product, and the
    # density is the max over the draws of the min operator-norm distance
    net = build_gateset_net(slp_gateset, 3)
    got = probe_density(net, 30, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    brute = max(min(np.linalg.norm(p - random_t, 2) for p in net.products)
                for random_t in [random_su(2, rng) for _ in range(30)])
    assert got == net.achieved_density
    assert abs(got - brute) <= 1e-12


@pytest.mark.parametrize("fixture,length,with_inverses", [
    ("ht_gateset", 4, False),
    ("ht_gateset", 12, True),  # the compile_deep base net of NETS_SHA256
    ("slp_gateset", 3, False),  # sl mode
    ("pauli_only", 3, False),  # its last level is empty
], ids=["pauli_ht-L4", "pauli_ht-L12-inverses", "sl_perturbed-L3", "pauli-L3"])
def test_save_load_roundtrip(tmp_path, request, fixture, length, with_inverses):
    gs = request.getfixturevalue(fixture)
    net = build_gateset_net(gs, length, with_inverses=with_inverses)
    p = tmp_path / "net.json"
    save_net(net, p)
    back = load_net(p, gs, with_inverses=with_inverses)
    assert net_sha256(back) == net_sha256(net)
    assert np.array_equal(back.parents, net.parents) and back.parents.dtype == np.intp
    assert back.word_length == net.word_length == length
    assert back.fingerprint == net.fingerprint
    # every word is its parent, a word one shorter, plus its last token
    words = words_of(net)
    assert net.parents[0] == -1
    assert all(w[:-1] == words[i] for w, i in zip(words[1:], net.parents[1:].tolist()))
    if fixture == "pauli_only":
        assert max(map(len, words)) == 1


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
    header = json.loads(lines[0])

    def rejects(body, match=None, head=lines[0]):
        p.write_text("\n".join([head] + body) + "\n")
        with pytest.raises(FormatError, match=match):
            load_net(p, ht_gateset)

    rejects(lines[1:-1], "expected .* word lines")  # word-count mismatch
    # same count, different word: the recomputed-product digest must catch it
    parent, last = map(int, lines[-1].split())
    rejects(lines[1:-1] + [f"{parent} {(last + 1) % len(ht_gateset.matrices)}"], "digest")
    # a bad line is named, the first bad line first; line 4 holds word 3, a
    # word of length 1, whose parent is the empty word 0.  The per-line
    # checks (field count, parsing) come before the range checks
    start = header["levels"][2]  # the first word of length 2, on line start + 1
    for bad, later, match in (
            ("0 x", "x", "line 4: unparsable"),
            ("0 99999999999999999999", "x", "line 4: unparsable or out-of-range"),
            ("0", "0 1 2", "line 4: 1 fields"),
            ("0 1 2", "0", "line 4: 3 fields"),
            ("0 99", "0 -1", "line 4: generator index out of range"),
            ("0 -1", "0 99", "line 4: generator index out of range"),
            ("1 0", f"{start} 0", "line 4: parent 1 is not a word of the level before"),
            ("-1 0", "0 99", "line 4: parent -1 is not")):
        body = lines[1:]
        body[2], body[-1] = bad, later
        rejects(body, match)
    body = lines[1:]
    body[start - 1] = f"{start} 0"  # a parent of its own level
    rejects(body, f"line {start + 1}: parent {start} is not")
    rejects([], "bad net header", head="{ truncated")
    # malformed header fields
    for key, value in (("word_length", "three"), ("word_length", 4), ("dedup_tol", None),
                       ("achieved_density", "low"), ("levels", "x"), ("levels", [0, 1]),
                       ("levels", [0, 1, 0.5, 9, 30]), ("levels", [0, 1, 9, 5, 30])):
        rejects(lines[1:], "bad net header field", head=json.dumps(header | {key: value}))
    # caches of the earlier formats must be rebuilt: v1 held text of tokens,
    # and v2 held sign twins numbered in the 11-letter alphabet
    for old in ("irrepsk-net-v1", "irrepsk-net-v2"):
        rejects(lines[1:], f"'{old}', not 'irrepsk-net-v3': rebuild it with irrepsk net --out",
                head=json.dumps(header | {"format": old}))


def test_budget_raises_budget_exceeded(ht_gateset):
    with pytest.raises(BudgetExceeded, match="budget 20 exceeded at word length"):
        build_gateset_net(ht_gateset, 4, budget=20)
    assert len(build_gateset_net(ht_gateset, 2, budget=100)) <= 100


def test_budget_stops_a_level_before_its_last_chunk(ht_gateset, monkeypatch):
    # the budget is checked after every chunk: a level that would overflow
    # it is not built to its end
    below = len(build_gateset_net(ht_gateset, 5, with_inverses=True))
    full = len(build_gateset_net(ht_gateset, 6, with_inverses=True))
    monkeypatch.setattr(irrepsk.net, "CHUNK", 64)
    with pytest.raises(BudgetExceeded, match="exceeded at word length 6: ") as e:
        build_gateset_net(ht_gateset, 6, with_inverses=True, budget=(below + full) // 2)
    done, total = map(int, re.search(r"first (\d+) of (\d+) candidates", str(e.value)).groups())
    assert done < total - 64


def test_build_memory_is_bounded_by_the_chunk(ht_gateset, monkeypatch):
    # beyond the net's own arrays a build holds one chunk of candidates, each
    # under 512 B (product, Frobenius row, rounded key, sort and group
    # indices), and under 256 B per stored word (its k-d tree row and index,
    # its cell hash and sort order, and the copies a level's end makes).
    # tracemalloc sees numpy arrays, not the k-d trees' nodes
    for chunk in (irrepsk.net.CHUNK, 4096):
        monkeypatch.setattr(irrepsk.net, "CHUNK", chunk)
        tracemalloc.start()
        try:
            net = build_gateset_net(ht_gateset, 16, with_inverses=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = net.tokens.nbytes + net.offsets.nbytes + net.parents.nbytes + net.products.nbytes
        assert len(net) == 8400
        assert peak - own < 512 * chunk + 256 * len(net)


def test_inverse_extended_net_roundtrip(tmp_path, ht_gateset):
    net = build_gateset_net(ht_gateset, 3, with_inverses=True)
    p = tmp_path / "ext.json"
    save_net(net, p)
    back = load_net(p, ht_gateset, with_inverses=True)
    assert words_of(back) == words_of(net)
    with pytest.raises(StaleGateSet):
        load_net(p, ht_gateset)  # flag mismatch changes the fingerprint


def test_reloaded_base_net_answers_like_the_built_one(tmp_path, ht_gateset):
    net = build_gateset_net(ht_gateset, 6, with_inverses=True)
    p = tmp_path / "base.json"
    save_net(net, p)
    back = load_net(p, ht_gateset, with_inverses=True)
    rng = np.random.default_rng(27)
    q = su2_to_quaternion(np.array([random_su(2, rng) for _ in range(50)]))
    (hits, d), (back_hits, back_d) = net.nearest(q), back.nearest(q)
    assert np.array_equal(back_hits, hits) and back_d.tobytes() == d.tobytes()


def test_built_su2_net_queries_on_the_builders_tree(tmp_path, ht_gateset):
    # build_net builds the lookup's tree, over the quaternions of every stored
    # product in store order and then their negations
    net = build_gateset_net(ht_gateset, 10, with_inverses=True)
    assert type(net._tree) is cKDTree  # the builder's record of cells stays behind
    q = su2_to_quaternion(net.products)
    q = np.concatenate([q, -q])
    assert net._tree.data.tobytes() == q.tobytes()
    p = tmp_path / "net.json"
    save_net(net, p)
    back = load_net(p, ht_gateset, with_inverses=True)
    assert back._tree is None
    rng = np.random.default_rng(30)
    haar = rng.normal(size=(1000, 4))
    haar /= np.linalg.norm(haar, axis=1, keepdims=True)
    fresh = EpsNet(dim=2, mode="su", word_length=net.word_length, dedup_tol=net.dedup_tol,
                   fingerprint=net.fingerprint, tokens=net.tokens, offsets=net.offsets,
                   parents=net.parents, products=net.products,
                   _tree=cKDTree(q))
    hits, d = net.nearest(haar)
    for other in (fresh, back):
        other_hits, other_d = other.nearest(haar)
        assert np.array_equal(other_hits, hits) and other_d.tobytes() == d.tobytes()
        assert other.signed(hits).tobytes() == net.signed(hits).tobytes()


def test_distances_match_aligned_queries(ht_gateset):
    net = build_gateset_net(ht_gateset, 4)
    rng = np.random.default_rng(23)
    t = random_su(2, rng)
    ds = dist(net.products, t)
    assert ds.shape == (len(net),)
    k = int(rng.integers(len(net)))
    assert ds[k] == pytest.approx(dist(net.products[k], t), abs=1e-12)


def net_sha256(net) -> str:
    assert net.tokens.ndim == 1 and net.tokens.dtype.kind == "u"
    assert net.offsets.dtype == np.intp and net.offsets[0] == 0
    assert len(net.offsets) == len(net.products) + 1 == len(net) + 1
    assert net.products.dtype == complex and net.products.flags.c_contiguous
    h = hashlib.sha256(repr(words_of(net)).encode())
    h.update(net.products.tobytes())
    return h.hexdigest()


# SHA-256 of repr(words) followed by products.tobytes().  The first three,
# recorded before build_net grouped duplicate candidates, are the
# compile_deep base net, the compile_skewed refinement net and the sl-mode
# fixture; the last two, recorded while SU(2) nets were still deduplicated
# over Frobenius vectors, are the compile_bignet and compile_skewed base
# nets.  A builder change that keeps the algorithm must keep every net
# bit-identical.  The four SU(2) nets were re-recorded when SU(2) nets began
# to store each rotation once, up to sign, over an alphabet that adds only
# the inverses no generator gives up to a phase (7 letters, not 11, for both
# Pauli sets): 4128, 527, 67488 and 37816 words -> 2064, 320, 33744 and
# 18967, with hashes 35dc8ef5..., 0d6dc92d..., a5c2a1d8... and daa2ad9e...
# before.  The sl-mode net is unchanged.
NETS_SHA256 = {
    "pauli_ht L12 with inverses": "be1901f4c37a9b6cfd84fc4e3412270b072f4a0cd817eede5593195d59492e72",
    "pauli_ht_tprime L6": "d5426ae4f9059ba2afca59e4794bf5c9a60bf8bc5771736b025f4d17b8efb82e",
    "sl_perturbed L3": "76848c1e7c1d381a9871f4de5f212b9297097fd7baf82760cae5f87a2a34688e",
    "pauli_ht L20 with inverses": "224674855451b5cffdafdfdad5c721457da266028800ec601829ec8a520e2336",
    "pauli_ht_tprime L12 with inverses":
        "036cfd6cf5e639ddf6ffbb452e81d4c4e6c0e381277edd9baec4641cd4aee100",
}


def test_nets_stay_bit_identical(ht_gateset, slp_net):
    nets = {
        "pauli_ht L12 with inverses": build_gateset_net(ht_gateset, 12, with_inverses=True),
        "pauli_ht_tprime L6": build_gateset_net(load_gateset(TPRIME), 6),
        "sl_perturbed L3": slp_net,
        "pauli_ht L20 with inverses": build_gateset_net(ht_gateset, 20, with_inverses=True),
        "pauli_ht_tprime L12 with inverses":
            build_gateset_net(load_gateset(TPRIME), 12, with_inverses=True),
    }
    assert [len(n) for n in nets.values()] == [2064, 320, 42, 33744, 18967]
    assert {k: net_sha256(n) for k, n in nets.items()} == NETS_SHA256


def _vec(mats):
    flat = mats.reshape(len(mats), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def reference_net(gens, dim, word_length, tol, signs=SIGNS):
    """build_net as it was before duplicate grouping, in Frobenius vectors:
    every candidate is tested against a tree over all stored products, then
    first-wins over the pairs of its level's survivors.  Distances are up to
    sign by default, as for an SU(2) net: a tree over the stored vectors and
    their negations, and pairs of survivors a and -b.  signs=(1.0,) gives
    the sign-exact net of an sl-mode set.  Returns the words and products."""
    gens = np.asarray(gens, dtype=complex)
    words, products = [()], np.eye(dim, dtype=complex)[None]
    frontier_w, frontier_p = [()], products
    for _ in range(word_length):
        if not frontier_w:
            break
        cand = np.matmul(frontier_p[:, None], gens[None]).reshape(-1, dim, dim)
        cand_words = [w + (m,) for w in frontier_w for m in range(len(gens))]
        cv = _vec(cand)
        stored = np.concatenate([z * _vec(products) for z in signs])
        dd, _ = cKDTree(stored).query(cv, distance_upper_bound=tol * (1 + 1e-12))
        kept = np.nonzero(dd > tol)[0]
        if len(kept):
            m = len(kept)
            x = np.concatenate([z * cv[kept] for z in signs])
            pairs = {(min(a % m, b % m), max(a % m, b % m))
                     for a, b in cKDTree(x).query_pairs(tol, output_type="ndarray").tolist()
                     if a % m != b % m}
            removed = set()
            for a, b in sorted(pairs):
                if a not in removed:
                    removed.add(b)
            kept = kept[[i for i in range(len(kept)) if i not in removed]]
        frontier_w = [cand_words[i] for i in kept]
        frontier_p = cand[kept]
        words.extend(frontier_w)
        products = np.concatenate([products, frontier_p])
    return words, products


def at_each_chunk_size(monkeypatch, build):
    """build() at the module's chunk size and at 7 candidates, where chunk
    boundaries cut through duplicate groups and within-level pairs."""
    nets = []
    for chunk in (irrepsk.net.CHUNK, 7):
        monkeypatch.setattr(irrepsk.net, "CHUNK", chunk)
        nets.append(build())
    return nets


def rz(angle):
    return rotation([0, 0, 1], angle)


def frob(a, b):
    return np.linalg.norm(a - b)


def same_cell(a, b):
    # build_net groups candidates whose entries agree to 1e-9
    return np.array_equal(np.round(_vec(a[None]), 9), np.round(_vec(b[None]), 9))


def near_pair(angle, delta=1.6e-9):
    """The first angle from `angle` whose z rotations by it and by it + delta
    (about 1.1e-9 apart) fall in one 1e-9 cell: two candidates that build_net
    groups, and that a tol between their distances to a third point splits."""
    while not same_cell(rz(angle), rz(angle + delta)):
        angle += 1e-3
    assert frob(rz(angle), rz(angle + delta)) > 1e-9
    return angle, delta


def test_builder_matches_reference_across_a_stored_distance_band(monkeypatch):
    # Rz(a) and Rz(a + d) share a 1e-9 cell, and tol lies just below the
    # distance of the second to the stored identity: the reference drops the
    # first (the group's first member), about 1.1e-9 inside tol, and keeps the
    # second
    a, d = near_pair(0.7)
    tol = frob(rz(a + d), np.eye(2)) - 1e-12
    assert 1e-9 < tol - frob(rz(a), np.eye(2)) < 1e-8
    x = np.array([[0, -1j], [-1j, 0]])
    gens = np.array([np.eye(2), x, rz(a), rz(a + d), rotation([1, 1, 0], 2.1)])
    words, products = reference_net(gens, 2, 4, tol)
    assert (3,) in words and (2,) not in words
    for net in at_each_chunk_size(monkeypatch, lambda: build_net(gens, 2, "su", 4, tol)):
        assert words_of(net) == words
        assert net.products.tobytes() == products.tobytes()


def test_builder_matches_reference_across_a_pair_distance_band(monkeypatch):
    # B1 = Rz(1 + b) and B2 = Rz(1 + b + d) share a cell; tol lies just below
    # the distance of B2 to the earlier candidate A = Rz(1), so the reference
    # removes B1 by A and keeps B2, whose only other close candidate is B1
    b, d = near_pair(0.3)
    a_ = rz(1.0)
    tol = frob(a_, rz(1 + b + d)) - 1e-12
    assert 1e-9 < tol - frob(a_, rz(1 + b)) < 1e-8
    x = np.array([[0, -1j], [-1j, 0]])
    gens = np.array([np.eye(2), a_, rz(1 + b), rz(1 + b + d), x,
                     rotation([1, 2, 3], 1.3)])
    words, products = reference_net(gens, 2, 4, tol)
    assert (1,) in words and (2,) not in words and (3,) in words
    for net in at_each_chunk_size(monkeypatch, lambda: build_net(gens, 2, "su", 4, tol)):
        assert words_of(net) == words
        assert net.products.tobytes() == products.tobytes()


@pytest.mark.parametrize("tol", [0.05, 0.12, 1e-12])
def test_builder_matches_reference_on_close_distinct_candidates(tol, monkeypatch):
    # small rotations about nearby axes: distinct candidates of one level lie
    # within tol of each other in chains, where first-wins order matters.
    # Rz(a) and Rz(a + d) are 1.1e-9 apart in one 1e-9 cell; tol = 1e-12 lies
    # inside the band, so every candidate is tested and both are kept
    a, d = near_pair(0.5)
    gens = np.array([np.eye(2), rz(a), rz(a + d)]
                    + [rotation(ax, ang) for ax in ([0, 0, 1], [0, 0.1, 1], [1, 0, 0])
                       for ang in (0.2, 0.23, 0.27)])
    words, products = reference_net(gens, 2, 3, tol)
    if tol < 1e-9:
        assert (1,) in words and (2,) in words
    else:
        cand = _vec(np.matmul(gens[:, None], gens[None]).reshape(-1, 2, 2))
        d = np.linalg.norm(cand[:, None] - cand[None], axis=2)
        assert np.any((1e-6 < d) & (d <= tol))
    for net in at_each_chunk_size(monkeypatch, lambda: build_net(gens, 2, "su", 3, tol)):
        assert words_of(net) == words
        assert net.products.tobytes() == products.tobytes()


def test_builder_matches_reference_on_the_shipped_sets(ht_gateset, slp_gateset,
                                                       monkeypatch):
    for gs, length in ((ht_gateset, 9), (slp_gateset, 5), (load_gateset(TPRIME), 7)):
        nets = at_each_chunk_size(
            monkeypatch, lambda: build_gateset_net(gs, length, with_inverses=True))
        words, products = reference_net(extended_generators(gs), gs.dim, length,
                                        nets[0].dedup_tol, signs_of(gs))
        for net in nets:
            assert words_of(net) == words
            assert net.products.tobytes() == products.tobytes()


def signs_of(gs):
    """The signs an SU(2) set's nets deduplicate over; an sl-mode net is
    sign-exact."""
    return SIGNS if gs.mode == "su" and gs.dim == 2 else (1.0,)


def test_builder_matches_reference_on_the_equator(monkeypatch):
    # half turns have w = cos(pi / 2) = 6.1e-17 and three half turns
    # w = cos(3 pi / 2) = -1.8e-16: the same rotations, of opposite sign,
    # with round-off of both signs on the equator w = 0, where a rotation's
    # two quaternions are both near w = 0.  Products of half turns about
    # nearby axes lie there too, and a tol of a few degrees merges them
    # across the sign as well
    axes = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1.02, 0], [0, 1, 1], [0.03, 1, 1]]
    gens = np.array([np.eye(2)] + [rotation(a, t) for a in axes for t in (np.pi, 3 * np.pi)])
    w = su2_to_quaternion(gens[1:])[:, 0]
    assert np.all(np.abs(w) < 1e-15) and (w > 0).any() and (w < 0).any()
    for tol in (1e-9, 0.05):
        words, products = reference_net(gens, 2, 4, tol)
        assert (1,) in words and (2,) not in words  # Rx(3 pi) = -Rx(pi)
        assert np.count_nonzero(np.abs(su2_to_quaternion(products)[:, 0]) < 1e-9) >= 9
        for net in at_each_chunk_size(monkeypatch, lambda: build_net(gens, 2, "su", 4, tol)):
            assert words_of(net) == words
            assert net.products.tobytes() == products.tobytes()


def close_pairs_up_to_sign(net):
    """Pairs of stored products within the net's dedup tolerance (Frobenius)
    of each other or of each other's negation."""
    v = _vec(net.products)
    pairs = cKDTree(np.concatenate([v, -v])).query_pairs(net.dedup_tol, output_type="ndarray")
    return [(a, b) for a, b in pairs.tolist() if a % len(net) != b % len(net)]


def test_base_nets_store_each_rotation_once(ht_gateset):
    # the pauli_ht base nets hold exactly one word per rotation: no two
    # stored products lie within tol of each other up to sign, and every
    # product of the sign-exact net over the 11-letter alphabet (the
    # generators and all their inverses) lies within tol of a stored product
    # or its negation
    n = ht_gateset.gen_count
    old = np.concatenate([ht_gateset.matrices, ht_gateset.matrices[1:].conj().transpose(0, 2, 1)])
    for length, words in ((12, 2064), (20, 33744)):
        net = build_gateset_net(ht_gateset, length, with_inverses=True)
        assert len(net) == words and close_pairs_up_to_sign(net) == []
        if length == 12:
            exact = build_net(old, 2, "sl", length, net.dedup_tol)  # Frobenius, sign-exact
            assert len(old) == 2 * n - 1 and len(exact) == 4128
            v = _vec(net.products)
            d = cKDTree(np.concatenate([v, -v])).query(_vec(exact.products))[0]
            assert d.max() <= net.dedup_tol


def test_builder_is_exact_when_every_cell_hash_collides(ht_gateset, monkeypatch):
    # with a zero hash the cells stay in candidate order and every run of
    # equal cells is a group of its own, so a cell splits into many groups
    monkeypatch.setattr(irrepsk.net, "_CELL_HASH", np.zeros(8, np.uint64))
    net = build_gateset_net(ht_gateset, 7, with_inverses=True)
    words, products = reference_net(extended_generators(ht_gateset), 2, 7, net.dedup_tol)
    assert words_of(net) == words
    assert net.products.tobytes() == products.tobytes()


def settle_counts(monkeypatch) -> dict:
    """Live counts of the first members that the stored rows' cell record
    settles, from the earlier levels' tree and from the trees over a level's
    own chunks, and the set of widths of the stored rows."""
    counts = {"earlier": 0, "level": 0, "widths": set()}
    in_cell, store_rows = irrepsk.net._Stored.in_cell, irrepsk.net._store_rows

    def store(trees, rows, hashes):
        store_rows(trees, rows, hashes)
        trees[-1].this_level = True
        counts["widths"].add(rows.shape[1])

    def count(tree, x, hashes, r):
        hit = in_cell(tree, x, hashes, r)
        counts["level" if getattr(tree, "this_level", False) else "earlier"] += int(hit.sum())
        return hit

    monkeypatch.setattr(irrepsk.net, "_store_rows", store)
    monkeypatch.setattr(irrepsk.net._Stored, "in_cell", count)
    return counts


def test_record_settles_groups_as_the_reference_does(ht_gateset, slp_gateset, monkeypatch):
    # with 64-candidate chunks duplicate groups span chunks, and many first
    # members repeat a cell that an earlier chunk of their own level stored.
    # The su nets are deduplicated over quaternions (4 floats a row), the sl
    # net over Frobenius vectors (8); the reference tests Frobenius vectors
    monkeypatch.setattr(irrepsk.net, "CHUNK", 64)
    counts = settle_counts(monkeypatch)
    for gs, length, with_inverses, width in ((ht_gateset, 8, True, 4),
                                             (load_gateset(TPRIME), 6, False, 4),
                                             (slp_gateset, 5, True, 8)):
        counts.update(earlier=0, level=0, widths=set())
        net = build_gateset_net(gs, length, with_inverses=with_inverses)
        gens = extended_generators(gs) if with_inverses else gs.matrices
        words, products = reference_net(gens, gs.dim, length, net.dedup_tol, signs_of(gs))
        assert words_of(net) == words
        assert net.products.tobytes() == products.tobytes()
        assert counts["earlier"] > 0 and counts["level"] > 0
        assert counts["widths"] == {width}


def test_record_settles_nothing_when_tol_is_within_a_few_bands(ht_gateset, monkeypatch):
    counts = settle_counts(monkeypatch)
    gens = extended_generators(ht_gateset)
    net = build_net(gens, 2, "su", 6, 1e-9)
    words, products = reference_net(gens, 2, 6, 1e-9)
    assert words_of(net) == words
    assert net.products.tobytes() == products.tobytes()
    assert counts["earlier"] == counts["level"] == 0


def test_builder_matches_reference_when_the_frontier_empties(pauli_only, monkeypatch):
    # the su-form Paulis close into 4 products up to sign at length 1: the
    # record settles every candidate of length 2, and the frontier empties
    counts = settle_counts(monkeypatch)
    nets = at_each_chunk_size(
        monkeypatch, lambda: build_gateset_net(pauli_only, 5, with_inverses=True))
    words, products = reference_net(extended_generators(pauli_only), 2, 5, nets[0].dedup_tol)
    assert len(words) == 4
    for net in nets:
        assert words_of(net) == words
        assert net.products.tobytes() == products.tobytes()
    assert counts["earlier"] > 0


@pytest.mark.parametrize("path", sorted(GATESETS.glob("*.json")) + [TPRIME],
                         ids=lambda p: p.stem)
def test_per_generator_products_are_matmul_bytes(path):
    # the builder and load_net multiply a stack of products by generator j
    # as one 2-D BLAS product; NETS_SHA256 was recorded from np.matmul over
    # the broadcast (frontier, generator) stack, which it must match exactly
    gs = load_gateset(path)
    gens = extended_generators(gs)
    net = build_gateset_net(gs, 3, with_inverses=True)
    frontier = net.products[np.diff(net.offsets) == 3]
    assert len(frontier)
    per_gen = np.stack([irrepsk.net._times(frontier, g) for g in gens], axis=1)
    assert per_gen.tobytes() == np.matmul(frontier[:, None], gens[None]).tobytes()


def test_auto_net_extends_to_the_built_net(ht_gateset):
    # auto_net extends one net level by level; it must choose the length that
    # rebuilding and probing at every second length chooses, and return the
    # net build_gateset_net gives at that length
    target = 0.3
    net = auto_net(ht_gateset, target, 50, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    length = 4
    while probe_density(build_gateset_net(ht_gateset, length), 50, rng) > target:
        length += 2
    assert net.word_length == length > 4
    assert net.achieved_density <= target
    built = build_gateset_net(ht_gateset, length)
    assert net_sha256(net) == net_sha256(built)
    assert net.fingerprint == built.fingerprint and net.dedup_tol == built.dedup_tol


def test_auto_net_budget_raises(ht_gateset):
    with pytest.raises(BudgetExceeded, match="word budget 100 exceeded"):
        auto_net(ht_gateset, 1e-3, 10, np.random.default_rng(0), budget=100)
