"""Inverse refinement: symmetrization, contraction, traces, the scan."""

import hashlib
import inspect
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import irrepsk.skbase as skbase
from irrepsk import base_params, build_gateset_net, compile_target, refine_inverse
from irrepsk.errors import (
    DimError,
    GroupTooLarge,
    NetTooCoarse,
    NonConvergent,
    Stalled,
)
from irrepsk.finitegroup import build_builtin
from irrepsk.gateset import (contraction_constant, eps0_constant, load_gateset, make_word,
                             matrix_to_literal, parse_gateset)
from irrepsk.linalg import dist, matmul_stack, op_norm, random_su, random_traceless_hermitian
from irrepsk.net import extended_inverse
from irrepsk.refine import (
    SCAN_EPS,
    SCAN_VANISH,
    _exp_series,
    naive_inverse_length,
    scan_orderings,
    symmetrize_matrix,
    symmetrize_word,
)
from irrepsk.skbase import sk_depths

from helpers import check_smalltrace, random_sl_near_identity, symmetrized_length

TPRIME = Path(__file__).resolve().parent.parent / "perfbench" / "gatesets" / "pauli_ht_tprime.json"


def test_symmetrized_length_formula():
    assert symmetrized_length(4, 5) == 26
    assert symmetrized_length(4, 26) == 110
    assert symmetrized_length(9, 7) == 9 * 7 + 16


def test_contraction_constants():
    # 3 n (d-1)! + n^2
    assert contraction_constant(build_builtin("pauli")) == 28
    assert contraction_constant(build_builtin("weyl", 3)) == 135
    assert contraction_constant(build_builtin("q8")) == 88


def test_symmetrize_matrix_fixes_identity():
    rep = build_builtin("pauli")
    assert np.allclose(symmetrize_matrix(rep, np.eye(2)), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("name, dim", [("s3", None), ("pauli", None), ("weyl", 3)])
def test_symmetrize_matrix_on_a_stack_matches_single_calls(name, dim):
    # matmul runs the one-matrix product on each matrix of a stack, so each
    # stacked result is byte-equal to the single call's, in any order
    rep = build_builtin(name, dim)
    rng = np.random.default_rng(46)
    w = np.array([random_su(rep.dim, rng) for _ in range(5)] + [np.eye(rep.dim)])
    rest = [int(g) for g in rng.permutation(np.arange(1, rep.order))]
    for order in (None, tuple(rest) + (0,)):
        stacked = symmetrize_matrix(rep, w, order)
        assert stacked.shape == w.shape
        for row, one in zip(stacked, w):
            assert row.tobytes() == symmetrize_matrix(rep, one, order).tobytes()


def test_symmetrize_matrix_checks_the_trailing_shape():
    rep = build_builtin("s3")
    assert symmetrize_matrix(rep, np.eye(2)).shape == (2, 2)
    for bad in (np.eye(3), np.zeros((4, 2, 3)), np.zeros(2)):
        with pytest.raises(DimError):
            symmetrize_matrix(rep, bad)


def test_symmetrize_word_matches_matrix_map(ht_gateset, skew_gateset):
    rng = np.random.default_rng(41)
    for gs, length in itertools.product((ht_gateset, skew_gateset), (1, 3, 8)):
        tokens = rng.integers(len(gs.matrices), size=length)
        out = symmetrize_word(gs.rep, tokens)
        # the bare word comes last, so a pass keeps the refined gate's
        # token at the end of every iterate
        assert out[-1] == tokens[-1]
        assert len(out) == symmetrized_length(gs.rep.order, length)
        # word form uses table inverses, matrix form exact ones: equal up to
        # a determinant root of unity
        want = symmetrize_matrix(gs.rep, make_word(gs.matrices, tokens).product)
        assert dist(make_word(gs.matrices, out).product, want, gs.phase_candidates) <= 1e-10


def test_refined_error_is_that_of_an_independent_product(skew_gateset, skew_net):
    # achieved is measured on the returned word's own fold; a plain
    # left-to-right product of its gate matrices must read the same
    gs = skew_gateset
    gen = gs.name_index("S")
    u_inv = gs.matrices[gen].conj().T
    passes = []
    for eps in (1e-3, 1e-8, 1e-13):
        word, achieved, trace = refine_inverse(gs, skew_net, gen, eps)
        passes.append(len(trace.errors) - 1)
        product = np.linalg.multi_dot(list(gs.matrices[word.tokens]))
        assert abs(dist(product, u_inv, gs.phase_candidates) - achieved) <= 1e-12
        assert trace.lengths[-1] == word.length + 1
    assert passes == [1, 2, 3]


def test_symmetrize_contracts_near_identity():
    rep = build_builtin("pauli")
    c = contraction_constant(rep)
    rng = np.random.default_rng(42)
    eye = np.eye(2)
    for _ in range(100):
        w = random_sl_near_identity(2, rng, 5e-3)
        f = symmetrize_matrix(rep, w)
        assert dist(f, eye) <= c * dist(w, eye) ** 2


def test_refine_irrep_member_uses_table(ht_gateset, ht_refine_net):
    word, achieved, trace = refine_inverse(ht_gateset, ht_refine_net, 1, 1e-8)
    assert trace.exact_hit
    assert word.tokens.tolist() == [1]  # su-form X is its own inverse up to phase
    assert achieved <= 1e-12


def test_refine_exact_net_hits(ht_gateset, ht_refine_net):
    # both extra gates have exact inverses among short net words
    word, achieved, trace = refine_inverse(ht_gateset, ht_refine_net, 4, 1e-8)
    assert word.tokens.tolist() == [4]
    assert achieved <= 1e-12
    assert not trace.exact_hit
    assert len(trace.errors) == 1  # start already below target: no passes
    word, achieved, trace = refine_inverse(ht_gateset, ht_refine_net, 5, 1e-8)
    assert word.tokens.tolist() == [1, 5, 1]
    assert achieved <= 1e-12


def test_refine_skew_gate_contracts(skew_gateset, skew_net):
    gs = skew_gateset
    gen = gs.names.index("S")
    word, achieved, trace = refine_inverse(gs, skew_net, gen, 1e-8)
    c = contraction_constant(gs.rep)
    eps0 = eps0_constant(gs)
    assert trace.start_error < eps0
    assert len(trace.errors) == 3
    assert trace.lengths == [5, 26, 110]
    assert word.length == 109
    for prev, cur in zip(trace.errors, trace.errors[1:]):
        assert cur <= c * prev * prev * (1 + 1e-9)
    for k, e in enumerate(trace.errors):
        assert e <= 2 * eps0 / 2 ** (2 ** k)
    assert achieved <= 1e-8
    assert all(0 <= i < len(gs.matrices) for i in word.tokens)
    u_inv = gs.matrices[gen].conj().T
    assert dist(word.product, u_inv, gs.phase_candidates) <= 1e-8


def test_refine_rejects_coarse_net(skew_gateset):
    # identity-only net: the best start sits far outside the basin
    net0 = build_gateset_net(skew_gateset, 0)
    gen = skew_gateset.names.index("S")
    with pytest.raises(NetTooCoarse):
        refine_inverse(skew_gateset, net0, gen, 1e-8)


def test_refine_stalls_at_the_float_floor(skew_gateset, skew_net, monkeypatch):
    # an unreachable target plateaus near 1e-15; cap the passes so the
    # word cannot quadruple in length for long before the diagnosis
    import irrepsk.refine as refine_mod

    monkeypatch.setattr(refine_mod, "_MAX_PASSES", 6)
    gen = skew_gateset.names.index("S")
    with pytest.raises((Stalled, NonConvergent)):
        refine_inverse(skew_gateset, skew_net, gen, 1e-30)


def test_stalled_reports_the_best_iterate(skew_gateset, skew_net):
    # pass 3 reaches ~1.8e-14; passes 4 and 5 only add round-off (7.2e-14,
    # then 2.87e-13), so a 1e-14 target stalls on the second of them, and the
    # error names the best iterate and its floor
    gen = skew_gateset.names.index("S")
    with pytest.raises(Stalled) as info:
        refine_inverse(skew_gateset, skew_net, gen, 1e-14)
    e = info.value
    assert 1e-14 < e.best_error < 2e-14
    assert e.best_pass == 3
    assert e.floor == pytest.approx(symmetrized_length(4, 110) * 2.0 ** -52)
    assert f"{e.best_error:.3e}" in str(e)
    assert float(str(e).rsplit("last ", 1)[1]) > 1e-13


def _refined(gs, net, gen, eps):
    word, achieved, trace = refine_inverse(gs, net, gen, eps)
    return word.tokens.tolist(), float.hex(achieved), trace.as_dict()


@pytest.mark.parametrize("gateset,gate", [("skew_gateset", "S"), ("ht_gateset", "T")])
def test_refinement_trajectory_is_exact_for_every_tolerance(request, gateset, gate):
    # S needs 0 to 3 real passes over these tolerances; T's seed X T X is
    # exact.  One net serves every tolerance in any order, and each call
    # gives what a fresh net gives
    gs = request.getfixturevalue(gateset)
    gen = gs.name_index(gate)
    tols = [2e-2] + [10.0 ** -k for k in range(2, 14)]
    fresh = {eps: _refined(gs, build_gateset_net(gs, 4), gen, eps) for eps in tols}
    if gate == "S":
        assert {len(f[2]["errors"]) for f in fresh.values()} == {1, 2, 3, 4}
    rng = np.random.default_rng(46)
    for order in (tols, tols[::-1], rng.permutation(tols).tolist()):
        net = build_gateset_net(gs, 4)
        for eps in order:
            assert _refined(gs, net, gen, eps) == fresh[eps]


def test_refinement_trajectory_replays_its_stall(skew_gateset):
    gs = skew_gateset
    gen = gs.name_index("S")

    def stall(net, eps):
        with pytest.raises(Stalled) as info:
            refine_inverse(gs, net, gen, eps)
        e = info.value
        return type(e), str(e), e.best_error, e.best_pass, e.floor

    want = stall(build_gateset_net(gs, 4), 1e-14)
    net = build_gateset_net(gs, 4)
    ok = _refined(gs, net, gen, 1e-8)
    for eps in (1e-14, 1e-15, 1e-14):
        assert stall(net, eps) == want
    assert _refined(gs, net, gen, 1e-8) == ok
    # a caller's trace is its own: changing it leaves the next one intact
    trace = refine_inverse(gs, net, gen, 1e-8)[2]
    trace.errors[0] = 1.0
    trace.errors.append(2.0)
    trace.lengths.clear()
    assert _refined(gs, net, gen, 1e-8) == ok


def test_refinement_trajectory_caps_the_passes_per_call(skew_gateset, monkeypatch):
    # the pass cap reads the asked tolerance, even when the trajectory
    # already holds more passes than the cap allows
    import irrepsk.refine as refine_mod

    gen = skew_gateset.name_index("S")
    net = build_gateset_net(skew_gateset, 4)
    refine_inverse(skew_gateset, net, gen, 1e-13)  # three passes
    monkeypatch.setattr(refine_mod, "_MAX_PASSES", 2)
    with pytest.raises(NonConvergent, match="no convergence to 1.000e-13 after 2 passes"):
        refine_inverse(skew_gateset, net, gen, 1e-13)
    assert len(refine_inverse(skew_gateset, net, gen, 1e-4)[2].errors) == 3


def test_naive_inverse_length_closed_form(ht_gateset):
    t_idx = ht_gateset.names.index("T")
    # su-form T has order 16; the 7th power is the exact inverse up to phase
    assert naive_inverse_length(ht_gateset, t_idx, 1e-6) == 7
    assert naive_inverse_length(ht_gateset, t_idx, 1e-1) == 7


def test_naive_inverse_length_matches_power_loop(rz_gateset):
    gs = rz_gateset
    idx = gs.names.index("G")
    eps = 0.3
    got = naive_inverse_length(gs, idx, eps)
    u = gs.matrices[idx]
    p = u.copy()
    brute = None
    for k in range(2000):
        if dist(p, np.eye(2), gs.phase_candidates) <= eps:
            brute = k
            break
        p = p @ u
    assert got == brute


def test_naive_inverse_length_power_loop_off_su2():
    # the generic power loop: a d = 3 su set, whose Weyl elements have order
    # 3, and an sl gate E = S R(pi/3) S^-1 with R(t) = exp(-i t Y / 2), a
    # non-unitary conjugate of a rotation, with E^6 = -I and -1 a phase
    weyl = parse_gateset({"dimension": 3, "mode": "su", "irrep": {"builtin": "weyl"}})
    for name in ("W01", "W02", "W10"):
        assert naive_inverse_length(weyl, weyl.name_index(name), 1e-9) == 2
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    scale = np.diag([1.2, 1 / 1.2])
    e = scale @ np.array([[c, -s], [s, c]]) @ np.linalg.inv(scale)
    sl = parse_gateset({"dimension": 2, "mode": "sl", "sl_radius": 2,
                        "irrep": {"builtin": "pauli"},
                        "gates": [{"name": "E", "matrix": matrix_to_literal(e)}]})
    assert naive_inverse_length(sl, sl.name_index("E"), 1e-9) == 5


def test_naive_inverse_length_refuses_a_parabolic_gate():
    # N = [[1, 1/2], [0, 1]] has both eigenvalues 1 and is no phase times I:
    # N^k = I + k (N - I) only moves away, so the power loop, 20,000 steps in
    # 0.5 s, would run to its cap of 50,000,000 before raising (here 200,000,
    # whose message does not name the gate parabolic).  Conjugated
    # and negated copies are parabolic to round-off; an sl conjugate of a
    # rotation by 2 pi / 25, elliptic with trace 2 cos(pi / 25), still loops
    n = np.array([[1.0, 0.5], [0.0, 1.0]])
    s = np.array([[1.2, 0.3], [0.1, 0.9]]) / np.sqrt(1.05)
    c, t = np.cos(np.pi / 25), np.sin(np.pi / 25)
    e = s @ np.array([[c, -t], [t, c]]) @ np.linalg.inv(s)
    for name, m in (("N", n), ("M", -s @ n @ np.linalg.inv(s)), ("E", e)):
        gs = parse_gateset({"dimension": 2, "mode": "sl", "sl_radius": 3,
                            "irrep": {"builtin": "pauli"},
                            "gates": [{"name": name, "matrix": matrix_to_literal(m)}]})
        if name == "E":
            assert naive_inverse_length(gs, gs.name_index(name), 1e-9) == 24
            continue
        with pytest.raises(NonConvergent, match="parabolic"):
            naive_inverse_length(gs, gs.name_index(name), 1e-9, cap=200_000)


def test_seed_on_an_su2_net_is_the_dist_scan(ht_gateset, ht_refine_net, skew_gateset):
    # on an SU(2) net the seed is one nearest lookup of U^-1; it must pick
    # the word that a dist scan over every net word picks, lowest store
    # index within TIE of the smallest
    import irrepsk.refine as refine_mod
    tprime = load_gateset(TPRIME)
    for gs, net in ((ht_gateset, ht_refine_net), (skew_gateset, build_gateset_net(skew_gateset, 8)),
                    (tprime, build_gateset_net(tprime, 6)), (tprime, build_gateset_net(tprime, 10))):
        for gen, u in enumerate(gs.matrices):
            starts = dist(matmul_stack(net.products, u), np.eye(2), gs.phase_candidates)
            i = int(np.flatnonzero(starts <= starts.min() + 1e-12)[0])
            tokens = refine_mod._best_start(gs, net, u)
            assert tokens.tolist() == net.tokens[net.offsets[i]:net.offsets[i + 1]].tolist()


@pytest.mark.parametrize("gateset,length,gate,eps", [("skew_gateset", 6, "S", 1e-8),
                                                     ("slp_gateset", 3, "P", 1e-6)])
def test_every_trajectory_error_is_read_from_its_own_fold(request, gateset, length, gate, eps):
    # errors[0], the seed's, is dist(V_0 U, I) on the fold of the seed's
    # tokens, as every pass's error is on the fold of its own word.  On the
    # L6 net S's seed is 5 tokens long, and the net's stored product of it
    # differs from the fold in its last bits
    import irrepsk.refine as refine_mod
    gs = request.getfixturevalue(gateset)
    net = build_gateset_net(gs, length)
    gen = gs.name_index(gate)
    u = gs.matrices[gen]
    trace = refine_inverse(gs, net, gen, eps)[2]
    assert len(trace.errors) >= 2
    assert trace.start_error == trace.errors[0]
    tokens = refine_mod._best_start(gs, net, u)
    for k, err in enumerate(trace.errors):
        if k:
            tokens = symmetrize_word(gs.rep, np.append(tokens, gen))[:-1]
        w = matmul_stack(make_word(gs.matrices, tokens).product, u)
        assert err == dist(w, np.eye(gs.dim), gs.phase_candidates)


def test_naive_inverse_length_cap(rz_gateset):
    idx = rz_gateset.names.index("G")
    with pytest.raises(NonConvergent):
        naive_inverse_length(rz_gateset, idx, 1e-12, cap=10_000)


def test_smalltrace_closed_form():
    m = np.diag([np.exp(0.1j), np.exp(-0.1j)])
    lhs, rhs = check_smalltrace(m)
    assert lhs / rhs == pytest.approx(1 / 6, abs=1e-9)
    with pytest.raises(DimError):
        check_smalltrace(np.diag([2.0, 1.0]))


def test_smalltrace_bound_holds_nearby():
    rng = np.random.default_rng(43)
    for d in (2, 3):
        for _ in range(200):
            m = random_sl_near_identity(d, rng, 0.3)
            lhs, rhs = check_smalltrace(m)
            assert lhs <= rhs + 1e-9


def test_refine_inverse_sl_exact_hit(sl_gateset, sl_net):
    gen = sl_gateset.names.index("D")
    word, achieved, trace = refine_inverse(sl_gateset, sl_net, gen, 1e-6)
    assert word.tokens.tolist() == [1, 4, 1]  # X D X is the exact inverse of D
    assert achieved <= 1e-12
    assert all(r <= 1e-9 for r in trace.det_residuals)


def test_refine_inverse_sl_perturbed_gate(slp_gateset, slp_net):
    gs = slp_gateset
    gen = gs.names.index("P")
    word, achieved, trace = refine_inverse(gs, slp_net, gen, 1e-6)
    c = contraction_constant(gs.rep)
    assert len(trace.errors) == 2
    assert trace.errors[1] <= c * trace.errors[0] ** 2
    assert trace.lengths == [4, 22]
    assert word.length == 21
    assert achieved <= 1e-6
    assert all(r <= 1e-9 for r in trace.det_residuals)
    u_inv = np.linalg.inv(gs.matrices[gen])
    assert dist(word.product, u_inv, gs.phase_candidates) <= achieved + 1e-12


def test_compile_target_report(ht_gateset, ht_params, ht_refine_net):
    rng = np.random.default_rng(44)
    target = random_su(2, rng)
    report = compile_target(ht_gateset, target, 1e-3, ht_params, ht_refine_net)
    assert report.error <= 1e-3
    # the accepted depth's measured total, the bound on the output's error
    assert report.base_error + sum(report.inverted_counts[i] * e for i, e
                                   in report.refine_errors.items()) <= 1e-3
    assert sum(report.inverted_counts.values()) == report.inverted_extras
    assert report.inverted_counts.keys() == report.refine_errors.keys()
    assert report.length == len(report.indices)
    assert all(0 <= i < len(ht_gateset.matrices) for i in report.indices)
    assert all(type(i) is int for i in report.indices)
    assert set(report.refine_errors) <= {4, 5}
    assert report.inverted_extras >= len(report.refine_errors)
    doc = json.loads(json.dumps(report.as_dict()))
    assert doc["eps"] == 1e-3
    assert doc["depth"] == report.depth >= 1
    assert doc["rotation"] == report.rotation
    assert 0 <= report.rotation < 2 * skbase.ROTATIONS
    assert doc["inverted_counts"] == {str(i): c for i, c in report.inverted_counts.items()}


class _TreeFrame:
    """A k-d tree called from a Python frame of its own.  The tree's compiled
    methods call numpy's Python functions (np.max among them) with no frame
    between them and their caller, so without this they would read as calls
    from EpsNet.nearest."""

    def __init__(self, tree):
        self.tree, self.data = tree, tree.data

    def query(self, *args, **kwargs):
        return self.tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        return self.tree.query_ball_point(*args, **kwargs)


# numpy's Python-level wrappers that the compile path does without: each
# costs more than the C call or array method it wraps, on stacks of 1-256 rows
SLOW_HELPERS = (np.moveaxis, np.flatnonzero, np.broadcast_to, np.isrealobj, np.linalg.norm,
                np.repeat, np.cumsum, np.max)


def test_compile_path_calls_no_python_level_numpy_helper(ht_gateset, ht_params, ht_refine_net,
                                                         monkeypatch):
    # one warm compile, profiled: no call to a SLOW_HELPERS function may come
    # from a frame of an irrepsk module.  The count is deterministic
    target = random_su(2, np.random.default_rng(61))
    compile_target(ht_gateset, target, 1e-4, ht_params, ht_refine_net)
    for net in (ht_params.net, ht_refine_net):
        if net._tree is not None:
            monkeypatch.setattr(net, "_tree", _TreeFrame(net._tree))
    helpers = {inspect.unwrap(f).__code__: f.__name__ for f in SLOW_HELPERS}
    decompose = skbase.balanced_commutator_decompose.__code__
    seen, decompositions = [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is decompose:
            decompositions.append(frame)
        caller = frame.f_back
        if frame.f_code in helpers and caller.f_globals["__name__"].startswith("irrepsk"):
            seen.append((helpers[frame.f_code], caller.f_globals["__name__"],
                         caller.f_code.co_name, caller.f_lineno))

    sys.setprofile(profile)
    try:
        compile_target(ht_gateset, target, 1e-4, ht_params, ht_refine_net)
    finally:
        sys.setprofile(None)
    assert len(decompositions) > 1
    assert seen == []


def test_compile_target_empty_base_word(ht_gateset):
    # the identity is the empty net word, so the base stage stops at depth 0 and
    # the output assembly gathers from an empty base word
    params = base_params(ht_gateset, 12)
    refine_net = build_gateset_net(ht_gateset, 6)
    report = compile_target(ht_gateset, np.eye(2), 1e-4, params, refine_net)
    assert report.indices == ()
    assert report.error == 0
    assert report.inverted_extras == 0
    assert json.loads(json.dumps(report.as_dict()))["indices"] == []


def _half_split_compile(gs, target, eps, params, refine_net):
    """Reference: the rule compile_target followed before it accepted an SK
    depth on the measured total error.  The SK stage gets eps / 2, and each
    of the m inverted extras of its word a refined inverse at (eps / 2) / m.
    sk_depths gets eps, as in compile_target, so both rules see the same word
    at each depth.  That rule read one word per depth, so it judges each
    depth by its first word and passes over a depth's second, widened word
    (which compile_target never asks for once it accepts the first).
    Returns the output word's length and the SK depth."""
    inv = extended_inverse(gs)
    judged = -1
    for depth, signed, _, err, _ in sk_depths(gs, target, params, eps):
        if depth > judged and err <= eps / 2:
            break
        judged = depth
    base = params.net.gather(signed, inv)
    gates, counts = np.unique(inv[base[base >= gs.gen_count]], return_counts=True)
    m = int(counts.sum())
    length = len(base) - m
    for i, c in zip(gates.tolist(), counts.tolist()):
        length += c * refine_inverse(gs, refine_net, i, (eps / 2) / m)[0].length
    return length, depth


@pytest.fixture(scope="module")
def tprime_setup():
    gs = load_gateset(TPRIME)
    return gs, base_params(gs, 12), build_gateset_net(gs, 6)


def _shallower_than_half_split(request, monkeypatch, case, rotations):
    """Compile 24 targets of case ("gate set eps") with compile_target and
    with _half_split_compile at skbase.ROTATIONS = rotations; check that no
    accepted depth is deeper, no word longer and every error within eps, and
    return how many targets compile_target accepts at a shallower depth."""
    name, eps = case.split()
    if name == "pauli_ht":
        gs, params, refine_net = (request.getfixturevalue(f) for f in
                                  ("ht_gateset", "ht_params", "ht_refine_net"))
    else:
        gs, params, refine_net = request.getfixturevalue("tprime_setup")
    monkeypatch.setattr(skbase, "ROTATIONS", rotations)
    rng = np.random.default_rng(46)
    eps = float(eps)
    shallower = 0
    for _ in range(24):
        target = random_su(2, rng)
        report = compile_target(gs, target, eps, params, refine_net)
        length, depth = _half_split_compile(gs, target, eps, params, refine_net)
        assert report.length <= length
        assert report.depth <= depth
        assert report.error <= eps
        shallower += report.depth < depth
    return shallower


CASES = ["pauli_ht 1e-3", "pauli_ht 1e-4", "pauli_ht_tprime 3e-3"]


@pytest.mark.parametrize("case", CASES)
def test_depth_budget_never_lengthens_the_half_split_word(request, monkeypatch, case):
    # the depth the eps / 2 rule takes always passes the measured-total test,
    # so no accepted depth is deeper and no word is longer than the
    # reference's.  In every case here 7 or 8 of the 24 targets drop a depth
    # in the plain recursion (ROTATIONS = 1)
    assert _shallower_than_half_split(request, monkeypatch, case, 1) >= 4


@pytest.mark.parametrize("case", CASES)
def test_depth_budget_with_the_search_never_lengthens_the_half_split_word(request, monkeypatch,
                                                                          case):
    # the same at the default ROTATIONS.  How many targets drop a depth
    # depends on how close the depth before the eps / 2 one comes: 2, 1 and
    # 14 of 24 here, so no count is asserted
    _shallower_than_half_split(request, monkeypatch, case, 16)


def test_a_depth_whose_measured_total_misses_eps_is_rejected(tprime_setup):
    # eps just above the depth-3 SK error: the T' inverses' errors push that
    # depth's total over eps, so the next depth is accepted
    gs, params, refine_net = tprime_setup
    target = random_su(2, np.random.default_rng(47))
    errors = [err for *_, err, _ in itertools.islice(sk_depths(gs, target, params), 4)]
    eps = errors[3] * (1 + 1e-12)
    # the depth-3 word is within NEAR_MISS of eps, so sk_depths searches the
    # midpoint pairs of depth 3 before going deeper; none beats it here, and
    # depth 4 follows at once
    got = [(depth, err) for depth, *_, err, _ in
           itertools.islice(sk_depths(gs, target, params, eps), 5)]
    assert [d for d, _ in got] == [0, 1, 2, 3, 4] and got[3][1] == errors[3]
    report = compile_target(gs, target, eps, params, refine_net)
    assert report.depth == 4
    assert report.error <= eps
    assert report.base_error + sum(report.inverted_counts[i] * e for i, e
                                   in report.refine_errors.items()) <= eps


def test_a_near_miss_is_rescued_at_its_own_depth(ht_gateset, ht_params, ht_refine_net):
    # eps just below the first depth-3 word's error: that word misses eps by
    # 1.2x, within NEAR_MISS, and a midpoint pair of depth 3 (an odd
    # rotation) passes, so the output stays at depth 3 instead of depth 4
    gs = ht_gateset
    target = random_su(2, np.random.default_rng(50))
    first = list(itertools.islice(sk_depths(gs, target, ht_params), 4))[3]
    eps = first[3] / 1.2
    got = list(itertools.islice(sk_depths(gs, target, ht_params, eps), 5))
    assert [g[0] for g in got] == [0, 1, 2, 3, 3]
    assert got[3][3] == first[3] and np.array_equal(got[3][1], first[1])
    assert got[3][4] % 2 == 0 and got[4][4] % 2 == 1
    assert got[4][3] <= eps < got[3][3] <= skbase.NEAR_MISS * eps
    report = compile_target(gs, target, eps, ht_params, ht_refine_net)
    assert (report.depth, report.rotation, report.base_error) == (3, got[4][4], got[4][3])
    assert report.error <= eps


# SHA-256 of the token tuples of _pinned_words.  A change that keeps the
# algorithm must keep the words bit-identical; a deliberate algorithm change
# updates the value and says why here.
# - WORDS_SHA256, ROTATIONS = 1, the plain recursion: recorded when
#   compile_target began to accept an SK depth on the measured total error
#   (the second and fourth targets drop a depth: 10610 -> 1994 and
#   10513 -> 2177 tokens).
# - SEARCHED_WORDS_SHA256, ROTATIONS = 16, the default: recorded when each
#   depth began to search its top commutator pair.  Lengths 10190, 1994,
#   11263, 2177, 10136 -> 2232, 2146, 2291, 2295, 406: the first, third and
#   fifth targets end one or two depths shallower (4 -> 3, 4 -> 3, 4 -> 2);
#   the second and fourth stay at depth 3 with a different, longer word.  The
#   refined inverse (109) is the same.
# Both re-recorded when the base word began to be freely reduced before the
# irrep rewrite and the substitution (net.gather cancels every adjacent
# g g^-1), and the search to score in closed form with an explicit tie rule.
# Every target keeps its depth, and fewer inverted extras remain to be
# substituted: plain 10190, 1994, 11263, 2177, 10136 -> 9018, 1850, 10229,
# 2029, 9398 tokens (base 6748, 1324, 7411, 1429, 6674 -> 6002, 1232, 6789,
# 1331, 6224), searched 2232, 2146, 2291, 2295, 406 -> 2094, 1892, 2083,
# 2081, 388.  The refined inverse (109) is the same.
# Both re-recorded when the base net began to store each rotation once, up
# to sign, over an alphabet without the inverses that a generator gives up
# to a phase (X^-1, Y^-1, Z^-1 and H^-1 went; X X and H H now cancel).
# Every target keeps its depth and its error to 4 digits, and fewer
# inverted extras remain: plain 9018, 1850, 10229, 2029, 9398 -> 8906, 1784,
# 9813, 1965, 8898 tokens (inverted extras 2875, 588, 3263, 640, 2969 ->
# 1500, 302, 1669, 340, 1523), searched 2094, 1892, 2083, 2081, 388 -> 2032,
# 1876, 2039, 2011, 388 (669, 593, 659, 668, 122 -> 344, 323, 351, 348, 68).
# The hashes were 9b548c75... and 36d5bc65... before.  The refined inverse
# (109) is the same.
WORDS_SHA256 = "b55820d5e090006944c9b0c41eec81cc79c405870ae7ff98f3f8c5e5d75d36b2"
SEARCHED_WORDS_SHA256 = "b988215aac883f5bb993b8eaaa7af6829c9cd7f894b5f98540400e361c543ff1"


def _pinned_words(ht_gateset, ht_params, ht_refine_net, skew_gateset, skew_net):
    """Five pauli_ht compiles at 1e-3 and one pauli_skew refined inverse, as
    token tuples."""
    rng = np.random.default_rng(7)
    words = [compile_target(ht_gateset, random_su(2, rng), 1e-3, ht_params,
                            ht_refine_net).indices for _ in range(5)]
    gen = skew_gateset.name_index("S")
    words.append(refine_inverse(skew_gateset, skew_net, gen, 1e-8)[0].tokens)
    return tuple(tuple(int(t) for t in w) for w in words)


def test_words_stay_bit_identical(ht_gateset, ht_params, ht_refine_net,
                                  skew_gateset, skew_net, monkeypatch):
    monkeypatch.setattr(skbase, "ROTATIONS", 1)
    words = _pinned_words(ht_gateset, ht_params, ht_refine_net, skew_gateset, skew_net)
    assert [len(w) for w in words] == [8906, 1784, 9813, 1965, 8898, 109]
    assert hashlib.sha256(repr(words).encode()).hexdigest() == WORDS_SHA256


def test_searched_words_stay_bit_identical(ht_gateset, ht_params, ht_refine_net,
                                           skew_gateset, skew_net):
    assert skbase.ROTATIONS == 16
    words = _pinned_words(ht_gateset, ht_params, ht_refine_net, skew_gateset, skew_net)
    assert [len(w) for w in words] == [2032, 1876, 2039, 2011, 388, 109]
    assert hashlib.sha256(repr(words).encode()).hexdigest() == SEARCHED_WORDS_SHA256


def test_scan_orderings_s3():
    rep = build_builtin("s3")
    results, threshold = scan_orderings(rep, samples=6, rng=np.random.default_rng(45))
    assert len(results) == 120  # 5! orderings, identity pinned last
    for order, coeff in results:
        assert order[-1] == 0
        assert coeff >= 0
    assert threshold > 0
    assert any(c <= threshold for _, c in results)


def _scan_one_at_a_time(rep, samples, rng):
    """scan_orderings as a loop: each exponential, symmetrization product
    and distance taken one matrix at a time, per ordering."""
    eye = np.eye(rep.dim)
    perturbations = []
    for _ in range(samples):
        h = random_traceless_hermitian(rep.dim, rng)
        perturbations.append(h / op_norm(h))
    results = []
    for perm in itertools.permutations(range(1, rep.order)):
        order = perm + (0,)
        coeffs = []
        for h in perturbations:
            for eps in SCAN_EPS:
                f = symmetrize_matrix(rep, _exp_series(1j * eps * h), order)
                coeffs.append(dist(f, eye, rep.phase_candidates) / eps ** 2)
        results.append((order, float(np.mean(coeffs))))
    results.sort(key=lambda t: t[1])
    return results, SCAN_VANISH * float(np.median([c for _, c in results]))


@pytest.mark.parametrize("name, samples, seed", [("s3", 4, 1), ("s3", 6, 45), ("pauli", 24, 0)])
def test_scan_orderings_matches_the_loop_bitwise(monkeypatch, name, samples, seed):
    # one exponential series over every perturbation and eps, shared by
    # every ordering
    import irrepsk.refine as refine_mod
    rep = build_builtin(name)
    calls = []

    def counted_series(x):
        calls.append(len(x))
        return _exp_series(x)

    monkeypatch.setattr(refine_mod, "_exp_series", counted_series)
    got = scan_orderings(rep, samples=samples, rng=np.random.default_rng(seed))
    assert calls == [samples * len(SCAN_EPS)]
    assert got == _scan_one_at_a_time(rep, samples, np.random.default_rng(seed))


def test_exp_series_is_expm_at_the_scan_sizes():
    # the degree-6 series leaves out terms below 1e-28 at ||x|| <= 3e-4, so
    # it stays within an ulp of 1 of scipy's expm
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for eps in SCAN_EPS:
            x = 1j * eps * random_traceless_hermitian(d, rng)
            assert np.abs(_exp_series(x) - expm(x)).max() <= 2.0 ** -52


def test_scan_orderings_rejects_large_groups():
    with pytest.raises(GroupTooLarge):
        scan_orderings(build_builtin("q8"))
