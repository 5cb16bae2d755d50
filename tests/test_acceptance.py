"""End-to-end acceptance gates.

One test per shipped guarantee, each printing a PASS/FAIL line with the
measured numbers.  Strict variants that the implementation provably cannot
meet are kept as xfail with the honest measurement in the reason string.
"""

import time
from functools import reduce

import numpy as np
import pytest

from irrepsk import compile_target, refine_inverse
from irrepsk.finitegroup import build_builtin, central_extend
from irrepsk.gateset import contraction_constant, eps0_constant
from irrepsk.linalg import (
    dist,
    op_norm,
    random_su,
    random_traceless_hermitian,
)
from irrepsk.refine import (
    naive_inverse_length,
    scan_orderings,
    symmetrize_matrix,
)
from scipy.linalg import expm

from helpers import (
    average,
    check_cover_equivalence,
    check_smalltrace,
    random_sl_near_identity,
    symmetrized_length,
)


def _line(label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_01_averaging_identity():
    """Group averaging of any matrix collapses to its trace part."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    reps = [build_builtin("pauli"), build_builtin("weyl", 3),
            build_builtin("q8"), build_builtin("s3")]
    for rep in reps:
        d, n = rep.dim, rep.order
        for _ in range(100):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            want = n * np.trace(m) / d * np.eye(d)
            rel = op_norm(average(rep, m) - want) / (1e-9 * n * op_norm(m))
            worst = max(worst, rel)
    wall = time.perf_counter() - t0
    ok = worst <= 1.0 and wall < 1.0
    _line("criterion 1 averaging identity", ok,
          f"worst residual {worst:.2e} of budget, {wall:.2f} s")
    assert worst <= 1.0
    assert wall < 1.0


def test_criterion_02_trace_bound():
    """|tr M - d| <= (2^d + d!) dist(M, I)^2 near the identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    violations = 0
    for d in (2, 3):
        for _ in range(5000):
            m = random_sl_near_identity(d, rng, 0.3)
            lhs, rhs = check_smalltrace(m)
            if lhs > rhs + 1e-9:
                violations += 1
    closed = np.diag([np.exp(0.1j), np.exp(-0.1j)])
    lhs, rhs = check_smalltrace(closed)
    ratio = lhs / rhs
    wall = time.perf_counter() - t0
    ok = violations == 0 and abs(ratio - 1 / 6) <= 1e-9 and wall < 5.0
    _line("criterion 2 trace bound", ok,
          f"0/10000 violations expected, got {violations}; "
          f"closed-form ratio {ratio:.12f}, {wall:.2f} s")
    assert violations == 0
    assert ratio == pytest.approx(1 / 6, abs=1e-9)
    assert wall < 5.0


def test_criterion_03_quadratic_contraction():
    """Symmetrization contracts quadratically with the derived constants."""
    t0 = time.perf_counter()
    cases = [(build_builtin("pauli"), 28), (build_builtin("weyl", 3), 135),
             (build_builtin("q8"), 88)]
    rng = np.random.default_rng(103)
    violations = 0
    for rep, c_expected in cases:
        assert contraction_constant(rep) == c_expected
        eye = np.eye(rep.dim)
        for eps in (1e-2, 1e-3):
            for _ in range(500):
                h = random_traceless_hermitian(rep.dim, rng)
                w = expm(1j * eps * h)
                if dist(symmetrize_matrix(rep, w), eye) > c_expected * dist(w, eye) ** 2:
                    violations += 1
    wall = time.perf_counter() - t0
    ok = violations == 0 and wall < 10.0
    _line("criterion 3 quadratic contraction", ok,
          f"constants 28/135/88, {violations} violations in 3000 samples, "
          f"{wall:.1f} s")
    assert violations == 0
    assert wall < 10.0


def test_criterion_04_doubly_exponential_decay(ht_gateset, ht_refine_net,
                                               skew_gateset, skew_net):
    """Refinement errors fall below 2 eps0 / 2^(2^k) at every pass."""
    t0 = time.perf_counter()
    eps0 = eps0_constant(ht_gateset)
    assert eps0 == pytest.approx(1 / 56)

    t_idx = ht_gateset.names.index("T")
    _, achieved, trace = refine_inverse(ht_gateset, ht_refine_net, t_idx, 1e-8)
    bounds_t = all(e <= 2 * eps0 / 2 ** (2 ** k) for k, e in enumerate(trace.errors))
    ok_t = achieved <= 1e-8 and bounds_t

    # the diagonal gate has an exact short inverse, so the bound is attained
    # trivially there; the skewed companion exercises genuine decay
    s_idx = skew_gateset.names.index("S")
    _, achieved_s, trace_s = refine_inverse(skew_gateset, skew_net, s_idx, 1e-8)
    bounds_s = all(e <= 2 * eps0 / 2 ** (2 ** k)
                   for k, e in enumerate(trace_s.errors))
    ok_s = achieved_s <= 1e-8 and bounds_s and len(trace_s.errors) >= 3

    wall = time.perf_counter() - t0
    ok = ok_t and ok_s and wall < 60.0
    _line("criterion 4 doubly-exponential decay", ok,
          f"T errors {['%.1e' % e for e in trace.errors]}, "
          f"companion errors {['%.1e' % e for e in trace_s.errors]}, "
          f"{wall:.1f} s")
    assert ok_t
    assert ok_s
    assert wall < 60.0


def test_criterion_05_length_recurrence(skew_gateset, skew_net,
                                        slp_gateset, slp_net):
    """Recorded lengths satisfy l_k = n l_{k-1} + 2(n - 1) exactly."""
    checked = 0
    for gs, net, gate in ((skew_gateset, skew_net, "S"), (slp_gateset, slp_net, "P")):
        n = gs.rep.order
        gen = gs.names.index(gate)
        _, _, trace = refine_inverse(gs, net, gen, 1e-8 if gate == "S" else 1e-6)
        for prev, cur in zip(trace.lengths, trace.lengths[1:]):
            assert cur == n * prev + 2 * (n - 1)
            assert cur == symmetrized_length(n, prev)
            assert cur <= n * prev + 2 * n  # the looser stated ceiling
            checked += 1
    ok = checked >= 3
    _line("criterion 5 length recurrence", ok,
          f"{checked} consecutive pass pairs, all exact at n l + 2(n-1)")
    assert ok


def test_criterion_06_end_to_end_inverse_free(ht_gateset, ht_params,
                                              ht_refine_net):
    """50 seeded targets at eps = 1e-4: all succeed, no inverted tokens."""
    t0 = time.perf_counter()
    gs = ht_gateset
    eps = 1e-4
    rng = np.random.default_rng(106)
    successes = 0
    exercised_rewrites = 0
    for _ in range(50):
        target = random_su(2, rng)
        report = compile_target(gs, target, eps, ht_params, ht_refine_net)
        # inverse-free: plain generator indices only, re-multiplied check
        assert all(0 <= i < len(gs.matrices) for i in report.indices)
        product = reduce(np.matmul, [gs.matrices[i] for i in report.indices])
        err = dist(product, target, gs.phase_candidates)
        if err <= eps:
            successes += 1
        if report.inverted_extras:
            exercised_rewrites += 1
    wall = time.perf_counter() - t0
    ok = successes == 50 and wall < 600.0
    _line("criterion 6 end-to-end inverse-free", ok,
          f"{successes}/50 at eps 1e-4, {exercised_rewrites} runs replaced "
          f"inverted tokens, {wall:.0f} s")
    assert successes == 50
    assert exercised_rewrites > 0
    assert wall < 600.0


def test_criterion_07_polylog_vs_linear(skew_gateset, skew_net):
    """Refined inverse beats the power-of-the-gate baseline by >= 10x."""
    t0 = time.perf_counter()
    gs = skew_gateset
    gen = gs.names.index("S")
    word, achieved, trace = refine_inverse(gs, skew_net, gen, 1e-6)
    naive = naive_inverse_length(gs, gen, 1e-6)
    ratio = naive / word.length
    # growth per precision-squaring pass: the recurrence factor approaches
    # the group order from above and never increases
    growth = [b / a for a, b in zip(trace.lengths, trace.lengths[1:])]
    trend = all(x >= y for x, y in zip(growth, growth[1:]))
    final_ok = growth[-1] <= gs.rep.order + 0.5
    wall = time.perf_counter() - t0
    ok = achieved <= 1e-6 and ratio >= 10 and trend and final_ok
    _line("criterion 7 polylog vs linear", ok,
          f"refined {word.length} vs naive {naive} ({ratio:.0f}x), "
          f"growth {['%.2f' % g for g in growth]}, {wall:.1f} s")
    assert achieved <= 1e-6
    assert ratio >= 10
    assert trend and final_ok


@pytest.mark.xfail(
    strict=True,
    reason="not attainable as stated: the order-16 diagonal gate's exact "
    "power inverse costs 7 tokens while its refined inverse costs 3, so no "
    "10x gap exists there; and the per-pass growth factor is n + 6/l, which "
    "only approaches the group order n = 4 from above (measured 5.20 then "
    "4.23) rather than staying at or below it",
)
def test_criterion_07_strict_reading(ht_gateset, ht_refine_net,
                                     skew_gateset, skew_net):
    """Literal clause: 10x on the diagonal gate AND per-step growth <= 4."""
    t_idx = ht_gateset.names.index("T")
    word, _, _ = refine_inverse(ht_gateset, ht_refine_net, t_idx, 1e-6)
    naive = naive_inverse_length(ht_gateset, t_idx, 1e-6)
    assert naive >= 10 * word.length

    gen = skew_gateset.names.index("S")
    _, _, trace = refine_inverse(skew_gateset, skew_net, gen, 1e-6)
    for prev, cur in zip(trace.lengths, trace.lengths[1:]):
        assert cur <= 4 * prev


def test_criterion_08_projective_cover_equivalence():
    """k-fold cover averaging equals k times the projective averaging."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for name, dim, k_expected in (("pauli", None, 2), ("weyl", 3, 3)):
        rep = build_builtin(name, dim)
        cover = central_extend(rep)
        assert cover.order == k_expected * rep.order
        for _ in range(100):
            m = rng.normal(size=(rep.dim, rep.dim)) \
                + 1j * rng.normal(size=(rep.dim, rep.dim))
            worst = max(worst, check_cover_equivalence(rep, m, cover))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10
    _line("criterion 8 projective cover equivalence", ok,
          f"k = 2 and 3, worst residual {worst:.2e}, {wall:.1f} s")
    assert worst <= 1e-10


def test_criterion_09_sl_mode(sl_gateset, sl_net, slp_gateset, slp_net):
    """Determinant-one non-unitary gates refine inside the working ball."""
    t0 = time.perf_counter()
    gen = sl_gateset.names.index("D")
    word, achieved, trace = refine_inverse(sl_gateset, sl_net, gen, 1e-6)
    ok_d = (achieved <= 1e-6
            and all(0 <= i < len(sl_gateset.matrices) for i in word.tokens)
            and all(r <= 1e-9 for r in trace.det_residuals))

    # the scale gate has an exact conjugate inverse; the perturbed companion
    # actually iterates, so check the contraction constant on it
    c = contraction_constant(slp_gateset.rep)
    assert c == 28
    gen_p = slp_gateset.names.index("P")
    word_p, achieved_p, trace_p = refine_inverse(slp_gateset, slp_net,
                                                 gen_p, 1e-6)
    contraction_ok = all(
        cur <= c * prev * prev * (1 + 1e-9)
        for prev, cur in zip(trace_p.errors, trace_p.errors[1:])
    )
    ok_p = (achieved_p <= 1e-6
            and len(trace_p.errors) >= 2
            and contraction_ok
            and all(0 <= i < len(slp_gateset.matrices) for i in word_p.tokens)
            and all(r <= 1e-9 for r in trace_p.det_residuals))
    wall = time.perf_counter() - t0
    ok = ok_d and ok_p
    _line("criterion 9 sl mode", ok,
          f"scale gate error {achieved:.1e}, companion errors "
          f"{['%.1e' % e for e in trace_p.errors]} with C = 28, {wall:.1f} s")
    assert ok_d
    assert ok_p


def test_criterion_10_ordering_scan():
    """Some conjugation orderings cancel the quadratic error term."""
    t0 = time.perf_counter()
    rep = build_builtin("s3")
    results, threshold = scan_orderings(rep, samples=24,
                                        rng=np.random.default_rng(110))
    vanishing = [o for o, c in results if c <= threshold]
    wall = time.perf_counter() - t0
    ok = len(vanishing) >= 1
    _line("criterion 10 ordering scan", ok,
          f"{len(vanishing)} of {len(results)} orderings below "
          f"{threshold:.2e}, {wall:.1f} s")
    assert len(vanishing) >= 1
