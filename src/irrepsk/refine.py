"""Inverse-free refinement via finite-group symmetrization.

Core loop: given W_0 = V U within eps0 of the identity, where U is the gate
to invert and V a word over the gate set, apply the map

    W  ->  rho(g_1) W rho(g_1)^{-1} ... rho(g_{n-1}) W rho(g_{n-1})^{-1} W

(identity factor last, contributing the bare W).  For a group of order n
acting irreducibly in dimension d this squares the distance to the identity
up to the constant 3 n (d-1)! + n^2, so from inside the basin of radius
eps0 = 1 / (6 n (d-1)! + 2 n^2) the iteration converges doubly
exponentially.  Every conjugator is a forward group element (inverses come
from the multiplication table), and the bare-W-last ordering keeps the
iterate's final token equal to U; stripping that one token leaves an
inverse-free word whose product approximates U^{-1}.

Distances on unitary iterates are measured up to a global d-th root of
unity (the only phases the normalized generators can produce), which keeps
every aligned representative in the determinant-one slice where the
trace-vs-distance bound applies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    BallExit,
    DimError,
    GroupTooLarge,
    NetTooCoarse,
    NonConvergent,
    Stalled,
)
from .finitegroup import FiniteGroupRep
from .gateset import GateSet, GateWord, eps0_constant, gather_segments, make_word
from .linalg import (dist, matmul_stack, op_norm, qconj, random_traceless_hermitian,
                     su2_to_quaternion)
from .net import TIE, EpsNet, extended_inverse
from .skbase import SKParams, sk_depths

# perfbench/tracing.py wraps this name too.  Base words hold no inverted
# irrep token (extended_generators), so the irrep rewrite it timed is gone
# and nothing calls the name
rewrite_irrep_inverses = None


def symmetrize_matrix(rep: FiniteGroupRep, w: np.ndarray, order=None) -> np.ndarray:
    """Product of rho(g) w rho(g)^{-1} over the group, identity factor last,
    of a (d, d) w, or of each matrix of an (S, d, d) stack (bit-equal to single calls).

    Uses exact inverses, so this is the analysis object; the word-level
    version below substitutes table elements and can differ by a global
    d-th root of unity when the irrep is projective.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape[-2:] != (rep.dim, rep.dim):
        raise DimError(f"expected trailing shape {(rep.dim, rep.dim)}, got {w.shape}")
    if order is None:
        order = tuple(range(1, rep.order)) + (0,)
    p = np.eye(rep.dim, dtype=complex)
    for g in order:
        p = matmul_stack(matmul_stack(matmul_stack(p, rep.elements[g]), w),
                         rep.inv_elements[g])
    return p


def symmetrize_word(rep: FiniteGroupRep, tokens: np.ndarray) -> np.ndarray:
    """Tokens of one inverse-free symmetrization pass over a word's tokens.

    For each non-identity group element g in listed order the word
    g . word . g^{-1} is laid down, with g^{-1} drawn from the group's own
    multiplication table; the identity factor comes last and contributes the
    bare word, so the output ends in the input's last token.  Output length
    is n * len + 2 (n - 1).
    """
    # row g - 1 is g . word . g^-1; the bare word follows the last row
    pieces = np.empty((rep.order - 1, len(tokens) + 2), dtype=np.intp)
    pieces[:, 0] = np.arange(1, rep.order)
    pieces[:, 1:-1] = tokens
    pieces[:, -1] = rep.inverse_index[1:]
    return np.concatenate([pieces.ravel(), tokens])


@dataclass(eq=False)
class RefineTrace:
    """Per-iteration diagnostics from one inverse refinement run."""

    start_error: float
    errors: list[float] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)
    det_residuals: list[float] = field(default_factory=list)
    exact_hit: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


_MAX_PASSES = 25


def _table_inverse_word(gs: GateSet, gen_index: int):
    """Exact single-token inverse for irrep members, None otherwise.

    The generator list starts with the irrep's elements, so a generator
    index below the group order is a group element."""
    if gen_index >= gs.rep.order:
        return None
    return make_word(gs.matrices, (int(gs.rep.inverse_index[gen_index]),))


def _best_start(gs: GateSet, net: EpsNet, u: np.ndarray) -> np.ndarray:
    """Tokens of the net word V minimizing the aligned distance of V U to I.
    Within TIE of the smallest, the lowest store index wins, which is the
    shortest word (the store is breadth-first).  On an SU(2) net that
    distance up to sign is |q_V -+ conj(q_U)|, so V is one EpsNet.nearest of
    U^-1; any other net scans dist over its products."""
    if net.su2:
        (i,), _, _ = net.nearest(qconj(su2_to_quaternion(u))[None])
    else:
        starts = dist(matmul_stack(net.products, u), np.eye(gs.dim), gs.phase_candidates)
        i = int(np.flatnonzero(starts <= starts.min() + TIE)[0])
    return net.tokens[net.offsets[i]:net.offsets[i + 1]]


class _Trajectory:
    """One gate's refinement from one seed net, extended a pass at a time.
    Entry k is the word V_k that refine_inverse returns there, folded by
    make_word: the seed, then each pass over V_(k-1) U without its last U
    token.  Its errors dist(V_k U, I) (the seed's for k = 0) and
    dist(V_k, U^-1) and V_k U's determinant residual are read from that fold.

    Seeding and passes never read the tolerance, so the first entry that
    meets one is where a fresh run for it stops.  A NetTooCoarse, Stalled or
    BallExit that ends the trajectory is kept as a factory, failure, and
    raised anew for every tolerance that needs passes past it.
    """

    def __init__(self, gs: GateSet, gen_index: int, u_inv: np.ndarray):
        self.gs, self.gen_index, self.u_inv = gs, gen_index, u_inv
        self.words: list[GateWord] = []
        self.errors: list[float] = []
        self.achieved: list[float] = []
        self.det_residuals: list[float] = []
        self.failure = None

    def result(self, net: EpsNet, eps_target: float
               ) -> tuple[GateWord, float, RefineTrace]:
        """The word, its error and a new trace at the first entry meeting
        eps_target, extending the trajectory as far as that needs."""
        k = 0
        while True:
            if k == len(self.words):
                if self.failure is None:
                    self._extend(net)
                if self.failure is not None:
                    raise self.failure()
            if not (self.errors[k] > eps_target or self.achieved[k] > eps_target):
                break
            if k >= _MAX_PASSES:
                raise NonConvergent(
                    f"no convergence to {eps_target:.3e} after {k} passes "
                    f"(best {self.errors[k]:.3e})"
                )
            k += 1
        trace = RefineTrace(start_error=self.errors[0], errors=self.errors[:k + 1],
                            lengths=[w.length + 1 for w in self.words[:k + 1]],
                            det_residuals=self.det_residuals[:k + 1])
        return self.words[k], self.achieved[k], trace

    def _extend(self, net: EpsNet) -> None:
        """Append the seed, or one more pass, or set failure instead."""
        gs, phases = self.gs, self.gs.phase_candidates
        u = gs.matrices[self.gen_index]
        if self.words:
            # the pass over W = V U ends in the bare W, so in U's token
            iterate = np.append(self.words[-1].tokens, self.gen_index)
            tokens = symmetrize_word(gs.rep, iterate)[:-1]
        else:
            tokens = _best_start(gs, net, u)
        word = make_word(gs.matrices, tokens)
        w = matmul_stack(word.product, u)
        if self.words and gs.mode == "sl" and op_norm(w) > gs.sl_radius + 1.0:
            self.failure = functools.partial(
                BallExit, f"iterate left the working ball (operator norm {op_norm(w):.3f})")
            return
        err = dist(w, np.eye(gs.dim), phases)
        if not self.words and err > eps0_constant(gs):
            self.failure = functools.partial(
                NetTooCoarse,
                f"best net start error {err:.3e} exceeds the basin radius "
                f"{eps0_constant(gs):.3e}; rebuild the net with longer words")
            return
        # this pass and the one before it both failed to contract; a
        # non-contracting pass is never a new best, so the best iterate is
        # among the kept ones
        if len(self.errors) >= 2 and err >= self.errors[-1] >= self.errors[-2]:
            best_pass = int(np.argmin(self.errors))
            best_error = self.errors[best_pass]
            floor = (self.words[best_pass].length + 1) * 2.0 ** -52
            self.failure = functools.partial(
                Stalled,
                f"two consecutive non-contracting passes: best error "
                f"{best_error:.3e} at pass {best_pass} (round-off floor "
                f"{floor:.1e}), last {err:.3e}",
                best_error=best_error, best_pass=best_pass, floor=floor)
            return
        self.words.append(word)
        self.errors.append(err)
        self.achieved.append(dist(word.product, self.u_inv, phases))
        self.det_residuals.append(abs(np.linalg.det(w) - 1.0))


def refine_inverse(gs: GateSet, net: EpsNet, gen_index: int,
                   eps_target: float) -> tuple[GateWord, float, RefineTrace]:
    """Inverse-free word approximating the inverse of one generator.

    Returns (word, achieved, trace) with achieved = distance of the word's
    product to the gate's inverse, up to a global d-th root of unity, at
    most eps_target.  Irrep members short-circuit to their exact table
    inverse.  Otherwise: scan the net for the seed V with V U closest to
    the identity, require that start inside the quadratic basin
    (NetTooCoarse if not), and iterate word symmetrization on W = V U, each
    pass's V being the pass without its trailing gate token.  Every error is
    measured on V's own fold (make_word), a re-multiplication of its tokens.

    The seed and passes are kept on net per gate set and gate, and extended
    only as far as a tolerance needs, so every call, in any order, returns
    or raises what a fresh run on a new net would.  Each call gets its own
    RefineTrace; the read-only words are shared.

    In sl mode the gates are determinant-one matrices inside a ball in
    SL(d): non-unitary inverses are taken by np.linalg.inv, every iterate
    gets a ball-exit check (BallExit), and convergence requires both the
    conjugated error dist(V U, I) and the returned error dist(V, U^-1) to
    pass eps_target (they differ by up to the operator norm of the inverse
    when the gate is not unitary).
    """
    u = gs.matrices[gen_index]
    u_inv = u.conj().T if gs.mode == "su" else np.linalg.inv(u)
    table = _table_inverse_word(gs, gen_index)
    if table is not None:
        achieved = dist(table.product, u_inv, gs.phase_candidates)
        tr = RefineTrace(start_error=achieved, exact_hit=True)
        tr.errors.append(achieved)
        tr.lengths.append(table.length)
        return table, achieved, tr
    key = (gs.fingerprint, gen_index)
    if key not in net._refined:
        net._refined[key] = _Trajectory(gs, gen_index, u_inv)
    return net._refined[key].result(net, eps_target)


def naive_inverse_length(gs: GateSet, gen_index: int, eps: float,
                         cap: int = 50_000_000) -> int:
    """Smallest k with dist(U^{k+1}, I) <= eps, i.e. U^k inverts U to eps.

    Distances are aligned over the global phase set.  Closed form for
    d = 2 unitaries: U^m has eigenvalues exp(-+ i m theta / 2), so the
    aligned distance is 2 sin of the distance of m theta / 4 to the nearest
    multiple of pi / 2.  Other cases run a plain power loop, after
    NonConvergent for an eigenvalue lambda with ||lambda| - 1| > eps, which
    keeps every power farther than eps from each phase times I.  A parabolic
    d = 2 gate, U = s (I + N) for s = +-1 and N != 0 nilpotent, raises
    NonConvergent once U and U^2 miss: ||U^m - z I|| = ||(1 - z s^m) I + m N||
    is convex in m and at least |1 - z s^m|, its value at m = 0, so it
    never falls as m grows within a parity.
    """
    u = gs.matrices[gen_index]
    phases = gs.phase_candidates
    if gs.dim == 2 and gs.mode == "su":
        w, x, y, z = su2_to_quaternion(u).tolist()
        theta = 2.0 * math.atan2(math.hypot(x, y, z), w)
        half_pi = np.pi / 2.0
        chunk = 1_000_000
        for lo in range(1, cap + 2, chunk):
            ms = np.arange(lo, min(lo + chunk, cap + 2), dtype=float)
            x = (ms * theta / 4.0) % half_pi
            v = np.minimum(x, half_pi - x)
            ok = np.nonzero(2.0 * np.sin(v) <= eps)[0]
            if ok.size:
                return int(ms[ok[0]]) - 1
        raise NonConvergent(f"no power of the gate inverts it within {cap} steps")
    modulus = max(np.abs(np.linalg.eigvals(u)), key=lambda m: abs(m - 1.0))
    if abs(modulus - 1.0) > eps:
        raise NonConvergent(f"no power of the gate inverts it: an eigenvalue has modulus "
                            f"{modulus:.6g}, off 1 by more than {eps:.3e}")
    eye = np.eye(gs.dim)
    parabolic = gs.dim == 2 and _parabolic(u)
    p = u.copy()
    for k in range(cap):
        if dist(p, eye, phases) <= eps:
            return k
        if k == 1 and parabolic:
            raise NonConvergent("no power of the gate inverts it: the gate is parabolic, "
                                "+-(I + N) with N nilpotent, and its powers +-(I + k N) "
                                "only move away")
        p = matmul_stack(p, u)
    raise NonConvergent(f"no power of the gate inverts it within {cap} steps")


def _parabolic(u: np.ndarray) -> bool:
    """Whether the 2 x 2 u is s (I + N) for s = +-1 and a nilpotent N:
    tr u = 2 s and (u - s I)^2 = 0, to a few ulps of ||u||^2, not to a gate
    set's tolerance.  An elliptic u of determinant 1 by a small angle theta
    misses both by about theta^2 / 4 (Cayley-Hamilton gives
    (u - s I)^2 = (tr u - 2 s) u), so it still runs the power loop."""
    s = 1.0 if np.trace(u).real >= 0 else -1.0
    n = u - s * np.eye(2)
    tol = 8 * np.finfo(float).eps * np.linalg.norm(u, 2) ** 2
    return abs(np.trace(n)) <= tol and np.abs(matmul_stack(n, n)).max() <= tol


# --- full compile pipeline ---

@dataclass(eq=False)
class CompileReport:
    """Outcome of one end-to-end inverse-free compilation."""

    target: np.ndarray
    eps: float
    indices: tuple[int, ...]
    error: float
    base_error: float
    base_length: int
    depth: int
    rotation: int
    inverted_extras: int
    inverted_counts: dict[int, int]
    refine_errors: dict[int, float]
    refine_lengths: dict[int, int]
    refine_traces: dict[int, RefineTrace]

    @property
    def length(self) -> int:
        return len(self.indices)

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "length": self.length,
            "error": self.error,
            "base_error": self.base_error,
            "base_length": self.base_length,
            "depth": self.depth,
            "rotation": self.rotation,
            "inverted_extras": self.inverted_extras,
            "inverted_counts": {str(k): v for k, v in self.inverted_counts.items()},
            "refine_errors": {str(k): v for k, v in self.refine_errors.items()},
            "refine_lengths": {str(k): v for k, v in self.refine_lengths.items()},
            "refine_traces": {str(k): t.as_dict()
                              for k, t in self.refine_traces.items()},
            "indices": list(self.indices),
        }


def sk_compile(gs: GateSet, target, eps: float, params: SKParams, refine_net: EpsNet):
    """compile_target's base stage: the SK word it accepts.

    It runs the classical commutator recursion over generators plus the
    inverses that are no generator up to a phase (extended_generators),
    one word at a time (sk_depths, given eps, which searches each depth's
    top commutator pair and, when a word of a depth is rejected
    within NEAR_MISS of eps, that depth's midpoint pairs before the next
    depth).  The stage approximates the target up to a global sign
    (sk_depths).  At each word whose SK error err_d is at most eps, it reads
    the word's tokens out freely reduced (net.gather cancels every adjacent
    g inverse[g], cascading; the product is the same), counts the m_d,i
    inverted tokens of each extra gate i, m_d in all, the only letters past
    the generators, and takes one refined inverse per distinct gate at
    (eps / 2) / m_d, with its achieved error a_i.  The first word with
    err_d + sum_i m_d,i a_i <= eps is accepted: by the triangle inequality
    over unitary substitutions that bounds the output's error.  A word whose
    SK error alone is at most eps / 2 always passes, and no later word is
    tried.  The refinements are shared across calls through refine_net and
    are exact for every tolerance (refine_inverse).

    Returns the accepted word's depth, pair (in steps of pi / ROTATIONS: 0
    the plain pair, even a searched pair, odd a midpoint), SK error, reduced
    tokens, counts m_d,i and refine_inverse result per gate with m_d,i > 0.
    """
    # a token e >= n is an inverted extra gate inv[e]
    n, inv = gs.gen_count, extended_inverse(gs)
    for depth, signed, _, base_error, rotation in sk_depths(gs, target, params, eps):
        if base_error > eps:
            continue
        base = params.net.gather(signed, inv)
        counts = np.bincount(inv[base[base >= n]], minlength=n)
        m = int(counts.sum())
        refined = {i: refine_inverse(gs, refine_net, i, (eps / 2.0) / m)
                   for i in counts.nonzero()[0].tolist()}
        if base_error + sum(counts[i] * r[1] for i, r in refined.items()) <= eps:
            return depth, rotation, base_error, base, counts, refined


def compile_target(gs: GateSet, target, eps: float, params: SKParams,
                   refine_net: EpsNet) -> CompileReport:
    """Compile target to an inverse-free word with error at most eps.

    Each inverted token of the base stage's word (sk_compile) is replaced by
    its gate's refined inverse.  base_length and inverted_extras describe the
    reduced base word; the output's length is base_length - m_d + sum_i
    m_d,i times the refined length of gate i.  The stages pass int arrays;
    indices is the one conversion to Python ints.

    The returned word is verified by one independent product of its
    generator matrices (make_word, which reads the products of whole blocks
    of tokens from a table built from those matrices, not from any product
    the earlier stages tracked); the reported error is that product's
    distance to the target up to a phase in gs.phase_candidates, which
    holds the sign that the base stage leaves open.
    """
    target = np.asarray(target, dtype=complex)
    depth, rotation, base_error, base, counts, refined = sk_compile(
        gs, target, eps, params, refine_net)
    n, inv = gs.gen_count, extended_inverse(gs)
    # one output segment per extended token: the token itself when forward,
    # the refined inverse word when an inverted extra gate (empty when that
    # gate does not occur); the output is the base word's segments laid end
    # to end, gathered from the segments' concatenation
    empty = np.zeros(0, dtype=np.intp)
    segments = [np.array([e]) if e < n else refined[inv[e]][0].tokens if inv[e] in refined
                else empty for e in range(len(inv))]
    seg_len = np.array([len(s) for s in segments], dtype=np.intp)
    seg_start = seg_len.cumsum() - seg_len
    word = make_word(gs.matrices, gather_segments(np.concatenate(segments),
                                                  seg_start[base], seg_len[base]))
    return CompileReport(
        target=target,
        eps=eps,
        indices=tuple(word.tokens.tolist()),
        error=dist(word.product, target, gs.phase_candidates),
        base_error=base_error,
        base_length=len(base),
        depth=depth,
        rotation=rotation,
        inverted_extras=int(counts.sum()),
        inverted_counts={i: int(counts[i]) for i in refined},
        refine_errors={i: r[1] for i, r in refined.items()},
        refine_lengths={i: r[0].length for i, r in refined.items()},
        refine_traces={i: r[2] for i, r in refined.items()},
    )


# --- ordering scan ---

# scan_orderings' perturbation sizes, and its vanish threshold as a fraction
# of the median coefficient
SCAN_EPS, SCAN_VANISH = (3e-4, 1e-4), 1e-3


def _exp_series(x: np.ndarray) -> np.ndarray:
    """exp(x) of a (d, d) x, or of each matrix of a stack, by its Taylor
    series to degree 6 in Horner form, I + x (I + x / 2 (... (I + x / 6))),
    multiplied by matmul_stack, so its bits are the same on every CPU and
    in every stack.  For the scan's ||x|| <= max(SCAN_EPS) = 3e-4 the first
    term left out, ||x||^7 / 7!, is below 1e-28."""
    eye = np.eye(x.shape[-1])
    w = eye + x / 6
    for k in (5, 4, 3, 2, 1):
        w = eye + matmul_stack(x, w) / k
    return w


def scan_orderings(rep: FiniteGroupRep, samples: int = 24, rng=None):
    """Measure the quadratic error coefficient per group-element ordering.

    The identity factor stays last; the other n - 1 elements are permuted.
    For each ordering the coefficient is the mean over random near-identity
    perturbations W = exp(i eps H), eps in SCAN_EPS, of dist(f(W), I) / eps^2:
    each W computed once (_exp_series), and each ordering's f one stacked
    symmetrize_matrix.
    Returns a list of (ordering, coefficient) sorted ascending and the vanish
    threshold (SCAN_VANISH times the median coefficient).
    """
    n = rep.order
    if math.factorial(n - 1) > 720:
        raise GroupTooLarge(
            f"ordering scan enumerates (n-1)! = {math.factorial(n - 1)} orders"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    eye = np.eye(rep.dim)
    perturbations = []
    for _ in range(samples):
        h = random_traceless_hermitian(rep.dim, rng)
        perturbations.append(h / op_norm(h))
    w = _exp_series(np.array([1j * eps * h for h in perturbations for eps in SCAN_EPS]))
    eps2 = np.tile(np.square(SCAN_EPS), samples)
    results = []
    for perm in itertools.permutations(range(1, n)):
        order = perm + (0,)
        r = dist(symmetrize_matrix(rep, w, order), eye, rep.phase_candidates)
        results.append((order, float(np.mean(r / eps2))))
    results.sort(key=lambda t: t[1])
    med = float(np.median([c for _, c in results]))
    return results, SCAN_VANISH * med
