"""Inverse-allowed Solovay-Kitaev base compiler for SU(2).

This stage is deliberately classical: it compiles over the gate set together
with the inverses of its generators, and the refinement stage then makes its
output inverse-free.  A word's tokens index extended_generators(gs), the
generators plus the inverses that are no generator up to a phase;
extended_inverse maps each token to its inverse's.
An irrep element's inverse is an irrep element, so the only letters past
the generators are inverted extra gates, and those are what the refinement
stage replaces.  A word is read out freely reduced (net.gather): no token is
followed by its inverse.

The stage computes in the unit quaternions of linalg (one Hamilton product,
qmul); 2x2 matrices only for the target.
The stage works up to sign, the global phase -1 that SU(2) words are
compared up to: the base net stores each rotation once and answers queries
up to sign (EpsNet.nearest), and a phase-reduced inverse letter may flip a
word's sign.  The recursion tracks the signed product of each net hit, and
a commutator A B A^dag B^dag does not change when A or B flips sign, so the
tracked product approximates the target and the word's own product equals
it up to sign.

The commutator step is exact in SU(2): a rotation by theta is the commutator
A B A^dag B^dag of two rotations by phi about orthogonal axes, with
sin^2(phi/2) = sin(theta/4), so both factors tilt toward the identity like
sqrt(theta) and the recursion contracts.  It runs level by level on stacks
of targets: one net lookup, one vectorized decomposition and (n, 4)
product stacks per level.  A depth-d word is 5^d net words end to end, so
the levels pass (n, 5^d) arrays of signed net indices (~i for net word i
inverted), and tokens are gathered only for the depths a caller reads out.

The decomposition is not unique: conjugating A and B by any rotation S about
delta's own axis leaves the commutator S delta S^dag = delta.  Each depth's
top level therefore tries K = ROTATIONS pairs of that one-parameter family,
approximates all 2K factors in one stack, and keeps the candidate word
closest to the target, scored in closed form as the distance of unit
quaternions, with an explicit rule for exact ties; K = 1 is the plain
recursion.  Error gained there turns into a shallower accepted depth, at
about 1/5 of the tokens per depth saved.  A depth whose predecessor missed the caller's eps by
at most NEAR_MISS tries the plain pair alone first, and searches only if that
word misses too.  A depth whose own word comes within NEAR_MISS of eps and is
still rejected is searched once more, at the K midpoints between its pairs,
before the next depth: a closer word of the same depth often passes, where
the next depth would cost about 5x the tokens.  There is one commutator
routine, balanced_commutator_decompose, batched over a stack of deltas: it
builds the rotation R that carries a fixed x/y pair onto delta's axis, and
for the family it composes each S into R before reading the factors' axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassError, DimError, DimUnsupported, NetTooCoarse, TooFar
from .gateset import GateSet
from .net import TIE, EpsNet, build_gateset_net
from .linalg import DEFAULT_TOL, qconj, qmul, quaternion_to_su2, su2_residual


def rotation(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return quaternion_to_su2(np.concatenate([[np.cos(angle / 2)],
                                             np.sin(angle / 2) * axis]))


def balanced_commutator_decompose(deltas: np.ndarray, angles=None) -> np.ndarray:
    """Exact A, B in SU(2) with A B A^dag B^dag = delta for each delta of an
    (n, 4) stack of quaternions; the quaternions of A and of B as one
    (2, n, 4) array, or (2, n, k, 4) given k angles.  Any other input, such
    as an (n, 2, 2) stack of matrices, raises DimError.

    Requires dist(delta, I) <= 1/4.  Both factors are rotations by
    phi = 2 arcsin(sqrt(sin(theta/4))) about an orthogonal axis pair, so
    dist(A, I) and dist(B, I) shrink like sqrt(dist(delta, I)).

    Everything is read from delta's quaternion (w, v) in closed form.  The
    distance to I is |q - 1|, and theta = 2 atan2(|v|, w) keeps its digits
    near the identity.  Rotations by phi about x and y, with (c, s) =
    (cos(phi/2), sin(phi/2)), have a commutator of angle theta about
    m = (s, -s, c) / sqrt(1 + s^2); the smallest rotation R taking m to
    n = v / |v| sends the x/y pair to the axes of A and B.

    Given angles, the pair is conjugated by the rotation S about n by each
    alpha (sk_depths passes pi r / ROTATIONS): S commutes with delta, so the
    commutator is kept, and S R sends the x/y pair to the conjugated axes,
    so R's quaternion r becomes qmul((cos(alpha/2), sin(alpha/2) n), r)
    before the axes are read.  At alpha = 0 that multiplies by 1 and adds
    products with 0: the plain pair bit for bit.  At delta = I both factors
    are I at every alpha.
    """
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
    k = _cross(m, n)
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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for 3-vectors along the first axis."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


# the number K of top-level commutator pairs each depth tries (1 is the plain
# recursion), and the near miss: a depth whose predecessor's error was at most
# NEAR_MISS * eps tries its plain pair before searching the family, and a
# rejected depth that close searches the K midpoints again (sk_depths)
ROTATIONS = 16
NEAR_MISS = 1.5


@dataclass(eq=False)
class SKParams:
    """Base-compiler configuration: the net over the generators and their
    inverses (extended_generators) and a depth cap."""

    net: EpsNet
    max_depth: int = 10


def base_params(gs: GateSet, word_length: int) -> SKParams:
    """Build the base net over extended_generators(gs) for the depth loop
    (sk_depths), at the default depth cap."""
    return SKParams(net=build_gateset_net(gs, word_length, with_inverses=True))


def check_base_compilable(gs: GateSet) -> None:
    """DimUnsupported unless gs is a d = 2, su mode set, as sk_depths needs."""
    if gs.dim != 2 or gs.mode != "su":
        raise DimUnsupported("the base compiler handles d = 2, su mode only")


def sk_depths(gs: GateSet, target, params: SKParams, eps: float = 0.0):
    """The commutator recursion for a SU(2) target, one depth at a time.

    Yields (depth, signed, product, error, rotation) for depth 0, 1, ... up
    to params.max_depth: the word as signed net indices (~i for net word i
    inverted, to be read out by net.gather over extended_inverse(gs)), the
    word's tracked product q, a (4,) quaternion (the read-out word's product
    up to sign: each net hit counts with the sign of the stored product it
    is near), its distance |q - q_target| to the target, which is the
    operator-norm distance on SU(2), and the top-level pair r it took (0 at
    depth 0).  Depths never decrease, and a depth may come twice (below).
    Asking past the depth cap raises NetTooCoarse with the smallest error
    seen, so a consumer (refine.sk_compile) accepts a word by its own rule
    and lets a loop over the words run out into that error.  Raises
    DimUnsupported away from d = 2, su mode (check_base_compilable) and
    ClassError for a target off SU(2).

    Depth d >= 1 writes delta = U W^dag, for the target U and the
    depth-(d - 1) word W, as the commutator of the pairs that
    balanced_commutator_decompose gives at alpha = pi r / K, K = ROTATIONS,
    with S_alpha composed into its rotation R: the K pairs at even r (r = 0
    is the plain pair) and their K midpoints at odd r.
    It approximates the factors of the pairs it tries at depth d - 1 in one
    stack and keeps the candidate closest to U, which is also the next
    depth's W.  Candidates within TIE (1e-12, the tie width of
    EpsNet.nearest) of the closest tie, and among them the one whose A and B
    net words have the fewest tokens, then the lowest r, wins: distinct
    pairs often give products equal in exact arithmetic (a factor
    approximated by the empty word makes every such commutator I), and
    round-off would otherwise pick.  eps is the caller's tolerance, and two
    rules spend the search where a word comes within NEAR_MISS * eps of it:
    - after such a depth-(d - 1) word, depth d takes the plain (r = 0) word
      when that is within eps and searches all K even r otherwise; the plain
      word usually passes there, and the search would cost K-fold for
      nothing;
    - when the caller asks past such a depth-d word, that is, rejects it,
      depth d searches its K midpoints from the same W, and yields depth d
      again with the closest of them if it is closer than the first word by
      more than TIE.  Depth d + 1 starts from the first word either way, so
      every later word is the one the recursion yields without the second.
    At K = 1, the plain recursion, and at eps = 0 every depth comes once.
    The search gains nothing where depth d - 1 already missed by far more
    than a depth's contraction: on pauli_ht at eps = 1e-7 it leaves the
    length within 1 % and still approximates 2K factors per depth.
    """
    check_base_compilable(gs)
    target = np.asarray(target, dtype=complex)
    target_q, residual = su2_residual(target)
    if not residual < DEFAULT_TOL:
        raise ClassError(f"target is not in SU(2): residual {residual:.3e}")
    net = params.net
    words, k = len(net), ROTATIONS

    def level(q: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Signed net indices (n, 5^depth) and product quaternions (n, 4) of
        the plain words for an (n, 4) stack of target quaternions."""
        if depth == 0:
            hits, _ = net.nearest(q)
            return (hits % words)[:, None], net.signed(hits)
        idx1, p1 = level(q, depth - 1)
        ab = balanced_commutator_decompose(qmul(q, qconj(p1)))
        (ia, ib), p = commutators(ab, p1, depth)
        return commutator_word(ia, ib, idx1), p

    def commutators(ab: np.ndarray, p1: np.ndarray, depth: int):
        """The depth - 1 words (2, n, 5^(depth - 1)) of the factor quaternions
        ab (2, n, 4), and the products A B A^dag B^dag p1 of the n
        commutators they form (p1 one product or n)."""
        idx, p = level(ab.reshape(-1, 4), depth - 1)
        n = ab.shape[1]
        # pa pb pa^dag pb^dag = x y^dag, with [x; y] = [pa pb; pb pa]
        xy = qmul(p, np.concatenate([p[n:], p[:n]]))
        return idx.reshape(2, n, -1), qmul(qmul(xy[:n], qconj(xy[n:])), p1)

    def commutator_word(ia, ib, idx1):
        """The signed words A B A^dag B^dag W along the last axis."""
        return np.concatenate([ia, ib, ~ia[..., ::-1], ~ib[..., ::-1], idx1], axis=-1)

    def error(p: np.ndarray) -> np.ndarray:
        """Distances ||A - B|| = |q_A - q_B| of (n, 4) quaternions to the target."""
        return np.linalg.norm(p - target_q, axis=-1)

    def search(family: np.ndarray, w1, depth: int, rs) -> tuple[tuple, float, int]:
        """The best of the top-level pairs r of rs from w1, the depth - 1
        word, given the factor quaternions (2, 2K, 4) of the pairs at every
        rotation r (phi = pi r / K): (signed (5^depth,), product (4,)), its
        error and its r.  Among the errors within TIE of the smallest, the
        fewest gross tokens (A's and B's net-word lengths summed), then the
        lowest r, win."""
        idx1, p1 = w1
        (ia, ib), p = commutators(family[:, rs], p1[None], depth)
        errors = error(p)
        tied = np.flatnonzero(errors <= errors.min() + TIE)
        j = tied[0]
        if len(tied) > 1:  # rs ascends: the first of the fewest has the lowest r
            i = np.concatenate([ia[tied], ib[tied]], axis=-1)
            i = np.where(i < 0, ~i, i)
            j = tied[np.argmin((net.offsets[i + 1] - net.offsets[i]).sum(-1))]
        return (commutator_word(ia[j], ib[j], idx1), p[j]), float(errors[j]), int(rs[j])

    # depth d starts from the depth-(d - 1) word, so each deepening step
    # reuses the previous one instead of recomputing it, and decomposes its
    # delta once for all 2K rotations that its searches may try
    pairs, midpoints = np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2)
    angles = np.arange(2 * k) * (math.pi / k)
    i, p = level(target_q[None], 0)
    word, err, r = (i[0], p[0]), float(error(p)[0]), 0
    best = err
    yield 0, word[0], word[1], err, r
    try:
        for depth in range(1, params.max_depth + 1):
            w1 = word
            delta = qmul(target_q, qconj(w1[1]))
            family = balanced_commutator_decompose(delta[None], angles)[:, 0]
            # err is still depth - 1's.  A missed plain word is searched again
            # with the other pairs, so that one tie rule picks among them all
            found = search(family, w1, depth, pairs[:1]) if err <= NEAR_MISS * eps else None
            if found is None or (found[1] > eps and k > 1):
                found = search(family, w1, depth, pairs)
            word, err, r = found
            best = min(best, err)
            yield depth, word[0], word[1], err, r
            # asked past a depth that came within NEAR_MISS: search its
            # midpoints from the same depth - 1 word before going deeper, and
            # yield their best if it is closer than word by more than a tie.
            # The next depth starts from word, the first one, either way
            if k > 1 and err <= NEAR_MISS * eps:
                (signed, product), closer, r = search(family, w1, depth, midpoints)
                if closer < err - TIE:
                    best = min(best, closer)
                    yield depth, signed, product, closer, r
    except TooFar as e:
        raise NetTooCoarse(
            f"base approximation too coarse for the commutator step: {e}"
        ) from e
    raise NetTooCoarse(
        f"depth cap {params.max_depth} reached at SK error {best:.3e}; "
        "the base net is too coarse for this tolerance"
    )
