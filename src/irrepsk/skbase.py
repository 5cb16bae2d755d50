"""Inverse-allowed Solovay-Kitaev base compiler for SU(2).

This stage is deliberately classical: it compiles over the gate set together
with the inverses of all generators, and its output is then post-processed
into an inverse-free word by the refinement stage.  Words are GateWords whose
tokens index extended_generators(gs); extended_inverse maps each token to
its inverse's.  Inverted irrep tokens can be rewritten in place via the
group's inverse table, and inverted extra-gate tokens are what the
refinement stage replaces.

The group-commutator step uses the exact SU(2) construction: a target
rotation by angle theta equals the commutator A B A^dag B^dag of two
rotations by phi about orthogonal axes, with sin^2(phi/2) = sin(theta/4).
Both factors tilt toward the identity like sqrt(theta), which is what makes
the recursion contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimUnsupported, NetTooCoarse, TooFar
from .gateset import GateSet, GateWord
from .net import EpsNet, build_gateset_net, extended_inverse
from .linalg import dist, quaternion_to_su2, su2_to_quaternion


def rotation(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return quaternion_to_su2(np.concatenate([[np.cos(angle / 2)],
                                             np.sin(angle / 2) * axis]))


def balanced_commutator_decompose(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact A, B in SU(2) with A B A^dag B^dag = delta.

    Requires dist(delta, I) <= 1/4.  Both factors are rotations by
    phi = 2 arcsin(sqrt(sin(theta/4))) about an orthogonal axis pair, so
    dist(A, I) and dist(B, I) shrink like sqrt(dist(delta, I)).

    Everything is read from delta's quaternion (w, v) in closed form.  The
    distance to I is |q - 1|, and theta = 2 atan2(|v|, w) keeps its digits
    near the identity.  Rotations by phi about x and y, with (c, s) =
    (cos(phi/2), sin(phi/2)), have a commutator of angle theta about
    m = (s, -s, c) / sqrt(1 + s^2); the smallest rotation R taking m to
    n = v / |v| sends the x/y pair to the axes of A and B.
    """
    if delta.shape != (2, 2):
        raise DimUnsupported("commutator decomposition is SU(2)-only")
    w, x, y, z = su2_to_quaternion(delta).tolist()
    gap = math.hypot(w - 1.0, x, y, z)
    if gap > 0.25 + 1e-12:
        raise TooFar(f"dist(delta, I) = {gap:.4f} > 1/4")
    vn = math.hypot(x, y, z)
    s = math.sqrt(math.sin(0.5 * math.atan2(vn, w)))
    if s == 0.0:
        return np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    c, sc = math.sqrt(1.0 - s * s), math.sqrt(1.0 + s * s)
    m = (s / sc, -s / sc, c / sc)
    n = (x / vn, y / vn, z / vn)
    # R turns by the angle between m and n about k = m x n, with k's
    # rounding taken off m so that R m = n stays accurate as n nears -m.
    # Its quaternion is (|m + n|, |m - n| k / |k|) / 2.  If n = +-m exactly,
    # any k normal to m serves; (1, 1, 0) is, and for n = -m R swaps x and y
    k = (m[1] * n[2] - m[2] * n[1], m[2] * n[0] - m[0] * n[2], m[0] * n[1] - m[1] * n[0])
    mk = m[0] * k[0] + m[1] * k[1] + m[2] * k[2]
    k = (k[0] - mk * m[0], k[1] - mk * m[1], k[2] - mk * m[2])
    kn = math.hypot(*k)
    if kn == 0.0:
        k, kn = (1.0, 1.0, 0.0), math.sqrt(2.0)
    rk = 0.5 * math.hypot(m[0] - n[0], m[1] - n[1], m[2] - n[2]) / kn
    r0, r1, r2, r3 = (0.5 * math.hypot(m[0] + n[0], m[1] + n[1], m[2] + n[2]),
                      rk * k[0], rk * k[1], rk * k[2])
    # the first two columns of R's rotation matrix
    ax = (1 - 2 * (r2 * r2 + r3 * r3), 2 * (r1 * r2 + r0 * r3), 2 * (r1 * r3 - r0 * r2))
    ay = (2 * (r1 * r2 - r0 * r3), 1 - 2 * (r1 * r1 + r3 * r3), 2 * (r2 * r3 + r0 * r1))
    a, b = quaternion_to_su2([(c, s * ax[0], s * ax[1], s * ax[2]),
                              (c, s * ay[0], s * ay[1], s * ay[2])])
    return a, b


@dataclass(eq=False)
class SKParams:
    """Base-compiler configuration: the inverse-closed net and a depth cap.

    eps_base is the measured base-case accuracy (probed net density) when
    known; the commutator step needs it at or below 1/32, and a probed value
    above that is rejected up front instead of failing mid-recursion.
    """

    net: EpsNet
    max_depth: int = 10
    eps_base: float | None = None

    def __post_init__(self):
        if len(self.net) == 0:
            raise NetTooCoarse("base net is empty")
        if self.eps_base is not None and self.eps_base > 1.0 / 32.0:
            raise NetTooCoarse(
                f"probed base density {self.eps_base:.4f} exceeds 1/32"
            )


def base_params(gs: GateSet, word_length: int, budget: int = 2_000_000,
                max_depth: int = 10, probes: int = 0, rng=None) -> SKParams:
    """Build the inverse-closed base net for sk_compile.

    With probes > 0 the net density is measured on that many random targets
    and recorded as eps_base (rejecting nets coarser than 1/32).
    """
    net = build_gateset_net(gs, word_length, with_inverses=True, budget=budget)
    eps_base = None
    if probes > 0:
        from .net import probe_density
        if rng is None:
            rng = np.random.default_rng(0)
        eps_base = probe_density(net, probes, rng)
    return SKParams(net=net, max_depth=max_depth, eps_base=eps_base)


def sk_compile(gs: GateSet, target, eps: float, params: SKParams) -> GateWord:
    """Approximate a SU(2) target to operator-norm eps over gens and inverses.

    The returned word's tokens index extended_generators(gs).  Iteratively
    deepens the standard commutator recursion until the measured error
    passes eps; raises NetTooCoarse if the depth cap is hit first, and
    DimUnsupported away from d = 2.
    """
    if gs.dim != 2 or gs.mode != "su":
        raise DimUnsupported("the base compiler handles d = 2, su mode only")
    target = np.asarray(target, dtype=complex)
    inv = extended_inverse(gs)

    def invert(w: GateWord) -> GateWord:
        return GateWord(tuple(inv[e] for e in reversed(w.tokens)), w.product.conj().T)

    def recurse(u: np.ndarray, depth: int, w1: GateWord | None = None) -> GateWord:
        if depth == 0:
            return params.net.nearest(u)[0]
        if w1 is None:
            w1 = recurse(u, depth - 1)
        a, b = balanced_commutator_decompose(u @ w1.product.conj().T)
        wa = recurse(a, depth - 1)
        wb = recurse(b, depth - 1)
        wa_inv = invert(wa)
        wb_inv = invert(wb)
        tokens = wa.tokens + wb.tokens + wa_inv.tokens + wb_inv.tokens + w1.tokens
        product = (wa.product @ wb.product @ wa_inv.product
                   @ wb_inv.product @ w1.product)
        return GateWord(tokens, product)

    # the depth-k recursion starts from the depth-(k - 1) word, so each
    # deepening step reuses the previous one instead of recomputing it
    best = word = None
    for depth in range(params.max_depth + 1):
        try:
            word = recurse(target, depth, word)
        except TooFar as e:
            raise NetTooCoarse(
                f"base approximation too coarse for the commutator step: {e}"
            ) from e
        err = dist(word.product, target)
        if best is None or err < best[1]:
            best = (word, err)
        if err <= eps:
            return word
    raise NetTooCoarse(
        f"depth cap {params.max_depth} reached at error {best[1]:.3e} > {eps:.3e}; "
        "the base net is too coarse for this tolerance"
    )


def rewrite_irrep_inverses(gs: GateSet, word: GateWord) -> GateWord:
    """Replace every inverted irrep token by its table inverse.

    Tokens index extended_generators(gs) on input and output.  The table
    inverse of g is z_g g^-1 with z_g = tr(table_inverse(g) g) / d, a d-th
    root of unity (exactly 1 for a genuine irrep).  The product is therefore
    not re-multiplied: it is the input product times the tracked phase, the
    product of z_g over the rewritten tokens.  Afterwards every token past
    the forward generators is an inverted extra gate.
    """
    d = gs.dim
    inv = extended_inverse(gs)
    table = {}
    for g in range(1, gs.rep.order):
        j = int(gs.rep.inverse_index[g])
        table[inv[g]] = (j, np.trace(gs.matrices[j] @ gs.matrices[g]) / d)
    tokens = []
    phase = 1.0
    for e in word.tokens:
        if e in table:
            e, z = table[e]
            phase *= z
        tokens.append(e)
    return GateWord(tuple(tokens), word.product * phase)
