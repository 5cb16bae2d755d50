"""Finite matrix groups presented as (possibly projective) irreps.

A representation is stored as an explicit list of matrices with the identity
pinned at index 0, together with lookup tables: a Cayley table of
(index, phase) pairs with rho(g1) rho(g2) = e^{i theta} rho(g3), and an
inverse table.  For a genuine irrep all phases are zero; a projective irrep
carries nonzero multiplier phases.  For determinant-1 representatives these
are d-th roots of unity (the determinant of rho(g1) rho(g2) = z rho(g3)
reads 1 = z^d), so the central-extension cover is Z rho(G), Z the roots the
phases generate, and closing it needs no search.

Conjugation-style averages are computed with exact matrix inverses
(adjoints in the unitary case), never with the raw inverse-table entries:
in a projective rep the table entry equals rho(g)^{-1} only up to a phase,
and while such phases merge into one global phase inside a *product*, they
do not cancel term-by-term inside a *sum*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousMatch,
    DimError,
    ExtensionOverflow,
    NotClosed,
    NotIrreducible,
    ProjectiveUnsupported,
)
from .linalg import (
    DEFAULT_TOL,
    check_class,
    dist,
    matmul_stack,
    require_matrix,
    su_normalize,
)

BUILTIN_GROUPS = ("pauli", "weyl", "q8", "s3")


@dataclass(frozen=True, eq=False)
class FiniteGroupRep:
    """A finite group of d x d matrices with its multiplication tables."""

    dim: int
    order: int
    elements: np.ndarray          # (n, d, d), elements[0] == I
    inv_elements: np.ndarray      # (n, d, d), exact matrix inverses
    cayley_index: np.ndarray      # (n, n) int
    cayley_phase: np.ndarray      # (n, n) float, in [0, 2*pi)
    inverse_index: np.ndarray     # (n,) int
    projective: bool
    unitary: bool
    tolerance: float
    closure_residual: float
    irreducibility_residual: float

    @property
    def phase_candidates(self) -> tuple[complex, ...]:
        """Global phases a word product may differ from its target by.

        Determinant-1 bookkeeping confines every phase in play to the d-th
        roots of unity; a genuine irrep introduces no phases at all.
        """
        if not self.projective:
            return (1.0 + 0j,)
        return tuple(np.exp(2j * np.pi * k / self.dim) for k in range(self.dim))


class IrreducibilityReport(NamedTuple):
    irreducible: bool
    residual: float
    threshold: float


def _match(mats: np.ndarray, ps: np.ndarray, up_to_phase: bool, skip=None):
    """Arrays (index, phase, residual): ps[i] ~ phase[i] mats[index[i]], the
    nearest listed element, at op-norm distance residual[i].

    One Gram product tr(E_k^dag P_i) gives every Frobenius-optimal phase
    z = tr / |tr| (z = 1 in exact mode) and ranks the elements by
    ||z E - P||_F^2 = ||E||^2 + ||P||^2 - 2 Re(conj(z) tr).  Row i may not
    match skip[i].
    """
    flat = mats.reshape(len(mats), -1)
    gram = ps.reshape(len(ps), -1) @ flat.conj().T
    z = gram / np.maximum(np.abs(gram), 1e-300) if up_to_phase else np.ones_like(gram)
    score = np.einsum("kj,kj->k", flat.conj(), flat).real - 2 * (z.conj() * gram).real
    rows = np.arange(len(ps))
    if skip is not None:
        score[rows, skip] = np.inf
    k = score.argmin(axis=1)
    phase = z[rows, k]
    return k, phase, dist(phase[:, None, None] * mats[k], ps)


def _tables(stack: np.ndarray, tol: float, up_to_phase: bool):
    """Reject (phase-)duplicate elements, then match every pairwise product,
    one Cayley-table row at a time."""
    n = len(stack)
    if n > 1:
        k, _, r = _match(stack, stack, up_to_phase, skip=np.arange(n))
        i = int(np.argmin(r))
        if r[i] <= tol:
            kind = "phase-equivalent" if up_to_phase else "equal"
            raise AmbiguousMatch(f"elements {i} and {k[i]} are {kind} (residual {r[i]:.3e})")
    index = np.zeros((n, n), dtype=int)
    phase = np.zeros((n, n), dtype=float)
    worst = 0.0
    for i in range(n):
        k, z, r = _match(stack, matmul_stack(stack[i], stack), up_to_phase)
        j = int(np.argmax(r))
        if r[j] > tol:
            raise NotClosed(
                f"product of elements {i} and {j} matches nothing "
                f"(best residual {r[j]:.3e} vs element {k[j]})"
            )
        index[i], phase[i] = k, np.angle(z) % (2 * np.pi)
        worst = max(worst, float(r[j]))
    return index, phase, worst


def _assemble(mats, tol: float, unitary: bool,
              allow_projective: bool = True) -> FiniteGroupRep:
    """Tables, inverses and the irreducibility check for a list of matrices.

    Raises NotClosed / AmbiguousMatch / NotIrreducible.
    """
    stack = np.stack([require_matrix(m) for m in mats])
    d = stack.shape[1]

    # Pin the identity at index 0, snapping its representative to exact I.
    # A phase-normalised set may list e.g. -I as its identity representative;
    # the choice of representative phase is free, so we standardise it.
    eye = np.eye(d, dtype=complex)
    k, _, r = _match(stack, eye[None], up_to_phase=False)
    if r[0] > tol and allow_projective:
        k, _, r = _match(stack, eye[None], up_to_phase=True)
    if r[0] > tol:
        raise NotClosed("no element is (phase-)equivalent to the identity")
    order = [int(k[0])] + [i for i in range(len(stack)) if i != k[0]]
    stack = stack[order]
    stack[0] = eye

    # Genuine closure first; fall back to phase matching.
    projective = False
    try:
        index, phase, worst = _tables(stack, tol, up_to_phase=False)
    except NotClosed:
        if not allow_projective:
            raise
        index, phase, worst = _tables(stack, tol, up_to_phase=True)
        projective = True

    hits = np.count_nonzero(index == 0, axis=1)
    if (hits != 1).any():
        g = int(np.argmax(hits != 1))
        raise NotClosed(f"element {g} has {hits[g]} table inverses")

    inv = stack.conj().transpose(0, 2, 1) if unitary else np.linalg.inv(stack)
    rep = FiniteGroupRep(
        dim=d,
        order=len(stack),
        elements=stack,
        inv_elements=inv,
        cayley_index=index,
        cayley_phase=phase,
        inverse_index=np.argmax(index == 0, axis=1),
        projective=projective,
        unitary=unitary,
        tolerance=tol,
        closure_residual=worst,
        irreducibility_residual=float("nan"),
    )
    report = check_irreducible(rep)
    if not report.irreducible:
        raise NotIrreducible(
            f"averaging criterion residual {report.residual:.3e} "
            f"exceeds threshold {report.threshold:.3e}"
        )
    object.__setattr__(rep, "irreducibility_residual", report.residual)
    return rep


def infer_group(mats, tol: float = DEFAULT_TOL, unitary: bool = True) -> FiniteGroupRep:
    """Build a FiniteGroupRep from a bare list of matrices.

    Tries genuine closure first and falls back to closure up to phase
    (projective).  Raises NotClosed / AmbiguousMatch / NotIrreducible.
    """
    if len(mats) == 0:
        raise NotClosed("empty element list")
    checked = [check_class(m, "su" if unitary else "sl", tol=tol) for m in mats]
    dims = {m.shape[0] for m in checked}
    if len(dims) != 1:
        raise DimError(f"elements have mixed dimensions {sorted(dims)}")
    return _assemble(checked, tol, unitary)


def check_irreducible(rep: FiniteGroupRep) -> IrreducibilityReport:
    """Averaging criterion on all d^2 matrix units.

    The rep is irreducible iff the average sum over g of rho(g) E_jl
    rho(g)^{-1} is |G| delta_jl / d * I for every matrix unit E_jl; the
    report carries the worst deviation.
    """
    d, n = rep.dim, rep.order
    # average all matrix units at once: S[j,l] = sum_g rho(g) E_jl rho(g)^{-1}
    s = np.einsum("gij,gkl->jkil", rep.elements, rep.inv_elements)
    expected = n / d * np.einsum("jk,il->jkil", np.eye(d), np.eye(d))
    residual = float(np.abs(s - expected).max())
    threshold = max(rep.tolerance, 1e-12) * n * d * 10
    return IrreducibilityReport(residual <= threshold, residual, threshold)


def check_schur_orthogonality(rep: FiniteGroupRep) -> float:
    """Max deviation of (d/|G|) sum_g rho(g)_ij conj(rho(g)_kl) from
    delta_ik delta_jl.  Only genuine irreps satisfy this as stated."""
    if rep.projective:
        raise ProjectiveUnsupported(
            "Schur orthogonality in this form needs a genuine irrep; "
            "apply central_extend first"
        )
    d, n = rep.dim, rep.order
    s = np.einsum("gij,gkl->ijkl", rep.elements, rep.elements.conj()) * (d / n)
    target = np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d)).astype(complex)
    return float(np.abs(s - target).max())


def central_extend(rep: FiniteGroupRep) -> FiniteGroupRep:
    """Close a projective rep under exact multiplication.

    The closure of rho(G) is Z rho(G), Z the scalars generated by the
    multiplier phases: it holds rho(g) rho(h) rho(gh)^{-1} = z(g, h) I, and
    Z rho(G) is closed.  det rho = 1 gives z^d = 1, so each phase is some
    omega^j, omega = e^{2 pi i / d}, and Z is generated by omega^step, step =
    gcd(d, all j).  The result is a genuine irrep of the k-fold cover,
    k = d / step; a genuine rep is its own cover.  Raises ExtensionOverflow
    if some phase is not a d-th root of unity.
    """
    if not rep.projective:
        return rep
    d = rep.dim
    j = rep.cayley_phase * d / (2 * np.pi)
    m = np.rint(j)
    # every product matched its table entry within tol, so a genuine root
    # phase lies about that close to omega^m
    off = np.abs(j - m).max() * 2 * np.pi / d
    if off > rep.tolerance:
        raise ExtensionOverflow(
            f"a multiplier phase lies {off:.3e} rad from the nearest d-th root of unity"
        )
    step = int(np.gcd.reduce(m.astype(int) % d, axis=None, initial=d))
    roots = np.exp(2j * np.pi * step * np.arange(d // step) / d)
    cover = (roots[:, None, None, None] * rep.elements).reshape(-1, d, d)
    return _assemble(cover, rep.tolerance, rep.unitary, allow_projective=False)


# --- builtin groups ---

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def builtin_matrices(name: str, dim: int | None = None):
    """Element matrices and display names for a builtin group."""
    if name == "pauli":
        mats = [np.eye(2, dtype=complex), su_normalize(_X), su_normalize(_Y),
                su_normalize(_Z)]
        return mats, ["I", "X", "Y", "Z"]
    if name == "q8":
        i2 = np.eye(2, dtype=complex)
        units = {"1": i2, "i": -1j * _X, "j": -1j * _Y, "k": -1j * _Z}
        mats, names = [], []
        for label, u in units.items():
            mats.extend([u, -u])
            names.extend([label, "-" + label])
        return mats, names
    if name == "s3":
        def rot(t):
            return np.array([[math.cos(t), -math.sin(t)],
                             [math.sin(t), math.cos(t)]], dtype=complex)

        def refl(t):
            return np.array([[math.cos(t), math.sin(t)],
                             [math.sin(t), -math.cos(t)]], dtype=complex)

        thirds = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        mats = [rot(t) for t in thirds] + [-1j * refl(t) for t in thirds]
        return mats, ["e", "r1", "r2", "s0", "s1", "s2"]
    if name == "weyl":
        if dim is None or dim < 2:
            raise ValueError("weyl needs an explicit dimension >= 2")
        # S^a C^b, for the shift S e_j = e_(j+1) and the clock C = diag(w^j),
        # w = e^(2 pi i / d): S^a with column j scaled by w^(b j), no product
        mats, names = [], []
        for a in range(dim):
            for b in range(dim):
                mats.append(su_normalize(np.roll(np.eye(dim), a, axis=0)
                                         * np.exp(2j * np.pi * b * np.arange(dim) / dim)))
                names.append(f"W{a}{b}")
        return mats, names
    raise ValueError(f"unknown builtin group {name!r}; choose from {BUILTIN_GROUPS}")


def build_builtin(name: str, dim: int | None = None,
                  tol: float = DEFAULT_TOL) -> FiniteGroupRep:
    """Construct one of the builtin irreps: pauli, weyl (needs dim), q8, s3."""
    mats, _ = builtin_matrices(name, dim)
    return infer_group(mats, tol=tol, unitary=True)
