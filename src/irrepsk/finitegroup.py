"""Finite matrix groups presented as (possibly projective) irreps.

A representation is stored as an explicit list of matrices with the identity
pinned at index 0, together with lookup tables: a Cayley table of
(index, phase) pairs with rho(g1) rho(g2) = e^{i theta} rho(g3), and an
inverse table.  For a genuine irrep all phases are zero; a projective irrep
carries nonzero multiplier phases, which (for determinant-1 representatives)
are always d-th roots of unity.

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
    MatrixClass,
    check_class,
    dist,
    frobenius_phase,
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


def _flat(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(mats.shape[0], -1)


def _best_match(mats: np.ndarray, p: np.ndarray, up_to_phase: bool):
    """Index, phase and op-norm residual of the listed element closest to p.

    Phase mode matches p against e^{i phi} * element with the Frobenius-optimal
    phi; exact mode forces phi = 0.
    """
    flat = _flat(mats)
    target = p.reshape(-1)
    phases = np.ones(len(flat), dtype=complex)
    if up_to_phase:
        tr = flat.conj() @ target                  # tr(E_k^dag P)
        phases = np.where(np.abs(tr) > 1e-300, tr / np.maximum(np.abs(tr), 1e-300), 1.0)
    resid = np.linalg.norm(flat * phases[:, None] - target[None, :], axis=1)
    k = int(np.argmin(resid))
    return k, complex(phases[k]), dist(phases[k] * mats[k], p)


def _ambiguity_check(mats: np.ndarray, tol: float, up_to_phase: bool) -> None:
    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            z = frobenius_phase(mats[i], mats[j]) if up_to_phase else 1.0
            r = dist(mats[i], mats[j], (z,))
            if r <= tol:
                kind = "phase-equivalent" if up_to_phase else "equal"
                raise AmbiguousMatch(f"elements {i} and {j} are {kind} (residual {r:.3e})")


def _build_tables(mats: np.ndarray, tol: float, up_to_phase: bool):
    """Cayley tables by brute-force matching of all pairwise products."""
    n, d = len(mats), mats.shape[1]
    index = np.zeros((n, n), dtype=int)
    phase = np.zeros((n, n), dtype=float)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            p = mats[i] @ mats[j]
            k, z, r = _best_match(mats, p, up_to_phase)
            if r > tol:
                raise NotClosed(
                    f"product of elements {i} and {j} matches nothing "
                    f"(best residual {r:.3e} vs element {k})"
                )
            index[i, j] = k
            phase[i, j] = float(np.angle(z)) % (2 * np.pi)
            worst = max(worst, r)
    return index, phase, worst


def _find_identity(mats: np.ndarray, tol: float, up_to_phase: bool) -> int:
    eye = np.eye(mats.shape[1], dtype=complex)
    for k in range(len(mats)):
        z = frobenius_phase(eye, mats[k]) if up_to_phase else 1.0
        if dist(eye, mats[k], (z,)) <= tol:
            return k
    raise NotClosed("no element is (phase-)equivalent to the identity")


def _assemble(mats: list[np.ndarray], tol: float, unitary: bool,
              allow_projective: bool = True) -> FiniteGroupRep:
    stack = np.stack([require_matrix(m) for m in mats])
    d = stack.shape[1]

    # Pin the identity at index 0, snapping its representative to exact I.
    # A phase-normalised set may list e.g. -I as its identity representative;
    # the choice of representative phase is free, so we standardise it.
    try:
        idx = _find_identity(stack, tol, up_to_phase=False)
    except NotClosed:
        if not allow_projective:
            raise
        idx = _find_identity(stack, tol, up_to_phase=True)
    order = [idx] + [k for k in range(len(stack)) if k != idx]
    stack = stack[order]
    stack[0] = np.eye(d, dtype=complex)

    # Genuine closure first; fall back to phase matching.
    projective = False
    try:
        _ambiguity_check(stack, tol, up_to_phase=False)
        index, phase, worst = _build_tables(stack, tol, up_to_phase=False)
    except NotClosed:
        if not allow_projective:
            raise
        _ambiguity_check(stack, tol, up_to_phase=True)
        index, phase, worst = _build_tables(stack, tol, up_to_phase=True)
        projective = True

    n = len(stack)
    inverse_index = np.zeros(n, dtype=int)
    for g in range(n):
        hs = np.nonzero(index[g] == 0)[0]
        if len(hs) != 1:
            raise NotClosed(f"element {g} has {len(hs)} table inverses")
        inverse_index[g] = hs[0]

    if unitary:
        inv = stack.conj().transpose(0, 2, 1)
    else:
        inv = np.linalg.inv(stack)

    rep = FiniteGroupRep(
        dim=d,
        order=n,
        elements=stack,
        inv_elements=inv,
        cayley_index=index,
        cayley_phase=phase,
        inverse_index=inverse_index,
        projective=projective,
        unitary=unitary,
        tolerance=tol,
        closure_residual=worst,
        irreducibility_residual=float("nan"),
    )
    report = check_irreducible(rep)
    object.__setattr__(rep, "irreducibility_residual", report.residual)
    return rep


def infer_group(mats, tol: float = DEFAULT_TOL, unitary: bool = True) -> FiniteGroupRep:
    """Build a FiniteGroupRep from a bare list of matrices.

    Tries genuine closure first and falls back to closure up to phase
    (projective).  Raises NotClosed / AmbiguousMatch / NotIrreducible.
    """
    if len(mats) == 0:
        raise NotClosed("empty element list")
    klass = MatrixClass.SPECIAL_UNITARY if unitary else MatrixClass.SPECIAL_LINEAR
    checked = [check_class(m, klass, tol=tol) for m in mats]
    dims = {m.shape[0] for m in checked}
    if len(dims) != 1:
        raise DimError(f"elements have mixed dimensions {sorted(dims)}")
    rep = _assemble(checked, tol, unitary)
    report = check_irreducible(rep)
    if not report.irreducible:
        raise NotIrreducible(
            f"averaging criterion residual {report.residual:.3e} "
            f"exceeds threshold {report.threshold:.3e}"
        )
    return rep


def average(rep: FiniteGroupRep, m) -> np.ndarray:
    """sum over g of rho(g) M rho(g)^{-1} (adjoint conjugation when unitary).

    For an irrep this equals |G| (tr M / d) I for every M, projective or not.
    """
    a = require_matrix(m)
    if a.shape[0] != rep.dim:
        raise DimError(f"matrix dimension {a.shape[0]} != rep dimension {rep.dim}")
    return np.einsum("gij,jk,gkl->il", rep.elements, a, rep.inv_elements)


def check_irreducible(rep: FiniteGroupRep) -> IrreducibilityReport:
    """Averaging criterion on all d^2 matrix units.

    The rep is irreducible iff average(E_jl) = |G| delta_jl / d * I for every
    matrix unit E_jl; the report carries the worst deviation.
    """
    d, n = rep.dim, rep.order
    # average all matrix units at once: S[j,l] = sum_g rho(g) E_jl rho(g)^{-1}
    s = np.einsum("gij,gkl->jkil", rep.elements, rep.inv_elements)
    expected = np.zeros_like(s)
    for j in range(d):
        expected[j, j] = n / d * np.eye(d)
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

    The result is a genuine irrep of a k-fold cover, k = |G'|/|G| dividing d.
    A genuine rep extends to itself (k = 1).
    """
    if not rep.projective:
        return rep
    d, tol = rep.dim, rep.tolerance
    bound = d * rep.order
    mats = [rep.elements[i].copy() for i in range(rep.order)]
    frontier = list(range(len(mats)))
    while frontier:
        fresh: list[int] = []
        for i in frontier:
            for j in range(rep.order):
                p = mats[i] @ rep.elements[j]
                stack = np.stack(mats)
                _, _, r = _best_match(stack, p, up_to_phase=False)
                if r > tol:
                    if len(mats) >= bound:
                        raise ExtensionOverflow(
                            f"closure exceeded {bound} elements; multiplier "
                            "phases are not d-th roots of unity"
                        )
                    mats.append(p)
                    fresh.append(len(mats) - 1)
        frontier = fresh
    if len(mats) % rep.order != 0 or d % (len(mats) // rep.order) != 0:
        raise ExtensionOverflow(
            f"cover order {len(mats)} is not |G| * k with k dividing d"
        )
    return _assemble(mats, tol, rep.unitary, allow_projective=False)


def check_cover_equivalence(rep: FiniteGroupRep, m,
                            cover: FiniteGroupRep | None = None) -> float:
    """||average(cover, M) - k * average(rep, M)|| for k = |cover|/|G|.

    The cover's sum runs over each phase class k times, and conjugation kills
    the phases, so the two averages agree up to the factor k.
    """
    if cover is None:
        cover = central_extend(rep)
    k = cover.order // rep.order
    return dist(average(cover, m), k * average(rep, m))


# --- builtin groups ---

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _weyl_pair(d: int):
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return shift, clock


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
        shift, clock = _weyl_pair(dim)
        mats, names = [], []
        for a in range(dim):
            for b in range(dim):
                mats.append(su_normalize(np.linalg.matrix_power(shift, a)
                                         @ np.linalg.matrix_power(clock, b)))
                names.append(f"W{a}{b}")
        return mats, names
    raise ValueError(f"unknown builtin group {name!r}; choose from {BUILTIN_GROUPS}")


def build_builtin(name: str, dim: int | None = None,
                  tol: float = DEFAULT_TOL) -> FiniteGroupRep:
    """Construct one of the builtin irreps: pauli, weyl (needs dim), q8, s3."""
    mats, _ = builtin_matrices(name, dim)
    return infer_group(mats, tol=tol, unitary=True)
