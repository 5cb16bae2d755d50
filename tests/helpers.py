"""Checks and samplers that only the tests use: the length formula of one
symmetrization pass, the trace bound, the group average, the cover's
averaging identity and random determinant-one matrices near the identity."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from irrepsk.errors import DimError
from irrepsk.finitegroup import FiniteGroupRep, central_extend
from irrepsk.linalg import dist, require_matrix


def symmetrized_length(group_order: int, length: int) -> int:
    return group_order * length + 2 * (group_order - 1)


def check_smalltrace(m: np.ndarray) -> tuple[float, float]:
    """(|tr m - d|, (2^d + d!) * dist(m, I)^2) for a determinant-one matrix."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    if abs(np.linalg.det(m) - 1.0) > 1e-6:
        raise DimError("trace bound needs determinant one")
    lhs = abs(np.trace(m) - d)
    rhs = (2.0 ** d + math.factorial(d)) * dist(m, np.eye(d)) ** 2
    return lhs, rhs


def average(rep: FiniteGroupRep, m) -> np.ndarray:
    """sum over g of rho(g) M rho(g)^{-1} (adjoint conjugation when unitary).

    For an irrep this equals |G| (tr M / d) I for every M, projective or not.
    """
    a = require_matrix(m)
    if a.shape[0] != rep.dim:
        raise DimError(f"matrix dimension {a.shape[0]} != rep dimension {rep.dim}")
    return np.einsum("gij,jk,gkl->il", rep.elements, a, rep.inv_elements)


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


def random_traceless(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a -= np.trace(a) / d * np.eye(d)
    return a / np.linalg.norm(a, 2)


def random_sl_near_identity(d: int, rng: np.random.Generator,
                            max_dist: float) -> np.ndarray:
    """Random determinant-1 matrix with dist(M, I) <= max_dist."""
    a = random_traceless(d, rng)
    t = rng.uniform(0.0, 0.8 * max_dist)
    m = scipy.linalg.expm(t * a)
    while dist(m, np.eye(d)) > max_dist:
        t *= 0.5
        m = scipy.linalg.expm(t * a)
    return m
