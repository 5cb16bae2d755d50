"""Dense complex-matrix primitives used by every stage of the compiler.

Matrices are plain numpy arrays of shape (d, d) and dtype complex128.  There
is one product kernel, matmul_stack, which forms every complex matrix product
of the program, and one distance routine, dist: the operator-norm (largest
singular value) distance taken up to a set of global phases, over one matrix
or a stack.  That is the unitarily invariant metric the contraction analysis
is stated in, up to the d-th roots of unity a projective irrep's products
pick up.  On SU(2) quaternions (su2_to_quaternion) dist has the closed form
qdist, the Euclidean distance, which the SK stage and the net lookup use.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import ClassError, DimError, InvalidMatrix

DEFAULT_TOL = 1e-9


def require_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting bad shapes and NaN/Inf."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix contains non-finite entries")
    return a


def op_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(require_matrix(m), compute_uv=False)[0])


def dist(a, b, phases=(1.0,)):
    """min over z in phases of the operator norm ||a - z b||.

    a is one (d, d) matrix, giving a float, or an (N, d, d) stack, giving an
    array of N distances; b is one (d, d) matrix, or a stack the shape of a
    that is paired with it matrix by matrix.  Projective-mode callers pass
    the d-th roots of unity as phases: those are the only global phases a
    word product can pick up relative to its target, since every factor has
    determinant 1.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim not in (2, 3) or b.shape not in (a.shape, a.shape[-2:]):
        raise DimError(f"shape mismatch {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidMatrix("matrix contains non-finite entries")
    d = reduce(np.minimum, (np.linalg.svd(a - z * b, compute_uv=False)[..., 0]
                            for z in phases))
    return float(d) if a.ndim == 2 else d


def matmul_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product a b, broadcasting as np.matmul does (one (d, d)
    matrix against a stack, or (n, 1, d, d) against (g, d, d)): the
    program's one complex matrix-product kernel.  Entry (i, j) is the sum
    over k < d, in order, of a[i, k] b[k, j], formed elementwise as broadcast
    outer products of the columns of a with the rows of b.  So a product's
    bits depend neither on the CPU's BLAS kernel nor on the stack it is in
    (only on numpy's complex multiply, which fuses its multiply-adds on CPUs
    with FMA), and for small d this is several times faster than np.matmul,
    whose cost is per matrix."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def unitarity_residual(m) -> float:
    a = require_matrix(m)
    return dist(matmul_stack(a.conj().T, a), np.eye(a.shape[0]))


def sl_residual(m) -> float:
    return abs(complex(np.linalg.det(require_matrix(m))) - 1.0)


def check_class(m, mode: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate m against a gate-set mode's matrix class; returns m on success.

    Mode "su" (special unitary) requires both unitarity and det 1, mode "sl"
    (special linear) only det 1.
    """
    a = require_matrix(m)
    r = sl_residual(a)
    if r > tol:
        raise ClassError(f"|det - 1| = {r:.3e} exceeds tolerance {tol:.1e}")
    if mode == "su":
        u = unitarity_residual(a)
        if u > tol:
            raise ClassError(
                f"unitarity residual {u:.3e} exceeds tolerance {tol:.1e}"
            )
    return a


def su_normalize(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rescale a unitary by the principal d-th root of its determinant.

    det(m) = e^{i phi} with phi in (-pi, pi]; the result is e^{-i phi/d} m,
    which has determinant 1.  The branch choice makes su_normalize(X) = -iX.
    """
    a = require_matrix(m)
    u = unitarity_residual(a)
    if u > tol:
        raise ClassError(f"su_normalize needs a unitary input, residual {u:.3e}")
    phi = float(np.angle(np.linalg.det(a)))
    return np.exp(-1j * phi / a.shape[0]) * a


def su2_to_quaternion(u: np.ndarray) -> np.ndarray:
    """Components (w, x, y, z) with u = w I - i (x X + y Y + z Z).

    u is one (2, 2) matrix, giving shape (4,), or an (N, 2, 2) stack, giving
    (N, 4).  For A, B in SU(2), A - B = |q_A - q_B| times an SU(2) matrix, so
    the operator-norm distance is the Euclidean distance of the quaternions.
    """
    return np.array([u[..., 0, 0].real, -u[..., 0, 1].imag,
                     -u[..., 0, 1].real, -u[..., 0, 0].imag]).T


# I, -iX, -iY and -iZ, flattened row-major
_SU2_BASIS = np.array([[1, 0, 0, 1], [0, -1j, -1j, 0], [0, -1, 1, 0], [-1j, 0, 0, 1j]])


def quaternion_to_su2(q) -> np.ndarray:
    """Inverse of su2_to_quaternion: shape (4,) gives one (2, 2) matrix,
    (N, 4) an (N, 2, 2) stack."""
    q = np.asarray(q, dtype=float)
    return (q @ _SU2_BASIS).reshape(q.shape[:-1] + (2, 2))


# row 4 i + j: the quaternion of e_i e_j, e = I, -iX, -iY, -iZ (+ 0.0 clears -0.0)
_E = quaternion_to_su2(np.eye(4))
_QMUL = su2_to_quaternion((_E[:, None] @ _E[None]).reshape(16, 2, 2)) + 0.0


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) quaternion stacks, broadcasting as numpy
    does (one row against n): the quaternion of the matrix product A B."""
    ab = a[..., :, None] * b[..., None, :]
    return ab.reshape(ab.shape[:-2] + (16,)) @ _QMUL


def qdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| over the last axis of (..., 4) quaternion stacks, broadcasting
    as qmul does: dist(A, B) for A, B in SU(2).  It has the bits of a k-d
    tree query: the squared differences summed in the order w, x, y, z,
    then the square root."""
    s = (x - y) ** 2
    return np.sqrt(s[..., 0] + s[..., 1] + s[..., 2] + s[..., 3])


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def qconj(q: np.ndarray) -> np.ndarray:
    """Conjugate quaternions (w, -x, -y, -z), the adjoint on SU(2): one
    product with the module constant _CONJ, with no list to convert."""
    return q * _CONJ


def su2_residual(u: np.ndarray) -> tuple[np.ndarray, float]:
    """The quaternion q of a (2, 2) matrix's first row, and the larger of
    |q.q - 1| and max |quaternion_to_su2(q) - u|: 0 on SU(2), NaN if either is."""
    q = su2_to_quaternion(u)
    return q, float(np.maximum(abs(q @ q - 1.0), np.abs(quaternion_to_su2(q) - u).max()))


# --- seeded samplers used by probes, benchmarks and tests ---

def random_su(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SU(d) element (exactly Haar for d = 2)."""
    if d == 2:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        return quaternion_to_su2(qconj(q))
    zmat = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(zmat)
    ph = np.diagonal(r)
    q = q * (ph / np.abs(ph)).conj()
    return su_normalize(q)


def random_traceless_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    h -= np.trace(h) / d * np.eye(d)
    return h / np.linalg.norm(h, 2)
