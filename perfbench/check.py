"""Independent checks on compiled words, sharing no code with irrepsk.

Gate matrices are parsed from the gate-set JSON and scaled to determinant 1
here; words are multiplied by a pairwise tree reduction, a different
association order from the compiler's left-to-right folds.  Every check
raises CheckFailed with the measured numbers.
"""

from __future__ import annotations

import numpy as np

# Float64 round-off allowance for a product of L unitaries: each 2x2 matmul
# adds a few ulps, and the errors add at worst linearly in L.
ULP = 2.0 ** -52
ROUNDOFF_PER_GATE = 64.0 * ULP

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CheckFailed(Exception):
    pass


def _det_one(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return m / np.sqrt(det)


def gate_matrices(doc: dict) -> tuple[list[str], np.ndarray]:
    """Names and SU(2) matrices of the forward generators of a Pauli-based
    set, in file order: I, X, Y, Z, then the extra gates."""
    if doc.get("dimension") != 2 or doc.get("irrep") != {"builtin": "pauli"}:
        raise CheckFailed("the checker knows only one-qubit Pauli-based gate sets")
    names, mats = list(PAULI), list(PAULI.values())
    for gate in doc["gates"]:
        names.append(gate["name"])
        mats.append(np.array([complex(re, im) for re, im in gate["matrix"]]).reshape(2, 2))
    return names, np.stack([_det_one(m) for m in mats])


def tree_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product of a stack of 2x2 matrices, reduced pairwise."""
    m = mats
    while len(m) > 1:
        if len(m) % 2:
            m = np.concatenate([m, np.eye(2, dtype=complex)[None]])
        m = m[0::2] @ m[1::2]
    return m[0]


def dist_up_to_sign(a: np.ndarray, b: np.ndarray) -> float:
    return min(np.linalg.norm(a - b, 2), np.linalg.norm(a + b, 2))


def check_word(word, mats: np.ndarray, target: np.ndarray, eps: float,
               reported_error: float) -> float:
    """Check one compiled word, given as positions in mats; returns its
    independently measured error."""
    word = np.asarray(word, dtype=np.int64)
    if len(word) and (word.min() < 0 or word.max() >= len(mats)):
        raise CheckFailed("word uses an index outside the forward generators")
    stack = mats[word] if len(word) else np.eye(2, dtype=complex)[None]
    err = dist_up_to_sign(tree_product(stack), target)
    allowance = ROUNDOFF_PER_GATE * max(1, len(word))
    if err > eps + allowance:
        raise CheckFailed(f"error {err:.3e} exceeds eps {eps:.1e} (+{allowance:.1e})")
    if abs(err - reported_error) > allowance:
        raise CheckFailed(f"measured error {err:.6e} disagrees with reported "
                          f"{reported_error:.6e} by more than {allowance:.1e}")
    return err


def check_length_identity(length: int, base_length: int, inverted: int,
                          refine_lengths: dict[int, int]) -> None:
    """length == base - m + sum of substituted inverse lengths.

    The report gives the refined length of each distinct inverted gate, not
    how often each was inverted, so the identity is checked as solvable in
    positive integer counts summing to m (one gate: exact; two: one unknown).
    """
    lens = sorted(refine_lengths.values())
    excess = length - base_length + inverted
    if not lens:
        ok = inverted == 0 and length == base_length
    elif len(lens) == 1:
        ok = excess == inverted * lens[0]
    elif len(lens) == 2:
        a, b = lens
        rest = excess - inverted * a
        ok = (b != a and rest % (b - a) == 0
              and 1 <= rest // (b - a) <= inverted - 1) or (b == a and rest == 0)
    else:
        raise CheckFailed("length identity is checked for at most two extra gates")
    if not ok:
        raise CheckFailed(f"length {length} != base {base_length} - {inverted} "
                          f"+ substituted lengths {lens}")


def check_refinement(errors: list[float], lengths: list[int], inverse_length: int,
                     group_order: int) -> None:
    """Per pass err' <= C err^2 (plus round-off) and l' = n l + 2 (n - 1),
    with C = 3 n (d-1)! + n^2 at d = 2; the inverse drops the last token.

    Applies to searched inverses, not to exact group-table hits."""
    n = group_order
    c = 3.0 * n + n * n  # (d-1)! = 1
    for (e, e2), (l1, l2) in zip(zip(errors, errors[1:]), zip(lengths, lengths[1:])):
        if e2 > c * e * e + ROUNDOFF_PER_GATE * l2:
            raise CheckFailed(f"pass {e:.3e} -> {e2:.3e} breaks err' <= {c:g} err^2")
        if l2 != n * l1 + 2 * (n - 1):
            raise CheckFailed(f"pass length {l1} -> {l2} breaks l' = {n}l + {2 * (n - 1)}")
    if inverse_length != lengths[-1] - 1:
        raise CheckFailed(f"inverse length {inverse_length} != final iterate "
                          f"length {lengths[-1]} - 1")
