"""Gate-set documents, gate words and the refinement threshold constant.

A gate set is described by a JSON document:

    {
      "dimension": 2,
      "mode": "su",                  # or "sl"
      "tolerance": 1e-9,             # optional, default 1e-9
      "sl_radius": 1.5,              # required in sl mode
      "irrep": {"builtin": "pauli"}  # or {"matrices": [[...], ...]}
      "gates": [{"name": "H", "matrix": [[re, im], ...]}]
    }

Matrix literals are row-major lists of [re, im] pairs, d*d entries long.
The generator list of the parsed GateSet is the irrep's elements (identity
first) followed by the extra gates in file order.  In su mode every input
matrix is passed through su_normalize, so gates may be given as plain
unitaries (H, T, ...) and are stored as their determinant-1 representatives.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BallError, ClassError, GroupError, IrrepError, SchemaError
from .finitegroup import (
    BUILTIN_GROUPS,
    FiniteGroupRep,
    build_builtin,
    builtin_matrices,
    infer_group,
)
from .linalg import (
    DEFAULT_TOL,
    check_class,
    dist,
    matmul_stack,
    require_matrix,
    su_normalize,
)


@dataclass(frozen=True, eq=False)
class GateWord:
    """A word over a generator array and the product of its matrices.

    Tokens index whichever array the word was built over, a gate set's
    matrices for the inverse-free words the compiler returns; the base
    compiler's words are plain token arrays over extended_generators.  Every
    word is built by make_word, so its product is word_product of its tokens:
    a full product of the generator matrices, whole blocks of tokens read
    from a cached table of their products.

    tokens is a 1-D intp array that the word owns: every builder passes an
    array it made.  Other token sequences are converted, but an intp array
    passed in is kept as it is, not copied, and made read-only; pass a copy
    to keep a writeable one.  The word makes its tokens and product
    read-only, so a word never changes after it is built and can be shared,
    as refinement shares its words across calls.  Python ints appear only
    at the API boundary, in CompileReport.indices.
    """

    tokens: np.ndarray
    product: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tokens", np.asarray(self.tokens, dtype=np.intp))
        self.tokens.flags.writeable = False
        self.product.flags.writeable = False

    @property
    def length(self) -> int:
        return len(self.tokens)


def word_product(gens: np.ndarray, tokens) -> np.ndarray:
    """Product gens[i_0] gens[i_1] ... by pairwise tree reduction.

    Each round multiplies neighbours (0, 1), (2, 3), ... and carries an odd
    last factor, so an L-token word takes ceil(log2 L) rounds instead of L
    sequential products, each round one matmul_stack call.  The first log2 b
    rounds are read from _block_table: each whole block of b tokens gathers
    its product, which those rounds would compute from the same factors in
    the same order, and the fewer than b leftover tokens are folded from
    gens.  The result is bit for bit the tree over gens[tokens].
    """
    t = np.asarray(tokens, dtype=np.intp)
    if len(t) and not 0 <= t.min() <= t.max() < len(gens):
        raise IndexError(f"token out of range for {len(gens)} generators")
    table, b = _block_table(gens.shape, gens.dtype.str, gens.tobytes())
    q = len(t) // b
    block = t[0:q * b:b]
    for j in range(1, b):
        block = block * len(gens) + t[j:q * b:b]
    m = np.empty((q + (q * b < len(t)),) + gens.shape[1:], dtype=gens.dtype)
    table.take(block, axis=0, out=m[:q])
    m[q:] = _tree(gens[t[q * b:]])
    m = _tree(m)
    return m[0] if len(m) else np.eye(gens.shape[1], dtype=complex)


def _tree(m: np.ndarray) -> np.ndarray:
    """Pairwise tree rounds over a stack until at most one factor is left."""
    while len(m) > 1:
        pairs = matmul_stack(m[0:-1:2], m[1::2])
        m = np.concatenate([pairs, m[-1:]]) if len(m) % 2 else pairs
    return m


@functools.lru_cache(maxsize=8)
def _block_table(shape, dtype, data) -> tuple[np.ndarray, int]:
    """All n^b products of b generators and the block size b, for the
    generator array with this shape, dtype and bytes.

    b is the largest power of two with max(n, 2)^b <= 4096 (b = 1 for more
    than 64 generators, where the table is the array itself).  Entry
    i_0 n^(b-1) + ... + i_(b-1) is the tree product of gens[i_0] ...
    gens[i_(b-1)]: each doubling pairs the half-size table with itself
    through matmul_stack.
    """
    gens = np.frombuffer(data, dtype=dtype).reshape(shape)
    n, b, table = len(gens), 1, gens
    while max(n, 2) ** (2 * b) <= 4096:
        table = matmul_stack(np.repeat(table, len(table), axis=0),
                             np.tile(table, (len(table), 1, 1)))
        b *= 2
    table.flags.writeable = False
    return table, b


def gather_segments(flat: np.ndarray, starts, lengths) -> np.ndarray:
    """flat[s:s + n] for each (s, n) of zip(starts, lengths), laid end to end
    by one repeat instead of a loop over segments."""
    lead = lengths.cumsum() - lengths
    return flat[(starts - lead).repeat(lengths) + np.arange(lengths.sum())]


def make_word(gens: np.ndarray, tokens) -> GateWord:
    """Word over gens from a sequence or a 1-D int array of indices, which
    is copied: the word never aliases the caller's array."""
    idx = np.array(tokens, dtype=np.intp)
    return GateWord(idx, word_product(gens, idx))


@dataclass(frozen=True, eq=False)
class GateSet:
    """Parsed gate set: a finite-group irrep plus extra generators."""

    dim: int
    mode: str                      # "su" | "sl"
    names: tuple[str, ...]
    matrices: np.ndarray           # (n_gens, d, d): rep.elements, then the extras
    rep: FiniteGroupRep
    tolerance: float
    sl_radius: float | None
    fingerprint: str

    @property
    def gen_count(self) -> int:
        return len(self.names)

    @property
    def phase_candidates(self) -> tuple[complex, ...]:
        """The global phases words are compared up to: the irrep's, and for
        an SU(2) set with a genuine irrep also -1, since an SU(2) net stores
        each rotation once for U and -U (net.py).  A projective SU(2) irrep
        already has both square roots of unity."""
        phases = self.rep.phase_candidates
        su2 = self.mode == "su" and self.dim == 2
        return phases + (-1.0 + 0j,) if su2 and len(phases) == 1 else phases

    def name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"no generator named {name!r}") from None


def contraction_constant(rep: FiniteGroupRep) -> float:
    """Coefficient C = 3 |G| (d-1)! + |G|^2 of the quadratic error bound for
    one symmetrization pass."""
    n, d = rep.order, rep.dim
    return 3.0 * n * math.factorial(d - 1) + float(n * n)


def eps0_constant(gs_or_rep) -> float:
    """Refinement threshold 1 / (2 C) = 1 / (6 |G| (d-1)! + 2 |G|^2), for C
    the contraction_constant (an exact integer, so 2 C is too).

    A seed error at or below this value makes one averaging pass strictly
    contract, and the iteration then converges doubly exponentially.
    """
    rep = gs_or_rep.rep if isinstance(gs_or_rep, GateSet) else gs_or_rep
    return 1.0 / (2 * contraction_constant(rep))


def is_number(x, kind=(int, float)) -> bool:
    """Whether x is a JSON number of kind.  Python counts a bool as an int,
    but JSON's true and false are no numbers."""
    return isinstance(x, kind) and not isinstance(x, bool)


def parse_matrix_literal(entries, d: int, where: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != d * d:
        raise SchemaError(f"{where}: matrix literal must have {d * d} [re, im] pairs")
    vals = []
    for pair in entries:
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(is_number, pair)):
            raise SchemaError(f"{where}: entries must be [re, im] pairs")
        vals.append(complex(pair[0], pair[1]))
    return np.array(vals, dtype=complex).reshape(d, d)


def matrix_to_literal(m: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).reshape(-1)]


def _canonical_doc(dim, mode, tol, sl_radius, irrep_mats, names, gate_mats) -> dict:
    return {
        "dimension": dim,
        "mode": mode,
        "tolerance": tol,
        "sl_radius": sl_radius,
        "irrep": [[[round(v, 12) for v in pair] for pair in matrix_to_literal(m)]
                  for m in irrep_mats],
        "gates": [
            {"name": n, "matrix": [[round(v, 12) for v in pair]
                                   for pair in matrix_to_literal(m)]}
            for n, m in zip(names, gate_mats)
        ],
    }


def fingerprint_of(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def parse_gateset(doc) -> GateSet:
    """Parse and validate a gate-set document (dict or JSON string)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("gate-set document must be a JSON object")

    dim = doc.get("dimension")
    if not is_number(dim, int) or dim < 1:
        raise SchemaError("'dimension' must be a positive integer")
    mode = doc.get("mode")
    if mode not in ("su", "sl"):
        raise SchemaError("'mode' must be 'su' or 'sl'")
    tol = doc.get("tolerance", DEFAULT_TOL)
    if not is_number(tol) or tol <= 0:
        raise SchemaError("'tolerance' must be a positive number")
    tol = float(tol)
    sl_radius = doc.get("sl_radius")
    if mode == "sl":
        if not is_number(sl_radius) or sl_radius <= 0:
            raise SchemaError("sl mode requires a positive 'sl_radius'")
        sl_radius = float(sl_radius)
    else:
        sl_radius = None

    def prepare(m, where):
        m = require_matrix(m)
        if m.shape[0] != dim:
            raise SchemaError(f"{where}: expected {dim}x{dim}, got {m.shape[0]}x{m.shape[1]}")
        if mode == "su":
            try:
                m = su_normalize(m, tol=tol)
            except ClassError as e:
                raise ClassError(f"{where}: {e}") from None
        try:
            return check_class(m, mode, tol=tol)
        except ClassError as e:
            raise ClassError(f"{where}: {e}") from None

    irrep_sec = doc.get("irrep")
    if not isinstance(irrep_sec, dict):
        raise SchemaError("'irrep' must be an object with 'builtin' or 'matrices'")
    if "builtin" in irrep_sec:
        name = irrep_sec["builtin"]
        if name not in BUILTIN_GROUPS:
            raise SchemaError(f"unknown builtin irrep {name!r}")
        try:
            raw, el_names = builtin_matrices(name, dim)
            if raw[0].shape[0] != dim:
                raise IrrepError(
                    f"builtin {name!r} has dimension {raw[0].shape[0]}, file says {dim}"
                )
            rep = build_builtin(name, dim, tol=tol)
        except (GroupError, ValueError) as e:
            raise IrrepError(str(e)) from None
    elif "matrices" in irrep_sec:
        entries = irrep_sec["matrices"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("'irrep.matrices' must be a non-empty list")
        mats = [prepare(parse_matrix_literal(e, dim, f"irrep[{k}]"), f"irrep[{k}]")
                for k, e in enumerate(entries)]
        try:
            rep = infer_group(mats, tol=tol, unitary=(mode == "su"))
        except GroupError as e:
            raise IrrepError(str(e)) from None
        el_names = [f"g{k}" for k in range(rep.order)]
    else:
        raise SchemaError("'irrep' needs either 'builtin' or 'matrices'")

    gates = doc.get("gates", [])
    if not isinstance(gates, list):
        raise SchemaError("'gates' must be a list")
    extra_names, extra_mats = [], []
    for k, g in enumerate(gates):
        if not isinstance(g, dict) or "name" not in g or "matrix" not in g:
            raise SchemaError(f"gates[{k}]: each gate needs 'name' and 'matrix'")
        gname = g["name"]
        if not isinstance(gname, str) or not gname:
            raise SchemaError(f"gates[{k}]: 'name' must be a non-empty string")
        extra_names.append(gname)
        extra_mats.append(prepare(parse_matrix_literal(g["matrix"], dim, f"gate {gname!r}"),
                                  f"gate {gname!r}"))

    names = list(el_names) + extra_names
    if len(set(names)) != len(names):
        raise SchemaError("generator names must be unique")
    matrices = np.concatenate([rep.elements, np.stack(extra_mats)]) if extra_mats \
        else rep.elements.copy()

    if mode == "sl":
        eye = np.eye(dim)
        for n, m in zip(names, matrices):
            r = dist(m, eye)
            if r > sl_radius:
                raise BallError(
                    f"generator {n!r} has dist to I {r:.6f} > sl_radius {sl_radius}"
                )

    canon = _canonical_doc(dim, mode, tol, sl_radius, rep.elements, extra_names,
                           extra_mats)
    return GateSet(
        dim=dim,
        mode=mode,
        names=tuple(names),
        matrices=matrices,
        rep=rep,
        tolerance=tol,
        sl_radius=sl_radius,
        fingerprint=fingerprint_of(canon),
    )


def load_gateset(path) -> GateSet:
    with open(path, "r", encoding="utf-8") as f:
        return parse_gateset(f.read())
