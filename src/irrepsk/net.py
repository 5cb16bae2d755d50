"""Breadth-first word nets over a generator list, with disk persistence.

The net stores every product of generators up to a word length, deduplicated
in Frobenius distance (which upper-bounds the operator norm, so merging is
conservative: nothing that should stay distinct is merged).  Queries are
exact over the store: the returned word minimises the operator-norm distance
among all stored products.

For A, B in SU(2) the difference A - B is a real multiple of an SU(2)
matrix, so ||A - B|| is the Euclidean distance of their unit quaternions.
An SU(2) net therefore answers queries for SU(2) targets from a k-d tree
over its products' quaternions in O(log N).  Any other net or target (sl
mode, d >= 3, a target off the group) is scanned with dist over all
products.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import BudgetExceeded, EmptyNet, FormatError, StaleGateSet
from .gateset import GateSet, GateWord, eps0_constant, gather_segments, word_product
from .linalg import DEFAULT_TOL, dist, random_su, su2_residual, su2_to_quaternion

NET_FORMAT = "irrepsk-net-v1"
DEFAULT_BUDGET = 2_000_000


def extended_generators(gs: GateSet) -> np.ndarray:
    """Generators plus the inverse of every non-identity generator.

    extended_inverse gives the index of each entry's inverse.  Used by the
    inverse-allowed base compiler; the refinement stage never sees these.
    """
    if gs.mode == "su":
        invs = gs.matrices[1:].conj().transpose(0, 2, 1)
    else:
        invs = np.linalg.inv(gs.matrices[1:])
    return np.concatenate([gs.matrices, invs])


def extended_inverse(gs: GateSet) -> list[int]:
    """Index of the inverse of every entry of extended_generators(gs).

    The identity is its own inverse; generator i >= 1 and index n + i - 1
    are each other's inverses, with n = gs.gen_count.
    """
    n = gs.gen_count
    return [0] + list(range(n, 2 * n - 1)) + list(range(1, n))


def net_fingerprint(gs: GateSet, with_inverses: bool) -> str:
    tag = gs.fingerprint + (":with-inverses" if with_inverses else "")
    return hashlib.sha256(tag.encode()).hexdigest()


@dataclass(eq=False)
class EpsNet:
    """Products of all deduplicated generator words up to word_length, and
    lazily their query tree, a flat token copy and the refinement
    trajectories seeded from them (refine_inverse)."""

    dim: int
    mode: str
    word_length: int
    dedup_tol: float
    fingerprint: str
    words: list[tuple[int, ...]]
    products: np.ndarray             # (n, d, d)
    achieved_density: float | None = None
    _tree: cKDTree | None = field(default=None, repr=False)
    _flat: tuple | None = field(default=None, repr=False)
    _refined: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.words)

    def nearest(self, target) -> tuple[GateWord, float]:
        """Exact nearest stored word and its distance to target.

        Ties go to store order, which is breadth-first (shortest word first,
        then generation order).  SU(2) targets against an SU(2) net are
        answered by query; any other query scans dist over all products and
        takes its first minimum.
        """
        if len(self.words) == 0:
            raise EmptyNet("net has no stored words")
        t = np.asarray(target, dtype=complex)
        su2 = self.dim == 2 and self.mode == "su" and t.shape == (2, 2)
        q, residual = su2_residual(t) if su2 else (None, np.inf)
        if residual < DEFAULT_TOL:
            (i,), (d,) = self.query(q[None])
        else:
            d = dist(self.products, t)
            i = int(np.argmin(d))
            d = d[i]
        return GateWord(self.words[i], self.products[i]), float(d)

    def query(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store indices and distances of the nearest products to an (n, 4)
        stack of SU(2) quaternions, from a k-d tree over the products' own.
        Products within 1e-12 of the nearest tie, and the first stored wins."""
        if self._tree is None:
            self._tree = cKDTree(np.ascontiguousarray(su2_to_quaternion(self.products)))
        d, i = self._tree.query(q, k=2)
        d, i, tied = d[:, 0], i[:, 0], np.nonzero(d[:, 1] - d[:, 0] <= 1e-12)[0]
        if len(tied):
            balls = self._tree.query_ball_point(q[tied], d[tied] + 1e-12)
            i[tied] = [min(b) for b in balls]
        return i, d

    def gather(self, signed: np.ndarray, inverse: np.ndarray) -> np.ndarray:
        """The tokens of stored words laid end to end: i >= 0 in signed names
        word i, ~i word i inverted, read back to front through inverse (the
        index of each token's inverse), from a lazily built flat copy."""
        if self._flat is None:
            lengths = np.fromiter(map(len, self.words), np.intp, len(self.words))
            flat = np.fromiter(itertools.chain.from_iterable(self.words), np.intp)
            flat = flat.astype(np.min_scalar_type(flat.max(initial=0)))
            # flat is followed by its reversed copy, where word i read back to
            # front starts at 2 len(flat) - start - length
            self._flat = (np.concatenate([flat, flat[::-1]]),
                          np.cumsum(lengths) - lengths, lengths)
        flat, starts, lengths = self._flat
        back = signed < 0
        i = np.where(back, ~signed, signed)
        n = lengths[i]
        tokens = gather_segments(flat, np.where(back, len(flat) - starts[i] - n, starts[i]), n)
        return np.where(np.repeat(back, n), inverse[tokens], tokens)


def _vec(mats: np.ndarray) -> np.ndarray:
    flat = mats.reshape(len(mats), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _pairs(x: np.ndarray, r: float) -> np.ndarray:
    """All (i, j), i < j, with rows i and j of x within r, in lexicographic
    order.  One nearest-other query per row finds the few rows that have such
    a neighbour, and a ball query lists their neighbours; a cKDTree pair query
    walks the whole tree even when it finds nothing."""
    tree = cKDTree(x)
    d = tree.query(x, k=2, distance_upper_bound=2 * r)[0]
    rows = np.flatnonzero(d[:, 1] <= r)
    pairs = [(i, j) for i, ball in zip(rows.tolist(), tree.query_ball_point(x[rows], r))
             for j in ball if j > i]
    return np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)


def _new_elements(cv: np.ndarray, stored: cKDTree, tol: float) -> np.ndarray:
    """Indices of the candidate rows cv (Frobenius vectors, in enumeration
    order) that first-wins dedup keeps: a candidate is kept when no stored row
    and no earlier kept candidate lies within tol of it.

    Rows whose entries round to the same multiples of 1e-9 form a group, all
    within radius of its first member, and only first members are tested: one
    removes the later members of its group, and a stored row or a kept
    candidate whose distance to it is more than radius away from tol judges
    every member alike.  A group whose first member has a stored distance or
    a distance to another tested candidate in the band |d - tol| <= 2 radius
    (radius plus a margin for round-off) is loose, and all its members are
    tested; this repeats until no tested pair in the band touches a group
    that is not loose.  With tol inside the band every group is loose.
    Pair distances are those np.linalg.norm gives; another distance routine
    could judge differently only a distance within round-off of tol.
    """
    radius = 1e-9 * np.sqrt(cv.shape[1])
    band = 2 * radius
    rounded = np.ascontiguousarray(np.round(cv, 9) + 0.0)  # + 0.0 turns -0.0 into 0.0
    key = rounded.view(np.dtype((np.void, rounded.itemsize * rounded.shape[1])))[:, 0]
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    group = group.ravel()
    dd = stored.query(cv[first], distance_upper_bound=tol + band)[0]
    loose = (np.abs(dd - tol) <= band) | (tol <= band)
    while True:
        unit = loose[group]
        unit[first] = True
        units = np.flatnonzero(unit)
        du = dd[group[units]]
        extra = np.flatnonzero(units != first[group[units]])
        du[extra] = stored.query(cv[units[extra]], distance_upper_bound=tol + band)[0]
        alive = units[du > tol]
        pairs = _pairs(cv[alive], tol + band)
        d = np.linalg.norm(cv[alive[pairs[:, 0]]] - cv[alive[pairs[:, 1]]], axis=1)
        edge = group[alive[pairs[np.abs(d - tol) <= band]]]
        if loose[edge].all():
            break
        loose[edge] = True
    removed: set[int] = set()
    for i, j in pairs[d <= tol].tolist():
        if i not in removed:
            removed.add(j)
    return np.delete(alive, list(removed))


def _nets(gens: np.ndarray, dim: int, mode: str, dedup_tol: float, fingerprint: str,
          budget: int):
    """Yield the net of word length 0, 1, 2, ..., each built from the last by
    one breadth-first level.  Each net owns its word list and products.
    Raises BudgetExceeded when a level would store more than budget words.
    """
    n_gens = len(gens)
    words: list[tuple[int, ...]] = [()]
    products = np.eye(dim, dtype=complex)[None]
    frontier_w, frontier_p = words[:], products
    for level in itertools.count():
        if level and frontier_w:
            cand = np.matmul(frontier_p[:, None], gens[None]).reshape(-1, dim, dim)
            kept = _new_elements(_vec(cand), cKDTree(_vec(products)), dedup_tol)
            if len(words) + len(kept) > budget:
                raise BudgetExceeded(
                    f"word budget {budget} exceeded at word length {level}: "
                    f"{len(words)} words stored, {len(kept)} more needed"
                )
            frontier_w = [frontier_w[i // n_gens] + (i % n_gens,) for i in kept.tolist()]
            frontier_p = cand[kept]
            words.extend(frontier_w)
            products = np.concatenate([products, frontier_p])
        yield EpsNet(dim=dim, mode=mode, word_length=level, dedup_tol=dedup_tol,
                     fingerprint=fingerprint, words=words[:], products=products)


def build_net(gens: np.ndarray, dim: int, mode: str, word_length: int,
              dedup_tol: float, fingerprint: str = "",
              budget: int = DEFAULT_BUDGET) -> EpsNet:
    """Enumerate words breadth-first, keeping first-seen products only.

    A candidate is dropped when its product lies within dedup_tol (Frobenius)
    of anything already stored or of an earlier kept candidate of its own
    level.  Different words that reach the same group element give products
    equal up to round-off, and most candidates of a long net are such
    duplicates; each level groups the candidates that agree to 1e-9 and tests
    one member per group, and expands a group into all its members wherever a
    distance near dedup_tol could tell them apart (_new_elements), so the
    kept set is exactly that of testing every candidate.  Raises
    BudgetExceeded if more than budget words would be stored.
    """
    nets = _nets(np.asarray(gens, dtype=complex), dim, mode, dedup_tol, fingerprint, budget)
    return next(itertools.islice(nets, word_length, None))


def build_gateset_net(gs: GateSet, word_length: int, dedup_tol: float | None = None,
                      with_inverses: bool = False,
                      budget: int = DEFAULT_BUDGET) -> EpsNet:
    if dedup_tol is None:
        dedup_tol = eps0_constant(gs) / 10
    gens = extended_generators(gs) if with_inverses else gs.matrices
    return build_net(gens, gs.dim, gs.mode, word_length, dedup_tol,
                     fingerprint=net_fingerprint(gs, with_inverses), budget=budget)


def probe_density(net: EpsNet, probes: int, rng: np.random.Generator) -> float:
    """Empirical covering radius: max over random SU(d) probes of the nearest
    stored distance.  Only meaningful in su mode."""
    worst = 0.0
    for _ in range(probes):
        t = random_su(net.dim, rng)
        _, d = net.nearest(t)
        worst = max(worst, d)
    net.achieved_density = worst
    return worst


def _product_digest(products: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(products.round(10)).tobytes()).hexdigest()


def save_net(net: EpsNet, path) -> None:
    header = {
        "format": NET_FORMAT,
        "fingerprint": net.fingerprint,
        "dim": net.dim,
        "mode": net.mode,
        "word_length": net.word_length,
        "dedup_tol": net.dedup_tol,
        "count": len(net.words),
        "achieved_density": net.achieved_density,
        "product_digest": _product_digest(net.products),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for w in net.words:
            f.write(" ".join(map(str, w)) + "\n")


def load_net(path, gs: GateSet, with_inverses: bool = False) -> EpsNet:
    """Reload a net, recomputing and verifying every product.

    Raises StaleGateSet when the cache was built against a different gate set
    and FormatError on any structural damage or malformed header field.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise FormatError("empty net file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise FormatError(f"bad net header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != NET_FORMAT:
        raise FormatError("not a net cache file")
    expected = net_fingerprint(gs, with_inverses)
    if header.get("fingerprint") != expected:
        raise StaleGateSet(
            "net cache was built for a different gate set "
            f"({str(header.get('fingerprint'))[:12]}... vs {expected[:12]}...)"
        )
    count = header.get("count")
    body = lines[1:]
    if not isinstance(count, int) or len(body) != count:
        raise FormatError(f"expected {count} word lines, found {len(body)}")
    for key, types in (("word_length", int), ("dedup_tol", (int, float)),
                       ("achieved_density", (int, float, type(None)))):
        if not isinstance(header.get(key), types):
            raise FormatError(f"bad net header field {key!r}: {header.get(key)!r}")
    # files from older versions could hold a net cut short by its budget
    if header.get("usable", True) is not True:
        raise FormatError("net file holds a net truncated by its word budget")
    gens = extended_generators(gs) if with_inverses else gs.matrices
    words: list[tuple[int, ...]] = []
    products = np.empty((count, gs.dim, gs.dim), dtype=complex)
    index_of: dict[tuple[int, ...], int] = {}
    for k, line in enumerate(body):
        try:
            w = tuple(int(t) for t in line.split())
        except ValueError:
            raise FormatError(f"line {k + 2}: unparsable word") from None
        if any(i < 0 or i >= len(gens) for i in w):
            raise FormatError(f"line {k + 2}: generator index out of range")
        words.append(w)
        # breadth-first construction stores every word's parent prefix, so the
        # product is the parent's times one generator, the recipe build_net
        # stores; fall back to a full product otherwise
        parent = index_of.get(w[:-1]) if w else None
        if parent is not None:
            products[k] = products[parent] @ gens[w[-1]]
        else:
            products[k] = word_product(gens, w)
        index_of[w] = k
    if header.get("product_digest") != _product_digest(products):
        raise FormatError("recomputed products do not match the stored digest")
    return EpsNet(
        dim=gs.dim,
        mode=gs.mode,
        word_length=header["word_length"],
        dedup_tol=float(header["dedup_tol"]),
        fingerprint=expected,
        words=words,
        products=products,
        achieved_density=header.get("achieved_density"),
    )


def auto_net(gs: GateSet, target_density: float, probes: int,
             rng: np.random.Generator, with_inverses: bool = False,
             start_length: int = 4, max_length: int = 40,
             budget: int = DEFAULT_BUDGET) -> EpsNet:
    """Grow word_length from start_length in steps of 2 until the probed
    density reaches target_density.

    The net is extended one level at a time, never rebuilt; each probed net
    is the one build_gateset_net gives at its length.  Raises BudgetExceeded
    if the store fills up or max_length is reached first.
    """
    gens = extended_generators(gs) if with_inverses else gs.matrices
    for net in _nets(gens, gs.dim, gs.mode, eps0_constant(gs) / 10,
                     net_fingerprint(gs, with_inverses), budget):
        if net.word_length < start_length or (net.word_length - start_length) % 2:
            continue
        density = probe_density(net, probes, rng)
        if density <= target_density:
            return net
        if net.word_length >= max_length:
            raise BudgetExceeded(
                f"word length cap {max_length} reached, density {density:.4f} "
                f"> target {target_density}"
            )
