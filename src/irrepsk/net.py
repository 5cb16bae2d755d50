"""Breadth-first word nets over a generator list, with disk persistence.

The net stores every product of generators up to a word length, deduplicated
in Frobenius distance (which upper-bounds the operator norm, so merging is
conservative: nothing that should stay distinct is merged).  Queries are
exact over the store: the returned word minimises the operator-norm distance
among all stored products.

For A, B in SU(2) the difference A - B is a real multiple of an SU(2)
matrix, so ||A - B|| is the Euclidean distance of their unit quaternions,
and the Frobenius distance is sqrt(2) times it.  An SU(2) net works up to
sign, the global phase -1 that every SU(2) gate set's words are compared
up to (GateSet.phase_candidates): it stores each rotation once, the
shortest word the breadth-first build finds for U or -U, deduplicating its
products' quaternions q and -q alike.  Its one lookup, EpsNet.nearest,
answers a stack of SU(2) target quaternions up to sign, in O(log N) each,
from one k-d tree over the stored quaternions and their negations.  Any
other net (sl mode, d >= 3) is deduplicated over its products' Frobenius
vectors and has no lookup: probe_density, its only reader, scans dist over
all products.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (BudgetExceeded, DimUnsupported, EmptyNet, FormatError, SchemaError,
                     StaleGateSet)
from .gateset import GateSet, GateWord, eps0_constant
from .linalg import dist, random_su, su2_to_quaternion

NET_FORMAT = "irrepsk-net-v3"
DEFAULT_BUDGET = 2_000_000
# candidates built and tested at a time: sets the builder's working memory
CHUNK = 1 << 15
# distances within TIE of the nearest tie (EpsNet.nearest, and the SK search)
TIE = 1e-12
# the most steps one round of free_reduce grows a cancelling pair outward
REACH = 16


def extended_generators(gs: GateSet) -> np.ndarray:
    """The base compiler's alphabet: the generators, then the inverse of
    every generator whose inverse is no generator up to a phase in
    gs.phase_candidates, in generator order.

    On a projective Pauli set X, Y, Z and a Hadamard are their own inverses
    up to sign and add no letter, T adds T^-1, and an S3 set adds none for
    its group (each 3-cycle is the other's inverse).  extended_inverse gives
    each letter's inverse.  Used by the inverse-allowed base compiler; the
    refinement stage never sees these.  Computed once per gate set.
    """
    return _alphabet(gs)[0]


def extended_inverse(gs: GateSet) -> np.ndarray:
    """Index of the inverse, up to a phase in gs.phase_candidates, of every
    letter of extended_generators(gs): X -> X, T -> T^-1 -> T.  A letter
    past the generators, n + k for n = gs.gen_count, is the inverse of the
    generator it maps to."""
    return _alphabet(gs)[1]


@functools.lru_cache(maxsize=16)
def _alphabet(gs: GateSet) -> tuple[np.ndarray, np.ndarray]:
    """extended_generators(gs) and extended_inverse(gs), read-only.  The
    inverse of generator i is generator j when dist(g_i^-1, z g_j) is within
    gs.tolerance for a z in gs.phase_candidates (the nearest such j, the
    first of equals)."""
    mats = gs.matrices
    invs = mats.conj().transpose(0, 2, 1) if gs.mode == "su" else np.linalg.inv(mats)
    inverse, added = [], []
    for i, g_inv in enumerate(invs):
        d = dist(mats, g_inv, gs.phase_candidates)
        j = int(np.argmin(d))
        if d[j] > gs.tolerance:
            j = len(mats) + len(added)
            added.append(i)
        inverse.append(j)
    gens = np.concatenate([mats, invs[added]])
    inverse = np.array(inverse + added, dtype=np.intp)
    gens.flags.writeable = inverse.flags.writeable = False
    return gens, inverse


def net_fingerprint(gs: GateSet, with_inverses: bool) -> str:
    tag = gs.fingerprint + (":with-inverses" if with_inverses else "")
    return hashlib.sha256(tag.encode()).hexdigest()


@dataclass(eq=False)
class EpsNet:
    """Products of all deduplicated generator words up to word_length, on an
    SU(2) net the k-d tree over their quaternions and their negations that
    answers nearest and whose rows signed reads (a net from build_net comes
    with it; a loaded one builds it on first use), and lazily the refinement
    trajectories seeded from them (refine_inverse).

    The words are one flat token array: word i is
    tokens[offsets[i]:offsets[i + 1]], in store order, which is breadth-first
    (shortest word first, then generation order).  Every word but the empty
    one is its parent, word parents[i] of the level before, times its last
    token; parents[0] is -1.  tokens has the smallest unsigned dtype that
    holds every generator index, so a stored word costs its length in bytes
    (for fewer than 256 generators), 8 bytes of offset, 8 of parent and the
    16 d^2 bytes of its product.
    """

    dim: int
    mode: str
    word_length: int
    dedup_tol: float
    fingerprint: str
    tokens: np.ndarray               # (offsets[-1],) unsigned
    offsets: np.ndarray              # (n + 1,) intp, offsets[0] == 0
    parents: np.ndarray              # (n,) intp, parents[0] == -1
    products: np.ndarray             # (n, d, d)
    achieved_density: float | None = None
    _tree: cKDTree | None = field(default=None, repr=False)
    _refined: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(self) == 0:
            raise EmptyNet("net has no stored words")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def word(self, i: int) -> GateWord:
        """Stored word i with its product."""
        return GateWord(self.tokens[self.offsets[i]:self.offsets[i + 1]], self.products[i])

    @property
    def su2(self) -> bool:
        """Whether this is an SU(2) net, which works up to sign."""
        return self.dim == 2 and self.mode == "su"

    def nearest(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hits and distances of the nearest products, up to sign, to an
        (n, 4) stack of SU(2) quaternions: the net's one lookup.  One k-d
        tree over the products' quaternions q_0 .. q_(N-1) and then
        -q_0 .. -q_(N-1) answers it: hit j is word j mod N, and signed(j) is
        its quaternion with the sign, +1 below N and -1 from N.  Within TIE
        of the nearest tie, the lowest word index wins, and of its two signs
        +1.  Raises DimUnsupported on any other net (sl mode, d >= 3), whose
        products have no quaternions."""
        if self._tree is None:
            if not self.su2:
                raise DimUnsupported(f"a d = {self.dim} {self.mode} net has no lookup")
            self._tree = _sheet_tree(self.products)
        d, j = self._tree.query(q, k=2)
        d, j, tied = d[:, 0], j[:, 0], np.flatnonzero(d[:, 1] - d[:, 0] <= TIE)
        if len(tied):
            n = len(self)
            balls = self._tree.query_ball_point(q[tied], d[tied] + TIE)
            j[tied] = [min(b, key=lambda k: (k % n, k)) for b in balls]
        return j, d

    def signed(self, hits) -> np.ndarray:
        """The signed quaternions (n, 4) of nearest's hits, its tree's rows:
        products[j mod N]'s quaternion, times -1 from N."""
        return self._tree.data[hits]

    def gather(self, signed: np.ndarray, inverse: np.ndarray) -> np.ndarray:
        """The tokens of stored words laid end to end, freely reduced: i >= 0
        in signed names word i, ~i word i inverted, read back to front
        through inverse (the index of each token's inverse up to a phase,
        so on an SU(2) net the product of word i inverted is products[i]'s
        inverse up to sign).  Stored words
        are reduced, but their junctions need not be: a word ending in g
        followed by one starting with inverse[g] cancels there, and an
        empty word between a word and its inverse cancels both
        (free_reduce)."""
        back = signed < 0
        i = np.where(back, ~signed, signed)
        start, end = self.offsets[i], self.offsets[i + 1]
        n = end - start
        # a word read back to front starts at its last token and steps by -1
        first = np.where(back, end - 1, start)
        step = np.repeat(np.where(back, -1, 1), n)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        tokens = self.tokens[np.repeat(first, n) + step * k]
        return free_reduce(np.where(step < 0, inverse[tokens], tokens), inverse)


def free_reduce(tokens: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """tokens with every adjacent pair (g, inverse[g]) removed, cascading
    until none is left: the freely reduced word, whose product is the same
    (exactly in the group, to round-off in floats).

    It runs in rounds with no loop over tokens.  A round finds every pair
    and grows each outward, in one 2-D compare over up to REACH steps, into
    the widest span w w^-1 around it.  Taken by start (the widest first), a
    span is removed unless it overlaps one before it; the rest wait for the
    next round, as do the pairs that the removals bring together.  Free
    reduction is confluent, so whichever spans a round removes, the result
    is the one reduced word that a stack pass gives.  Both ends are padded
    with REACH tokens that match nothing, so no step needs a bounds check.
    """
    steps, pad = np.arange(REACH), np.full(REACH, -1)
    t = np.concatenate([pad, tokens, pad - 1])
    it = np.concatenate([pad - 2, inverse[tokens], pad - 3])  # it[j] = inverse of t[j]
    while True:
        c = np.flatnonzero(t[1:] == it[:-1])
        if not len(c):
            return t[REACH:-REACH]
        half = (t[c[:, None] + 1 + steps] == it[c[:, None] - steps]).cumprod(1).sum(1)
        start, end = c + 1 - half, c + 1 + half
        order = np.lexsort((-end, start))
        start, end = start[order], end[order]
        free = np.ones(len(start), bool)
        free[1:] = start[1:] >= np.maximum.accumulate(end)[:-1]
        start, n = start[free], 2 * half[order][free]
        keep = np.ones(len(t), bool)
        keep[np.repeat(start - np.cumsum(n) + n, n) + np.arange(n.sum())] = False
        t, it = t[keep], it[keep]


def _sheet_tree(products: np.ndarray) -> cKDTree:
    """EpsNet.nearest's k-d tree: over the quaternions of the SU(2) products,
    then over their negations."""
    q = su2_to_quaternion(products)
    return cKDTree(np.concatenate([q, -q]), balanced_tree=False)


def _times(mats: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each matrix of the stack mats times g, as one 2-D BLAS product.  The
    builder and load_net form every product this way, so both get the same
    bits."""
    return (mats.reshape(-1, mats.shape[-1]) @ g).reshape(mats.shape)


def _rows(mats: np.ndarray, su2: bool) -> np.ndarray:
    """The builder's dedup rows of a stack of products: for an SU(2) net
    unit quaternions turned to w >= 0 (4 floats, at 1 / sqrt(2) of the
    Frobenius distance; q and -q are one rotation, and _dist measures up to
    sign), Frobenius vectors (2 d^2 floats) for any other."""
    if su2:
        q = su2_to_quaternion(mats)
        return np.ascontiguousarray(np.where(q[:, :1] < 0, -q, q))
    flat = mats.reshape(len(mats), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _dist(tree: cKDTree, x: np.ndarray, bound: float, mirror: bool) -> np.ndarray:
    """Distance from each row of x to the nearest row of tree, inf past
    bound; with mirror, up to sign (the smaller of |x - s| and |x + s|).
    Mirror rows are quaternions with w >= 0, so |x + s| >= w of x, and only
    the rows with w <= bound, next to the equator w = 0 where a rotation's
    two quaternions both have w near 0, are asked about -x."""
    d = tree.query(x, distance_upper_bound=bound)[0]
    if mirror:
        near = np.flatnonzero(x[:, 0] <= bound)
        d[near] = np.minimum(d[near], tree.query(-x[near], distance_upper_bound=bound)[0])
    return d


def _pairs(x: np.ndarray, r: float, mirror: bool) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j), i < j, with rows i and j of x within r, up to sign with
    mirror (as _dist), in lexicographic order, and their distances.  One
    nearest-other query per row finds the few rows that have such a
    neighbour, and a ball query lists their neighbours; a cKDTree pair query
    walks the whole tree even when it finds nothing."""
    tree = cKDTree(x, balanced_tree=False)
    d = tree.query(x, k=2, distance_upper_bound=2 * r)[0]
    rows = np.flatnonzero(d[:, 1] <= r)
    pairs = {(i, j) for i, ball in zip(rows.tolist(), tree.query_ball_point(x[rows], r))
             for j in ball if j > i}
    if mirror:
        near = np.flatnonzero(x[:, 0] <= r)
        rows = near[tree.query(-x[near], distance_upper_bound=r)[0] <= r]
        pairs |= {(min(i, j), max(i, j)) for i, ball in
                  zip(rows.tolist(), tree.query_ball_point(-x[rows], r)) for j in ball if j != i}
    pairs = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)
    a, b = x[pairs[:, 0]], x[pairs[:, 1]]
    d = np.linalg.norm(a - b, axis=1)
    return pairs, np.minimum(d, np.linalg.norm(a + b, axis=1)) if mirror else d


class _Stored:
    """A k-d tree over stored rows and the record of each row's cell hash
    (_groups), 16 bytes a row with its sort order.  Both stay with the
    builder.

    The tree's cells are split at the sliding midpoint (balanced_tree=False),
    not at the median: on a net's rows that builds in about half the time
    and answers queries no slower, and no result depends on the tree's
    shape, only on distances."""

    def __init__(self, rows: np.ndarray, hashes: np.ndarray):
        self.tree = cKDTree(rows, balanced_tree=False)
        self.hashes, self.order = hashes, np.argsort(hashes)

    def in_cell(self, x: np.ndarray, hashes: np.ndarray, r: float) -> np.ndarray:
        """Whether each row of x lies within r of the stored row that its
        hash finds in the record."""
        pos = np.searchsorted(self.hashes, hashes, sorter=self.order)
        i = self.order[np.minimum(pos, self.tree.n - 1)]
        return np.linalg.norm(x - self.tree.data[i], axis=1) <= r


def _stored_dist(trees: list[_Stored], x: np.ndarray, tol: float, band: float,
                 mirror: bool) -> np.ndarray:
    """Distance from each row of x to the nearest stored row (up to sign
    with mirror, as _dist), exact where it exceeds tol - band (no verdict
    depends on a smaller one) and inf past tol + band.  trees[0] holds the
    earlier levels; the rest hold this level's kept rows and are asked only
    about the rows still open."""
    d = _dist(trees[0].tree, x, tol + band, mirror)
    for t in trees[1:]:
        rows = np.flatnonzero(d > tol - band)
        d[rows] = np.minimum(d[rows], _dist(t.tree, x[rows], tol + band, mirror))
    return d


def _store_rows(trees: list[_Stored], rows: np.ndarray, hashes: np.ndarray) -> None:
    """Add one chunk's kept rows to this level's trees (trees[1:]).  The
    last trees are merged into the new one while they are no larger, so a
    row is rebuilt into a new tree O(log chunks) times and a level keeps
    O(log chunks) trees."""
    while len(trees) > 1 and trees[-1].tree.n <= len(rows):
        last = trees.pop()
        rows = np.concatenate([last.tree.data, rows])
        hashes = np.concatenate([last.hashes, hashes])
    trees.append(_Stored(rows, hashes))


# odd 64-bit multipliers that hash a row of 1e-9 cells
_CELL_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                       0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xFF51AFD7ED558CCD,
                       0xC4CEB9FE1A85EC53, 0x94D049BB133111EB], dtype=np.uint64)


def _groups(cv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First member and group index of every row of cv, grouped by the
    nearest multiples of 1e-9 of its entries (the cells np.round(cv, 9)
    rounds to), and the hash of every row's cells.  Rows are sorted by that
    hash, stably, and a group is a run of equal cells in that order, so a
    hash collision can only split a cell into several groups, each with its
    own first member."""
    cells = np.rint(cv * 1e9).astype(np.int64)
    hashes = cells.view(np.uint64) @ np.resize(_CELL_HASH, cv.shape[1])
    order = np.argsort(hashes, kind="stable")
    cells = cells[order]
    start = np.ones(len(cv), bool)
    start[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    group = np.empty(len(cv), np.intp)
    group[order] = np.cumsum(start) - 1
    return order[start], group, hashes


def _new_elements(cv: np.ndarray, trees: list[_Stored], tol: float,
                  mirror: bool) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the candidate rows cv (_rows, in enumeration order) that
    first-wins dedup keeps, and the cell hashes of all rows: a candidate is
    kept when no stored row (the rows of trees) and no earlier kept candidate
    lies within tol of it, up to sign with mirror (an SU(2) net's rows; the
    distance up to sign obeys the triangle inequality, so all below holds
    for it).  tol, the 1e-9 cells, radius and band are all in the units of
    the rows.

    Rows whose entries round to the same multiples of 1e-9 form a group, all
    within radius of its first member, and only first members are tested: one
    removes the later members of its group, and a stored row or a kept
    candidate whose distance to it is more than radius away from tol judges
    every member alike.  A group whose first member has a stored distance or
    a distance to another tested candidate in the band |d - tol| <= 2 radius
    (radius plus a margin for round-off) is loose, and all its members are
    tested; this repeats until no tested pair in the band touches a group
    that is not loose.  With tol inside the band every group is loose.
    Pair distances are those np.linalg.norm gives, stored distances those of
    cKDTree; another distance routine could judge differently only a
    distance within round-off of tol.

    Most first members repeat a stored row's cell.  Unless tol is within a
    few bands, a first member within radius of the stored row that its hash
    finds in a tree's record is settled without a tree query: its stored
    distance is far below tol - band, so its group is removed and not loose.
    """
    radius = 1e-9 * np.sqrt(cv.shape[1])
    band = 2 * radius
    first, group, hashes = _groups(cv)
    open_ = np.ones(len(first), bool)
    if tol > 3 * band:
        for tree in trees:
            open_ &= ~tree.in_cell(cv[first], hashes[first], radius)
    dd = np.zeros(len(first))
    dd[open_] = _stored_dist(trees, cv[first[open_]], tol, band, mirror)
    loose = (np.abs(dd - tol) <= band) | (tol <= band)
    while True:
        unit = loose[group]
        unit[first] = True
        units = np.flatnonzero(unit)
        du = dd[group[units]]
        extra = np.flatnonzero(units != first[group[units]])
        du[extra] = _stored_dist(trees, cv[units[extra]], tol, band, mirror)
        alive = units[du > tol]
        pairs, d = _pairs(cv[alive], tol + band, mirror)
        edge = group[alive[pairs[np.abs(d - tol) <= band]]]
        if loose[edge].all():
            break
        loose[edge] = True
    removed: set[int] = set()
    for i, j in pairs[d <= tol].tolist():
        if i not in removed:
            removed.add(j)
    return np.delete(alive, list(removed)), hashes


def _nets(gens: np.ndarray, dim: int, mode: str, dedup_tol: float, fingerprint: str,
          budget: int):
    """Yield the net of word length 0, 1, 2, ..., each built from the last by
    one breadth-first level.  Each net owns its arrays.

    A level's candidates, frontier word i // n_gens times generator
    i % n_gens, are built and tested CHUNK at a time in enumeration order,
    each chunk against the stored products and the kept candidates of the
    chunks before it, so the level's first-wins verdicts are those of
    testing the whole level at once.  Raises BudgetExceeded as soon as a
    chunk takes the store past budget words, and SchemaError before any
    work for a budget below 1, which even the length-0 net (the empty word)
    exceeds.
    """
    if budget < 1:
        raise SchemaError(f"net word budget must be at least 1, got {budget}")
    su2 = mode == "su" and dim == 2
    tol = dedup_tol / np.sqrt(2) if su2 else dedup_tol
    n_gens = len(gens)
    dtype = np.min_scalar_type(n_gens - 1)
    products = np.eye(dim, dtype=complex)[None]
    tokens, offsets = np.zeros(0, dtype), np.zeros(2, np.intp)  # the empty word
    parents = np.full(1, -1, np.intp)
    frontier_t, frontier_p = np.zeros((1, 0), dtype), products
    rows = _rows(products, su2)
    trees = [_Stored(rows, _groups(rows)[2])]
    for level in itertools.count():
        if level and len(frontier_p):
            if len(trees) > 1:  # one tree over the earlier levels
                rows = np.concatenate([t.tree.data for t in trees])
                hashes = np.concatenate([t.hashes for t in trees])
                trees.clear()  # frees the old trees before the new one is built
                trees.append(_Stored(rows, hashes))
            total = len(frontier_p) * n_gens
            kept, kept_p, found = [], [], 0
            for s in range(0, total, CHUNK):
                e = min(s + CHUNK, total)
                a, b = s // n_gens, -(-e // n_gens)  # parents of candidates s..e-1
                cand = np.stack([_times(frontier_p[a:b], g) for g in gens], axis=1)
                cand = cand.reshape(-1, dim, dim)[s - a * n_gens:e - a * n_gens]
                cv = _rows(cand, su2)
                k, hashes = _new_elements(cv, trees, tol, su2)
                found += len(k)
                if len(products) + found > budget:
                    raise BudgetExceeded(
                        f"word budget {budget} exceeded at word length {level}: "
                        f"{len(products)} words stored, {found} more found in the "
                        f"first {e} of {total} candidates"
                    )
                if len(k):
                    _store_rows(trees, cv[k], hashes[k])
                kept.append(s + k)
                kept_p.append(cand[k])
            kept = np.concatenate(kept)
            base = len(products) - len(frontier_p)  # store index of frontier word 0
            parents = np.concatenate([parents, base + kept // n_gens])
            frontier_t = np.column_stack([frontier_t[kept // n_gens],
                                          (kept % n_gens).astype(dtype)])
            frontier_p = np.concatenate(kept_p)
            tokens = np.concatenate([tokens, frontier_t.ravel()])
            offsets = np.concatenate([offsets,
                                      offsets[-1] + level * np.arange(1, len(kept) + 1)])
            products = np.concatenate([products, frontier_p])
        yield EpsNet(dim=dim, mode=mode, word_length=level, dedup_tol=dedup_tol,
                     fingerprint=fingerprint, tokens=tokens, offsets=offsets,
                     parents=parents, products=products)


def build_net(gens: np.ndarray, dim: int, mode: str, word_length: int,
              dedup_tol: float, fingerprint: str = "",
              budget: int = DEFAULT_BUDGET) -> EpsNet:
    """Enumerate words breadth-first, keeping first-seen products only.

    A candidate is dropped when its product lies within dedup_tol (Frobenius)
    of anything already stored or of an earlier kept candidate of its own
    level.  An SU(2) net tests its products' quaternions at dedup_tol /
    sqrt(2), up to sign: a candidate within that of a stored product's
    negation is dropped too, so each rotation is stored once, with the
    shortest word found for it, and only kept words are expanded.
    Different words that reach the same group element give products
    equal up to round-off, and most candidates of a long net are such
    duplicates; each chunk of CHUNK candidates groups those that agree to
    1e-9 and tests one member per group, and expands a group into all its
    members wherever a distance near dedup_tol could tell them apart
    (_new_elements), so the kept set is exactly that of testing every
    candidate.  Beyond the stored net, its k-d trees (a row of 4 floats for
    an SU(2) net, 2 d^2 for any other, and an index per word) and their
    record of cell hashes (16 bytes per word), a build holds one chunk's
    candidates at a time.  A built SU(2) net comes with the k-d tree of its
    lookup (EpsNet.nearest), so that building it is part of the build.
    Raises BudgetExceeded as soon as a chunk would take the store past
    budget words, so budget bounds the memory of a build as well as its
    words.  A negative word_length or a budget below 1 raises SchemaError
    (the budget is checked by _nets, which auto_net shares).
    """
    if word_length < 0:
        raise SchemaError(f"net word length must be at least 0, got {word_length}")
    nets = _nets(np.asarray(gens, dtype=complex), dim, mode, dedup_tol, fingerprint, budget)
    net = next(itertools.islice(nets, word_length, None))
    if net.su2:  # the lookup's tree is part of the build
        net._tree = _sheet_tree(net.products)
    return net


def _gateset_recipe(gs: GateSet, with_inverses: bool) -> tuple[np.ndarray, float, str]:
    """Generators, dedup tolerance (eps0 / 10) and fingerprint of the net over
    gs's generators, and also their inverses when with_inverses."""
    return (extended_generators(gs) if with_inverses else gs.matrices,
            eps0_constant(gs) / 10, net_fingerprint(gs, with_inverses))


def build_gateset_net(gs: GateSet, word_length: int, with_inverses: bool = False,
                      budget: int = DEFAULT_BUDGET) -> EpsNet:
    gens, dedup_tol, fingerprint = _gateset_recipe(gs, with_inverses)
    return build_net(gens, gs.dim, gs.mode, word_length, dedup_tol, fingerprint, budget)


def probe_density(net: EpsNet, probes: int, rng: np.random.Generator) -> float:
    """Empirical covering radius: max over random SU(d) probes of the nearest
    stored distance (up to sign on an SU(2) net).  Only meaningful in su
    mode.  An SU(2) net answers all probes with one EpsNet.nearest; any
    other net, which has no lookup, scans dist over all its products for
    each probe.  The draws are those of one probe at a time."""
    targets = [random_su(net.dim, rng) for _ in range(probes)]
    if net.su2 and probes:
        d = net.nearest(su2_to_quaternion(np.array(targets)))[1]
    else:
        d = [dist(net.products, t).min() for t in targets]
    worst = float(np.max(d, initial=0.0))
    net.achieved_density = worst
    return worst


def _product_digest(products: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(products.round(10)).tobytes()).hexdigest()


def save_net(net: EpsNet, path) -> None:
    """Write a JSON header, whose levels are the first store index of each
    word length and then len(net), and a "parent last" line per nonempty word."""
    lengths = np.diff(net.offsets)
    header = {
        "format": NET_FORMAT,
        "fingerprint": net.fingerprint,
        "dim": net.dim,
        "mode": net.mode,
        "word_length": net.word_length,
        "dedup_tol": net.dedup_tol,
        "levels": np.searchsorted(lengths, np.arange(net.word_length + 2)).tolist(),
        "achieved_density": net.achieved_density,
        "product_digest": _product_digest(net.products),
    }
    last = net.tokens[net.offsets[2:] - 1]
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        f.writelines(f"{p} {t}\n" for p, t in zip(net.parents[1:].tolist(), last.tolist()))


def load_net(path, gs: GateSet, with_inverses: bool = False) -> EpsNet:
    """Reload a saved net, rebuilding its words and products level by level
    (a word's product is its parent's times its last generator, the recipe
    the builder stores) and checking them against the stored digest.

    Raises StaleGateSet when the cache was built against a different gate set
    and FormatError on any structural damage, a malformed header field or a
    file of an older format, which must be rebuilt.
    """
    with open(path, "r", encoding="utf-8") as f:
        head, _, body = f.read().partition("\n")
    try:
        header = json.loads(head)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad net header: {e}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != NET_FORMAT:
        raise FormatError(f"net file format is {fmt!r}, not {NET_FORMAT!r}: rebuild it "
                          "with irrepsk net --out")
    gens, _, expected = _gateset_recipe(gs, with_inverses)
    if header.get("fingerprint") != expected:
        raise StaleGateSet(
            "net cache was built for a different gate set "
            f"({str(header.get('fingerprint'))[:12]}... vs {expected[:12]}...)"
        )
    for key, types in (("word_length", int), ("dedup_tol", (int, float)),
                       ("achieved_density", (int, float, type(None))), ("levels", list)):
        if not isinstance(header.get(key), types):
            raise FormatError(f"bad net header field {key!r}: {header.get(key)!r}")
    levels = header["levels"]
    if (len(levels) != header["word_length"] + 2 or levels[:2] != [0, 1]
            or not all(isinstance(n, int) for n in levels) or np.any(np.diff(levels) < 0)):
        raise FormatError(f"bad net header field 'levels': {levels!r}")
    count = levels[-1]
    lines = body.splitlines()
    if len(lines) != count - 1:
        raise FormatError(f"expected {count - 1} word lines, found {len(lines)}")
    rows = np.zeros((0, 2), np.intp)
    if lines:
        try:
            rows = np.loadtxt(lines, np.intp, comments=None, ndmin=2)
        except ValueError:
            pass
    if rows.shape != (len(lines), 2):
        for k, line in enumerate(lines, 2):  # name the first bad line
            fields = line.split()
            if len(fields) != 2:
                raise FormatError(f"line {k}: {len(fields)} fields, not 'parent last'")
            try:
                np.array(fields, np.intp)
            except (ValueError, OverflowError):
                raise FormatError(f"line {k}: unparsable or out-of-range index") from None
        raise FormatError("unparsable net body")
    parent, last = rows.T
    # line k + 2 holds word k + 1, of length length[k], whose parent is one shorter
    length = np.repeat(np.arange(len(levels) - 1), np.diff(levels))[1:]
    bad_parent = (parent < np.take(levels, length - 1)) | (parent >= np.take(levels, length))
    bad = bad_parent | (last < 0) | (last >= len(gens))
    if bad.any():
        k = int(np.argmax(bad))
        what = (f"parent {parent[k]} is not a word of the level before" if bad_parent[k]
                else "generator index out of range")
        raise FormatError(f"line {k + 2}: {what}")
    last = last.astype(np.min_scalar_type(len(gens) - 1))
    products = np.empty((count, gs.dim, gs.dim), dtype=complex)
    products[0] = np.eye(gs.dim)
    words = [np.zeros((1, 0), last.dtype)]  # each level's words as rows of tokens
    for n in range(1, len(levels) - 1):
        a, b = levels[n], levels[n + 1]
        p, t = parent[a - 1:b - 1], last[a - 1:b - 1]
        for j, g in enumerate(gens):
            products[a:b][t == j] = _times(products[p[t == j]], g)
        words.append(np.column_stack([words[-1][p - levels[n - 1]], t]))
    if header.get("product_digest") != _product_digest(products):
        raise FormatError("recomputed products do not match the stored digest")
    return EpsNet(dim=gs.dim, mode=gs.mode, word_length=header["word_length"],
                  dedup_tol=float(header["dedup_tol"]), fingerprint=expected,
                  tokens=np.concatenate([w.ravel() for w in words]),
                  offsets=np.concatenate([[0, 0], np.cumsum(length)]),
                  parents=np.concatenate([[-1], parent]), products=products,
                  achieved_density=header.get("achieved_density"))


# auto_net's first probed word length and its cap
AUTO_START, AUTO_MAX = 4, 40


def auto_net(gs: GateSet, target_density: float, probes: int,
             rng: np.random.Generator, with_inverses: bool = False,
             budget: int = DEFAULT_BUDGET) -> EpsNet:
    """Grow word_length from AUTO_START in steps of 2 until the probed
    density reaches target_density.

    The net is extended one level at a time, never rebuilt; each probed net
    is the one build_gateset_net gives at its length.  Raises BudgetExceeded
    if the store fills up or AUTO_MAX is reached first, and SchemaError
    before any build for a set not in su mode, whose probed density against
    SU(d) targets need never fall (probe_density).
    """
    if gs.mode != "su":
        raise SchemaError(f"--auto probes SU(d) targets and needs su mode, not {gs.mode}")
    gens, dedup_tol, fingerprint = _gateset_recipe(gs, with_inverses)
    for net in _nets(gens, gs.dim, gs.mode, dedup_tol, fingerprint, budget):
        if net.word_length < AUTO_START or (net.word_length - AUTO_START) % 2:
            continue
        density = probe_density(net, probes, rng)
        if density <= target_density:
            return net
        if net.word_length >= AUTO_MAX:
            raise BudgetExceeded(
                f"word length cap {AUTO_MAX} reached, density {density:.4f} "
                f"> target {target_density}"
            )
