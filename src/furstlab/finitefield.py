"""Exact Kakeya / spread-Furstenberg combinatorics over F_q^n, q prime.

A point set is one sorted, unique (m, n) int64 array of coordinates
reduced mod q.  A k-subspace is its k x n canonical reduced row-echelon
basis, and the k-directions of F_q^n are one (count, k, n) int64 stack of
those bases.  Every coset of a k-subspace has a canonical representative
with its pivot coordinates zeroed; its integer label is the base-q code of
the free coordinates, so labels sort like representatives.  One vectorized
kernel labels a batch of points in every direction at once.  Set checks
count cosets with a bincount over those labels, a chunk of points at a
time, and read every verdict off one labeling per direction family; the
minimal-set search is one branch and bound that keeps its coset counts in
plain lists it updates point by point.  It starts from a proved
closed-form floor (`_search_floor`: a pair double count, Bukh-Chao and
Blokhuis-Mazzocca for Kakeya sets), stops on the first set it completes at
that floor, and reports the floor with its result.

Only prime q is accepted: over proper prime powers the subfield structure
breaks the size conjectures this module is used to probe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import table

MAX_DIRECTIONS = 10 ** 6
# Entries of the per-direction label and count tables a check may allocate.
_MAX_COUNT_TABLE = 1 << 24


class SearchBudgetExceeded(RuntimeError):
    """A minimal-set search exceeded its node budget.

    lower_bound is a size no minimal set is below, proved before the cap
    was hit; incumbent is the size of the smallest set found by then, or
    None.
    """

    def __init__(self, node_cap: int, lower_bound: int, incumbent: Optional[int]):
        self.lower_bound = lower_bound
        self.incumbent = incumbent
        found = "none" if incumbent is None else incumbent
        super().__init__(
            f"node cap {node_cap} exceeded; minimal size >= {lower_bound}, incumbent {found}"
        )


def _require_prime(q: int):
    # F_q^n, n >= 2, has at least q + 1 directions, so a q at the direction
    # cap is refused before trial division, which would take ~sqrt(q) steps.
    if q >= MAX_DIRECTIONS:
        raise ValueError(f"q = {q} is past the direction cap: F_q^n, n >= 2, has over 10^6 directions")
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"q must be prime, got {q}")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^n, as an exact integer."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@dataclass(frozen=True, eq=False)
class FFSet:
    """A finite point set in F_q^n: `points` is a lexicographically sorted,
    unique (m, n) int64 array of coordinates reduced mod q.  The points may
    be given as any array-like of integers read as `table.integer_array`
    reads it: an integral float such as 2.0 counts as its integer, and any
    other value raises ValueError."""

    q: int
    n: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_prime(self.q)
        pts = table.integer_array(self.points).astype(np.int64, copy=False) % self.q
        if pts.shape == (0,):
            pts = pts.reshape(0, self.n)
        if self.n < 1 or pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must be an (m, n) array, n >= 1, not of shape {pts.shape}")
        # Rows sorted by a lexsort, then a neighbour test: 4-5x faster than
        # np.unique(axis=0), which sorts the rows as structured scalars.
        if len(pts) > 1:
            pts = pts[np.lexsort(pts.T[::-1])]
            pts = pts[np.r_[True, (pts[1:] != pts[:-1]).any(axis=1)]]
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def to_csv(self) -> str:
        return table.to_csv([f"x{j}" for j in range(self.n)], self.points)

    @classmethod
    def from_csv(cls, q: int, text: str) -> "FFSet":
        """The set of the rows under the header; its n is the header's width."""
        pts = table.from_csv(text, int)
        return cls(q, pts.shape[1], pts)


def _direction_count(q: int, n: int, k: int) -> int:
    """Number of k-subspaces of F_q^n, q prime, 1 <= k <= n-1, at most
    MAX_DIRECTIONS.

    The count is at least 2^(k(n-k)), so that bound rejects a large n
    before the Gaussian binomial computes q**n.
    """
    _require_prime(q)
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if k * (n - k) < MAX_DIRECTIONS.bit_length():
        count = gaussian_binomial(n, k, q)
        if count <= MAX_DIRECTIONS:
            return count
    raise ValueError(f"more than 10^6 {k}-subspaces exceeds the direction cap")


def _capped_directions(q: int, n: int, k: int, exponent: int) -> np.ndarray:
    """The k-directions of F_q^n, once a table of one row per direction and
    q^exponent columns (a search's q^n points, a set's cosets) fits the cap."""
    ndirs = _direction_count(q, n, k)
    if ndirs * q ** exponent > _MAX_COUNT_TABLE:
        raise ValueError(f"{ndirs} directions x {q ** exponent} columns exceeds the count table cap")
    return ff_directions(q, n, k)


def _digits(q: int, width: int) -> np.ndarray:
    """All q^width base-q digit rows, in itertools.product order."""
    return np.indices((q,) * width).reshape(width, q ** width).T


def ff_directions(q: int, n: int, k: int) -> np.ndarray:
    """All k-subspaces of F_q^n as a (count, k, n) int64 stack of canonical
    RREF bases.

    Pivot patterns come in itertools.combinations order; within one, the
    free entries (row by row, each right of its row's pivot and off every
    pivot column) run through itertools.product order.  The cap is checked
    on the Gaussian binomial before anything is built, but the stack holds
    the enumeration's own count, the sum over pivot patterns of
    q^(free entries), so ff_verify compares two independent counts.
    """
    _direction_count(q, n, k)
    patterns = []
    for pivots in itertools.combinations(range(n), k):
        rows, cols = np.array(
            [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots],
            dtype=np.intp,
        ).reshape(-1, 2).T
        patterns.append((pivots, rows, cols))
    out = np.zeros((sum(q ** len(rows) for _, rows, _ in patterns), k, n), dtype=np.int64)
    start = 0
    for pivots, rows, cols in patterns:
        block = out[start:start + q ** len(rows)]
        block[:, np.arange(k), pivots] = 1
        block[:, rows, cols] = _digits(q, len(rows))
        start += len(block)
    return out


def _coset_labels(q: int, n: int, bases: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Coset label of each row of the (m, n) points in each direction of
    the (ndirs, k, n) RREF stack, shape (ndirs, m): the base-q code of the
    free coordinates of the canonical representative.

    Every intermediate is below k q^2 in magnitude and every label below
    q^(n-k); under the count-table cap both fit int32, which halves the
    memory traffic, and int64 is kept for a single basis past it.
    """
    k = bases.shape[1]
    dtype = np.int32 if max(k * q * q, q ** (n - k)) < 1 << 31 else np.int64
    x = points.T.astype(dtype)
    bases = bases.astype(dtype)
    pivots = (bases != 0).argmax(axis=2)
    coef = x[pivots]
    free = np.ones((len(bases), n), dtype=dtype)
    np.put_along_axis(free, pivots, 0, axis=1)
    # q ** (number of free columns right of j) on free columns, 0 on pivots
    weight = free * q ** (np.cumsum(free[:, ::-1], axis=1, dtype=dtype)[:, ::-1] - free)
    labels = np.zeros((len(bases), x.shape[1]), dtype=dtype)
    rep = np.empty_like(labels)
    for j in range(n):  # in place: one (ndirs, m) temporary
        np.einsum("dk,dkm->dm", bases[:, :, j], coef, out=rep)
        np.subtract(x[j], rep, out=rep)
        rep %= q
        rep *= weight[:, j, None]
        labels += rep
    return labels


def _coset_counts(labels: np.ndarray, ncosets: int) -> np.ndarray:
    """Points per coset, shape (ndirs, ncosets), columns in label order."""
    ndirs = len(labels)
    flat = labels + ncosets * np.arange(ndirs, dtype=labels.dtype)[:, None]
    return np.bincount(flat.ravel(), minlength=ndirs * ncosets).reshape(ndirs, ncosets)


def _max_counts(f: FFSet, dirs: np.ndarray) -> np.ndarray:
    """Largest coset count of the set in each direction of the (ndirs, k, n)
    stack; the set is labeled _MAX_COUNT_TABLE // ndirs points at a time."""
    ncosets = f.q ** (f.n - dirs.shape[1])
    counts = np.zeros((len(dirs), ncosets), dtype=np.int64)
    step = _MAX_COUNT_TABLE // len(dirs)
    for start in range(0, len(f), step):
        counts += _coset_counts(_coset_labels(f.q, f.n, dirs, f.points[start:start + step]), ncosets)
    return counts.max(axis=1)


def _canonical_basis(q: int, n: int, basis) -> np.ndarray:
    """basis with entries reduced mod q, checked to be a k x n canonical RREF
    basis: each row's first nonzero entry is 1, strictly right of the row
    above's, and the only nonzero entry of its column."""
    b = np.asarray(basis, dtype=np.int64) % q
    if b.ndim != 2 or b.shape[1] != n:
        raise ValueError(f"basis of shape {b.shape} is not k x {n}")
    nonzero = b != 0
    pivots = nonzero.argmax(axis=1)
    if not (
        nonzero.any(axis=1).all()
        and (np.diff(pivots) > 0).all()
        and (b[np.arange(len(b)), pivots] == 1).all()
        and (nonzero[:, pivots].sum(axis=0) == 1).all()
    ):
        raise ValueError("basis is not in canonical RREF")
    return b


def ff_coset_profile(f: FFSet, basis):
    """Distribution of the set over the q^(n-k) cosets of the subspace with
    the k x n canonical RREF basis (entries taken mod q).

    Returns (best_offset, max_count, histogram) where histogram maps every
    coset representative to its point count (zeros included) and best_offset
    is the lexicographically smallest representative attaining the maximum.
    More than _MAX_COUNT_TABLE cosets raise ValueError before any table is
    built.
    """
    b = _canonical_basis(f.q, f.n, basis)
    ncosets = f.q ** (f.n - len(b))
    if ncosets > _MAX_COUNT_TABLE:
        raise ValueError(f"{ncosets} cosets exceed the count table cap {_MAX_COUNT_TABLE}")
    free = np.setdiff1d(np.arange(f.n), (b != 0).argmax(axis=1))
    reps = np.zeros((ncosets, f.n), dtype=np.int64)
    reps[:, free] = _digits(f.q, len(free))
    counts = _coset_counts(_coset_labels(f.q, f.n, b[None], f.points), len(reps))[0]
    histogram = dict(zip(map(tuple, reps.tolist()), counts.tolist()))
    best_offset = min(histogram, key=lambda r: (-histogram[r], r))
    return best_offset, histogram[best_offset], histogram


def ff_verify(q: int, n: int, k: int, f: Optional[FFSet] = None, spread: Optional[dict] = None) -> dict:
    """The `ff verify` report for the k-directions of F_q^n and, given a set
    f of F_q^n, the set's verdicts.

    directions is the size of the ff_directions stack and gaussian_binomial
    the closed-form count; directions_match compares the two.  With a set:
    set_size; pigeonhole, every direction has a coset of at least
    ceil(|f| / q^(n-k)) points (averaging over the cosets proves it, so
    False is a bug); is_kakeya, a full line in every direction; and, for
    spread = {"m", "M"}, is_spread_furstenberg, at least M directions have a
    coset of >= m points.  The set is labeled once by the k-directions and,
    for k >= 2, once more by the lines; both count tables are checked
    against the cap before the first labeling.
    """
    if spread is not None and min(spread.values()) < 1:
        raise ValueError("m and M must be >= 1")
    if f is not None and (f.q, f.n) != (q, n):
        raise ValueError(f"the set lies in F_{f.q}^{f.n}, not in F_{q}^{n}")
    dirs = ff_directions(q, n, k) if f is None else _capped_directions(q, n, k, n - k)
    expected = gaussian_binomial(n, k, q)
    out = {"directions": len(dirs), "gaussian_binomial": expected,
           "directions_match": len(dirs) == expected}
    if f is None:
        return out
    line_dirs = dirs if k == 1 else _capped_directions(q, n, 1, n - 1)
    maxima = _max_counts(f, dirs)
    out["set_size"] = len(f)
    out["pigeonhole"] = bool((maxima >= -(-len(f) // q ** (n - k))).all())
    lines = maxima if k == 1 else _max_counts(f, line_dirs)
    out["is_kakeya"] = bool((lines >= q).all())
    if spread is not None:
        out["is_spread_furstenberg"] = int((maxima >= spread["m"]).sum()) >= spread["M"]
    return out


def ff_is_kakeya(k_set: FFSet) -> bool:
    """Does the set contain a full line in every direction?"""
    return ff_verify(k_set.q, k_set.n, 1, k_set)["is_kakeya"]


def ff_is_spread_furstenberg(f: FFSet, k: int, m: int, big_m: int) -> bool:
    """At least big_m directions of k-subspaces have a coset holding >= m
    points of the set."""
    return ff_verify(f.q, f.n, k, f, {"m": m, "M": big_m})["is_spread_furstenberg"]


def ff_pigeonhole_verify(f: FFSet, k: int) -> bool:
    """Every direction has a coset with at least ceil(|F| / q^(n-k)) points
    (a theorem, so False indicates an implementation bug)."""
    return ff_verify(f.q, f.n, k, f)["pigeonhole"]


@dataclass(frozen=True, eq=False)
class SearchResult:
    """A minimal set with the nodes the search took, and the closed-form
    floor (`_search_floor`) it was checked against, with that floor's
    source."""

    size: int
    witness: FFSet
    nodes_explored: int
    lower_bound: int
    lower_bound_source: str

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "witness": self.witness.points.tolist(),
            "nodes_explored": self.nodes_explored,
            "lower_bound": self.lower_bound,
            "lower_bound_source": self.lower_bound_source,
        }


def _search_floor(q: int, n: int, k: int, m: int) -> Tuple[int, str]:
    """(value, source): a size no set with a coset of >= m points in every
    k-direction of F_q^n is below, the largest of these proved floors (the
    first listed wins a tie):

    - "trivial": m, the points of one rich coset.
    - "pair_count": the least s >= m with C(s, 2) G(n-1, k-1, q) >=
      G(n, k, q) C(m, 2), G the Gaussian binomial.  Proof: let S be such a
      set and count the pairs ({x, y}, V) with x != y in S, V a k-direction
      and x - y in V.  Each of the G(n, k, q) directions V has a coset c
      with |S & c| >= m, and every pair inside c has its difference in V,
      so there are at least G(n, k, q) C(m, 2).  A pair's difference spans
      one line, which lies in exactly G(n-1, k-1, q) k-directions (those
      of F_q^n / line), so there are exactly C(|S|, 2) G(n-1, k-1, q).
    - "bukh_chao" (Kakeya: k = 1, m = q): ceil(q^(2n-1) / (2q-1)^(n-1)),
      that is |K| >= q^n / (2 - 1/q)^(n-1) (Bukh and Chao, 2021).
    - "blokhuis_mazzocca" (Kakeya, n = 2, q odd): q(q+1)/2 + (q-1)/2, the
      exact planar minimum (Blokhuis and Mazzocca, 2008).
    """
    floors = [(m, "trivial")]
    need = -(-gaussian_binomial(n, k, q) * math.comb(m, 2) // gaussian_binomial(n - 1, k - 1, q))
    s = max(m, math.isqrt(2 * need))  # C(s, 2) >= need needs s > sqrt(2 need)
    while math.comb(s, 2) < need:
        s += 1
    floors.append((s, "pair_count"))
    if (k, m) == (1, q):
        floors.append((-(-q ** (2 * n - 1) // (2 * q - 1) ** (n - 1)), "bukh_chao"))
        if n == 2 and q % 2:
            floors.append((q * (q + 1) // 2 + (q - 1) // 2, "blokhuis_mazzocca"))
    return max(floors, key=lambda f: f[0])


def _min_set_meeting(q: int, n: int, k: int, m: int, node_cap: Optional[int]) -> SearchResult:
    """Smallest set with a coset of >= m points in every k-direction, found
    by a deterministic depth-first completion search (`_branch_and_bound`)
    that guarantees a minimal size, not a particular witness.  The search
    stops on the first set it completes at or below `_search_floor`.
    nodes_explored counts every search node visited, so a node_cap equal to
    it lets the same search finish.
    """
    dirs = _capped_directions(q, n, k, n)
    if not (1 <= m <= q ** k):
        raise ValueError(f"need 1 <= m <= q^k = {q ** k}, got m={m}")
    floor, source = _search_floor(q, n, k, m)
    universe = _digits(q, n)
    cap = math.inf if node_cap is None else node_cap
    node, nodes = _branch_and_bound(_coset_labels(q, n, dirs, universe), q ** (n - k), m, cap, floor)
    return SearchResult(len(node), FFSet(q, n, universe[node]), nodes, floor, source)


def _branch_and_bound(labels: np.ndarray, ncosets: int, m: int, cap, floor: int) -> Tuple[list, int]:
    """A minimal set, with the nodes explored.  Each node picks the first
    direction with the largest deficit and branches on every way to complete
    one of its cosets up to m points, fullest cosets and smallest additions
    first.  Only a strictly smaller set replaces the incumbent, so the first
    set completed at the minimal size is the witness, and the search
    returns on the node that completes a set no larger than `floor`, a
    proved lower bound: no smaller set exists.  With floor = m it stops
    only where the tree is exhausted or a set of m points is found.

    The root is seeded by affine symmetry.  Point 0 is the zero vector, V0
    its coset in the first direction, and b the second point of V0 in index
    order.  The root's children are only the m-subsets of V0 that hold 0
    and, if m >= 2, b; when m = q^k that is V0 alone.  This loses no
    minimum.  Let S be a minimal set and c a coset of the first direction
    with |S & c| >= m, and pick a != b' in S & c.  The translation
    x -> x - a takes c onto V0 and a to 0, and some linear map in GL(n, q)
    that fixes V0 setwise takes b' - a to b.  An affine bijection permutes
    the family of all k-directions and maps cosets to cosets, so the image
    of S is a minimal set, and one of its m-subsets of V0 holding {0, b} is
    a root child.  Below the root the search is complete: every valid
    superset of a node holds one of the node's completions.  The GL step
    needs the full family of directions.  Only translations and homotheties
    x -> lambda x fix every direction, so for a partial family they are
    what is left; they still take b' - a to b when k = 1, but not when
    k >= 2.

    A child no smaller than the incumbent is cut as soon as it is visited,
    and so is every later child of the same node (later cosets need at
    least as many points), so those are counted, not built.

    Past the cap, SearchBudgetExceeded carries a proved lower bound: the
    larger of `floor` and the path bound, the smaller of the incumbent and,
    over the nodes open on the path, the least (node size + need of a child
    not yet built).  Every set not yet reached lies under such a child.  A
    node's children come fullest coset first, so their need never falls,
    and the next unbuilt child bounds all the rest; a node whose last child
    is built adds nothing.  The root's need is m and every node below it
    holds m points, so the path bound is at least m.
    """
    ndirs, npoints = labels.shape
    coset_size = npoints // ncosets
    # The points of each coset, in index order: a stable sort of a row of
    # labels groups the q^k points of each label.
    cosets = np.argsort(labels, axis=1, kind="stable").reshape(ndirs, ncosets, coset_size).tolist()
    counts = [[0] * ncosets for _ in range(ndirs)]
    # The count row and the coset label of each point in each direction.
    point_cells = [list(zip(counts, labs)) for labs in labels.T.tolist()]
    members = [False] * npoints
    size = 0
    nodes = 1  # the root
    best: Optional[list] = None
    path = []  # per open node, size + need of its next child not yet built

    def exceeded() -> SearchBudgetExceeded:
        if best is None:
            return SearchBudgetExceeded(cap, max(floor, min(path, default=m)), None)
        return SearchBudgetExceeded(cap, max(floor, min(path + [len(best)])), len(best))

    if nodes > cap:
        raise exceeded()

    def toggle(points, step: int):
        nonlocal size
        for i in points:
            members[i] = step > 0
            for row, lab in point_cells[i]:
                row[lab] += step
        size += step * len(points)

    def dfs(d: int, order: list) -> bool:
        # Children: each way to complete a coset of direction d, in order.
        # True once a set no larger than the floor is found.
        nonlocal nodes, best
        row = counts[d]
        for pos, lab in enumerate(order):
            need = m - row[lab]
            path[-1] = size + need
            missing = [i for i in cosets[d][lab] if not members[i]]
            total = math.comb(len(missing), need)
            after = size + m - row[order[pos + 1]] if pos + 1 < len(order) else math.inf
            for tried, addition in enumerate(itertools.combinations(missing, need)):
                if best is not None and size + need >= len(best):
                    nodes += total - tried + sum(
                        math.comb(coset_size - row[c], m - row[c]) for c in order[pos + 1:]
                    )
                    if nodes > cap:
                        raise exceeded()
                    return False
                nodes += 1
                if nodes > cap:
                    raise exceeded()
                if tried == total - 1:
                    path[-1] = after
                toggle(addition, 1)
                fullest = list(map(max, counts))
                e = fullest.index(min(fullest))
                deficit = m - fullest[e]
                if deficit <= 0:
                    best = [i for i in range(npoints) if members[i]]
                    if size <= floor:
                        return True
                elif best is None or size + deficit < len(best):
                    path.append(None)
                    if dfs(e, sorted(range(ncosets), key=counts[e].__getitem__, reverse=True)):
                        return True
                    path.pop()
                toggle(addition, -1)
        return False

    # The root seed: 0 and b go in at the root, whose one coset to complete is V0.
    v0 = int(labels[0, 0])
    toggle(cosets[0][v0][:min(m, 2)], 1)
    path.append(None)
    dfs(0, [v0])
    if best is None:
        raise RuntimeError("search found no witness")
    return best, nodes


def ff_min_kakeya(q: int, n: int, node_cap: Optional[int] = None) -> SearchResult:
    """Minimal cardinality of a Kakeya set in F_q^n, with witness."""
    return _min_set_meeting(q, n, 1, q, node_cap)


def ff_min_spread(q: int, n: int, k: int, m: int, node_cap: Optional[int] = None) -> SearchResult:
    """Minimal size of a set with a coset of >= m points in every
    k-direction (the full-direction-family case)."""
    return _min_set_meeting(q, n, k, m, node_cap)
