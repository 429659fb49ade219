"""Graphs, labelings, block counters and label-comparison primitives.

All values are immutable after construction (numpy buffers are marked
read-only), so they can be shared freely across threads.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Permutations are enumerated exhaustively up to this k; beyond it the
# label-matching problem is solved as an assignment problem instead.
_PERMUTATION_LIMIT = 8


def _entry_rows(indptr, size):
    """(lo, hi, rows) over the stored entries of a CSR, 2^14 at a time:
    rows[e - lo] is the row of entry e, the last row starting at or before
    it. No array as long as the entries is built."""
    for lo in range(0, size, 1 << 14):
        hi = min(lo + (1 << 14), size)
        yield lo, hi, np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1


def _freeze(arr, dtype=None):
    """Defensive copy marked read-only; callers keep ownership of their input."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in compressed sparse row (CSR) form.

    The neighbours of node i are ``indices[indptr[i]:indptr[i + 1]]``, sorted
    ascending; every edge is stored in both directions, so the arrays take
    O(n + m) memory. Both arrays are int64 and read-only. Node indices are
    0-based everywhere in memory; file formats are 1-based.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if indptr.shape != (self.n + 1,) or indices.ndim != 1:
            raise ValueError(f"indptr must have length n+1={self.n + 1}")
        degrees = np.diff(indptr)
        if indptr[0] != 0 or (degrees < 0).any() or indptr[-1] != indices.size:
            raise ValueError("indptr must rise from 0 to the number of stored entries")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError(f"neighbour index out of range for n={self.n}")
        # The keys i * n + j of the stored entries (i, j) must rise in storage
        # order, and equal their transposes j * n + i once sorted. The keys
        # come a chunk at a time, so the transposes are the one array as long
        # as the entries that the checks build.
        n = self.n
        transposed = indices * n
        loops = unsorted = False
        last = -1
        for lo, hi, rows in _entry_rows(indptr, indices.size):
            keys = rows * n + indices[lo:hi]
            loops |= bool((rows == indices[lo:hi]).any())
            unsorted |= bool(keys[0] <= last or (keys[1:] <= keys[:-1]).any())
            last = keys[-1]
            transposed[lo:hi] += rows
        if loops:
            raise ValueError("self-loops are not allowed")
        if unsorted:
            raise ValueError("neighbours must be sorted and distinct within each row")
        transposed.sort()
        if not all(np.array_equal(transposed[lo:hi], rows * n + indices[lo:hi])
                   for lo, hi, rows in _entry_rows(indptr, indices.size)):
            raise ValueError("adjacency must be symmetric")
        del transposed
        object.__setattr__(self, "indptr", _freeze(indptr))
        object.__setattr__(self, "indices", _freeze(indices))

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph from 0-based (i, j) pairs; repeated pairs are merged.

        edges may be any iterable of pairs or an (m, 2) integer array.
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs, got shape {pairs.shape}")
        i, j = pairs[:, 0], pairs[:, 1]
        loops = np.flatnonzero(i == j)
        if loops.size:
            raise ValueError(f"self-loop ({i[loops[0]]}, {j[loops[0]]}) not allowed")
        bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n))
        if bad.size:
            raise ValueError(f"edge ({i[bad[0]]}, {j[bad[0]]}) out of range for n={n}")
        # The keys i * n + j of both orientations, built in place and sorted
        # in place: repeats are adjacent, cheaper than np.unique's hashing.
        m = len(pairs)
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(i, n, out=keys[:m])
        keys[:m] += j
        np.multiply(j, n, out=keys[m:])
        keys[m:] += i
        keys.sort()
        if keys.size > 1:
            repeats = keys[1:] == keys[:-1]
            if repeats.any():
                keys = keys[np.concatenate(([True], ~repeats))]
            del repeats
        # Row r starts at the first key of r * n or above; the rest is the column.
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(keys, n, out=keys)
        return cls(n, indptr, keys)

    @property
    def edge_count(self):
        return int(self.indices.size) // 2

    def degrees(self):
        """Node degrees as a length-n integer vector."""
        # Slicing skips np.diff's Python-level overhead, most of the cost at
        # toy n, where every fit and greedy restart reads the degrees.
        return self.indptr[1:] - self.indptr[:-1]

    def edges(self):
        """Sorted list of 0-based (i, j) pairs with i < j."""
        src = np.repeat(np.arange(self.n), self.degrees())
        upper = src < self.indices
        return list(zip(src[upper].tolist(), self.indices[upper].tolist()))


@dataclass(frozen=True)
class Labeling:
    """Community assignment of n nodes into k communities, labels in {0..k-1}."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-d vector")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if labels.min() < 0 or labels.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def n(self):
        return int(self.labels.size)

    def sizes(self):
        """Community sizes n_a as a length-k integer vector."""
        return np.bincount(self.labels, minlength=self.k)

    def canonical(self):
        """Relabel communities by order of first occurrence.

        Label-permutation invariant objectives are unchanged; this picks a
        deterministic representative of each equivalence class.
        """
        present, first, inverse = np.unique(self.labels, return_index=True,
                                            return_inverse=True)
        # The label seen r-th (by its first node) becomes r.
        rank = np.empty(present.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(present.size)
        return Labeling(rank[inverse], self.k)


@dataclass(frozen=True)
class BlockCounters:
    """Community sizes n_a, ordered pair counts n_ab and edge-endpoint counts o_ab.

    o_ab counts ordered pairs (i, j) with labels (a, b) joined by an edge, so
    diagonal entries count every within-community edge twice. The halved
    views expose the per-unordered-pair counters used by the integrated
    likelihood.
    """

    sizes: np.ndarray
    pair_counts: np.ndarray
    edge_counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sizes", _freeze(self.sizes, np.int64))
        object.__setattr__(self, "pair_counts", _freeze(self.pair_counts, np.int64))
        object.__setattr__(self, "edge_counts", _freeze(self.edge_counts, np.int64))

    @property
    def k(self):
        return int(self.sizes.size)

    def densities(self):
        """Block edge densities o_ab / n_ab, 0 for blocks that hold no pairs."""
        nab = self.pair_counts
        mask = nab > 0
        out = np.zeros_like(nab, dtype=float)
        out[mask] = self.edge_counts[mask] / nab[mask]
        return out

    def tilde_pair_counts(self):
        """Pair counts with the diagonal halved (unordered within-community pairs)."""
        out = self.pair_counts.copy()
        np.fill_diagonal(out, np.diagonal(out) // 2)
        return out

    def tilde_edge_counts(self):
        """Edge counts with the diagonal halved (each within edge counted once)."""
        out = self.edge_counts.copy()
        np.fill_diagonal(out, np.diagonal(out) // 2)
        return out


@dataclass(frozen=True)
class ConfusionMatrix:
    """Joint label frequencies R_ab = #{i: e_i=a, z_i=b} / n between two labelings."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (r < 0).any():
            raise ValueError("confusion matrix entries must be nonnegative")
        if abs(r.sum() - 1.0) > 1e-9:
            raise ValueError("confusion matrix entries must sum to 1")
        object.__setattr__(self, "r", _freeze(r))

    @property
    def k(self):
        return int(self.r.shape[0])


def _check_pair(e, z):
    if e.n != z.n:
        raise ValueError(f"labeling lengths differ: {e.n} vs {z.n}")
    if e.k != z.k:
        raise ValueError(f"community counts differ: {e.k} vs {z.k}")


def pair_count_matrix(sizes):
    """Ordered pair counts n_ab from community sizes: n_a n_b, n_a (n_a - 1) on the diagonal."""
    sizes = np.asarray(sizes, dtype=np.int64)
    out = np.outer(sizes, sizes)
    np.fill_diagonal(out, sizes * (sizes - 1))
    return out


def block_counters(g, z):
    """Count community sizes, ordered node pairs and edge endpoints per block."""
    if z.n != g.n:
        raise ValueError(f"labeling length {z.n} does not match graph size {g.n}")
    sizes = z.sizes()
    k = z.k
    # One count per stored edge endpoint (i, j): both orientations of an edge.
    src_labels = np.repeat(z.labels, g.degrees())
    edge_counts = np.bincount(src_labels * k + z.labels[g.indices], minlength=k * k)
    return BlockCounters(sizes, pair_count_matrix(sizes), edge_counts.reshape(k, k))


def confusion_counts(e, z):
    """Integer joint label counts, i.e. n times the confusion matrix."""
    _check_pair(e, z)
    k = e.k
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (e.labels, z.labels), 1)
    return counts


def confusion(e, z):
    """Confusion matrix R(e, z) between two labelings with the same k."""
    return ConfusionMatrix(confusion_counts(e, z) / e.n)


def hamming_distance(e, z):
    """Plain label disagreement count, no permutation matching."""
    _check_pair(e, z)
    return int(np.count_nonzero(e.labels != z.labels))


def disagreement_fraction(e, z):
    """Disagreement fraction (1/n) * #{i: e_i != z_i} via the confusion identity.

    Evaluates (1/2) * ||Diag(R^T 1) - R||_1 in integer count space, where the
    identity with the Hamming fraction is exact, then divides by n once.
    """
    counts = confusion_counts(e, z)
    col_sums = counts.sum(axis=0)
    diff = np.diag(col_sums) - counts
    l1 = int(np.abs(diff).sum())
    assert l1 % 2 == 0
    return (l1 // 2) / e.n


def misclassification(e, z):
    """Minimum label disagreements over all permutations of the k labels.

    Exhaustive over permutations for small k, solved as a maximum-agreement
    assignment on the count matrix beyond that; both routes agree wherever
    both are applicable.
    """
    counts = confusion_counts(e, z)
    n, k = e.n, e.k
    if k <= _PERMUTATION_LIMIT:
        best = 0
        idx = np.arange(k)
        for sigma in itertools.permutations(range(k)):
            agree = int(counts[np.asarray(sigma), idx].sum())
            if agree > best:
                best = agree
    else:
        # Imported here: scipy.optimize costs about 0.3 s at start-up, and
        # only this branch needs it.
        from scipy.optimize import linear_sum_assignment

        row, col = linear_sum_assignment(counts, maximize=True)
        best = int(counts[row, col].sum())
    return n - best


# Memoized: every fit snaps its alpha two or three times, and one
# limit_denominator call costs about 10 us.
@functools.lru_cache(maxsize=64)
def _alpha_fraction(alpha):
    """alpha snapped to the nearest rational with denominator <= 10^12."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return Fraction(alpha).limit_denominator(10**12)


def meets_min_size(z, alpha):
    """True iff every community of z has at least alpha*n nodes.

    The comparison is exact, so ties (n_a == alpha*n) count as satisfied.
    """
    return int(z.sizes().min()) >= min_feasible_size(z.n, alpha)


def min_feasible_size(n, alpha):
    """Smallest integer community size satisfying the alpha*n floor."""
    frac = _alpha_fraction(alpha)
    return -((-frac.numerator * n) // frac.denominator)
