"""The two objective functions over labelings: plug-in and integrated likelihood.

The objectives differ only in the term each block pair adds, and each is
one _BlockTerm record of that term. The record holds two forms of it: the
kernel term A[o] + A[m - o] - B[m] - beta that greedy search adds up move
by move, and the public term that the objective's value sums, which exact
search reads from one table (see search._term_table). For the integrated
likelihood the two are one float; for the plug-in likelihood the public
term is m * tau(o / m), the kernel term its cancelling x*log(x) form.
_public_value alone turns counters into an objective value, so the
public terms, the blocks they cover and the normalizer are written once.
The x*log(x) and log-gamma values behind the kernel terms are memoized
per integer argument for the life of the process, with one cap: a memo of
edge-endpoint counts (A, read at o and m - o) stores no argument above
_MEMO_BOUND, so it holds at most _MEMO_BOUND + 1 entries however large
the graph. Above the bound the value is computed at every use. The
pair-count memos (B, read at m) hold one entry per pair count a process
visits: 26k after one k = 3 restart at n = 2*10^4. One function, _fill,
alone stores memo entries. It, the block term _f and the greedy move
kernel compute an endpoint value above the bound with the record's
scalar large_a, and read the memos inline below it, calling _fill on a
miss. The values come from scalar functions, math.log and the Cephes
log-gamma port of sbmfit._cephes, which equal scipy.special's ufuncs bit
for bit, so no objective imports scipy.special.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._cephes import lgam, lgam_stirling
from .divergences import neg_bernoulli_entropy
from .graphs import block_counters

# log B(1/2, 1/2) = log(pi) as scipy.special.betaln(0.5, 0.5) rounds it,
# one ulp below math.log(math.pi); tests/test_cephes.py pins it.
LOG_BETA_HALF = 1.1447298858494

OBJECTIVES = ("ml", "icl")

# Memos of x*log(x) at edge-endpoint counts and at pair counts,
# gammaln(x + 1/2) at endpoint counts and gammaln(x + 1) at pair counts,
# at the integer arguments visited so far; the two endpoint memos only up
# to _MEMO_BOUND. They are shared by every fit in the process, so a sweep
# fills them once. Each value comes from a scalar function, _xlogx or the
# Cephes port lgam, that returns at float(x) the bits the scipy ufunc
# (xlogy(x, x), gammaln) returns over an array. A forked restart worker
# starts from the parent's memos and its own fills die with it.
_XLOGX = {}
_XLOGX_PAIRS = {}
_LGAMMA_HALF = {}
_LGAMMA_INT = {}

# The largest endpoint count whose x*log(x) or gammaln(x + 1/2) is
# memoized. Above it an argument is a new key at almost every use: the
# non-edge count m - o of a large block. At 2^17 a sweep at n = 200 stores
# all of its arguments, and a balanced n = 3000 fit stores its edge counts
# but not the m - o of its blocks of about 2.25 * 10^6 pairs. It must be at
# least 1000: above it ICL computes lgam(x + 1/2) as lgam_stirling, the
# branch lgam itself takes at 1000 and above.
_MEMO_BOUND = 1 << 17


def _xlogx(x):
    # Scalar xlogy(x, x) without the ufunc dispatch: the same log and product.
    return x * math.log(x) if x else 0.0


@dataclass(frozen=True)
class _BlockTerm:
    """The term that a block of m node pairs holding o edge endpoints adds
    to an objective: A[o] + A[m - o] - B[m] - beta in the kernel, and
    terms(o, m) over integer arrays of blocks with m >= 1 in the public
    value.

    A and B are memos that fill_a and fill_b fill at float(x), A only up to
    _MEMO_BOUND. Above it nothing is stored: large_a(x + a_shift) is
    fill_a's float at float(x), by one call (see _fill). A diagonal
    block divides o and m by h first. A block a < b stands for w ordered
    blocks: the kernel's potential weights its term by w, and the public
    value (see _public_value) enters its term w times and divides the sum
    by w n^2.
    """

    A: dict
    fill_a: object
    large_a: object
    a_shift: float
    B: dict
    fill_b: object
    beta: float
    h: int
    w: float
    terms: object


def _ml_terms(o, m):
    # m * tau(o / m) through the scalar xlogy and xlog1py, free of the
    # cancellation of the kernel's x*log(x) form.
    return m * neg_bernoulli_entropy(o / m)


def _icl_terms(o, m):
    # The record's own term, so the public value sums what greedy search adds.
    t = _BLOCK_TERMS["icl"]
    return np.array([_f(t, x, y) for x, y in zip(o.tolist(), m.tolist())], dtype=float)


_BLOCK_TERMS = {
    # The plug-in likelihood: m * tau(o / m) over all ordered blocks.
    "ml": _BlockTerm(_XLOGX, _xlogx, _xlogx, 0.0, _XLOGX_PAIRS, _xlogx, 0.0, 1, 2.0, _ml_terms),
    # The integrated likelihood: log B(o+1/2, m-o+1/2) / B(1/2, 1/2) over
    # the unordered blocks, whose diagonal counts every pair twice.
    "icl": _BlockTerm(_LGAMMA_HALF, lambda x: lgam(x + 0.5), lgam_stirling, 0.5,
                      _LGAMMA_INT, lambda x: lgam(x + 1.0), LOG_BETA_HALF, 2, 1.0, _icl_terms),
}


# The block terms subscript the memos first and fill the missing entries
# only after the KeyError. Membership tests on every call
# instead made greedy fits at n=200 about 5% slower on 2 vCPUs, and a dict
# subclass with __missing__ 10-20% slower: subscripting one loses the
# interpreter's fast path, in search._GreedyState.best_move too. A miss
# goes straight to _fill, the one copy of the fill rule, which tests
# membership before it subscripts, so a miss raises one KeyError, not two.
# An endpoint argument above the bound is never subscripted, so it never
# raises a KeyError: the kernel computes it inline, and _f sends a block of
# more than _MEMO_BOUND pairs to _fill. An integer x plus a float shift is
# float(x) plus the shift, the argument fill_a passes to its scalar.
def _fill(t, o, m):
    """Block term of record t after storing any memo entry it lacks; an
    endpoint argument above _MEMO_BOUND is computed, never stored."""
    A, B, r = t.A, t.B, m - o
    for x in (o, r):
        if x <= _MEMO_BOUND and x not in A:
            A[x] = t.fill_a(float(x))
    if m not in B:
        B[m] = t.fill_b(float(m))
    large, shift = t.large_a, t.a_shift
    return ((A[o] if o <= _MEMO_BOUND else large(o + shift))
            + (A[r] if r <= _MEMO_BOUND else large(r + shift)) - B[m] - t.beta)


def _f(t, o, m):
    """Block term of record t at o endpoints in m pairs; +0.0 for m = 0."""
    if m > _MEMO_BOUND:
        return _fill(t, o, m)
    A = t.A
    try:
        return A[o] + A[m - o] - t.B[m] - t.beta
    except KeyError:
        return _fill(t, o, m)


@functools.lru_cache(maxsize=64)
def _public_blocks(w, h, k):
    """The blocks (a, b) whose terms a public value sums, and the divisor of
    each block's counters, as read-only index arrays kept per (w, h, k):
    the blocks a <= b, each a < b entered w times, so the plug-in
    likelihood (w = 2) covers every ordered block, and h on the diagonal."""
    a, b = np.triu_indices(k)
    times = np.where(a == b, 1, w)
    a, b = np.repeat(a, times), np.repeat(b, times)
    blocks = a, b, np.where(a == b, h, 1)
    for x in blocks:
        x.setflags(write=False)
    return blocks


def _public_value(t, counters):
    """Objective value of record t over block counters: the sorted sum of its
    public terms over the public blocks that hold pairs, divided by w n^2.

    Sorted accumulation makes the value bitwise invariant under label
    permutations, which reorder the terms.
    """
    a, b, h = _public_blocks(int(t.w), t.h, counters.k)
    m = counters.pair_counts[a, b] // h
    held = m > 0
    o = counters.edge_counts[a, b][held] // h[held]
    total = float(np.sort(t.terms(o, m[held])).sum())
    n = int(counters.sizes.sum())
    return total / (t.w * n * n)


def ml_from_counters(counters):
    """Plug-in likelihood objective from precomputed block counters."""
    return _public_value(_BLOCK_TERMS["ml"], counters)


def likelihood_modularity(g, z):
    """Profile log-likelihood of a labeling per ordered node pair.

    (1/2n^2) * sum over blocks of n_ab * tau(o_ab / n_ab), where tau is the
    negative Bernoulli entropy; empty blocks contribute 0. Always <= 0.
    """
    return ml_from_counters(block_counters(g, z))


def icl_from_counters(counters):
    """Integrated likelihood objective from precomputed block counters."""
    return _public_value(_BLOCK_TERMS["icl"], counters)


def integrated_likelihood_modularity(g, z):
    """Log marginal likelihood of a labeling under a Beta(1/2,1/2) edge prior.

    (1/n^2) * sum over unordered blocks of
    log[ B(o~ + 1/2, n~ - o~ + 1/2) / B(1/2, 1/2) ], with the diagonal
    counters halved. Evaluated through log-gamma; raw Beta values would
    underflow for blocks of size ~n^2. Always <= 0.
    """
    return icl_from_counters(block_counters(g, z))


def modularity_gap(g, z):
    """Gap between the plug-in and integrated objectives, with its bound.

    Returns (gap, bound) where gap = ML - ICL and
    bound = k^2 (log n + 2) / n^2. The gap is always in [0, bound].
    """
    counters = block_counters(g, z)
    gap = ml_from_counters(counters) - icl_from_counters(counters)
    k = z.k
    bound = k * k * (math.log(g.n) + 2.0) / (g.n * g.n)
    return gap, bound
