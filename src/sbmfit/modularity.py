"""The two objective functions over labelings: plug-in and integrated likelihood.

The objectives differ only in the term each block pair adds, and each is
one _BlockTerm record of that term. Both searches of sbmfit.search read
the records, and the integrated likelihood of a labeling is the sum of its
record's terms; the plug-in likelihood is evaluated over numpy arrays of
densities instead. The x*log(x) and log-gamma values behind the terms are
memoized per integer argument for the life of the process, so memory
grows with the distinct counts a process visits, not with n^2. One fill
function, _fill, alone fills the memos; the block term _f and the greedy
move kernel read the memos inline and call it on a miss. The memos are
filled by scalar functions, math.log and the Cephes log-gamma port of
sbmfit._cephes, which equal scipy.special's ufuncs bit for bit, so no
objective imports scipy.special.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._cephes import lgam
from .divergences import neg_bernoulli_entropy
from .graphs import block_counters

# log B(1/2, 1/2) = log(pi) as scipy.special.betaln(0.5, 0.5) rounds it,
# one ulp below math.log(math.pi); tests/test_cephes.py pins it.
LOG_BETA_HALF = 1.1447298858494

OBJECTIVES = ("ml", "icl")

# Memos of x*log(x), gammaln(x + 1/2) and gammaln(x + 1) at the integer
# arguments visited so far. They are shared by every fit in the process,
# so a sweep fills them once. Each value comes from a scalar function,
# _xlogx or the Cephes port lgam, that returns at float(x) the bits the
# scipy ufunc (xlogy(x, x), gammaln) returns over an array. A forked
# restart worker starts from the parent's memos and its own fills die with
# it.
_XLOGX = {}
_LGAMMA_HALF = {}
_LGAMMA_INT = {}


def _xlogx(x):
    # Scalar xlogy(x, x) without the ufunc dispatch: the same log and product.
    return x * math.log(x) if x else 0.0


@dataclass(frozen=True)
class _BlockTerm:
    """The term that a block of m node pairs holding o edge endpoints adds
    to an objective's potential: A[o] + A[m - o] - B[m] - beta.

    A and B are memos that fill_a and fill_b fill at float(x); exact search
    reads them through arrays (see search._term_tables). A diagonal block
    divides o and m by h first, and the potential weights a block a < b by
    w, for the ordered pairs it stands for.
    """

    A: dict
    fill_a: object
    B: dict
    fill_b: object
    beta: float
    h: int
    w: float


_BLOCK_TERMS = {
    # The plug-in likelihood: m * tau(o / m) over all ordered blocks.
    "ml": _BlockTerm(_XLOGX, _xlogx, _XLOGX, _xlogx, 0.0, 1, 2.0),
    # The integrated likelihood: log B(o+1/2, m-o+1/2) / B(1/2, 1/2) over
    # the unordered blocks, whose diagonal counts every pair twice.
    "icl": _BlockTerm(_LGAMMA_HALF, lambda x: lgam(x + 0.5),
                      _LGAMMA_INT, lambda x: lgam(x + 1.0), LOG_BETA_HALF, 2, 1.0),
}


# The block terms subscript the memos first and fill the missing entries
# only after the KeyError. Membership tests on every call instead made
# greedy fits at n=200 about 5% slower on 2 vCPUs, and a dict subclass with
# __missing__ 10-20% slower: subscripting one loses the interpreter's fast
# path, in search._GreedyState.best_move too. A miss goes straight to
# _fill, the one copy of the fill rule, which tests membership before it
# subscripts, so a miss raises one KeyError, not two. A fresh process
# misses often: ten restarts of a cold n=3000 fit (46k edges) miss about
# 120k times in one process.
def _fill(t, o, m):
    """Block term of record t after storing any memo entry it lacks."""
    A, B = t.A, t.B
    for x in (o, m - o):
        if x not in A:
            A[x] = t.fill_a(float(x))
    if m not in B:
        B[m] = t.fill_b(float(m))
    return A[o] + A[m - o] - B[m] - t.beta


def _f(t, o, m):
    """Block term of record t at o endpoints in m pairs; +0.0 for m = 0."""
    A = t.A
    try:
        return A[o] + A[m - o] - t.B[m] - t.beta
    except KeyError:
        return _fill(t, o, m)


def ml_from_counters(counters):
    """Plug-in likelihood objective from precomputed block counters."""
    nab = counters.pair_counts
    mask = nab > 0
    # Sorted accumulation makes the value bitwise invariant under label
    # permutations, which reorder the block terms.
    total = float(np.sort(nab[mask] * neg_bernoulli_entropy(counters.densities()[mask])).sum())
    n = int(counters.sizes.sum())
    return total / (2.0 * n * n)


def likelihood_modularity(g, z):
    """Profile log-likelihood of a labeling per ordered node pair.

    (1/2n^2) * sum over blocks of n_ab * tau(o_ab / n_ab), where tau is the
    negative Bernoulli entropy; empty blocks contribute 0. Always <= 0.
    """
    return ml_from_counters(block_counters(g, z))


def icl_from_counters(counters):
    """Integrated likelihood objective from precomputed block counters: the
    sorted sum of the "icl" record's terms over the upper-triangle blocks
    that hold pairs, divided by n^2."""
    ntil = counters.tilde_pair_counts()
    otil = counters.tilde_edge_counts()
    upper = np.triu(ntil > 0)
    t = _BLOCK_TERMS["icl"]
    terms = [_f(t, o, m) for o, m in zip(otil[upper].tolist(), ntil[upper].tolist())]
    total = float(np.sort(terms).sum())
    n = int(counters.sizes.sum())
    return total / (n * n)


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
