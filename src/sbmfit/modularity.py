"""The two objective functions over labelings: plug-in and integrated likelihood."""

import math

import numpy as np

from ._cephes import lbeta
from .divergences import neg_bernoulli_entropy
from .graphs import block_counters

# log B(1/2, 1/2) = log(pi) as scipy.special.betaln(0.5, 0.5) rounds it,
# one ulp below math.log(math.pi); tests/test_cephes.py pins it.
LOG_BETA_HALF = 1.1447298858494

OBJECTIVES = ("ml", "icl")


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
    """Integrated likelihood objective from precomputed block counters."""
    ntil = counters.tilde_pair_counts()
    otil = counters.tilde_edge_counts()
    # Upper-triangle blocks that hold pairs, row by row.
    upper = np.triu(ntil > 0)
    terms = [lbeta(o + 0.5, m - o + 0.5) - LOG_BETA_HALF
             for o, m in zip(otil[upper].tolist(), ntil[upper].tolist())]
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
