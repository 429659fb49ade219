"""Analytic quantities behind the recovery thresholds.

The phase-transition constant, the population information functional, and
the expectation-centered version of the likelihood objective used to
diagnose concentration at finite n.
"""

from dataclasses import dataclass

import numpy as np

from ._cephes import xlogy
from .divergences import neg_bernoulli_entropy
from .errors import DegenerateBlockError, ParameterError
from .graphs import block_counters, confusion, confusion_counts
from .modularity import ml_from_counters
from .sampling import expected_block_density

_TERNARY_ITERATIONS = 200


@dataclass(frozen=True)
class PhaseConstant:
    """min over community pairs of the best Chernoff-Hellinger separation.

    Exact recovery at rho = log(n)/n holds for the plug-in objective when
    value >= 1 and for the integrated objective when value >= 1 + k^2.
    """

    value: float
    argmin_pair: tuple
    argmax_t: float

    def ml_verdict(self):
        return self.value >= 1.0

    def icl_verdict(self, k):
        return self.value >= 1.0 + k * k


def _pair_objective(pi, s, b, bp):
    # Plain-float evaluation; the solver calls this hundreds of times per
    # pair and k is small, so numpy dispatch would dominate.
    terms = [(float(pi[a]), float(s[a, b]), float(s[a, bp])) for a in range(len(pi))]

    def f(t):
        onemt = 1.0 - t
        return sum(w * (onemt * p + t * q - p**onemt * q**t) for w, p, q in terms)

    return f


def _ternary_max(f):
    """Maximize a concave function on [0, 1] by ternary search."""
    lo, hi = 0.0, 1.0
    for _ in range(_TERNARY_ITERATIONS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
        if hi - lo < 1e-12:
            break
    t = 0.5 * (lo + hi)
    return t, f(t)


def phase_constant_from_rates(pi, s):
    """Phase constant straight from a prior vector and rate matrix.

    Minimizes over community pairs b < b' the maximum over t in [0, 1] of
    sum_a pi_a * chernoff_hellinger(t, S_ab, S_ab'). The pair (b', b) has
    the same objective at 1 - t, so each unordered pair is solved once. The
    inner problem is concave in t, so ternary search converges; ties in the
    outer minimum resolve to the lexicographically smallest pair.
    """
    pi = np.asarray(pi, dtype=float)
    s = np.asarray(s, dtype=float)
    k = pi.size
    if k < 2:
        raise ParameterError("the phase constant is undefined for k = 1")
    finite = np.isfinite(pi).all() and np.isfinite(s).all()
    if not finite or (pi <= 0).any() or (s <= 0).any():
        raise ParameterError("pi and S must be finite and strictly positive")
    best = None
    for b in range(k):
        for bp in range(b + 1, k):
            t, val = _ternary_max(_pair_objective(pi, s, b, bp))
            if best is None or val < best[0]:
                best = (val, (b, bp), t)
    value, pair, t = best
    return PhaseConstant(value=value, argmin_pair=pair, argmax_t=t)


def phase_transition_constant(params):
    """Compute the recovery threshold constant for (pi, S), ignoring rho."""
    return phase_constant_from_rates(params.pi, params.s)


def mixture_information(r, s):
    """Population information functional of a confusion matrix against S.

    sum over blocks of [R S R^T]_ab * log([R S R^T]_ab / ([R1]_a [R1]_b)),
    with 0 * log(0/x) = 0. Replacing R by Diag(R^T 1) never decreases it,
    with equality exactly when some row permutation of R is diagonal.
    """
    rm = r.r if hasattr(r, "r") else np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    row = rm.sum(axis=1)
    mixed = rm @ s @ rm.T
    marg = np.outer(row, row)
    bad = (marg <= 0) & (mixed > 0)
    if bad.any():
        a, b = np.argwhere(bad)[0]
        raise DegenerateBlockError(int(a), int(b), f"zero marginal under nonzero rate at ({a}, {b})")
    out = np.zeros_like(mixed)
    ok = mixed > 0
    out[ok] = list(map(xlogy, mixed[ok].tolist(), (mixed[ok] / marg[ok]).tolist()))
    return float(out.sum())


def expected_likelihood_modularity(r, params, n):
    """Likelihood objective with block frequencies replaced by their expectations.

    (1/2) * sum over blocks of [R1]_a ([R1]_b - delta_ab/n) * tau(P_R[a,b])
    with P_R the expected block density.
    """
    rm = r.r
    row = rm.sum(axis=1)
    density = expected_block_density(r, params, n)
    weights = np.outer(row, row) - np.diag(row) / n
    return float(0.5 * (weights * neg_bernoulli_entropy(density)).sum())


def modularity_excess(g, e, z, params):
    """Realized minus expectation-substituted likelihood objective.

    (1/2n^2) * sum over blocks of n_ab(e) * [tau(o_ab/n_ab) - tau(P_R[a,b])]
    where R = R(e, z). Identical to
    likelihood_modularity(g, e) - expected_likelihood_modularity(R, ...).
    """
    counters = block_counters(g, e)
    density = expected_block_density(confusion(e, z), params, g.n)
    nab = counters.pair_counts
    mask = nab > 0
    diff = neg_bernoulli_entropy(counters.densities()) - neg_bernoulli_entropy(density)
    total = float((nab[mask] * diff[mask]).sum())
    return total / (2.0 * g.n * g.n)


def _conditional_edge_counts(e, z, p):
    """E[o_ab(e) | z] for edge probabilities p, in O(n + k^2) memory.

    C P C^T - diag(C diag P), where C[a, c] counts the nodes i with e_i = a
    and z_i = c: the sum of P[z_i, z_j] over all ordered pairs of the block
    minus the pairs i = j. sampling.expected_edge_counts sums the n x n
    pair matrix instead, as an independent check of this route.
    """
    c = confusion_counts(e, z).astype(float)
    return c @ p @ c.T - np.diag(c @ np.diagonal(p))


def edge_count_deviation(g, e, z, params):
    """Centered difference of block edge counts between two labelings.

    W_ab = [o_ab(e) - E o_ab(e) - o_ab(z) + E o_ab(z)] / n^2, expectations
    conditional on z. Identically zero when e equals z. Memory is
    O(n + m + k^2): nothing is n x n.
    """
    if e.n != g.n or z.n != g.n:
        raise ValueError("labeling lengths must match the graph")
    n2 = float(g.n) ** 2
    o_e = block_counters(g, e).edge_counts.astype(float)
    o_z = block_counters(g, z).edge_counts.astype(float)
    exp_e = _conditional_edge_counts(e, z, params.p)
    exp_z = _conditional_edge_counts(z, z, params.p)
    # Grouped so that e == z cancels termwise and yields exact zeros.
    return ((o_e - o_z) - (exp_e - exp_z)) / n2


def ml_identity_residual(g, e, z, params):
    """|modularity_excess - (likelihood_modularity - expected_likelihood_modularity)|."""
    r = confusion(e, z)
    lhs = modularity_excess(g, e, z, params)
    rhs = ml_from_counters(block_counters(g, e)) - expected_likelihood_modularity(r, params, g.n)
    return abs(lhs - rhs)
