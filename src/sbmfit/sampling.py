"""Block-model parameters, graph sampling and model-side expectations."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlockError, ParameterError
from .graphs import Graph, Labeling, _freeze

# Edge probabilities are validated against this open interval; the Beta
# integrals and the tau function degenerate at exactly 0 and 1.
_P_MIN = 1e-12
_P_MAX = 1.0 - 1e-12

# Node pairs per draw from the edge stream (at least one whole row); bounds
# the sampler's working memory independently of n^2.
_BLOCK_PAIRS = 1 << 16


def _check_rates(k, pi, s):
    """pi and S as float arrays, or the ParameterError of the first check they fail."""
    pi = np.asarray(pi, dtype=float)
    s = np.asarray(s, dtype=float)
    if pi.shape != (k,):
        raise ParameterError(f"pi must have length k={k}, got shape {pi.shape}")
    if not np.isfinite(pi).all() or (pi <= 0).any():
        raise ParameterError("all entries of pi must be finite and positive")
    if abs(pi.sum() - 1.0) > 1e-9:
        raise ParameterError(f"pi must sum to 1, got {float(pi.sum())!r}")
    if s.shape != (k, k):
        raise ParameterError(f"S must be {k}x{k}")
    if not np.isfinite(s).all() or (s <= 0).any():
        raise ParameterError("all entries of S must be finite and strictly positive")
    if not np.array_equal(s, s.T):
        raise ParameterError("S must be symmetric")
    return pi, s


@dataclass(frozen=True)
class SbmParams:
    """Model parameters (k, pi, S, rho) with edge probabilities P = rho * S."""

    k: int
    pi: np.ndarray
    s: np.ndarray
    rho: float

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        pi, s = _check_rates(self.k, self.pi, self.s)
        if not 0.0 < self.rho <= 1.0:
            raise ParameterError(f"rho must be in (0, 1], got {self.rho}")
        p = self.rho * s
        if (p < _P_MIN).any() or (p > _P_MAX).any():
            raise ParameterError(
                f"edge probabilities rho*S must lie in [{_P_MIN}, {_P_MAX}]"
            )
        for b in range(self.k):
            for bp in range(b + 1, self.k):
                if np.array_equal(s[:, b], s[:, bp]):
                    warnings.warn(
                        f"columns {b} and {bp} of S are identical; "
                        "the model is not identifiable",
                        stacklevel=2,
                    )
        object.__setattr__(self, "pi", _freeze(pi))
        object.__setattr__(self, "s", _freeze(s))

    @property
    def p(self):
        """Edge probability matrix rho * S."""
        return self.rho * self.s


def derive_seed(base_seed, *indices):
    """Deterministic 64-bit child seed for (base_seed, *indices).

    Uses numpy's SeedSequence entropy hash, which is documented and stable,
    so parallel replicas can be given collision-free independent streams.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


def sample(params, n, seed):
    """Draw (labeling, graph) from the block model.

    Deterministic given (params, n, seed): the seed is split into one PCG64
    stream for labels and one for edges; labels are drawn by inverse CDF in
    node order, then one uniform per node pair in lexicographic (i, j) order
    with i < j decides each edge.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2 nodes, got {n}")
    label_ss, edge_ss = np.random.SeedSequence(int(seed)).spawn(2)
    label_rng = np.random.Generator(np.random.PCG64(label_ss))
    edge_rng = np.random.Generator(np.random.PCG64(edge_ss))

    cum = np.cumsum(params.pi)
    labels = np.searchsorted(cum, label_rng.random(n), side="right")
    labels = np.minimum(labels, params.k - 1).astype(np.int64)

    # The upper triangle is drawn a block of whole rows at a time. Pair (i, j)
    # still takes the next uniform in lexicographic order, so the graph is
    # the one a single draw over all n(n-1)/2 pairs would give.
    p = params.p
    rows_per_block = max(1, _BLOCK_PAIRS // (n - 1))
    src, dst = [], []
    for i0 in range(0, n - 1, rows_per_block):
        rows = np.arange(i0, min(i0 + rows_per_block, n - 1))
        lengths = n - 1 - rows
        ii = np.repeat(rows, lengths)
        jj = np.arange(ii.size) - np.repeat(np.cumsum(lengths) - lengths, lengths) + ii + 1
        hit = edge_rng.random(ii.size) < p[labels[ii], labels[jj]]
        src.append(ii[hit])
        dst.append(jj[hit])
    edges = np.column_stack([np.concatenate(src), np.concatenate(dst)])
    return Labeling(labels, params.k), Graph.from_edges(n, edges)


def expected_block_density(r, params, n):
    """Expected edge frequency between blocks of a mismatched labeling.

    For a confusion matrix R built from labelings (e, z), entry (a, b) is
    E(o_ab(e) | z) / n_ab(e): the edge probability blended through R, with
    the diagonal corrected for the missing self-pairs.
    """
    rm = r.r
    k = r.k
    p = params.p
    if p.shape != (k, k):
        raise ValueError(f"params have k={params.k}, confusion matrix has k={k}")
    row = rm.sum(axis=1)
    mixed = rm @ p @ rm.T
    diag_corr = (rm * np.diagonal(p)).sum(axis=1) / n
    num = mixed - np.diag(diag_corr)
    denom = np.outer(row, row) - np.diag(row) / n
    bad = (denom <= 0) | ~np.isfinite(denom)
    if bad.any():
        a, b = np.argwhere(bad)[0]
        raise DegenerateBlockError(int(a), int(b))
    return num / denom


def expected_edge_counts(e, z, params):
    """Conditional expectation of the block edge counts o_ab(e) given z.

    Computed directly as the sum of P[z_i, z_j] over ordered pairs (i, j)
    with i != j, e_i = a and e_j = b. Independent of the confusion-matrix
    route, which it must match.
    """
    if e.n != z.n:
        raise ValueError(f"labeling lengths differ: {e.n} vs {z.n}")
    p = params.p
    pw = p[z.labels[:, None], z.labels[None, :]].copy()
    np.fill_diagonal(pw, 0.0)
    member = np.zeros((e.n, e.k))
    member[np.arange(e.n), e.labels] = 1.0
    return member.T @ pw @ member
