"""Maximizers of the two objectives over the constrained label space.

Exhaustive enumeration at toy scale and best-improvement single-node
relabeling with random restarts at experiment scale. The greedy search
keeps integer block counters, the current objective term of every block
pair and, per node, the count of its neighbours in each community. One
candidate relabeling costs O(k) work and O(k) new objective terms; an
accepted move costs O(degree + k) to update the tables. The x*log(x) and
log-gamma values behind the terms are memoized per integer argument for
the life of the process, so memory grows with the distinct counts a
search visits, not with n^2.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import InfeasibleError, SearchSpaceError
from .graphs import Labeling, block_counters, meets_min_size, min_feasible_size
from .modularity import (
    LOG_BETA_HALF,
    OBJECTIVES,
    icl_from_counters,
    ml_from_counters,
)
from .sampling import derive_seed

_EXACT_GUARD = 2 * 10**7
# Moves must beat this unnormalized improvement; filters float noise while
# staying far below any real single-node objective change.
_MOVE_EPS = 1e-10
_INIT_ATTEMPTS = 1000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by the exact and greedy maximizers."""

    objective: str = "ml"
    alpha: float = 0.05
    restarts: int = 10
    max_sweeps: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")

    def check_feasible(self, k):
        frac = Fraction(self.alpha).limit_denominator(10**12)
        if frac * k > 1:
            raise InfeasibleError(
                f"alpha={self.alpha} with k={k} leaves no feasible labeling"
            )


@dataclass(frozen=True)
class FitResult:
    """Outcome of one search: canonical labeling plus bookkeeping.

    converged is False when the winning greedy restart stopped at
    max_sweeps while its last sweep still moved a node, so its labeling
    need not be a local optimum. Exhaustive search always converges.
    """

    labeling: Labeling
    objective_value: float
    objective: str
    sweeps_used: int
    restart_index: int
    feasible: bool
    converged: bool


# Memos of xlogy(x, x), gammaln(x + 1/2) and gammaln(x + 1) at the integer
# arguments searches have visited. They are shared by every fit in the
# process, so a sweep fills them once; each value is the ufunc at float(x),
# bit-identical to the same ufunc over an array.
_XLOGX = {}
_LGAMMA_HALF = {}
_LGAMMA_INT = {}


def _xlogx(x):
    return xlogy(x, x)


def _lgamma_half(x):
    return gammaln(x + 0.5)


def _lgamma_int(x):
    return gammaln(x + 1.0)


def _memo(table, fn, x):
    value = table.get(x)
    if value is None:
        value = table[x] = float(fn(float(x)))
    return value


# The block terms subscript the memos directly: plain dict lookups keep the
# interpreter's fast path, and a KeyError sends the first visit of an
# argument through _memo, which gives the same sum.
def _f_ml(o, m):
    """Block term of the plug-in likelihood, m * tau(o / m); 0 for m = 0."""
    if m <= 0:
        return 0.0
    t = _XLOGX
    try:
        return t[o] + t[m - o] - t[m]
    except KeyError:
        return _memo(t, _xlogx, o) + _memo(t, _xlogx, m - o) - _memo(t, _xlogx, m)


def _f_icl(o, m):
    """Block term of the integrated likelihood, log B(o+1/2, m-o+1/2) / B(1/2, 1/2)."""
    if m <= 0:
        return 0.0
    gh, gi = _LGAMMA_HALF, _LGAMMA_INT
    try:
        return gh[o] + gh[m - o] - gi[m] - LOG_BETA_HALF
    except KeyError:
        return (_memo(gh, _lgamma_half, o) + _memo(gh, _lgamma_half, m - o)
                - _memo(gi, _lgamma_int, m) - LOG_BETA_HALF)


class _GreedyState:
    """Mutable labeling with integer block counters and a running potential.

    The potential is the unnormalized objective: sum over ordered blocks of
    x*log(x) terms for ml, sum over unordered halved blocks of log-Beta
    terms for icl. Normalization does not affect the argmax. The current
    term of every block pair is cached in F, so a move delta evaluates only
    the terms of the blocks after the move. The labels z are a plain list,
    and table[i][c] counts the neighbours of node i in community c, an
    n x k list of lists built once from the edge endpoints. apply_move
    refreshes rows and columns a and b of F and the table rows of the
    moved node's neighbours.
    """

    def __init__(self, g, k, labels, objective):
        self.g = g
        self.n = g.n
        self.k = k
        self.objective = objective
        self._indptr = g.indptr.tolist()
        z = np.asarray(labels, dtype=np.int64)
        counters = block_counters(g, Labeling(z, k))
        self.z = z.tolist()
        self.sizes = counters.sizes.tolist()
        self.o = counters.edge_counts.tolist()
        src = np.repeat(np.arange(self.n, dtype=np.int64), g.degrees())
        self.table = np.bincount(src * k + z[g.indices],
                                 minlength=self.n * k).reshape(self.n, k).tolist()
        self._f = _f_ml if objective == "ml" else _f_icl
        # The third communities c of a move a -> b, in ascending order.
        self._others = [[[c for c in range(k) if c != a and c != b] for b in range(k)]
                        for a in range(k)]
        self.F = self.block_terms()
        self.potential = self.full_potential()

    def _term(self, a, b):
        s, o = self.sizes, self.o
        if a != b:
            return self._f(o[a][b], s[a] * s[b])
        if self.objective == "ml":
            return self._f(o[a][a], s[a] * (s[a] - 1))
        return self._f(o[a][a] // 2, s[a] * (s[a] - 1) // 2)

    def block_terms(self):
        """k x k block terms recomputed from the counters."""
        return [[self._term(a, b) for b in range(self.k)] for a in range(self.k)]

    def full_potential(self):
        """Potential recomputed from the counters, not from the cached F."""
        t, k = self.block_terms(), self.k
        total = 0.0
        if self.objective == "ml":
            for a in range(k):
                for b in range(k):
                    total += t[a][b]
        else:
            for a in range(k):
                for b in range(a, k):
                    total += t[a][b]
        return total

    def normalized_value(self):
        scale = 2.0 * self.n * self.n if self.objective == "ml" else float(self.n * self.n)
        return self.potential / scale

    def neighbor_counts(self, i):
        """Edges from node i into each community, as the live table row.

        Callers must not mutate it. It stays valid across apply_move of
        node i itself, which changes only the rows of i's neighbours.
        """
        return self.table[i]

    def move_delta(self, a, b, d):
        """Potential change from relabeling one node from a to b."""
        s, o, F = self.sizes, self.o, self.F
        f = self._f
        sa, sb = s[a], s[b]
        sa1, sb1 = sa - 1, sb + 1
        da, db = d[a], d[b]
        oa, ob = o[a], o[b]
        Fa, Fb = F[a], F[b]
        others = self._others[a][b]
        if self.objective == "ml":
            delta = (
                f(oa[a] - 2 * da, sa1 * (sa1 - 1)) - Fa[a]
                + f(ob[b] + 2 * db, sb1 * (sb1 - 1)) - Fb[b]
                + 2.0 * (f(oa[b] + da - db, sa1 * sb1) - Fa[b])
            )
            for c in others:
                sc, dc = s[c], d[c]
                delta += 2.0 * (
                    f(oa[c] - dc, sa1 * sc) - Fa[c]
                    + f(ob[c] + dc, sb1 * sc) - Fb[c]
                )
        else:
            delta = (
                f(oa[a] // 2 - da, sa1 * (sa1 - 1) // 2) - Fa[a]
                + f(ob[b] // 2 + db, sb1 * (sb1 - 1) // 2) - Fb[b]
                + f(oa[b] + da - db, sa1 * sb1) - Fa[b]
            )
            for c in others:
                sc, dc = s[c], d[c]
                delta += (
                    f(oa[c] - dc, sa1 * sc) - Fa[c]
                    + f(ob[c] + dc, sb1 * sc) - Fb[c]
                )
        return delta

    def apply_move(self, i, b, d, delta):
        a = self.z[i]
        o, F = self.o, self.F
        for c in range(self.k):
            dc = d[c]
            if dc:
                o[a][c] -= dc
                o[c][a] -= dc
                o[b][c] += dc
                o[c][b] += dc
        self.sizes[a] -= 1
        self.sizes[b] += 1
        self.z[i] = b
        self.potential += delta
        for r in (a, b):
            for c in range(self.k):
                F[r][c] = F[c][r] = self._term(r, c)
        table, indptr = self.table, self._indptr
        for j in self.g.indices[indptr[i]:indptr[i + 1]].tolist():
            row = table[j]
            row[a] -= 1
            row[b] += 1


def _random_feasible_labels(rng, n, k, min_size):
    for _ in range(_INIT_ATTEMPTS):
        labels = rng.integers(0, k, size=n)
        if np.bincount(labels, minlength=k).min() >= min_size:
            return labels.astype(np.int64)
    # Stratified fallback: plant min_size nodes per community, rest uniform.
    labels = rng.integers(0, k, size=n).astype(np.int64)
    perm = rng.permutation(n)
    for j in range(k * min_size):
        labels[perm[j]] = j % k
    return labels


def _finalize(g, labels, k, cfg, sweeps, restart_index, converged):
    lab = Labeling(labels, k).canonical()
    counters = block_counters(g, lab)
    if cfg.objective == "ml":
        value = ml_from_counters(counters)
    else:
        value = icl_from_counters(counters)
    return FitResult(
        labeling=lab,
        objective_value=value,
        objective=cfg.objective,
        sweeps_used=sweeps,
        restart_index=restart_index,
        feasible=meets_min_size(lab, cfg.alpha),
        converged=converged,
    )


def greedy_argmax(g, k, cfg):
    """Best-improvement single-node relabeling with random restarts.

    Each restart starts from a random feasible labeling and repeatedly
    applies, per visited node, the relabel that most increases the
    objective among moves that stay feasible, until a full sweep makes no
    move or max_sweeps is reached. The best restart wins; ties keep the
    earlier restart. Output labeling is canonical.
    """
    cfg.check_feasible(k)
    min_size = min_feasible_size(g.n, cfg.alpha)
    if k * min_size > g.n:
        raise InfeasibleError(
            f"alpha={cfg.alpha} needs {k * min_size} nodes but the graph has {g.n}"
        )
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, restart)))
        labels = _random_feasible_labels(rng, g.n, k, min_size)
        state = _GreedyState(g, k, labels, cfg.objective)
        # Plain-list views of the state: a visit touches no numpy scalar.
        z, sizes, table = state.z, state.sizes, state.table
        move_delta, apply_move = state.move_delta, state.apply_move
        sweeps = 0
        while sweeps < cfg.max_sweeps:
            improved = False
            for i in rng.permutation(g.n).tolist():
                a = z[i]
                if sizes[a] - 1 < min_size:
                    continue
                d = table[i]
                best_delta = _MOVE_EPS
                best_b = -1
                for b in range(k):
                    if b == a:
                        continue
                    delta = move_delta(a, b, d)
                    if delta > best_delta:
                        best_delta = delta
                        best_b = b
                if best_b >= 0:
                    apply_move(i, best_b, d, best_delta)
                    improved = True
            sweeps += 1
            if not improved:
                break
        value = state.full_potential()
        if best is None or value > best[0]:
            best = (value, state.z.copy(), sweeps, restart, not improved)
    _, labels, sweeps, restart, converged = best
    return _finalize(g, labels, k, cfg, sweeps, restart, converged)


def _canonical_labelings(n, k):
    """All labelings of n nodes in first-occurrence canonical form, lex order."""
    z = np.zeros(n, dtype=np.int64)

    def rec(i, used):
        if i == n:
            yield z
            return
        top = min(used + 1, k)
        for lab in range(top):
            z[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1)


def exact_argmax(g, k, cfg):
    """Global maximizer by exhaustive enumeration of canonical labelings.

    Refuses when k^n exceeds the enumeration guard. Ties in the objective
    keep the lexicographically smallest canonical labeling.
    """
    cfg.check_feasible(k)
    space = k**g.n
    if space > _EXACT_GUARD:
        raise SearchSpaceError(
            f"label space k^n = {space} exceeds the enumeration guard {_EXACT_GUARD}"
        )
    min_size = min_feasible_size(g.n, cfg.alpha)
    if k * min_size > g.n:
        raise InfeasibleError(
            f"alpha={cfg.alpha} needs {k * min_size} nodes but the graph has {g.n}"
        )
    score = ml_from_counters if cfg.objective == "ml" else icl_from_counters
    best_value = None
    best_labels = None
    for z in _canonical_labelings(g.n, k):
        sizes = np.bincount(z, minlength=k)
        if sizes.min() < min_size:
            continue
        value = score(block_counters(g, Labeling(z, k)))
        if best_value is None or value > best_value:
            best_value = value
            best_labels = z.copy()
    if best_labels is None:
        raise InfeasibleError(
            f"no labeling of {g.n} nodes into {k} communities meets alpha={cfg.alpha}"
        )
    return _finalize(g, best_labels, k, cfg, 0, 0, True)
