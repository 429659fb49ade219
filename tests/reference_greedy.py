"""Reference greedy search: the loop before the maintained neighbour table.

Each visit slices the node's CSR neighbours and counts their labels with
np.bincount over a numpy label vector. The block terms, memos, move
deltas and summation order are those of sbmfit.search, so a correct
kernel returns exactly the same FitResult as this loop.
"""

import numpy as np

from sbmfit.errors import InfeasibleError
from sbmfit.graphs import Labeling, block_counters, min_feasible_size
from sbmfit.sampling import derive_seed
from sbmfit.search import (
    _MOVE_EPS,
    _f_icl,
    _f_ml,
    _finalize,
    _random_feasible_labels,
)


class ReferenceGreedyState:
    def __init__(self, g, k, labels, objective):
        self.g = g
        self.n = g.n
        self.k = k
        self.objective = objective
        self._indptr = g.indptr.tolist()
        self.z = np.asarray(labels, dtype=np.int64).copy()
        counters = block_counters(g, Labeling(self.z, k))
        self.sizes = counters.sizes.tolist()
        self.o = counters.edge_counts.tolist()
        self._f = _f_ml if objective == "ml" else _f_icl
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
        return [[self._term(a, b) for b in range(self.k)] for a in range(self.k)]

    def full_potential(self):
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

    def neighbor_counts(self, i):
        nbrs = self.g.indices[self._indptr[i]:self._indptr[i + 1]]
        return np.bincount(self.z[nbrs], minlength=self.k).tolist()

    def move_delta(self, a, b, d):
        s, o, F = self.sizes, self.o, self.F
        f = self._f
        sa, sb = s[a], s[b]
        sa1, sb1 = sa - 1, sb + 1
        da, db = d[a], d[b]
        oa, ob = o[a], o[b]
        Fa, Fb = F[a], F[b]
        if self.objective == "ml":
            delta = (
                f(oa[a] - 2 * da, sa1 * (sa1 - 1)) - Fa[a]
                + f(ob[b] + 2 * db, sb1 * (sb1 - 1)) - Fb[b]
                + 2.0 * (f(oa[b] + da - db, sa1 * sb1) - Fa[b])
            )
            for c in range(self.k):
                if c == a or c == b:
                    continue
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
            for c in range(self.k):
                if c == a or c == b:
                    continue
                sc, dc = s[c], d[c]
                delta += (
                    f(oa[c] - dc, sa1 * sc) - Fa[c]
                    + f(ob[c] + dc, sb1 * sc) - Fb[c]
                )
        return delta

    def apply_move(self, i, b, d, delta):
        a = int(self.z[i])
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


def reference_greedy_argmax(g, k, cfg):
    min_size = min_feasible_size(g.n, cfg.alpha)
    if k * min_size > g.n:
        raise InfeasibleError(
            f"alpha={cfg.alpha} needs {k * min_size} nodes but the graph has {g.n}"
        )
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, restart)))
        labels = _random_feasible_labels(rng, g.n, k, min_size)
        state = ReferenceGreedyState(g, k, labels, cfg.objective)
        sweeps = 0
        while sweeps < cfg.max_sweeps:
            improved = False
            for i in rng.permutation(g.n):
                a = int(state.z[i])
                if state.sizes[a] - 1 < min_size:
                    continue
                d = state.neighbor_counts(i)
                best_delta = _MOVE_EPS
                best_b = -1
                for b in range(k):
                    if b == a:
                        continue
                    delta = state.move_delta(a, b, d)
                    if delta > best_delta:
                        best_delta = delta
                        best_b = b
                if best_b >= 0:
                    state.apply_move(int(i), best_b, d, best_delta)
                    improved = True
            sweeps += 1
            if not improved:
                break
        value = state.full_potential()
        if best is None or value > best[0]:
            best = (value, state.z.copy(), sweeps, restart, not improved)
    _, labels, sweeps, restart, converged = best
    return _finalize(g, labels, k, cfg, sweeps, restart, converged)
