"""Reference exact search: one full recount per canonical labeling.

Enumerates the labelings of n nodes in first-occurrence canonical form,
in lexicographic order, and scores each feasible one with block_counters
and the vectorized scorer of sbmfit.modularity. Strict > keeps the
lexicographically smallest maximizer. A correct exact_argmax returns
exactly the same FitResult as this loop.
"""

import numpy as np

from sbmfit.errors import InfeasibleError, SearchSpaceError
from sbmfit.graphs import Labeling, block_counters, min_feasible_size
from sbmfit.modularity import icl_from_counters, ml_from_counters
from sbmfit.search import _EXACT_GUARD, _finalize


def canonical_labelings(n, k):
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


def reference_exact_argmax(g, k, cfg):
    min_size = min_feasible_size(g.n, cfg.alpha)
    if k * min_size > g.n:
        raise InfeasibleError(
            f"alpha={cfg.alpha} needs {k * min_size} nodes but the graph has {g.n}"
        )
    space = k**g.n
    if space > _EXACT_GUARD:
        raise SearchSpaceError(
            f"label space k^n = {space} exceeds the enumeration guard {_EXACT_GUARD}"
        )
    score = ml_from_counters if cfg.objective == "ml" else icl_from_counters
    best_value = None
    best_labels = None
    for z in canonical_labelings(g.n, k):
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
