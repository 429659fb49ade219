import copy
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaln, gammaln, xlog1py, xlogy

from sbmfit import (
    Graph,
    InfeasibleError,
    Labeling,
    ParameterError,
    SearchConfig,
    SearchSpaceError,
    exact_argmax,
    greedy_argmax,
    meets_min_size,
    misclassification,
    sample,
)
from sbmfit.experiments import balanced_params
from sbmfit import modularity
from sbmfit.modularity import icl_from_counters, ml_from_counters
from sbmfit.graphs import block_counters
from sbmfit import search
from sbmfit.search import _GreedyState

from conftest import neighbors, random_graph, random_labeling
from reference_exact import reference_exact_argmax
from reference_greedy import ReferenceGreedyState, reference_greedy_argmax

ML, ICL = modularity._BLOCK_TERMS["ml"], modularity._BLOCK_TERMS["icl"]


def two_cliques(size=4):
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges += [(i, j) for i in range(size, 2 * size) for j in range(i + 1, 2 * size)]
    return Graph.from_edges(2 * size, edges)


class TestExact:
    def test_recovers_planted_cliques(self):
        g = two_cliques()
        cfg = SearchConfig(objective="ml", alpha=0.25, restarts=1, seed=0)
        fit = exact_argmax(g, 2, cfg)
        planted = Labeling([0] * 4 + [1] * 4, 2)
        assert misclassification(fit.labeling, planted) == 0
        assert fit.objective_value == 0.0

    def test_complete_graph_lexicographic_tie(self):
        g = Graph.from_edges(4, itertools.combinations(range(4), 2))
        cfg = SearchConfig(objective="ml", alpha=0.25, restarts=1, seed=0)
        fit = exact_argmax(g, 2, cfg)
        assert fit.objective_value == 0.0
        assert fit.labeling.labels.tolist() == [0, 0, 0, 1]

    def test_recovery_rate_on_sampled_instances(self):
        # Planted labelings outside F(n, alpha) cannot be recovered by a
        # constrained argmax, so only feasible draws count.
        params = balanced_params(2, 18.0, 1.0, 0.05)  # P = [[.9,.05],[.05,.9]]
        cfg = SearchConfig(objective="ml", alpha=0.2, restarts=1, seed=0)
        exact_hits = 0
        kept = 0
        seed = 50_000
        while kept < 100:
            seed += 1
            z, g = sample(params, 8, seed=seed)
            if not meets_min_size(z, cfg.alpha):
                continue
            kept += 1
            fit = exact_argmax(g, 2, cfg)
            if misclassification(fit.labeling, z) == 0:
                exact_hits += 1
        assert exact_hits >= 90

    def test_guard(self):
        g = Graph.from_edges(40, [])
        cfg = SearchConfig(objective="ml", alpha=0.1, restarts=1, seed=0)
        with pytest.raises(SearchSpaceError):
            exact_argmax(g, 3, cfg)

    def test_infeasible_alpha(self):
        g = two_cliques()
        for search_fn in (greedy_argmax, exact_argmax):
            with pytest.raises(InfeasibleError):
                search_fn(g, 2, SearchConfig(objective="ml", alpha=0.6, restarts=1, seed=0))
            with pytest.raises(InfeasibleError):
                search_fn(Graph.from_edges(5, []), 2, SearchConfig(alpha=0.45, restarts=1))
            with pytest.raises(ParameterError):
                search_fn(g, 0, SearchConfig(restarts=1))

    def test_objective_value_matches_reevaluation(self, rng):
        g = random_graph(rng, 9)
        for objective in ("ml", "icl"):
            cfg = SearchConfig(objective=objective, alpha=0.1, restarts=1, seed=0)
            fit = exact_argmax(g, 2, cfg)
            counters = block_counters(g, fit.labeling)
            want = ml_from_counters(counters) if objective == "ml" else icl_from_counters(counters)
            assert fit.objective_value == want

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 9), k=st.integers(1, 3),
           objective=st.sampled_from(["ml", "icl"]),
           kind=st.sampled_from(["random", "empty", "complete", "two_cliques", "star"]),
           slack=st.sampled_from([0.05, 0.3, 0.6, 0.9, 1.0]))
    def test_result_is_its_own_recount(self, seed, n, k, objective, kind, slack):
        # The result is the winner's batch value, with no recount: it must be
        # the scorer's over the returned labeling, bit for bit, and the
        # labeling must be feasible.
        g = tie_heavy_graph(kind, n, np.random.default_rng(seed))
        cfg = SearchConfig(objective=objective, alpha=min(slack / k, 0.95), restarts=1)
        try:
            fit = exact_argmax(g, k, cfg)
        except (InfeasibleError, SearchSpaceError):
            return
        score = ml_from_counters if objective == "ml" else icl_from_counters
        want = score(block_counters(g, fit.labeling))
        assert np.float64(fit.objective_value).view(np.int64) == np.float64(want).view(np.int64)
        assert fit.feasible and meets_min_size(fit.labeling, cfg.alpha)
        assert np.array_equal(fit.labeling.labels, fit.labeling.canonical().labels)


class TestGreedy:
    def test_attains_exact_on_small_instances(self):
        params = balanced_params(2, 18.0, 1.0, 0.05)
        hits = {"ml": 0, "icl": 0}
        for inst in range(20):
            z, g = sample(params, 10, seed=777 + inst)
            for objective in ("ml", "icl"):
                cfg = SearchConfig(objective=objective, alpha=0.2, restarts=20, seed=inst)
                ex = exact_argmax(g, 2, cfg)
                gr = greedy_argmax(g, 2, cfg)
                assert gr.objective_value <= ex.objective_value + 1e-12
                if abs(gr.objective_value - ex.objective_value) <= 1e-12:
                    hits[objective] += 1
        assert hits["ml"] >= 19 and hits["icl"] >= 19

    def test_planted_cliques(self):
        g = two_cliques()
        cfg = SearchConfig(objective="icl", alpha=0.25, restarts=5, seed=3)
        fit = greedy_argmax(g, 2, cfg)
        planted = Labeling([0] * 4 + [1] * 4, 2)
        assert misclassification(fit.labeling, planted) == 0

    def test_optimal_initialization_is_fixed_point(self):
        g = two_cliques()
        state = _GreedyState(g, 2, np.array([0] * 4 + [1] * 4), "ml")
        for i in range(g.n):
            a = int(state.z[i])
            d = state.table[i]
            for b in range(2):
                if b != a:
                    assert state.best_move(a, d, (b,))[0] <= 0.0

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1], [0, 1, 1, 0, 1], [-1, 0, 1]])
    def test_state_rejects_bad_labels(self, labels):
        with pytest.raises(ValueError):
            _GreedyState(Graph.from_edges(3, [(0, 1)]), 2, labels, "ml")

    def test_deterministic(self, rng):
        g = random_graph(rng, 30)
        cfg = SearchConfig(objective="ml", alpha=0.1, restarts=4, seed=5)
        f1 = greedy_argmax(g, 3, cfg)
        f2 = greedy_argmax(g, 3, cfg)
        assert np.array_equal(f1.labeling.labels, f2.labeling.labels)
        assert f1.objective_value == f2.objective_value
        assert f1.restart_index == f2.restart_index

    def test_always_feasible(self, rng):
        for _ in range(20):
            n = int(rng.integers(12, 40))
            g = random_graph(rng, n, p=float(rng.uniform(0.1, 0.7)))
            alpha = float(rng.uniform(0.05, 0.3))
            cfg = SearchConfig(objective="ml", alpha=alpha, restarts=2, seed=1)
            fit = greedy_argmax(g, 3, cfg)
            assert fit.feasible
            assert meets_min_size(fit.labeling, alpha)

    def test_canonical_output(self, rng):
        g = random_graph(rng, 20)
        cfg = SearchConfig(objective="ml", alpha=0.1, restarts=3, seed=8)
        fit = greedy_argmax(g, 3, cfg)
        labels = fit.labeling.labels
        assert labels[0] == 0
        seen_max = 0
        for lab in labels:
            assert lab <= seen_max + 1
            seen_max = max(seen_max, lab)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 30), k=st.integers(1, 4))
    def test_block_counts_equal_endpoint_counts(self, seed, n, k):
        # o sums the table rows of each community; block_counters counts the
        # label pairs of the edge endpoints directly. The two must agree.
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, p=float(rng.uniform(0.0, 1.0)))
        z = random_labeling(rng, n, k)
        state = _GreedyState(g, k, z.labels, "ml")
        assert state.o == block_counters(g, z).edge_counts.tolist()
        assert state.sizes == z.sizes().tolist()

    def test_incremental_matches_recompute(self, rng):
        worst = 0.0
        for case in range(100):
            n = int(rng.integers(10, 26))
            k = int(rng.integers(2, 4))
            g = random_graph(rng, n, p=0.4)
            z = random_labeling(rng, n, k)
            objective = "ml" if case % 2 == 0 else "icl"
            state = _GreedyState(g, k, z.labels, objective)
            potential = state.full_potential()
            scale = modularity._BLOCK_TERMS[objective].w * n * n
            for i in rng.permutation(n):
                a = int(state.z[i])
                d = state.table[i]
                for b in range(k):
                    if b == a:
                        continue
                    delta = state.best_move(a, d, (b,))[0]
                    if delta > 0:
                        before = state.full_potential()
                        state.apply_move(int(i), b, d)
                        potential += delta
                        after = state.full_potential()
                        worst = max(worst, abs(potential - after) / scale)
                        assert after > before  # accepted moves strictly improve
                        break
        assert worst < 1e-9

    def test_exact_at_least_greedy(self, rng):
        for objective in ("ml", "icl"):
            for _ in range(10):
                g = random_graph(rng, 9, p=0.5)
                cfg = SearchConfig(objective=objective, alpha=0.2, restarts=5, seed=2)
                ex = exact_argmax(g, 2, cfg)
                gr = greedy_argmax(g, 2, cfg)
                assert ex.objective_value >= gr.objective_value - 1e-12


MEMOS = (ML.A, ML.B, ICL.A, ICL.B)


def served_a(t, x):
    """The endpoint value of record t at x as the kernel reads it: from the
    memo up to the bound, computed above it."""
    return t.A[x] if x <= modularity._MEMO_BOUND else t.large_a(x + t.a_shift)


class TestTermMemos:
    def test_bit_identical_to_vectorized_ufuncs(self, rng):
        args = np.unique(np.concatenate([
            np.arange(3000), rng.integers(0, 9 * 10**6, size=3000), np.arange(1, 3001) ** 2,
            rng.integers(0, 10**8, size=3000),
        ]))
        x = args.astype(float)
        saved = [dict(t) for t in MEMOS]
        try:
            for t in MEMOS:
                t.clear()
            # _f(t, 0, a) fills the entries 0 and a of x*log(x) and
            # gammaln(x + 1/2), a only up to the bound, and the entry a of
            # x*log(x) and gammaln(x + 1) at pair counts. args[0] is 0.
            for a in args.tolist():
                modularity._f(ML, 0, a)
                modularity._f(ICL, 0, a)
            served = (lambda a: served_a(ML, a), lambda a: ML.B[a],
                      lambda a: served_a(ICL, a), lambda a: ICL.B[a])
            wants = (xlogy(x, x), xlogy(x, x), gammaln(x + 0.5), gammaln(x + 1.0))
            for serve, want in zip(served, wants):
                got = np.array([serve(a) for a in args.tolist()])
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        finally:
            for t, old in zip(MEMOS, saved):
                t.clear()
                t.update(old)

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(st.integers(modularity._MEMO_BOUND + 1, 10**12),
                       st.integers(10**8 - 50, 10**8 + 50)),
           objective=st.sampled_from(["ml", "icl"]), data=st.data())
    def test_above_bound_equals_fill(self, x, objective, data):
        # lgam sums fewer Stirling terms above 10^8: x + 1/2 crosses that
        # switch between x = 10^8 - 1 and 10^8.
        t = modularity._BLOCK_TERMS[objective]
        assert t.large_a(x + t.a_shift).hex() == t.fill_a(float(x)).hex()
        o = data.draw(st.integers(0, x))
        want = t.fill_a(float(o)) + t.fill_a(float(x - o)) - t.fill_b(float(x)) - t.beta
        assert modularity._f(t, o, x).hex() == want.hex()
        assert max(t.A, default=0) <= modularity._MEMO_BOUND

    def test_memos_stay_bounded_after_a_restart_at_scale(self):
        # n = 2 * 10^4 at rho = log(n)/n from random pairs, not from O(n^2)
        # sample: 99k edges, so endpoint counts fall on both sides of the
        # bound, and every non-edge count m - o lies above it. Unbounded,
        # one k = 3 ML restart stored 356k endpoint entries.
        n = 2 * 10**4
        rng = np.random.default_rng(2024)
        pairs = rng.integers(0, n, size=(int(n * math.log(n) / 2), 2))
        g = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        saved = [dict(t) for t in MEMOS]
        try:
            for k in (2, 3):
                for objective in ("ml", "icl"):
                    t = modularity._BLOCK_TERMS[objective]
                    t.A.clear()
                    t.B.clear()
                    greedy_argmax(g, k, SearchConfig(objective=objective, restarts=1, seed=k))
                    assert len(t.A) <= modularity._MEMO_BOUND + 1
                    assert max(t.A) <= modularity._MEMO_BOUND
                    # One pair count per block shape a restart visits: 0.8k
                    # at k = 2 and 26k at k = 3.
                    assert len(t.B) <= 2 * n
        finally:
            for t, old in zip(MEMOS, saved):
                t.clear()
                t.update(old)

    def test_bound_keeps_the_stirling_branch(self):
        # ICL's large_a is lgam's branch at 1000 and above.
        assert modularity._MEMO_BOUND >= 1000

    def test_xlogx_bit_identical_to_ufunc_over_range(self):
        # Every integer up to 2^21, then a seeded sample up to 10^8; the
        # memo stores _xlogx at float(x), so no table is filled here.
        x = np.concatenate([
            np.arange(2**21 + 1), np.random.default_rng(21).integers(2**21, 10**8, size=10**5),
        ]).astype(float)
        got = np.array([modularity._xlogx(v) for v in x.tolist()])
        assert np.array_equal(got.view(np.int64), xlogy(x, x).view(np.int64))

    def test_block_terms_fill_on_first_visit(self):
        # Arguments no other test reaches: the KeyError path must give the
        # value the filled memo gives on the next call.
        o, m = 7 * 10**9 + 3, 9 * 10**9 + 11
        first_ml, first_icl = modularity._f(ML, o, m), modularity._f(ICL, o, m)
        assert modularity._f(ML, o, m) == first_ml
        assert modularity._f(ICL, o, m) == first_icl
        assert first_ml == xlogy(o, o) + xlogy(m - o, m - o) - xlogy(m, m)


def reference_best_move(ref, a, d, targets):
    """Maximum and first argmax of the reference per-target deltas."""
    deltas = [ref.move_delta(a, b, d) for b in targets]
    best = max(deltas)
    return best, targets[deltas.index(best)]


class TestBestMove:
    """The inlined kernel against the reference deltas, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.sampled_from([2, 3, 4]),
           objective=st.sampled_from(["ml", "icl"]), data=st.data())
    def test_equals_reference_deltas(self, seed, k, objective, data):
        rng = np.random.default_rng(seed)
        # At most three nodes per community on average: sizes 0-2 are common,
        # so removals empty a block and moves fill an empty one.
        n = data.draw(st.integers(2, 3 * k))
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        g = random_graph(rng, n, p=float(rng.uniform(0.0, 1.0)))
        state = _GreedyState(g, k, labels, objective)
        ref = ReferenceGreedyState(g, k, labels, objective)
        saved = [dict(t) for t in MEMOS]
        try:
            for i in range(n):
                a = labels[i]
                d = state.table[i]
                assert d == ref.neighbor_counts(i)
                targets = data.draw(st.permutations([b for b in range(k) if b != a]))
                targets = targets[:data.draw(st.integers(1, k - 1))]
                want = reference_best_move(ref, a, d, targets)
                for t in MEMOS:
                    t.clear()
                cold = state.best_move(a, d, targets)
                warm = state.best_move(a, d, targets)
                # Fill every small argument, 0 included, before the call:
                # every block then takes the subscript path.
                small = np.arange(3 * n * n, dtype=float)
                for t, values in zip(MEMOS, (xlogy(small, small), xlogy(small, small),
                                             gammaln(small + 0.5), gammaln(small + 1.0))):
                    t.update(enumerate(values.tolist()))
                filled = state.best_move(a, d, targets)
                for got in (cold, warm, filled):
                    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
        finally:
            for t, old in zip(MEMOS, saved):
                t.clear()
                t.update(old)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("objective", ["ml", "icl"])
    def test_blocks_above_the_bound_equal_ufunc_deltas(self, k, objective):
        # One community of about 540 of 600 nodes: its diagonal block holds
        # more than _MEMO_BOUND pairs for both objectives, so the kernel
        # computes its endpoint terms. The reference reads every term from
        # the scipy ufuncs, so no memo or record scalar serves it.
        rng = np.random.default_rng(600 + k)
        n = 600
        g = random_graph(rng, n, p=0.03)
        labels = np.where(rng.random(n) < 0.9, 0, rng.integers(1, k, size=n))
        state = _GreedyState(g, k, labels, objective)
        ref = ReferenceGreedyState(g, k, labels, objective)
        if objective == "ml":
            ref._f = lambda o, m: float(xlogy(o, o) + xlogy(m - o, m - o) - xlogy(m, m) - 0.0)
        else:
            ref._f = lambda o, m: float(gammaln(o + 0.5) + gammaln(m - o + 0.5)
                                        - gammaln(m + 1.0) - modularity.LOG_BETA_HALF)
        ref.F = ref.block_terms()
        s0 = state.sizes[0]
        assert s0 * (s0 - 1) // modularity._BLOCK_TERMS[objective].h > modularity._MEMO_BOUND
        assert state.F == ref.F
        for i in range(n):
            a = int(labels[i])
            d = state.table[i]
            targets = [b for b in range(k) if b != a]
            want = reference_best_move(ref, a, d, targets)
            got = state.best_move(a, d, targets)
            assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])

    def test_no_targets(self):
        state = _GreedyState(two_cliques(), 2, [0] * 4 + [1] * 4, "ml")
        assert state.best_move(0, state.table[0], ()) == (-math.inf, -1)


class TestCachedBlockTerms:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(4, 30), k=st.integers(2, 4),
           objective=st.sampled_from(["ml", "icl"]))
    def test_match_recompute_after_random_moves(self, seed, n, k, objective):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.9)))
        state = _GreedyState(g, k, rng.integers(0, k, size=n), objective)
        potential = state.full_potential()
        scale = modularity._BLOCK_TERMS[objective].w * n * n
        for _ in range(3 * n):
            i, b = int(rng.integers(n)), int(rng.integers(k))
            a = int(state.z[i])
            if b == a:
                continue
            d = state.table[i]
            potential += state.best_move(a, d, (b,))[0]
            state.apply_move(i, b, d)
            fresh = _GreedyState(g, k, state.z, objective)
            assert state.o == fresh.o and state.sizes == fresh.sizes
            assert state.F == fresh.F == state.block_terms()
            assert abs(potential - fresh.full_potential()) / scale < 1e-9
            z = np.asarray(state.z)
            for j in range(n):
                assert state.table[j] == np.bincount(z[neighbors(g, j)], minlength=k).tolist()


def batch_values(g, z, k, objective):
    """Exact search's values of the labeling rows z of g."""
    src = np.repeat(np.arange(g.n), g.degrees())
    once = src < g.indices
    return search._objective_values(z, search._value_counts(z, k), src[once], g.indices[once],
                                    objective)


def ufunc_values(g, z, k, objective):
    """The public values of the labeling rows z of g computed by the
    scipy.special ufuncs over float counters read from block_counters:
    m * (xlogy(p, p) + xlog1py(1 - p, -p)) at p = o / m for ML,
    gammaln(o + 1/2) + gammaln(m - o + 1/2) - gammaln(m + 1) - betaln(1/2, 1/2)
    for ICL. Each row sums the sorted terms of its blocks that hold pairs,
    each block a < b entered w times, and divides by w n^2."""
    if objective == "ml":
        h, w = 1, 2
        def term(o, m):
            p = o / m
            return m * (xlogy(p, p) + xlog1py(1.0 - p, -p))
    else:
        h, w = 2, 1
        def term(o, m):
            return gammaln(o + 0.5) + gammaln(m - o + 0.5) - gammaln(m + 1.0) - betaln(0.5, 0.5)
    n = g.n
    values = []
    for row in z:
        counters = block_counters(g, Labeling(row, k))
        o, m = [], []
        for a in range(k):
            for b in range(a, k):
                d = h if a == b else 1
                times = 1 if a == b else w
                o += [counters.edge_counts[a, b] // d] * times
                m += [counters.sizes[a] * (counters.sizes[b] - (a == b)) // d] * times
        o, m = np.array(o, dtype=float), np.array(m, dtype=float)
        held = m > 0
        values.append(float(np.sort(term(o[held], m[held])).sum()) / (w * n * n))
    return np.array(values)


class TestBatchPotentials:
    """Exact search's batch values against the public scorers, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.integers(2, 5),
           objective=st.sampled_from(["ml", "icl"]), data=st.data())
    def test_rows_equal_public_scorer(self, seed, k, objective, data):
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(2, 3 * k))
        g = random_graph(rng, n, p=float(rng.uniform(0.0, 1.0)))
        # Any labels: at most three nodes per community on average, so rows
        # hold singleton communities, whose diagonal blocks have no pairs,
        # and empty ones, and rows of one chunk leave out different counts
        # of blocks.
        rows = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                                  min_size=1, max_size=8))
        z = np.array(rows, dtype=np.int8)
        score = ml_from_counters if objective == "ml" else icl_from_counters
        for row, value in zip(rows, batch_values(g, z, k, objective).tolist()):
            want = score(block_counters(g, Labeling(row, k)))
            assert value.hex() == want.hex(), (row, value, want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.integers(1, 4),
           objective=st.sampled_from(["ml", "icl"]), data=st.data())
    def test_rows_equal_full_potential(self, seed, k, objective, data):
        # The greedy kernel's potential, summed from its own block terms,
        # is the unnormalized value of the same labeling.
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(k, 12))
        g = random_graph(rng, n, p=float(rng.uniform(0.0, 1.0)))
        # Every community holds at least one node, as in any feasible labeling.
        rows = [data.draw(st.permutations(
                    list(range(k)) + data.draw(st.lists(st.integers(0, k - 1),
                                                        min_size=n - k, max_size=n - k))))
                for _ in range(data.draw(st.integers(1, 4)))]
        z = np.array(rows, dtype=np.int8)
        w = 2.0 if objective == "ml" else 1.0
        for row, value in zip(rows, batch_values(g, z, k, objective).tolist()):
            want = _GreedyState(g, k, row, objective).full_potential() / (w * n * n)
            assert math.isclose(value, want, rel_tol=1e-12), (row, value, want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.integers(1, 4),
           objective=st.sampled_from(["ml", "icl"]), data=st.data())
    def test_rows_equal_ufunc_formula(self, seed, k, objective, data):
        # Bit for bit against the scipy.special ufuncs over block_counters'
        # counts, so the batch's pair counts are block_counters' too.
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(k, 12))
        g = random_graph(rng, n, p=float(rng.uniform(0.0, 1.0)))
        # Any labels, empty communities included: the table covers m = 0.
        z = rng.integers(0, k, size=(data.draw(st.integers(1, 8)), n)).astype(np.int8)
        got = batch_values(g, z, k, objective)
        want = ufunc_values(g, z, k, objective)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (z, got, want)

    @pytest.mark.parametrize("objective", ["ml", "icl"])
    @pytest.mark.parametrize("k", [4, 5])
    def test_row_alone_equals_row_in_a_chunk(self, k, objective):
        # A one-row chunk and a longer one are laid out differently; the
        # value of a labeling must not depend on which it sits in.
        rng = np.random.default_rng(40 + k)
        n = 11
        for _ in range(30):
            g = random_graph(rng, n, p=float(rng.uniform(0.1, 0.9)))
            z = rng.integers(0, k, size=(7, n)).astype(np.int8)
            chunk = batch_values(g, z, k, objective)
            alone = np.concatenate([batch_values(g, z[r:r + 1], k, objective)
                                    for r in range(len(z))])
            assert np.array_equal(chunk.view(np.int64), alone.view(np.int64)), (z, chunk, alone)


def assert_same_fit(got, want):
    assert np.array_equal(got.labeling.labels, want.labeling.labels)
    assert got.labeling.k == want.labeling.k
    assert (np.float64(got.objective_value).view(np.int64)
            == np.float64(want.objective_value).view(np.int64))
    assert (got.objective, got.sweeps_used, got.restart_index, got.feasible, got.converged) == (
        want.objective, want.sweeps_used, want.restart_index, want.feasible, want.converged)


# Cases of the greedy reference oracle; tests/test_restart_workers.py runs
# them again with the restarts shared by forked workers.
GREEDY_ORACLE_CASES = dict(
    seed=st.integers(0, 2**32), n=st.integers(4, 40), k=st.sampled_from([2, 3, 4]),
    objective=st.sampled_from(["ml", "icl"]), slack=st.sampled_from([0.3, 0.9, 0.97, 1.0]),
    max_sweeps=st.sampled_from([1, 2, 60]), restarts=st.integers(1, 4))
GREEDY_ORACLE_SBM = [(2, "ml"), (3, "icl"), (3, "ml")]


def check_greedy_oracle_case(seed, n, k, objective, slack, max_sweeps, restarts):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.9)))
    # slack = 1 puts alpha at the feasibility limit 1/k: the size floor
    # then blocks most moves, or leaves no feasible labeling at all.
    cfg = SearchConfig(objective=objective, alpha=slack / k, restarts=restarts,
                       max_sweeps=max_sweeps, seed=int(rng.integers(2**31)))
    try:
        want = reference_greedy_argmax(g, k, cfg)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            greedy_argmax(g, k, cfg)
        return
    assert_same_fit(greedy_argmax(g, k, cfg), want)


def check_greedy_oracle_sbm(k, objective):
    _, g = sample(balanced_params(k, 12.0, 2.0, 0.05), 240, seed=7)
    cfg = SearchConfig(objective=objective, restarts=3, seed=5)
    assert_same_fit(greedy_argmax(g, k, cfg), reference_greedy_argmax(g, k, cfg))


class TestReferenceOracle:
    """The maintained-table loop against the per-visit bincount loop."""

    @settings(max_examples=80, deadline=None)
    @given(**GREEDY_ORACLE_CASES)
    def test_fit_equals_reference(self, seed, n, k, objective, slack, max_sweeps, restarts):
        check_greedy_oracle_case(seed, n, k, objective, slack, max_sweeps, restarts)

    @pytest.mark.parametrize("k,objective", GREEDY_ORACLE_SBM)
    def test_sampled_sbm_equals_reference(self, k, objective):
        check_greedy_oracle_sbm(k, objective)


class TestQuietTailOracle:
    """The signature skip of the greedy loop against the reference loop.

    Near the phase constant 1 most of a restart's sweeps move few nodes, so
    many visits repeat a (label, neighbour counts) signature that best_move
    already scored since the last move; the loop skips those visits.
    """

    @pytest.mark.parametrize("objective", ["ml", "icl"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_skips_visits_and_equals_reference(self, monkeypatch, k, objective):
        n = 600
        # Separation (sqrt(s1) - 1)^2 = k: phase constant 1 at rho = log(n) / n.
        s1 = (1.0 + math.sqrt(k)) ** 2
        _, g = sample(balanced_params(k, s1, 1.0, math.log(n) / n), n, seed=40 + k)
        cfg = SearchConfig(objective=objective, restarts=5, seed=9)
        calls = {"best_move": 0, "visits": 0}
        best_move = _GreedyState.best_move
        neighbor_counts = ReferenceGreedyState.neighbor_counts

        def counted_best_move(self, *args):
            calls["best_move"] += 1
            return best_move(self, *args)

        def counted_visit(self, i):
            # The reference loop reads the counts once per feasible visit.
            calls["visits"] += 1
            return neighbor_counts(self, i)

        monkeypatch.setattr(_GreedyState, "best_move", counted_best_move)
        monkeypatch.setattr(ReferenceGreedyState, "neighbor_counts", counted_visit)
        # Every restart runs in this process, where the counters live.
        monkeypatch.setattr(search, "_restart_workers", lambda n, restarts: 1)
        assert_same_fit(greedy_argmax(g, k, cfg), reference_greedy_argmax(g, k, cfg))
        assert 0 < calls["best_move"] < calls["visits"]


def tie_heavy_graph(kind, n, rng):
    """Graphs whose objective has many exactly or nearly equal labelings."""
    if kind == "random":
        return random_graph(rng, n, p=float(rng.uniform(0.0, 1.0)))
    if kind == "empty":
        return Graph.from_edges(n, [])
    if kind == "complete":
        return Graph.from_edges(n, itertools.combinations(range(n), 2))
    if kind == "two_cliques":
        half = n // 2
        return Graph.from_edges(n, [(i, j) for i, j in itertools.combinations(range(n), 2)
                                    if (i < half) == (j < half)])
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])  # star


class TestExactReferenceOracle:
    """Chunked batch enumeration against one recount per labeling."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 9), k=st.integers(1, 3),
           objective=st.sampled_from(["ml", "icl"]),
           kind=st.sampled_from(["random", "random", "empty", "complete", "two_cliques",
                                 "star"]),
           slack=st.sampled_from([0.05, 0.3, 0.6, 0.9, 1.0]))
    def test_fit_equals_reference(self, seed, n, k, objective, kind, slack):
        rng = np.random.default_rng(seed)
        g = tie_heavy_graph(kind, n, rng)
        # slack = 1 puts alpha at the feasibility limit 1/k (capped below 1
        # for k = 1), where few or no labelings are feasible.
        cfg = SearchConfig(objective=objective, alpha=min(slack / k, 0.95), restarts=1)
        try:
            want = reference_exact_argmax(g, k, cfg)
        except (InfeasibleError, SearchSpaceError) as exc:
            with pytest.raises(type(exc)):
                exact_argmax(g, k, cfg)
            return
        assert_same_fit(exact_argmax(g, k, cfg), want)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 9), k=st.integers(1, 3),
           objective=st.sampled_from(["ml", "icl"]),
           kind=st.sampled_from(["random", "empty", "complete", "two_cliques", "star"]),
           slack=st.sampled_from([0.05, 0.3, 0.9]), rows=st.integers(1, 7))
    def test_small_chunks_equal_reference(self, seed, n, k, objective, kind, slack, rows):
        # A budget of a few labelings per chunk puts chunk boundaries all
        # through the enumeration, between a best labeling and the near
        # ties after it.
        rng = np.random.default_rng(seed)
        g = tie_heavy_graph(kind, n, rng)
        cfg = SearchConfig(objective=objective, alpha=slack / k, restarts=1)
        try:
            want = reference_exact_argmax(g, k, cfg)
        except (InfeasibleError, SearchSpaceError):
            return
        budget = rows * (n + g.edge_count + k * k)
        with mock.patch.object(search, "_EXACT_CHUNK", budget):
            assert_same_fit(exact_argmax(g, k, cfg), want)

    @pytest.mark.parametrize("n,k,alpha,error", [
        (40, 3, 0.1, SearchSpaceError),
        (16, 3, 0.1, SearchSpaceError),
        (5, 2, 0.45, InfeasibleError),
        (7, 3, 0.3, InfeasibleError),
        (17, 3, 0.33, InfeasibleError),  # 3 * 6 > 17 nodes, and 3^17 > the guard
    ])
    def test_same_refusals(self, n, k, alpha, error):
        g = Graph.from_edges(n, [])
        cfg = SearchConfig(alpha=alpha, restarts=1)
        for search_fn in (reference_exact_argmax, exact_argmax):
            with pytest.raises(error):
                search_fn(g, k, cfg)

    @pytest.mark.parametrize("n,k,objective,edges", [
        (6, 2, "icl", [(0, 1), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)]),
        (7, 3, "ml", [(0, 2), (0, 5), (1, 6), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]),
    ], ids=["n6-k2-icl", "n7-k3-ml"])
    def test_sums_one_ulp_apart_tie_as_values(self, n, k, objective, edges):
        # The term sum of a later labeling is one ulp above the first top
        # labeling's, and the two round to one value once divided by the
        # normalizer. The values tie, so the first labeling wins; comparing
        # the undivided sums would pick the later one.
        g = Graph.from_edges(n, edges)
        cfg = SearchConfig(objective=objective, alpha=0.01, restarts=1)
        assert_same_fit(exact_argmax(g, k, cfg), reference_exact_argmax(g, k, cfg))

    @pytest.mark.parametrize("kind,n,k,objective", [
        ("sbm", 10, 2, "ml"), ("sbm", 10, 2, "icl"), ("empty", 11, 3, "ml"),
        ("complete", 11, 3, "ml"), ("empty", 11, 4, "ml"), ("complete", 11, 4, "ml"),
    ])
    def test_no_recounts(self, monkeypatch, kind, n, k, objective):
        # Each batch value is the public objective's own float, so exact
        # search recounts no labeling, not even its winner. Every ML labeling
        # of the empty or the complete 11-node graph scores 0: all 28,501
        # canonical labelings at k = 3 and all 145,750 at k = 4 tie, and the
        # first of them must win.
        if kind == "sbm":
            _, g = sample(balanced_params(2, 18.0, 1.0, 0.05), n, seed=3)
            cfg = SearchConfig(objective=objective, alpha=0.2, restarts=1)
        else:
            g = tie_heavy_graph(kind, n, None)
            cfg = SearchConfig(objective=objective, restarts=1)
        calls = []

        def counting_block_counters(*args):
            calls.append(args)
            return block_counters(*args)

        monkeypatch.setattr(search, "block_counters", counting_block_counters)
        fit = exact_argmax(g, k, cfg)
        assert calls == []
        monkeypatch.undo()
        assert_same_fit(fit, reference_exact_argmax(g, k, cfg))


class TestSharedContext:
    """A fit's restarts read one _GreedyContext: the tuples of restarts that
    share it equal those of restarts that each build their own."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(4, 40), k=st.integers(2, 4),
           objective=st.sampled_from(["ml", "icl"]))
    def test_restarts_share_one_context(self, seed, n, k, objective):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.9)))
        cfg = SearchConfig(objective=objective, alpha=0.5 / k, seed=int(rng.integers(2**31)))
        min_size = search._min_size(n, k, cfg)
        ctx = search._greedy_context(g, k, objective)
        before = copy.deepcopy(ctx)
        shared = [search._run_restart(g, k, cfg, min_size, r, ctx) for r in range(6)]
        assert ctx == before
        for r, got in enumerate(shared):
            want = search._run_restart(g, k, cfg, min_size, r)
            assert (got[0].hex(), *got[1:]) == (want[0].hex(), *want[1:])
            # The potential summed from the cached terms is the recount's.
            fresh = _GreedyState(g, k, got[1], objective)
            assert got[0].hex() == fresh.full_potential().hex()


class TestExactCaches:
    """Exact search's cached enumerations and term table change no result."""

    @pytest.mark.parametrize("objective", ["ml", "icl"])
    @pytest.mark.parametrize("n,k", [(10, 2), (7, 3)])
    def test_cold_warm_and_chunked_fits_agree(self, monkeypatch, n, k, objective):
        for seed in range(4):
            _, g = sample(balanced_params(k, 18.0, 1.0, 0.05), n, seed=seed)
            cfg = SearchConfig(objective=objective, alpha=0.2, restarts=1)
            monkeypatch.setattr(search, "_ENUMERATIONS", {})
            monkeypatch.setattr(search, "_TERM_TABLES", {})
            cold = exact_argmax(g, k, cfg)
            assert list(search._ENUMERATIONS) == [(n, k, search._min_size(n, k, cfg))]
            warm = exact_argmax(g, k, cfg)
            # An enumeration of more than one chunk is never cached.
            monkeypatch.setattr(search, "_ENUMERATIONS", {})
            budget = 7 * (n + g.edge_count + k * k)
            with mock.patch.object(search, "_EXACT_CHUNK", budget):
                chunked = exact_argmax(g, k, cfg)
            assert search._ENUMERATIONS == {}
            assert_same_fit(warm, cold)
            assert_same_fit(chunked, cold)
            assert_same_fit(cold, reference_exact_argmax(g, k, cfg))

    @pytest.mark.parametrize("objective", ["ml", "icl"])
    def test_one_community_fills_no_memo(self, monkeypatch, objective):
        # The guard does not bound n at k = 1: an ML term table for a 600-node
        # path would hold 6.5 * 10^10 terms, for one labeling.
        # Scoring that labeling with the public objective comes first, since
        # the ICL objective sums memoized terms; the search adds nothing more.
        monkeypatch.setattr(search, "_ENUMERATIONS", {})
        monkeypatch.setattr(search, "_TERM_TABLES", {})
        memos = MEMOS
        g = Graph.from_edges(600, [(i, i + 1) for i in range(599)])
        cfg = SearchConfig(objective=objective, restarts=1)
        search._scorer(objective)(block_counters(g, Labeling(np.zeros(600, dtype=int), 1)))
        before = [len(memo) for memo in memos]
        fit = exact_argmax(g, 1, cfg)
        assert [len(memo) for memo in memos] == before
        assert search._ENUMERATIONS == {} and search._TERM_TABLES == {}
        assert_same_fit(fit, reference_exact_argmax(g, 1, cfg))

    def test_cached_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(search, "_ENUMERATIONS", {})
        monkeypatch.setattr(search, "_TERM_TABLES", {})
        cfg = SearchConfig(objective="icl", alpha=0.25, restarts=1)
        exact_argmax(two_cliques(), 2, cfg)
        [(z, sizes)] = search._ENUMERATIONS[(8, 2, search._min_size(8, 2, cfg))]
        for x in (z, sizes, search._TERM_TABLES[("icl", 8)]):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0


class TestConverged:
    def test_flag(self):
        _, g = sample(balanced_params(2, 9.0, 1.0, 0.1), 80, seed=4)
        stopped = greedy_argmax(g, 2, SearchConfig(restarts=2, max_sweeps=1, seed=0))
        assert not stopped.converged and stopped.sweeps_used == 1
        assert greedy_argmax(g, 2, SearchConfig(restarts=2, seed=0)).converged
        exact = exact_argmax(two_cliques(), 2, SearchConfig(alpha=0.25, restarts=1))
        assert exact.converged
