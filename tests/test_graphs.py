import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sbmfit import (
    Graph,
    Labeling,
    block_counters,
    confusion,
    disagreement_fraction,
    hamming_distance,
    meets_min_size,
    misclassification,
)
from sbmfit import graphs
from sbmfit.graphs import confusion_counts, min_feasible_size

from conftest import neighbors, permuted, random_graph, random_labeling, reference_canonical


def brute_force_counters(g, z):
    k = z.k
    o = np.zeros((k, k), dtype=np.int64)
    for i, j in g.edges():
        o[z.labels[i], z.labels[j]] += 1
        o[z.labels[j], z.labels[i]] += 1
    return o


def brute_force_misclassification(e, z):
    best = e.n
    for sigma in itertools.permutations(range(z.k)):
        sigma = np.array(sigma)
        best = min(best, int(np.count_nonzero(e.labels != sigma[z.labels])))
    return best


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_asymmetric(self):
        # Edge 0 -> 1 stored without 1 -> 0.
        with pytest.raises(ValueError, match="symmetric"):
            Graph(3, [0, 1, 1, 1], [1])

    def test_immutable(self, rng):
        g = random_graph(rng, 6)
        with pytest.raises(ValueError):
            g.indices[0] = 1
        with pytest.raises(ValueError):
            g.indptr[1] = 0

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1)])
        assert g.edges() == [(0, 1), (2, 3)]
        assert g.edge_count == 2

    def test_csr_layout(self):
        g = Graph.from_edges(4, [(3, 0), (0, 1), (1, 0)])
        assert g.indptr.tolist() == [0, 2, 3, 3, 4]
        assert g.indices.tolist() == [1, 3, 0, 0]
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert neighbors(g, 0).tolist() == [1, 3]
        assert g.degrees().tolist() == [2, 1, 0, 1]

    def test_rejects_malformed_csr(self):
        for indptr, indices in (
            ([0, 1, 2], [1]),           # indptr does not end at the entry count
            ([0, 2, 1, 2], [1, 0]),     # indptr decreases
            ([0, 1, 1], [2]),           # neighbour out of range
            ([0, 1, 2], [0, 1]),        # self-loops
            ([0, 2, 3, 4], [2, 1, 0, 0]),  # row 0 unsorted
        ):
            with pytest.raises(ValueError):
                Graph(len(indptr) - 1, indptr, indices)

    def test_rejects_faults_past_the_first_chunk(self):
        # The complete graph on 200 nodes stores 39800 entries, three chunks
        # of 2^14 for the checks; each fault sits in row 150, in the third.
        g = Graph.from_edges(200, list(itertools.combinations(range(200), 2)))
        start = int(g.indptr[150])
        loop, unsorted = g.indices.copy(), g.indices.copy()
        loop[start + 3] = 150
        unsorted[start + 3], unsorted[start + 4] = unsorted[start + 4], unsorted[start + 3]
        # Row 150 loses its neighbour 0: its rows stay sorted, but the
        # entry (0, 150) has no transpose.
        lopsided_indptr = g.indptr.copy()
        lopsided_indptr[151:] -= 1
        lopsided = np.delete(g.indices, start)
        for indptr, indices, message in ((g.indptr, loop, "self-loops"),
                                         (g.indptr, unsorted, "sorted and distinct"),
                                         (lopsided_indptr, lopsided, "symmetric")):
            with pytest.raises(ValueError, match=message):
                Graph(200, indptr, indices)

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="pairs"):
            Graph.from_edges(4, np.zeros((2, 3), dtype=np.int64))


class TestBlockCounters:
    def test_empty_graph(self, rng):
        g = Graph.from_edges(5, [])
        z = random_labeling(rng, 5, 3)
        assert block_counters(g, z).edge_counts.sum() == 0

    def test_single_edge_one_block(self):
        g = Graph.from_edges(3, [(0, 1)])
        z = Labeling([0, 0, 0], 1)
        c = block_counters(g, z)
        assert c.pair_counts[0, 0] == 6
        assert c.edge_counts[0, 0] == 2

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, 5))
            g = random_graph(rng, n)
            z = random_labeling(rng, n, k)
            c = block_counters(g, z)
            assert np.array_equal(c.edge_counts, brute_force_counters(g, z))
            sizes = z.sizes()
            expected_pairs = np.outer(sizes, sizes)
            np.fill_diagonal(expected_pairs, sizes * (sizes - 1))
            assert np.array_equal(c.pair_counts, expected_pairs)
            assert c.edge_counts.sum() == 2 * g.edge_count

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_dense_formula(self, data):
        # The dense route the edge-list counters replaced: M^T A M with the
        # one-hot membership matrix M, on arbitrary (repeated, reversed) pairs.
        n = data.draw(st.integers(2, 25))
        k = data.draw(st.integers(1, 4))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        pairs = data.draw(st.lists(pair, max_size=60))
        g = Graph.from_edges(n, pairs)
        z = Labeling(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), k)
        adj = np.zeros((n, n), dtype=np.int64)
        for i, j in pairs:
            adj[i, j] = adj[j, i] = 1
        member = np.zeros((n, k), dtype=np.int64)
        member[np.arange(n), z.labels] = 1
        want = member.T @ adj @ member
        c = block_counters(g, z)
        assert np.array_equal(c.edge_counts, want)
        assert np.array_equal(c.edge_counts, brute_force_counters(g, z))

    def test_tilde_accessors_halve_diagonal(self, rng):
        g = random_graph(rng, 10)
        z = random_labeling(rng, 10, 2)
        c = block_counters(g, z)
        assert np.array_equal(np.diagonal(c.tilde_edge_counts()) * 2, np.diagonal(c.edge_counts))
        off = ~np.eye(2, dtype=bool)
        assert np.array_equal(c.tilde_edge_counts()[off], c.edge_counts[off])

    def test_dimension_mismatch(self, rng):
        g = random_graph(rng, 5)
        with pytest.raises(ValueError):
            block_counters(g, random_labeling(rng, 6, 2))


class TestConfusion:
    def test_identical_labelings_diagonal(self, rng):
        z = random_labeling(rng, 20, 3)
        r = confusion(z, z)
        assert np.allclose(r.r, np.diag(z.sizes() / 20))

    def test_label_swap_antidiagonal(self, rng):
        z = random_labeling(rng, 12, 2)
        e = permuted(z, [1, 0])
        r = confusion(e, z)
        assert r.r[0, 0] == 0 and r.r[1, 1] == 0

    def test_hand_example(self):
        e = Labeling([0, 0, 1, 1, 1, 0], 2)
        z = Labeling([0, 0, 0, 1, 1, 1], 2)
        r = confusion(e, z)
        assert np.allclose(r.r, [[2 / 6, 1 / 6], [1 / 6, 2 / 6]])

    def test_marginals(self, rng):
        e = random_labeling(rng, 30, 4)
        z = random_labeling(rng, 30, 4)
        r = confusion(e, z)
        assert np.allclose(r.r.sum(axis=1), e.sizes() / 30)
        assert np.allclose(r.r.sum(axis=0), z.sizes() / 30)
        assert r.r.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_k(self, rng):
        with pytest.raises(ValueError):
            confusion(random_labeling(rng, 10, 2), random_labeling(rng, 10, 3))

    def test_diag_col_marginals_is_self_confusion(self, rng):
        e = random_labeling(rng, 25, 3)
        z = random_labeling(rng, 25, 3)
        lhs = np.diag(confusion(e, z).r.sum(axis=0))
        assert np.allclose(lhs, confusion(z, z).r, atol=1e-15)


class TestMisclassification:
    def test_identical(self, rng):
        z = random_labeling(rng, 15, 3)
        assert misclassification(z, z) == 0

    def test_any_relabeling_is_zero(self, rng):
        z = random_labeling(rng, 15, 3)
        assert misclassification(permuted(z, [2, 0, 1]), z) == 0

    def test_matches_permutation_oracle(self, rng):
        for _ in range(100):
            e = random_labeling(rng, 10, 3)
            z = random_labeling(rng, 10, 3)
            assert misclassification(e, z) == brute_force_misclassification(e, z)

    def test_symmetry(self, rng):
        for _ in range(50):
            e = random_labeling(rng, 12, 4)
            z = random_labeling(rng, 12, 4)
            assert misclassification(e, z) == misclassification(z, e)

    def test_assignment_route_agrees_with_permutations(self, rng):
        from scipy.optimize import linear_sum_assignment

        for _ in range(50):
            e = random_labeling(rng, 20, 4)
            z = random_labeling(rng, 20, 4)
            counts = confusion_counts(e, z)
            row, col = linear_sum_assignment(counts, maximize=True)
            assert misclassification(e, z) == 20 - counts[row, col].sum()

    def test_assignment_route_planted_permutation_with_flips(self, rng):
        k = 10
        assert k > graphs._PERMUTATION_LIMIT
        truth = np.repeat(np.arange(k), 20)
        sigma = rng.permutation(k)
        pred = sigma[truth]
        # One node flipped in each of seven communities: sigma stays the
        # best matching, so exactly the flips are misclassified.
        flipped = [20 * c + 3 for c in range(7)]
        for i in flipped:
            pred[i] = (pred[i] + 1) % k
        e, z = Labeling(truth, k), Labeling(pred, k)
        assert misclassification(e, z) == len(flipped)
        assert misclassification(z, e) == len(flipped)
        assert misclassification(e, Labeling(sigma[truth], k)) == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 30), k=st.integers(2, 5))
    def test_assignment_route_matches_permutations(self, seed, n, k):
        rng = np.random.default_rng(seed)
        e, z = random_labeling(rng, n, k), random_labeling(rng, n, k)
        exhaustive = misclassification(e, z)
        limit = graphs._PERMUTATION_LIMIT
        graphs._PERMUTATION_LIMIT = 1
        try:
            assigned = misclassification(e, z)
        finally:
            graphs._PERMUTATION_LIMIT = limit
        assert assigned == exhaustive == brute_force_misclassification(e, z)

    def test_zero_iff_permutation(self, rng):
        for _ in range(50):
            e = random_labeling(rng, 10, 3)
            z = random_labeling(rng, 10, 3)
            m = misclassification(e, z)
            is_perm = any(
                np.array_equal(e.labels, np.array(sigma)[z.labels])
                for sigma in itertools.permutations(range(3))
            )
            assert (m == 0) == is_perm


class TestDisagreementFraction:
    def test_identical(self, rng):
        z = random_labeling(rng, 9, 2)
        assert disagreement_fraction(z, z) == 0.0

    def test_single_disagreement(self):
        e = Labeling([0, 1, 1, 1], 2)
        z = Labeling([0, 0, 1, 1], 2)
        assert disagreement_fraction(e, z) == 1 / 4

    def test_exact_hamming_identity(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 6))
            e = random_labeling(rng, n, k)
            z = random_labeling(rng, n, k)
            assert disagreement_fraction(e, z) == hamming_distance(e, z) / n


class TestMinSize:
    def test_balanced_at_one_over_k(self):
        z = Labeling([0, 0, 1, 1, 2, 2], 3)
        assert meets_min_size(z, 1 / 3)

    def test_empty_community_fails(self):
        z = Labeling([0, 0, 0, 0], 2)
        assert not meets_min_size(z, 0.01)

    def test_tie_counts_as_satisfied(self):
        z = Labeling([0] * 3 + [1] * 7, 2)
        assert meets_min_size(z, 0.3)
        assert not meets_min_size(z, 0.31)
        assert meets_min_size(Labeling([0] * 10 + [1] * 190, 2), 0.05)
        assert not meets_min_size(Labeling([0] * 9 + [1] * 191, 2), 0.05)

    def test_alpha_range_validated(self):
        z = Labeling([0, 1], 2)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                meets_min_size(z, bad)

    def test_min_feasible_size(self):
        assert min_feasible_size(10, 0.2) == 2
        assert min_feasible_size(10, 0.25) == 3
        assert min_feasible_size(10, 0.3) == 3

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.one_of(st.sampled_from([0.05, 0.1, 0.3, 1 / 3]),
                           st.floats(0.001, 0.999)),
           n=st.integers(2, 400), k=st.integers(2, 5), offset=st.integers(-1, 1))
    @example(alpha=0.05, n=200, k=2, offset=0)
    @example(alpha=0.05, n=200, k=2, offset=-1)
    @example(alpha=0.1, n=30, k=3, offset=0)
    @example(alpha=0.3, n=10, k=2, offset=0)
    @example(alpha=1 / 3, n=9, k=3, offset=0)
    def test_min_size_rule_matches_exact_rational(self, alpha, n, k, offset):
        # The smallest community sits at, just below or just above alpha * n,
        # so exact ties are drawn often; the other nodes share the rest.
        small = min(max(round(alpha * n) + offset, 0), n)
        z = Labeling([0] * small + [1 + i % (k - 1) for i in range(n - small)], k)
        frac = Fraction(alpha).limit_denominator(10**12)
        cross = all(int(size) * frac.denominator >= frac.numerator * n for size in z.sizes())
        assert meets_min_size(z, alpha) is cross
        assert cross == (min(z.sizes()) >= min_feasible_size(z.n, alpha))


class TestLabeling:
    def test_canonical_first_occurrence(self):
        z = Labeling([2, 0, 2, 1], 3)
        assert z.canonical().labels.tolist() == [0, 1, 0, 2]

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 12), data=st.data())
    def test_canonical_equals_reference(self, k, data):
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=60))
        z = Labeling(labels, k)
        got = z.canonical()
        assert got.k == k and got.labels.dtype == np.int64
        assert got.labels.tolist() == reference_canonical(labels)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Labeling([0, 3], 2)

    def test_immutable(self, rng):
        z = random_labeling(rng, 5, 2)
        with pytest.raises(ValueError):
            z.labels[0] = 1
