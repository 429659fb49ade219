import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmfit import (
    DegenerateBlockError,
    Labeling,
    ParameterError,
    SbmParams,
    confusion,
    derive_seed,
    expected_block_density,
    expected_edge_counts,
    sample,
)
from sbmfit.graphs import pair_count_matrix

from sbmfit import sampling
from sbmfit.experiments import balanced_params

from conftest import random_labeling, random_params


def two_block_params(rho=0.1):
    return SbmParams(k=2, pi=np.array([0.5, 0.5]), s=np.array([[9.0, 1.0], [1.0, 9.0]]), rho=rho)


class TestSbmParams:
    def test_rejects_bad_pi(self):
        with pytest.raises(ParameterError):
            SbmParams(k=2, pi=np.array([0.7, 0.4]), s=np.eye(2) + 1, rho=0.1)
        with pytest.raises(ParameterError):
            SbmParams(k=2, pi=np.array([1.0, 0.0]), s=np.eye(2) + 1, rho=0.1)

    def test_rejects_non_finite_entries(self):
        # NaN fails every comparison, so an order test alone lets it through.
        for pi, s in (([np.nan, 1.0], np.eye(2) + 1),
                      ([0.5, 0.5], [[np.nan, 1.0], [1.0, 2.0]]),
                      ([0.5, 0.5], [[np.inf, 1.0], [1.0, 2.0]])):
            with pytest.raises(ParameterError, match="finite"):
                SbmParams(k=2, pi=np.array(pi), s=np.array(s), rho=0.1)

    def test_rejects_probability_overflow(self):
        with pytest.raises(ParameterError):
            SbmParams(k=1, pi=np.array([1.0]), s=np.array([[5.0]]), rho=0.5)

    def test_rejects_asymmetric_s(self):
        with pytest.raises(ParameterError):
            SbmParams(k=2, pi=np.array([0.5, 0.5]), s=np.array([[1.0, 2.0], [3.0, 1.0]]), rho=0.1)

    def test_identical_columns_warn_only(self):
        with pytest.warns(UserWarning, match="identical"):
            SbmParams(k=2, pi=np.array([0.5, 0.5]), s=np.ones((2, 2)), rho=0.1)


class TestSample:
    def test_deterministic(self):
        params = two_block_params()
        z1, g1 = sample(params, 40, seed=9)
        z2, g2 = sample(params, 40, seed=9)
        assert np.array_equal(z1.labels, z2.labels)
        assert g1.edges() == g2.edges()

    def test_different_seeds_differ(self):
        params = two_block_params()
        _, g1 = sample(params, 40, seed=1)
        _, g2 = sample(params, 40, seed=2)
        assert g1.edges() != g2.edges()

    def test_near_zero_probability_gives_empty_graph(self):
        params = SbmParams(k=1, pi=np.array([1.0]), s=np.array([[1.0]]), rho=1e-9)
        _, g = sample(params, 50, seed=3)
        assert g.edge_count == 0

    def test_single_block_edge_density(self):
        p11 = 0.3
        params = SbmParams(k=1, pi=np.array([1.0]), s=np.array([[p11]]), rho=1.0)
        n = 150  # 11175 pairs
        _, g = sample(params, n, seed=5)
        pairs = n * (n - 1) / 2
        density = g.edge_count / pairs
        se = np.sqrt(p11 * (1 - p11) / pairs)
        assert abs(density - p11) <= 3 * se

    def test_community_fractions(self):
        params = two_block_params()
        n = 10**4
        z, _ = sample(SbmParams(k=2, pi=params.pi, s=params.s, rho=1e-4), n, seed=11)
        frac = z.sizes()[0] / n
        se = np.sqrt(0.25 / n)
        assert abs(frac - 0.5) <= 3 * se

    def test_rejects_tiny_n(self):
        with pytest.raises(ParameterError):
            sample(two_block_params(), 1, seed=0)


class TestExpectedBlockDensity:
    def test_identity_confusion_recovers_p(self):
        params = two_block_params()
        r_diag = np.diag(params.pi)
        from sbmfit.graphs import ConfusionMatrix

        out = expected_block_density(ConfusionMatrix(r_diag), params, n=10**9)
        off = ~np.eye(2, dtype=bool)
        assert np.allclose(out[off], params.p[off], atol=1e-12)

    def test_single_block(self):
        params = SbmParams(k=1, pi=np.array([1.0]), s=np.array([[0.4]]), rho=1.0)
        from sbmfit.graphs import ConfusionMatrix

        out = expected_block_density(ConfusionMatrix(np.array([[1.0]])), params, n=12)
        assert out[0, 0] == pytest.approx(0.4, abs=1e-12)

    def test_matches_expected_counts_oracle(self, rng):
        for _ in range(50):
            n = 12
            k = int(rng.integers(1, 4))
            params = random_params(rng, k)
            e = random_labeling(rng, n, k)
            z = random_labeling(rng, n, k)
            if (e.sizes() <= 1).any():
                continue
            density = expected_block_density(confusion(e, z), params, n)
            direct = expected_edge_counts(e, z, params)
            assert np.allclose(pair_count_matrix(e.sizes()) * density, direct, rtol=1e-10)

    def test_symmetric_output(self, rng):
        params = random_params(rng, 3)
        e = Labeling(np.repeat([0, 1, 2], 5), 3)
        z = random_labeling(rng, 15, 3)
        out = expected_block_density(confusion(e, z), params, 15)
        assert np.allclose(out, out.T, atol=1e-14)

    def test_degenerate_block_error(self, rng):
        params = two_block_params()
        e = Labeling(np.zeros(10, dtype=int), 2)  # community 1 empty
        z = random_labeling(rng, 10, 2)
        with pytest.raises(DegenerateBlockError) as err:
            expected_block_density(confusion(e, z), params, 10)
        assert hasattr(err.value, "block")


class TestExpectedEdgeCounts:
    def test_pure_blocks(self, rng):
        params = two_block_params()
        z = random_labeling(rng, 20, 2)
        expected = expected_edge_counts(z, z, params)
        assert np.allclose(expected, pair_count_matrix(z.sizes()) * params.p, rtol=1e-12)

    def test_constant_p_reduces_to_erdos_renyi(self, rng):
        p = 0.37
        with pytest.warns(UserWarning):
            params = SbmParams(k=2, pi=np.array([0.5, 0.5]), s=np.full((2, 2), p), rho=1.0)
        e = random_labeling(rng, 15, 2)
        z = random_labeling(rng, 15, 2)
        assert np.allclose(
            expected_edge_counts(e, z, params), pair_count_matrix(e.sizes()) * p, rtol=1e-12
        )

    def test_monte_carlo_mean(self):
        params = two_block_params(rho=0.08)
        n, reps = 60, 2000
        z, _ = sample(params, n, seed=21)
        e_labels = z.labels.copy()
        e_labels[:7] = (e_labels[:7] + 1) % 2
        e = Labeling(e_labels, 2)
        expected = expected_edge_counts(e, z, params)
        totals = np.zeros((2, 2))
        sq = np.zeros((2, 2))
        from sbmfit import block_counters

        for rep in range(reps):
            _, g = _resample_edges(params, z, derive_seed(77, rep))
            o = block_counters(g, e).edge_counts
            totals += o
            sq += o.astype(float) ** 2
        mean = totals / reps
        var = sq / reps - mean**2
        se = np.sqrt(var / reps)
        assert (np.abs(mean - expected) <= 3 * se + 1e-9).all()


def _resample_edges(params, z, seed):
    """Fresh edges for a fixed labeling: conditional resampling oracle."""
    n = z.n
    rng = np.random.Generator(np.random.PCG64(seed))
    p = params.p
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < p[z.labels[iu], z.labels[ju]]
    from sbmfit import Graph

    return z, Graph.from_edges(n, np.column_stack([iu[hit], ju[hit]]))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        seen = {derive_seed(5, i) for i in range(100)}
        assert len(seen) == 100


def reference_sample(params, n, seed):
    """The single-call sampler the row-block sampler replaced, kept as its oracle.

    Returns the labels and the sorted (i, j), i < j, edge list.
    """
    label_ss, edge_ss = np.random.SeedSequence(int(seed)).spawn(2)
    label_rng = np.random.Generator(np.random.PCG64(label_ss))
    edge_rng = np.random.Generator(np.random.PCG64(edge_ss))
    cum = np.cumsum(params.pi)
    labels = np.searchsorted(cum, label_rng.random(n), side="right")
    labels = np.minimum(labels, params.k - 1).astype(np.int64)
    iu, ju = np.triu_indices(n, k=1)
    hit = edge_rng.random(iu.size) < params.p[labels[iu], labels[ju]]
    return labels, list(zip(iu[hit].tolist(), ju[hit].tolist()))


class TestRowBlockSampler:
    def check(self, params, n, seed):
        z, g = sample(params, n, seed)
        labels, edges = reference_sample(params, n, seed)
        assert np.array_equal(z.labels, labels)
        assert g.edges() == edges

    def test_matches_reference_across_blocks(self):
        # n = 1201 gives 1200-pair rows and 54 rows per block, so the last
        # block is partial; n = 70 fits in one block.
        for k, n, seed in ((2, 1201, 3), (3, 600, 8), (2, 70, 1), (1, 2, 5)):
            self.check(balanced_params(k, 9.0, 1.0, min(0.1, 9.0 / n)), n, seed)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), k=st.integers(1, 3), seed=st.integers(0, 2**32),
           block_pairs=st.integers(1, 120))
    def test_matches_reference_for_any_block_size(self, n, k, seed, block_pairs):
        # Block sizes below one row's length put each row in its own block.
        params = random_params(np.random.default_rng(seed), k, rho=0.5)
        saved = sampling._BLOCK_PAIRS
        sampling._BLOCK_PAIRS = block_pairs
        try:
            self.check(params, n, seed)
        finally:
            sampling._BLOCK_PAIRS = saved
