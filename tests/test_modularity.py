import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import betaln

from sbmfit import (
    Graph,
    Labeling,
    block_counters,
    integrated_likelihood_modularity,
    likelihood_modularity,
    modularity_gap,
)
from sbmfit.modularity import LOG_BETA_HALF, icl_from_counters

from conftest import permuted, random_graph, random_labeling


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def icl_quadrature_oracle(g, z):
    """Each block's integrated likelihood by adaptive 1-d quadrature.

    Integrates p^o (1-p)^(n-o) against the Beta(1/2,1/2) density via the
    substitution p = sin(theta)^2, then sums the block logs.
    """
    from sbmfit import block_counters

    c = block_counters(g, z)
    ntil = c.tilde_pair_counts()
    otil = c.tilde_edge_counts()
    total = 0.0
    for a in range(z.k):
        for b in range(a, z.k):
            nt, ot = int(ntil[a, b]), int(otil[a, b])
            if nt == 0:
                continue
            val = quad(
                lambda th: math.sin(th) ** (2 * ot) * math.cos(th) ** (2 * (nt - ot)),
                0.0,
                math.pi / 2,
                epsabs=0.0,
                epsrel=1e-12,
                limit=200,
            )[0] * 2.0 / math.pi
            total += math.log(val)
    return total / (g.n * g.n)


class TestLikelihoodModularity:
    def test_empty_graph_is_zero(self, rng):
        g = Graph.from_edges(6, [])
        assert likelihood_modularity(g, random_labeling(rng, 6, 2)) == 0.0

    def test_complete_graph_is_zero(self, rng):
        g = complete_graph(7)
        assert likelihood_modularity(g, random_labeling(rng, 7, 3)) == 0.0

    def test_hand_value_single_block(self):
        g = Graph.from_edges(3, [(0, 1)])
        z = Labeling([0, 0, 0], 1)
        expected = (1 / 3) * ((1 / 3) * math.log(1 / 3) + (2 / 3) * math.log(2 / 3))
        assert likelihood_modularity(g, z) == pytest.approx(expected, abs=1e-12)
        assert likelihood_modularity(g, z) == pytest.approx(-0.21217, abs=1e-5)

    def test_nonpositive(self, rng):
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 25)))
            z = random_labeling(rng, g.n, int(rng.integers(1, 4)))
            assert likelihood_modularity(g, z) <= 0.0

    def test_permutation_invariance_exact(self, rng):
        for _ in range(30):
            g = random_graph(rng, 18)
            z = random_labeling(rng, 18, 3)
            zp = permuted(z, [2, 0, 1])
            assert likelihood_modularity(g, z) == likelihood_modularity(g, zp)
            assert integrated_likelihood_modularity(g, z) == integrated_likelihood_modularity(g, zp)


class TestIntegratedModularity:
    def test_hand_value_two_nodes_one_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        z = Labeling([0, 0], 1)
        expected = 0.25 * math.log(0.5)
        got = integrated_likelihood_modularity(g, z)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-0.17329, abs=1e-5)

    def test_no_edge_matches_by_symmetry(self):
        g_edge = Graph.from_edges(2, [(0, 1)])
        g_empty = Graph.from_edges(2, [])
        z = Labeling([0, 0], 1)
        assert integrated_likelihood_modularity(g_edge, z) == pytest.approx(
            integrated_likelihood_modularity(g_empty, z), abs=1e-14
        )

    def test_quadrature_oracle(self, rng):
        for _ in range(5):
            g = random_graph(rng, 20, p=float(rng.uniform(0.2, 0.7)))
            z = random_labeling(rng, 20, 3)
            got = integrated_likelihood_modularity(g, z)
            want = icl_quadrature_oracle(g, z)
            assert got == pytest.approx(want, rel=1e-6)

    def test_nonpositive(self, rng):
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 25)))
            z = random_labeling(rng, g.n, int(rng.integers(1, 4)))
            assert integrated_likelihood_modularity(g, z) <= 0.0


class TestModularityGap:
    def test_two_node_example(self):
        g = Graph.from_edges(2, [(0, 1)])
        z = Labeling([0, 0], 1)
        gap, bound = modularity_gap(g, z)
        assert gap == pytest.approx(0.17329, abs=1e-5)
        assert bound == pytest.approx((math.log(2) + 2) / 4, abs=1e-12)
        assert gap <= bound

    def test_empty_graph_gap_in_bound(self):
        for n in (2, 5, 20):
            g = Graph.from_edges(n, [])
            z = Labeling([0] * n, 1)
            gap, bound = modularity_gap(g, z)
            assert 0.0 <= gap <= bound

    def test_property_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(1, 5))
            g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.95)))
            z = random_labeling(rng, n, k)
            gap, bound = modularity_gap(g, z)
            assert 0.0 <= gap <= bound


def icl_scalar_reference(counters):
    """icl_from_counters as a scalar double loop over the upper-triangle blocks."""
    ntil = counters.tilde_pair_counts()
    otil = counters.tilde_edge_counts()
    terms = []
    for a in range(counters.k):
        for b in range(a, counters.k):
            nt, ot = int(ntil[a, b]), int(otil[a, b])
            if nt:
                terms.append(float(betaln(ot + 0.5, nt - ot + 0.5)) - LOG_BETA_HALF)
    total = float(np.sort(np.asarray(terms)).sum()) if terms else 0.0
    n = int(counters.sizes.sum())
    return total / (n * n)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 40), k=st.integers(1, 6),
       p=st.floats(0.0, 1.0))
def test_icl_matches_scalar_reference_bitwise(seed, n, k, p):
    # Small n against k up to 6 leaves communities empty or single, so blocks
    # with no pairs are drawn often.
    rng = np.random.default_rng(seed)
    c = block_counters(random_graph(rng, n, p=p), random_labeling(rng, n, k))
    assert icl_from_counters(c).hex() == icl_scalar_reference(c).hex()
