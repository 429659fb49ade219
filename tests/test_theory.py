import math

import numpy as np
import pytest

from sbmfit import (
    Graph,
    Labeling,
    ParameterError,
    SbmParams,
    confusion,
    expected_edge_counts,
    edge_count_deviation,
    expected_likelihood_modularity,
    mixture_information,
    modularity_excess,
    phase_transition_constant,
    sample,
)
from sbmfit.divergences import chernoff_hellinger, neg_bernoulli_entropy
from sbmfit.experiments import balanced_params
from sbmfit.graphs import ConfusionMatrix
from sbmfit.theory import ml_identity_residual, phase_constant_from_rates

from conftest import diagonal_confusion, random_graph, random_labeling, random_params


class TestPhaseConstant:
    def test_symmetric_two_community_closed_form(self, rng):
        for _ in range(20):
            s1, s2 = rng.uniform(0.05, 10.0, size=2)
            pc = phase_constant_from_rates([0.5, 0.5], [[s1, s2], [s2, s1]])
            expected = 0.5 * (math.sqrt(s1) - math.sqrt(s2)) ** 2
            assert pc.value == pytest.approx(expected, abs=1e-9)
            assert 0.0 <= pc.argmax_t <= 1.0

    def test_balanced_k_closed_form(self, rng):
        for k in (2, 3, 4, 5):
            s1, s2 = rng.uniform(0.05, 10.0, size=2)
            pc = phase_transition_constant(balanced_params(k, s1, s2, 1e-4))
            assert pc.value == pytest.approx((math.sqrt(s1) - math.sqrt(s2)) ** 2 / k, abs=1e-9)

    def test_known_values(self):
        pc = phase_constant_from_rates([0.5, 0.5], [[4.0, 1.0], [1.0, 4.0]])
        assert pc.value == pytest.approx(0.5, abs=1e-12)
        assert pc.argmax_t == pytest.approx(0.5, abs=1e-6)
        assert pc.argmin_pair == (0, 1)
        pc3 = phase_transition_constant(balanced_params(3, 9.0, 4.0, 1e-3))
        assert pc3.value == pytest.approx(1 / 3, abs=1e-12)

    def test_asymmetric_minimum_names_the_smaller_pair(self):
        # Pairs (1, 2) and (2, 1) reach the same minimum; the lexicographically
        # smaller one is reported, with its own maximizing t.
        pc = phase_constant_from_rates([0.2, 0.3, 0.5],
                                       [[6.0, 1.0, 0.5], [1.0, 4.0, 1.5], [0.5, 1.5, 3.0]])
        assert pc.argmin_pair == (1, 2)
        assert pc.argmax_t == pytest.approx(0.48725, abs=1e-5)

    def test_identical_columns_give_zero(self):
        pc = phase_constant_from_rates([0.3, 0.7], [[2.0, 2.0], [5.0, 5.0]])
        assert pc.value == pytest.approx(0.0, abs=1e-12)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            phase_constant_from_rates([1.0], [[1.0]])

    def test_non_finite_rates_rejected(self):
        for pi, s in (([np.nan, 1.0], [[2.0, 1.0], [1.0, 2.0]]),
                      ([0.5, 0.5], [[np.nan, 1.0], [1.0, 2.0]]),
                      ([0.5, 0.5], [[np.inf, 1.0], [1.0, 2.0]])):
            with pytest.raises(ParameterError, match="finite"):
                phase_constant_from_rates(pi, s)

    def test_grid_agrees_with_ternary(self, rng):
        ts = np.linspace(0.0, 1.0, 10001)
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            pi = rng.uniform(0.2, 1.0, size=k)
            pi = pi / pi.sum()
            s = rng.uniform(0.1, 10.0, size=(k, k))
            s = (s + s.T) / 2
            pc = phase_constant_from_rates(pi, s)
            grid_val = math.inf
            for b in range(k):
                for bp in range(k):
                    if b == bp:
                        continue
                    vals = (pi[:, None] * chernoff_hellinger(ts[None, :], s[:, b, None], s[:, bp, None])).sum(axis=0)
                    grid_val = min(grid_val, float(vals.max()))
            assert pc.value == pytest.approx(grid_val, abs=1e-6)

    def test_permutation_invariance(self, rng):
        k = 4
        pi = rng.uniform(0.2, 1.0, size=k)
        pi = pi / pi.sum()
        s = rng.uniform(0.5, 5.0, size=(k, k))
        s = (s + s.T) / 2
        perm = rng.permutation(k)
        a = phase_constant_from_rates(pi, s).value
        b = phase_constant_from_rates(pi[perm], s[np.ix_(perm, perm)]).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_verdicts(self):
        pc = phase_constant_from_rates([0.5, 0.5], [[9.0, 1.0], [1.0, 9.0]])  # C = 2
        assert pc.ml_verdict()
        assert not pc.icl_verdict(2)


class TestMixtureInformation:
    def test_diagonal_confusion_is_fixed_point(self, rng):
        pi = np.array([0.3, 0.7])
        r = ConfusionMatrix(np.diag(pi))
        s = np.array([[3.0, 1.0], [1.0, 3.0]])
        assert mixture_information(ConfusionMatrix(diagonal_confusion(r)), s) == pytest.approx(
            mixture_information(r, s), abs=1e-14
        )

    def test_constant_s_carries_no_signal(self, rng):
        for _ in range(20):
            k = 3
            counts = rng.integers(1, 10, size=(k, k))
            r = ConfusionMatrix(counts / counts.sum())
            s = np.full((k, k), 2.5)
            diff = mixture_information(
                ConfusionMatrix(diagonal_confusion(r)), s
            ) - mixture_information(r, s)
            assert diff == pytest.approx(0.0, abs=1e-12)

    def test_off_diagonal_mass_strictly_positive_gap(self, rng):
        s = np.array([[4.0, 1.0], [1.0, 4.0]])
        for _ in range(20):
            pi = rng.uniform(0.3, 0.7)
            noise = 0.05
            r = np.array([[pi - noise, noise], [noise, 1 - pi - noise]])
            rr = ConfusionMatrix(r)
            gap = mixture_information(ConfusionMatrix(diagonal_confusion(rr)), s) - mixture_information(rr, s)
            assert gap > 0.0

    def test_never_negative_on_random_confusions(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 5))
            counts = rng.integers(0, 8, size=(k, k)) + np.eye(k, dtype=int)
            r = ConfusionMatrix(counts / counts.sum())
            s = rng.uniform(0.2, 4.0, size=(k, k))
            s = (s + s.T) / 2
            gap = mixture_information(ConfusionMatrix(diagonal_confusion(r)), s) - mixture_information(r, s)
            assert gap >= -1e-11


class TestExpectedLikelihoodModularity:
    def test_self_confusion_matches_counter_form(self, rng):
        params = random_params(rng, 3, rho=0.4)
        for _ in range(20):
            z = random_labeling(rng, 24, 3)
            if (z.sizes() <= 1).any():
                continue
            r = confusion(z, z)
            got = expected_likelihood_modularity(r, params, 24)
            sizes = z.sizes()
            nab = np.outer(sizes, sizes)
            np.fill_diagonal(nab, sizes * (sizes - 1))
            want = float((nab * neg_bernoulli_entropy(params.p)).sum()) / (2 * 24 * 24)
            assert got == pytest.approx(want, abs=1e-12)

    def test_constant_p_factors_out(self, rng):
        p = 0.25
        with pytest.warns(UserWarning):
            params = SbmParams(k=2, pi=np.array([0.5, 0.5]), s=np.full((2, 2), p), rho=1.0)
        z = Labeling([0] * 6 + [1] * 6, 2)
        r = confusion(z, z)
        n = 12
        row = r.r.sum(axis=1)
        weights = np.outer(row, row) - np.diag(row) / n
        want = neg_bernoulli_entropy(p) * 0.5 * weights.sum()
        assert expected_likelihood_modularity(r, params, n) == pytest.approx(want, abs=1e-12)

    def test_single_block_formula(self):
        params = SbmParams(k=1, pi=np.array([1.0]), s=np.array([[0.3]]), rho=1.0)
        r = ConfusionMatrix(np.array([[1.0]]))
        n = 9
        want = 0.5 * (1 - 1 / n) * neg_bernoulli_entropy(0.3)
        assert expected_likelihood_modularity(r, params, n) == pytest.approx(want, abs=1e-14)


class TestModularityExcess:
    def test_matched_ratios_give_zero(self):
        # 4 nodes, one block, 3 of 6 edges: ratio 1/2 equals P exactly
        params = SbmParams(k=1, pi=np.array([1.0]), s=np.array([[0.5]]), rho=1.0)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        z = Labeling([0] * 4, 1)
        assert modularity_excess(g, z, z, params) == pytest.approx(0.0, abs=1e-15)

    def test_decomposition_identity(self, rng):
        worst = 0.0
        done = 0
        while done < 200:
            n = int(rng.integers(6, 41))
            k = int(rng.integers(1, 4))
            params = random_params(rng, k)
            g = random_graph(rng, n)
            e = random_labeling(rng, n, k)
            z = random_labeling(rng, n, k)
            if (e.sizes() <= 1).any():
                continue
            worst = max(worst, ml_identity_residual(g, e, z, params))
            done += 1
        assert worst < 1e-10

    def test_self_excess_shrinks_with_n(self):
        params = balanced_params(2, 4.0, 1.0, 0.05)
        medians = []
        for n in (50, 100, 200):
            vals = []
            for rep in range(30):
                z, g = sample(params, n, seed=1000 * n + rep)
                if (z.sizes() <= 1).any():
                    continue
                vals.append(abs(modularity_excess(g, z, z, params)))
            medians.append(float(np.median(vals)))
        assert medians[0] > medians[1] > medians[2]


class TestEdgeCountDeviation:
    def test_identical_labelings_exact_zero(self, rng):
        params = random_params(rng, 2, rho=0.3)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            g = random_graph(rng, n)
            z = random_labeling(rng, n, 2)
            w = edge_count_deviation(g, z, z, params)
            assert np.all(w == 0.0)

    def test_empty_graph_single_relabel_analytic(self, rng):
        params = random_params(rng, 2, rho=0.3)
        n = 10
        g = Graph.from_edges(n, [])
        z = Labeling([0] * 5 + [1] * 5, 2)
        e_labels = z.labels.copy()
        e_labels[0] = 1
        e = Labeling(e_labels, 2)
        want = -(expected_edge_counts(e, z, params) - expected_edge_counts(z, z, params)) / n**2
        assert np.allclose(edge_count_deviation(g, e, z, params), want, atol=1e-15)
