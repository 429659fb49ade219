import numpy as np
import pytest

from sbmfit import Graph, Labeling, SbmParams


def random_graph(rng, n, p=0.5):
    edges = np.argwhere(np.triu(rng.random((n, n)) < p, k=1))
    return Graph.from_edges(n, edges)


def random_labeling(rng, n, k):
    return Labeling(rng.integers(0, k, size=n), k)


def random_params(rng, k, rho=0.5):
    pi = rng.uniform(0.2, 1.0, size=k)
    pi = pi / pi.sum()
    s = rng.uniform(0.1, 1.8, size=(k, k))
    return SbmParams(k=k, pi=pi, s=(s + s.T) / 2.0, rho=rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
