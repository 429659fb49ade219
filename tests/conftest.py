import numpy as np
import pytest

from sbmfit import Graph, Labeling, SbmParams


def neighbors(g, i):
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def permuted(labeling, sigma):
    """The labeling with label a renamed sigma[a]."""
    return Labeling(np.asarray(sigma)[labeling.labels], labeling.k)


def diagonal_confusion(r):
    """Diag(R^T 1): the confusion matrix of the second labeling with itself."""
    return np.diag(r.r.sum(axis=0))


def write_params(path, params):
    """Write SbmParams in the key = value format that read_params reads."""
    lines = [f"k = {params.k}", "pi = " + ", ".join(repr(float(x)) for x in params.pi)]
    lines += ["S = " + ", ".join(repr(float(x)) for x in row) for row in params.s]
    lines.append(f"rho = {params.rho!r}")
    path.write_text("\n".join(lines) + "\n")


def random_graph(rng, n, p=0.5):
    edges = np.argwhere(np.triu(rng.random((n, n)) < p, k=1))
    return Graph.from_edges(n, edges)


def random_labeling(rng, n, k):
    return Labeling(rng.integers(0, k, size=n), k)


def reference_canonical(labels):
    """First-occurrence relabeling, one node at a time: the r-th label seen becomes r."""
    mapping = {}
    return [mapping.setdefault(lab, len(mapping)) for lab in np.asarray(labels).tolist()]


def random_params(rng, k, rho=0.5):
    pi = rng.uniform(0.2, 1.0, size=k)
    pi = pi / pi.sum()
    s = rng.uniform(0.1, 1.8, size=(k, k))
    return SbmParams(k=k, pi=pi, s=(s + s.T) / 2.0, rho=rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
