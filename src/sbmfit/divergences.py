"""Divergences between Bernoulli/rate parameters used by the block-model objectives.

All functions accept scalars or numpy arrays and work in nats.
"""

import numpy as np

from ._cephes import xlog1py, xlogy


def _tau(x):
    return xlogy(x, x) + xlog1py(1.0 - x, -x)


def neg_bernoulli_entropy(x):
    """x*log(x) + (1-x)*log(1-x) with the 0*log(0) = 0 convention.

    Nonpositive on [0, 1], equal to 0 only at the endpoints. Evaluated one
    element at a time, with the scalar xlogy and xlog1py that equal
    scipy.special's bit for bit: callers pass k x k block densities.
    """
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(_tau, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return out if out.ndim else float(out)


def chernoff_hellinger(t, p, q):
    """Chernoff-Hellinger rate divergence (1-t)*p + t*q - p^(1-t)*q^t.

    Nonnegative for t in [0, 1] and p, q > 0; concave in t; vanishes when
    p == q. At t = 1/2 it equals (sqrt(p) - sqrt(q))^2 / 2.
    """
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = (1.0 - t) * p + t * q - p ** (1.0 - t) * q ** t
    return out if out.ndim else float(out)
