"""The scalar Cephes ports against the scipy.special ufuncs, bit for bit.

Each comparison is == on Python floats (NaN where both are NaN), over the
arguments the objectives pass and seeded samples beyond them.
"""

import math

import numpy as np
from scipy.special import betaln, gammaln, xlog1py, xlogy

from sbmfit import _cephes
from sbmfit.modularity import LOG_BETA_HALF


def assert_same_floats(got, want):
    """got[i] == want[i] for every i, or both NaN."""
    want = np.asarray(want, dtype=float).tolist()
    assert len(got) == len(want)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want))
           if not (g == w or (math.isnan(g) and math.isnan(w)))]
    assert not bad, f"{len(bad)} mismatches, first {bad[:3]}"


def seeded_densities(seed, count=100_000):
    """o / n for seeded counts 0 <= o <= n < 10^7, which hit 0 and 1 too."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 10**7, size=count)
    o = np.where(rng.random(count) < 0.5, rng.integers(0, 6, size=count),
                 np.floor(rng.random(count) * (n + 1)).astype(np.int64))
    return np.minimum(o, n) / n


class TestLgam:
    def test_integers_and_half_integers_below_2_20(self):
        x = np.concatenate([np.arange(1, 2**20), np.arange(2**20) + 0.5]).astype(float)
        assert_same_floats([_cephes.lgam(v) for v in x.tolist()], gammaln(x))

    def test_seeded_arguments_up_to_1e10(self):
        rng = np.random.default_rng(16)
        x = np.concatenate([
            rng.uniform(0.0, 20.0, size=50_000),
            np.exp(rng.uniform(math.log(1e-30), math.log(1e10), size=100_000)),
            rng.uniform(-300.0, 0.0, size=10_000),
        ])
        assert_same_floats([_cephes.lgam(v) for v in x.tolist()], gammaln(x))

    def test_branch_edges_and_special_values(self):
        x = [0.0, -0.0, -1.0, -34.0, -34.5, -35.0, 2.0, 3.0, 13.0, 1000.0, 1e8,
             np.nextafter(1e8, math.inf), 1e300, 3e305, math.inf, -math.inf, math.nan]
        assert_same_floats([_cephes.lgam(v) for v in x], gammaln(x))


class TestLogs:
    def test_log1p_and_xlog1py_on_densities(self):
        x = np.concatenate([seeded_densities(17), [0.0, 1.0, math.nan]])
        y = -x
        assert_same_floats([_cephes.log1p(v) for v in y.tolist()], xlog1py(1.0, y))
        assert_same_floats([_cephes.xlog1py(1.0 - v, -v) for v in x.tolist()],
                           xlog1py(1.0 - x, y))

    def test_xlogy_on_densities(self):
        x = np.concatenate([seeded_densities(18), [0.0, 1.0, math.nan]])
        assert_same_floats([_cephes.xlogy(v, v) for v in x.tolist()], xlogy(x, x))

    def test_log1p_outside_the_densities(self):
        y = np.concatenate([np.random.default_rng(19).uniform(-3.0, 3.0, size=20_000),
                            [-1.0, -2.0, math.inf, 1e300]])
        assert_same_floats([_cephes.log1p(v) for v in y.tolist()], xlog1py(1.0, y))

    def test_zero_times_a_log_is_zero_unless_nan(self):
        x = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.5]
        y = [0.0, -1.0, math.inf, math.nan, 0.0, -1.0, -2.0, math.nan]
        assert_same_floats([_cephes.xlogy(a, b) for a, b in zip(x, y)], xlogy(x, y))
        assert_same_floats([_cephes.xlog1py(a, b) for a, b in zip(x, y)], xlog1py(x, y))


def test_log_beta_half_literal():
    assert LOG_BETA_HALF == float(betaln(0.5, 0.5))
    # An ICL block with no pairs adds exactly +0.0 (see search.best_move).
    empty = _cephes.lgam(0.5) + _cephes.lgam(0.5) - _cephes.lgam(1.0) - LOG_BETA_HALF
    assert empty.hex() == (0.0).hex()
