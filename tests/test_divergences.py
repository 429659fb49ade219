import math

import numpy as np
from hypothesis import given, strategies as st

from sbmfit.divergences import chernoff_hellinger, neg_bernoulli_entropy

rates = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_entropy_boundary_convention():
    assert neg_bernoulli_entropy(0.0) == 0.0
    assert neg_bernoulli_entropy(1.0) == 0.0
    assert neg_bernoulli_entropy(0.5) == math.log(0.5)


@given(unit)
def test_entropy_nonpositive(x):
    assert neg_bernoulli_entropy(x) <= 0.0


@given(rates)
def test_chernoff_hellinger_vanishes_on_diagonal(p):
    for t in (0.0, 0.3, 1.0):
        assert abs(chernoff_hellinger(t, p, p)) < 1e-12


@given(unit, rates, rates)
def test_chernoff_hellinger_nonnegative(t, p, q):
    assert chernoff_hellinger(t, p, q) >= -1e-12


def test_rate_entropy_matches_sparse_limit():
    # tau(rho*x)/rho -> gamma(x) + x*log(rho) as rho -> 0, where
    # gamma(x) = x*log(x) - x is the rate entropy of the sparse regime.
    x = 0.7
    gamma = x * math.log(x) - x
    for rho in (1e-5, 1e-7):
        lhs = neg_bernoulli_entropy(rho * x) / rho - x * math.log(rho)
        assert abs(lhs - gamma) < 1e-3 * max(1, abs(gamma))


def test_concavity_of_chernoff_hellinger_in_t():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p, q = rng.uniform(0.05, 5.0, size=2)
        t = np.linspace(0, 1, 21)
        vals = chernoff_hellinger(t, p, q)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert (second <= 1e-12).all()
