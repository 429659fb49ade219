import numpy as np
import pytest

from sbmfit import Labeling, nmi

from conftest import permuted, random_labeling


def test_identical_is_exactly_one(rng):
    for _ in range(20):
        z = random_labeling(rng, 30, 3)
        if np.unique(z.labels).size < 2:
            continue
        assert nmi(z, z) == 1.0


def test_label_permutation_is_exactly_one(rng):
    for _ in range(20):
        z = random_labeling(rng, 30, 3)
        if np.unique(z.labels).size < 2:
            continue
        assert nmi(permuted(z, [1, 2, 0]), z) == 1.0


def test_independent_partitions():
    e = Labeling([0, 0, 1, 1], 2)
    z = Labeling([0, 1, 0, 1], 2)
    assert nmi(e, z) == pytest.approx(0.0, abs=1e-12)


def test_single_cluster_conventions():
    ones = Labeling([0, 0, 0, 0], 1)
    other = Labeling([0, 1, 0, 1], 2)
    assert nmi(ones, ones) == 1.0
    assert nmi(ones, other) == 0.0
    assert nmi(other, ones) == 0.0
    # declared k > 1 but only one nonempty cluster still counts as single
    flat = Labeling([1, 1, 1, 1], 3)
    assert nmi(flat, other) == 0.0


def test_different_k_allowed():
    e = Labeling([0, 0, 1, 1, 2, 2], 3)
    z = Labeling([0, 0, 0, 1, 1, 1], 2)
    value = nmi(e, z)
    assert 0.0 < value < 1.0


def test_range_on_random_pairs(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        e = random_labeling(rng, n, int(rng.integers(1, 5)))
        z = random_labeling(rng, n, int(rng.integers(1, 5)))
        value = nmi(e, z)
        assert 0.0 <= value <= 1.0


def test_symmetry(rng):
    for _ in range(50):
        e = random_labeling(rng, 25, 3)
        z = random_labeling(rng, 25, 4)
        assert nmi(e, z) == pytest.approx(nmi(z, e), abs=1e-14)


def test_length_mismatch():
    with pytest.raises(ValueError):
        nmi(Labeling([0, 1], 2), Labeling([0, 1, 0], 2))
