"""Shared fixtures: the standard map families and a deterministic RNG."""

import numpy as np
import pytest

from spirallab.families import UnivalentMap


RATIONAL = UnivalentMap.rational([0, 1, 0.1], [1, -1])  # (z + z^2/10)/(1 - z)
# one map per family, in the order of families.FAMILIES
ALL_FAMILIES = [UnivalentMap.identity(), UnivalentMap.koebe(),
                UnivalentMap.mobius_spiral(0.25j), UnivalentMap.spiral_koebe(0.5),
                UnivalentMap.half_plane(), RATIONAL]


def standard_families():
    return {
        "identity": UnivalentMap.identity(),
        "koebe": UnivalentMap.koebe(),
        "mobius_0.3": UnivalentMap.mobius_spiral(0.3),
        "mobius_0.3i": UnivalentMap.mobius_spiral(0.3j),
        "half_plane": UnivalentMap.half_plane(),
    }


@pytest.fixture
def families():
    return standard_families()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_disk(rng, n, r_max=0.9):
    r = np.sqrt(rng.uniform(0.0, r_max**2, n))
    th = rng.uniform(0.0, 2 * np.pi, n)
    return r * np.exp(1j * th)
