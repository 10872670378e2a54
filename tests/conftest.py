"""Shared fixtures: the standard map families, a deterministic RNG and a
comparison of large reports."""

import json

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


def first_difference(got, want, path="report"):
    """Where json.dumps(got) and json.dumps(want) first differ, as the path of
    a key or a list index, or None where they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        if list(got) != list(want):
            return f"{path}: keys {list(got)} != {list(want)}"
        for k in got:
            d = first_difference(got[k], want[k], f"{path}[{k!r}]")
            if d:
                return d
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (a, b) in enumerate(zip(got, want)):
            d = first_difference(a, b, f"{path}[{i}]")
            if d:
                return d
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        return None
    if json.dumps(got) != json.dumps(want):
        return f"{path}: {json.dumps(got)} != {json.dumps(want)}"
    return None


def assert_same_json(got, want):
    """json.dumps(got) == json.dumps(want), failing with the first differing
    key or witness index instead of a diff of two dumps that may hold tens of
    thousands of witnesses."""
    if json.dumps(got) != json.dumps(want):
        pytest.fail(first_difference(got, want) or "the dumps differ")


def random_disk(rng, n, r_max=0.9):
    r = np.sqrt(rng.uniform(0.0, r_max**2, n))
    th = rng.uniform(0.0, 2 * np.pi, n)
    return r * np.exp(1j * th)
