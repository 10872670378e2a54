"""Unit and property tests for the univalent map families."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from spirallab import kernels
from spirallab.families import (
    BranchedPower,
    PointOutsideDisk,
    UnivalentMap,
    continued_log_deriv,
    disk_automorphism,
    distortion_bounds,
    invert_map,
    normalize_at,
)

from conftest import ALL_CODES, RATIONAL, random_disk, standard_families

disk_points = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                 allow_infinity=False)


# ---------------------------------------------------------------- oracles

def test_koebe_values():
    k = UnivalentMap.koebe()
    # k(1/2) = (1/2)/(1/4) = 2, k'(1/2) = (1+1/2)/(1/2)^3 = 12
    assert abs(k.eval(0.5) - 2.0) < 1e-14
    assert abs(k.deriv(0.5) - 12.0) < 1e-14
    assert abs(k.eval(0.0)) < 1e-14
    assert abs(k.deriv(0.0) - 1.0) < 1e-14
    # k(z) = z/(1-z)^2 at z = i/2: i/2 / (1 - i/2)^2
    z = 0.5j
    assert abs(k.eval(z) - z / (1 - z) ** 2) < 1e-14


def test_mobius_spiral_values():
    h = UnivalentMap.mobius_spiral(0.3)
    z = 0.25 + 0.1j
    assert abs(h.eval(z) - z / (1 + 0.3 * z)) < 1e-14
    assert abs(h.deriv(0.0) - 1.0) < 1e-14


def test_half_plane_values():
    h = UnivalentMap.half_plane()
    # (1-z)/(1+z): 0 -> 1, maps the disk onto the right half plane
    assert abs(h.eval(0.0) - 1.0) < 1e-14
    assert abs(h.eval(0.5) - 1.0 / 3.0) < 1e-14
    zs = random_disk(np.random.default_rng(0), 200, 0.999)
    assert np.all(h.eval_array(zs).real > 0)


def test_spiral_koebe_reduces_to_koebe():
    s = UnivalentMap.spiral_koebe(0.0)
    k = UnivalentMap.koebe()
    zs = random_disk(np.random.default_rng(1), 100)
    assert np.max(np.abs(s.eval_array(zs) - k.eval_array(zs))) < 1e-13


def test_rational_matches_quotient():
    h = UnivalentMap.rational([0, 1], [1, -1])  # z / (1 - z)
    z = 0.3 - 0.2j
    assert abs(h.eval(z) - z / (1 - z)) < 1e-14
    assert abs(h.deriv(z) - 1.0 / (1 - z) ** 2) < 1e-13


def test_outside_disk_raises():
    k = UnivalentMap.koebe()
    with pytest.raises(PointOutsideDisk):
        k.eval(1.5)
    with pytest.raises(PointOutsideDisk):
        k.deriv(1.0 + 0j)


# ------------------------------------------------------------- derivatives

@pytest.mark.parametrize("name", list(standard_families()))
def test_deriv_matches_finite_difference(name):
    h = standard_families()[name]
    zs = random_disk(np.random.default_rng(2), 50, 0.85)
    eps = 1e-6
    for z in zs:
        fd = (h.eval(z + eps) - h.eval(z - eps)) / (2 * eps)
        assert abs(fd - h.deriv(z)) < 1e-6 * max(1.0, abs(h.deriv(z)))
        fd2 = (h.deriv(z + eps) - h.deriv(z - eps)) / (2 * eps)
        assert abs(fd2 - h.deriv2(z)) < 1e-5 * max(1.0, abs(h.deriv2(z)))


def test_array_paths_match_scalar(families):
    zs = random_disk(np.random.default_rng(3), 64)
    for h in families.values():
        ev = h.eval_array(zs)
        dv = h.deriv_array(zs)
        for i, z in enumerate(zs):
            assert abs(ev[i] - h.eval(z)) < 1e-13
            assert abs(dv[i] - h.deriv(z)) < 1e-13


# --------------------------------------------------------------- inversion

@pytest.mark.parametrize("name", list(standard_families()))
def test_invert_round_trip(name):
    h = standard_families()[name]
    zs = random_disk(np.random.default_rng(4), 200, 0.9)
    ws = h.eval_array(zs)
    back = h.invert_array(ws, guess=0j)
    assert np.max(np.abs(back - zs)) < 1e-9


@given(z=disk_points)
@settings(max_examples=200, deadline=None)
def test_koebe_closed_inverse_property(z):
    k = UnivalentMap.koebe()
    assert abs(k.invert(k.eval(z)) - z) < 1e-9


def test_invert_map_generic_newton():
    h = UnivalentMap.mobius_spiral(0.2 + 0.1j)
    z = 0.4 - 0.3j
    assert abs(invert_map(h, h.eval(z), guess=0.3) - z) < 1e-10


def test_rational_newton_round_trip_to_the_rim():
    """The rational family has no closed inverse: damped Newton from 0."""
    h = RATIONAL
    zs = random_disk(np.random.default_rng(12), 2000, 0.999)
    back = h.invert_array(h.eval_array(zs), guess=0j)
    assert np.max(np.abs(back - zs)) < 1e-9
    z = complex(zs[0])
    assert abs(h.invert(h.eval(z)) - z) < 1e-9


@pytest.mark.xfail(strict=True, reason="damped Newton from guess 0 stalls on ~10% of "
                   "the points of spiral_koebe(0.5) and returns NaN")
def test_spiral_koebe_newton_round_trip_from_zero():
    h = UnivalentMap.spiral_koebe(0.5)
    zs = random_disk(np.random.default_rng(13), 2000, 0.9)
    back = h.invert_array(h.eval_array(zs), guess=0j)
    assert not np.isnan(back).any()


# ------------------------------------------------------------ automorphism

@given(x0=st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                             allow_infinity=False),
       z=disk_points)
@settings(max_examples=300, deadline=None)
def test_disk_automorphism_involution(x0, z):
    # phi_{x0}(phi_{x0}(z)) = z
    w = disk_automorphism(x0, z)
    assert abs(disk_automorphism(x0, w) - z) < 1e-12


def test_disk_automorphism_endpoints():
    assert abs(disk_automorphism(0.3 + 0.4j, 0.0) - (0.3 + 0.4j)) < 1e-15
    assert abs(disk_automorphism(0.3 + 0.4j, 0.3 + 0.4j)) < 1e-15


# -------------------------------------------------------------- distortion

def test_distortion_bounds_shape():
    dlo, vlo = distortion_bounds(0.5)
    assert abs(dlo - 0.5 / 1.5**3) < 1e-15
    assert abs(vlo - 0.5 / 1.5**2) < 1e-15


@pytest.mark.parametrize("name", list(standard_families()))
def test_normalized_maps_obey_koebe_distortion(name):
    h = standard_families()[name]
    rng = np.random.default_rng(5)
    x0s = random_disk(rng, 10, 0.8)
    zs = random_disk(rng, 200, 0.95)
    for x0 in x0s:
        g = normalize_at(h, complex(x0))
        vals = np.abs(g.eval_array(zs))
        lo = np.abs(zs) / (1 + np.abs(zs)) ** 2
        hi = np.abs(zs) / (1 - np.abs(zs)) ** 2
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)


# ------------------------------------------------------------------ branch

@pytest.mark.parametrize("name", list(standard_families()))
def test_log_deriv_is_a_true_logarithm(name):
    h = standard_families()[name]
    zs = random_disk(np.random.default_rng(6), 100, 0.9)
    ld = h.log_deriv_array(zs)
    assert np.max(np.abs(np.exp(ld) - h.deriv_array(zs))) < 1e-10
    # anchored at the principal value at the origin
    l0 = h.log_deriv(0.0)
    assert abs(l0 - cmath.log(h.deriv(0.0))) < 1e-12


def test_continued_log_matches_closed_form():
    h = UnivalentMap.koebe()
    zs = random_disk(np.random.default_rng(7), 30, 0.85)
    for z in zs:
        tracked = continued_log_deriv(h, complex(z))
        assert abs(tracked - h.log_deriv(complex(z))) < 1e-9


def test_branch_continuity_along_loop():
    # log h' along a closed loop inside the disk must come back unchanged
    h = UnivalentMap.koebe()
    ts = np.linspace(0, 2 * np.pi, 400)
    path = 0.7 * np.exp(1j * ts)
    logs = h.log_deriv_array(path)
    jumps = np.abs(np.diff(logs))
    assert np.max(jumps) < 0.5
    assert abs(logs[0] - logs[-1]) < 1e-10


def test_branched_power_consistency():
    h = UnivalentMap.koebe()
    b = BranchedPower(h, 2.0)
    zs = random_disk(np.random.default_rng(8), 50, 0.8)
    for z in zs:
        v = b(complex(z))
        assert abs(v * v - h.deriv(complex(z))) < 1e-10


def test_branched_power_real_order_and_anchor():
    """A non-integer order, and an anchor away from 0 on a map whose log h'
    agrees with the principal branch there."""
    h = UnivalentMap.koebe()
    zs = random_disk(np.random.default_rng(14), 50, 0.8)
    v = BranchedPower(h, 2.5).array(zs)
    assert np.max(np.abs(v ** 2.5 / h.deriv_array(zs) - 1.0)) < 1e-12
    anchored = BranchedPower(h, 2.0, anchor=0.3 - 0.2j).array(zs)
    assert np.max(np.abs(anchored - BranchedPower(h, 2.0).array(zs))) < 1e-10


@pytest.mark.parametrize("anchor", [0j, 0.3 - 0.2j], ids=["origin", "anchored"])
def test_continued_log_arrays_match_single_points(anchor):
    """Each point keeps its own step doubling: the batched call agrees with
    one call per point, bit for bit from the origin."""
    h = RATIONAL
    zs = random_disk(np.random.default_rng(15), 300, 0.999)
    batch = continued_log_deriv(h, zs, anchor=anchor)
    single = np.array([continued_log_deriv(h, complex(z), anchor=anchor) for z in zs])
    if anchor == 0:
        assert np.array_equal(batch, single)
    else:
        assert np.max(np.abs(batch - single)) < 1e-13
    assert np.array_equal(continued_log_deriv(h, zs.reshape(20, 15), anchor=anchor),
                          batch.reshape(20, 15))


# ----------------------------------------------------------------- kernels

@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_log_deriv_exponentiates_to_deriv(h):
    """exp(log h') = h' on every family code; the rational code has no closed
    form in the kernels and goes through the continued logarithm."""
    zs = random_disk(np.random.default_rng(9), 500, 0.9)
    if h.code == 5:
        with pytest.raises(ValueError):
            kernels.log_deriv(h.code, h.params, h.num, h.den, zs)
        ld = h.log_deriv_array(zs)
    else:
        ld = kernels.log_deriv(h.code, h.params, None, None, zs)
    d = kernels.eval_deriv(h.code, h.params, h.num or None, h.den or None, zs)
    assert np.max(np.abs(np.exp(ld) / d - 1.0)) < 1e-13


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_deriv2_matches_cauchy_integral(h):
    """h''(z) = 2/rho^2 * mean_k h(z + rho w^k) w^(-2k) over the n-th roots of
    unity w (the trapezoid rule of Cauchy's formula, exact to rounding here)."""
    n = 256
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    zs = random_disk(np.random.default_rng(10), 40, 0.8)
    rho = (1.0 - np.abs(zs)) / 2.0
    vals = h.eval_array(zs[:, None] + rho[:, None] * ring)
    cauchy = 2.0 / rho**2 * np.mean(vals * ring ** -2, axis=1)
    d2 = kernels.eval_deriv2(h.code, h.params, h.num or None, h.den or None, zs)
    assert np.max(np.abs(d2 - cauchy) / np.maximum(1.0, np.abs(d2))) < 1e-9


def _mp_deriv(h, z):
    """h'(z) in mpmath arithmetic, from the map's own (rounded) parameters."""
    mpmath = pytest.importorskip("mpmath")
    z = mpmath.mpc(complex(z))
    if h.code == 0:
        return mpmath.mpc(1)
    if h.code == 1:
        return (1 + z) / (1 - z) ** 3
    if h.code == 2:
        return 1 / (1 + mpmath.mpc(complex(h.params[0])) * z) ** 2
    if h.code == 3:
        p, q = (mpmath.mpc(complex(v)) for v in h.params)
        return mpmath.exp(-(p + 1) * mpmath.log(1 - z)) * (1 + q * z)
    if h.code == 4:
        return -2 / (1 + z) ** 2
    num, den = ([mpmath.mpc(complex(c)) for c in cs] for cs in (h.num, h.den))
    n, d = (sum(c * z**k for k, c in enumerate(cs)) for cs in (num, den))
    n1, d1 = (sum(k * c * z ** (k - 1) for k, c in enumerate(cs) if k) for cs in (num, den))
    return (n1 * d - n * d1) / d**2


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_abs_deriv_matches_mpmath(h):
    """The real-arithmetic |h'| of every family code agrees with h' at 40 digits
    to 1e-14 relative, out to |z| = 1 - 1e-9 (the complex path's own error on
    these points is a few 1e-15)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    rim = (1.0 - 10.0 ** rng.uniform(-9, -2, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    zs = np.concatenate([random_disk(rng, 200, 0.99), rim])
    with mpmath.workdps(40):
        exact = np.array([float(abs(_mp_deriv(h, z))) for z in zs])
    got = kernels.abs_deriv(h.code, h.params, h.num or None, h.den or None, zs)
    assert got.dtype == float
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-14
    assert np.array_equal(h.abs_deriv_array(zs), got)


@pytest.mark.parametrize("num,den", [
    (RATIONAL.num, RATIONAL.den),
    ((0.3, 1 + 0.2j, -0.1j, 0.05), (1, -0.4j, 0.1)),
    ((0j, 1), (1 + 0j,)),
], ids=["conftest", "cubic", "constant_den"])
def test_rational_kernels_match_polyval_bit_for_bit(num, den):
    """Horner on coefficients derived once per map gives numpy's polyval of
    polyder, bit for bit, for h, h' and h''."""
    zs = random_disk(np.random.default_rng(12), 1000, 0.99)
    n, n1, n2 = (P.polyval(zs, P.polyder(num, k)) for k in range(3))
    d, d1, d2 = (P.polyval(zs, P.polyder(den, k)) for k in range(3))
    u = n1 * d - n * d1
    assert np.array_equal(kernels.eval_map(5, (), num, den, zs), n / d)
    assert np.array_equal(kernels.eval_deriv(5, (), num, den, zs), u / d**2)
    assert np.array_equal(kernels.eval_deriv2(5, (), num, den, zs),
                          ((n2 * d - n * d2) * d - 2.0 * d1 * u) / d**3)


# --------------------------------------------------------------- ser/deser

def test_spec_round_trip(families):
    for h in families.values():
        again = UnivalentMap.from_spec(h.to_spec())
        zs = random_disk(np.random.default_rng(11), 20)
        assert np.max(np.abs(again.eval_array(zs) - h.eval_array(zs))) < 1e-14


def test_declared_spirallike():
    h = UnivalentMap.mobius_spiral(0.3)
    assert h.declared_spirallike(1.0)
    mu = cmath.exp(0.4j)
    assert UnivalentMap.mobius_spiral(0.9 * mu.real).declared_spirallike(mu)
    assert not UnivalentMap.mobius_spiral(0.99).declared_spirallike(1.0 + 5.0j)
