"""Tests for the sharp-coefficient scalar function and its infimum."""

import numpy as np
import pytest

from spirallab.sharp_bound import (
    N_GRID,
    NoRootsInWindow,
    SharpParams,
    cor_margin,
    critical_points,
    f_sharp,
    infimum_f,
    verify_cor_inequality,
)


def test_params_split():
    p = SharpParams(lam=2 - 3j, r=1.0)
    assert p.a == 2.0 and p.b == -3.0
    assert abs(p.limit_zero - 4.0 / 13.0) < 1e-15


def test_f_real_lambda_is_one():
    """b = 0 collapses f to the constant 1."""
    p = SharpParams(lam=1.5, r=2.0)
    ts = np.geomspace(1e-8, 50.0, 200)
    assert np.max(np.abs(f_sharp(p, ts) - 1.0)) < 1e-12


def test_f_value_at_full_turn():
    """lam = 1+i, r = 1: at t = 2 pi the phase winds fully, |1-e^{-lam t}|
    = 1 - e^{-t} and f = 1."""
    p = SharpParams(lam=1 + 1j, r=1.0)
    assert abs(f_sharp(p, 2 * np.pi) - 1.0) < 1e-12


def test_f_small_t_series_continuity():
    """f is continuous at small t and close to its t -> 0 limit there."""
    p = SharpParams(lam=1 + 2j, r=1.0)
    t = 1e-6 / abs(p.lam)
    lo = f_sharp(p, t * 0.99)
    hi = f_sharp(p, t * 1.01)
    assert abs(lo - hi) < 1e-8
    assert abs(lo - p.limit_zero) < 1e-5


def test_limit_zero_is_infimum():
    """inf f = (Re lam / |lam|)^2, approached as t -> 0 but not attained."""
    for lam in (1 + 1j, 2 - 3j, 0.5 + 5j):
        for r in (1.0, 2.0, 3.0):
            p = SharpParams(lam=lam, r=r)
            inf = infimum_f(p, verify_cor_inequality(p))
            assert abs(inf - p.limit_zero) < 1e-3, (lam, r)
            # not attained: values stay above the limit (up to rounding for
            # tiny t, where f - limit is O(t^2) and drowns in float noise)
            ts = np.geomspace(1e-6, 30.0, 500)
            assert np.all(f_sharp(p, ts) > p.limit_zero - 1e-9)
            assert np.all(f_sharp(p, ts[ts > 1e-2]) > p.limit_zero)


def test_f_stays_above_its_limit_down_to_tiny_t():
    """f >= limit_zero to rounding (45 ulps) for t from 1e-9 up: expm1 gives
    both differences from 1 without cancellation; the margin verdict is >= 0,
    so the reported infimum is the limit itself."""
    ts = np.geomspace(1e-9, 1.0, 2000)
    for lam in (1 + 1j, 2 - 3j, 0.5 + 5j, 1e-3 + 1j):
        for r in (1, 2, 3):
            p = SharpParams(lam=lam, r=r)
            assert np.all(f_sharp(p, ts) >= p.limit_zero * (1.0 - 1e-14)), (lam, r)
            assert infimum_f(p, verify_cor_inequality(p)) == p.limit_zero, (lam, r)


def test_infimum_real_lambda():
    p = SharpParams(lam=2.0, r=1.0)
    assert infimum_f(p, verify_cor_inequality(p)) == 1.0


def test_infimum_with_a_negative_margin_is_f_at_its_argmin():
    """Where the margin is negative, f is below its limit at the same t, so the
    infimum reported is f there: a witness, not the limit."""
    p = SharpParams(lam=1 + 1j, r=2)
    ineq = {"min_margin": -1e-3, "argmin_t": 0.7, "strict": True}
    assert infimum_f(p, ineq) == f_sharp(p, 0.7)
    assert infimum_f(p, {**ineq, "min_margin": 0.0}) == p.limit_zero


def test_inequality_margin():
    """(1-|e^{-r lam t}|) >= |1-e^{-r lam t}| Re(lam)/|lam|, strict for
    Im lam != 0."""
    out = verify_cor_inequality(SharpParams(lam=1 + 1j, r=2.0))
    assert out["min_margin"] > 0 and out["strict"]
    out0 = verify_cor_inequality(SharpParams(lam=3.0, r=1.0))
    assert abs(out0["min_margin"]) < 1e-12 and not out0["strict"]


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("lam", [0.5 + 5j, 1 + 1j, 1e-3 + 1j, 1 + 1e-3j, 1 + 1e-6j,
                                 2 + 1e-5j, 1 - 2j], ids=str)
def test_cor_margin_matches_mpmath(lam, r):
    """The closed-form margin against the margin's definition in 50-digit
    arithmetic, on 60 points of the verifier's t grid, on both sides of the
    series cut s|lambda| = 1."""
    mpmath = pytest.importorskip("mpmath")
    p = SharpParams(lam=lam, r=r)
    t = np.geomspace(1e-4, 50.0 / (p.a * p.r), N_GRID)[np.linspace(0, N_GRID - 1, 60).astype(int)]
    got = cor_margin(p, t)
    with mpmath.workdps(50):
        lm = mpmath.mpc(lam)
        for ti, gi in zip(t, got):
            e = mpmath.exp(-lm * r * mpmath.mpf(ti))
            want = (1 - abs(e)) - abs(1 - e) * lm.real / abs(lm)
            assert gi > 0
            assert abs(gi - want) <= 1e-12 * want, (ti, gi, want)


@pytest.mark.parametrize("lam", [3.0, 1e-3, 1.0 + 0j])
@pytest.mark.parametrize("r", [1, 2])
def test_cor_margin_is_zero_for_real_lambda(lam, r):
    p = SharpParams(lam=lam, r=r)
    assert np.all(cor_margin(p, np.geomspace(1e-4, 50.0 / (p.a * p.r), N_GRID)) == 0.0)
    assert abs(verify_cor_inequality(p)["min_margin"]) < 1e-12


def test_critical_points_are_stationary():
    p = SharpParams(lam=1 + 1j, r=1.0)
    roots = critical_points(p, (0.1, 10.0))
    assert roots
    eps = 1e-6
    for t in roots:
        d = (f_sharp(p, t + eps) - f_sharp(p, t - eps)) / (2 * eps)
        assert abs(d) < 1e-4, (t, d)
        # closed form of f at an interior critical point
        e = np.exp(-p.a * p.r * t)
        crit = (p.a**2 + p.b**2 * (1.0 - e) ** 2 / (1.0 + e) ** 2) / (p.a**2 + p.b**2)
        assert abs(crit - f_sharp(p, t)) < 1e-9


def test_critical_points_real_lambda_raises():
    with pytest.raises(NoRootsInWindow):
        critical_points(SharpParams(lam=2.0, r=1.0), (0.1, 10.0))
