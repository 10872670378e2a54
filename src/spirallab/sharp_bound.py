"""Scalar tightness analysis for the perturbation bound: the ratio function
f(t) = ((1-|e^(-r lambda t)|)/|1 - e^(-r lambda t)|)^2, its infimum over t > 0
as read from the strict inequality margin, and critical points of f."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import horner

N_GRID = 20000  # points of each t grid: the margin and the root scan


class MarginUnderflow(RuntimeError):
    """The margin's sign is not decided in double precision."""


@dataclass(frozen=True)
class SharpParams:
    lam: complex
    r: int = 1

    def __post_init__(self):
        if self.lam.real <= 0:
            raise ValueError("Re lambda must be > 0")
        if self.r < 1:
            raise ValueError("r must be >= 1")

    @property
    def a(self):
        return self.lam.real

    @property
    def b(self):
        return self.lam.imag

    @property
    def limit_zero(self):
        # the t -> 0+ limit, also the infimum over t > 0
        return (self.a / abs(self.lam)) ** 2


def f_sharp(p: SharpParams, t):
    """f(t) for t > 0, as (expm1(-a r t) / |expm1(-lambda r t)|)^2: both
    differences from 1 keep their relative accuracy as t -> 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be > 0")
    rt = p.r * t
    out = (np.expm1(-p.a * rt) / np.abs(np.expm1(-p.lam * rt))) ** 2
    return out if out.shape else float(out)


def infimum_f(p: SharpParams, ineq):
    """inf f from the margin report of ``verify_cor_inequality``: the t -> 0
    limit when the margin is >= 0 on its grid (f >= limit there), else f at
    the margin's argmin, where f is below the limit: a witness."""
    if ineq["min_margin"] >= 0:
        return p.limit_zero
    return f_sharp(p, ineq["argmin_t"])


def cor_margin(p: SharpParams, t):
    """(1-|e^(-r lam t)|) - |1-e^(-r lam t)| Re(lam)/|lam| on an array of t > 0.
    With lam = a + ib, s = rt, g = 2 sinh(as/2), n = sin(bs/2) and
    c = 2n/b (c = s for real lambda), 1-|e^(-lam s)| = e^(-as/2) g and
    |1-e^(-lam s)| = e^(-as/2) hypot(g, 2n), so the margin is
    b^2 e^(-as/2) (g - ac)(g + ac) / (|lam| (|lam| g + a hypot(g, 2n))): its two
    terms, which agree to O(b^2) as b -> 0, never cancel.  Where s|lam| < 1,
    g - ac, whose difference would lose about 48 eps/(s|lam|)^2 relative, is
    the series as sum_k ((a/2)^2k - (-(b/2)^2)^k) s^2k/(2k+1)!, k = 1..7,
    truncated below 1e-17 relative; the product is ordered so that no factor
    underflows before the result."""
    a, b, mod = p.a, p.b, abs(p.lam)
    s = p.r * np.atleast_1d(np.asarray(t, dtype=float))
    w = 0.5 * a * s
    g, n = 2.0 * np.sinh(w), np.sin(0.5 * b * s)
    ac = 2.0 * w if b == 0 else (2.0 * a / b) * n
    gap = g - ac
    near = s < 1.0 / mod
    sn = s[near]
    sq = sn * sn
    gap[near] = a * sn * sq * horner([((0.25 * a * a) ** k - (-0.25 * b * b) ** k)
                                      / math.factorial(2 * k + 1) for k in range(1, 8)], sq)
    return (b / mod) * b * np.exp(-w) * gap * ((g + ac) / (mod * g + a * np.hypot(g, 2.0 * n)))


def verify_cor_inequality(p: SharpParams):
    """Margin report for ``cor_margin`` on a t grid.

    Positive everywhere for Im lambda != 0; identically zero for real lambda.
    MarginUnderflow is raised where the sign is not decided in double
    precision: a nonreal lambda whose minimum reads 0.0, or a t grid or margin
    that is not finite (50/(r Re lambda) or sinh overflows; a non-finite t
    makes the margin non-finite).  The margin, elementwise in t, is read in
    slices of kernels.SWEEP_BLOCK points of the whole grid, keeping the first
    minimum as np.argmin does: the report is the whole grid's, bit for bit."""
    block = kernels.SWEEP_BLOCK
    lo, i = math.inf, 0
    with np.errstate(all="ignore"):
        t_grid = np.geomspace(1e-4, 50.0 / (p.a * p.r), N_GRID)
        for start in range(0, N_GRID, block):
            margin = cor_margin(p, t_grid[start:start + block])
            if not np.isfinite(margin).all():
                raise MarginUnderflow(
                    f"the margin or its t grid is not finite for lambda = {p.lam!r}")
            j = int(np.argmin(margin))
            if margin[j] < lo:
                lo, i = float(margin[j]), start + j
    if p.b != 0 and lo == 0.0:
        raise MarginUnderflow(f"the margin underflows to 0.0 at t = {float(t_grid[i])!r}")
    return {
        "min_margin": lo,
        "argmin_t": float(t_grid[i]),
        "strict": bool(p.b != 0),
    }


class NoRootsInWindow(RuntimeError):
    pass


def _critical_residual(p: SharpParams, t):
    # f'(t) = 0  <=>  a (1+u)(1 - cos th) = b (1-u) sin th, with u = e^(-art),
    # th = brt.  (The squared cosine form admits spurious sign-flipped roots.)
    a, b, r = p.a, p.b, p.r
    u = np.exp(-a * r * t)
    th = b * r * t
    return a * (1.0 + u) * (1.0 - np.cos(th)) - b * (1.0 - u) * np.sin(th)


def _cosine_relation_gap(p: SharpParams, t):
    a, b, r = p.a, p.b, p.r
    e = np.exp(-a * r * t)
    up = a**2 * (1.0 + e) ** 2 - b**2 * (1.0 - e) ** 2
    dn = a**2 * (1.0 + e) ** 2 + b**2 * (1.0 - e) ** 2
    return abs(np.cos(b * r * t) - up / dn)


def critical_points(p: SharpParams, window):
    """Interior stationary points of f in the window: roots of the
    transcendental derivative condition, located by scan + bisection.

    Points where the oscillation phase is a full turn (f touches its maximum 1)
    are stationary too but excluded: the closed-form critical value does not
    apply there."""
    if p.b == 0:
        raise NoRootsInWindow("f is constant for real lambda")
    lo, hi = window
    t = np.linspace(lo, hi, N_GRID)
    res = _critical_residual(p, t)
    roots = []
    sign = np.sign(res)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in idx:
        a, b = t[i], t[i + 1]
        fa = _critical_residual(p, a)
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = _critical_residual(p, m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        root = 0.5 * (a + b)
        if _cosine_relation_gap(p, root) < 1e-9:
            roots.append(root)
    if not roots:
        raise NoRootsInWindow(f"no critical points in {window}")
    return roots

