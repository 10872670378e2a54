"""Reference values computed apart from spirallab.

Every function here uses closed forms written for the benchmark; none imports
the package under test.  The runner compares
the program's reports against them and turns each comparison into a count of
correct significant digits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TAU_CONJ = 0.3  # Denjoy-Wolff point of the conjugated logistic generator
DIGITS_CAP = 16.0


class CheckFailed(AssertionError):
    """A report disagrees with a reference or breaks a stated property."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def rel_err(got, want):
    """Relative error |got - want| / |want| (absolute when want is 0)."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    diff = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    return diff / scale if scale > 0 else diff


def digits(err):
    """-log10 of a relative error, capped at DIGITS_CAP."""
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


# -- disk maps of the covering-sweep workload ----------------------------------

MOBIUS_C = 0.3j
SPIRAL_P = 1.0 + cmath.exp(-1.0j)  # spiral_koebe exponent at theta = 0.5


def _spiral(z):
    return z * cmath.exp(-SPIRAL_P * cmath.log(1.0 - z))


def _spiral_d(z):
    return cmath.exp(-(SPIRAL_P + 1.0) * cmath.log(1.0 - z)) * (1.0 + (SPIRAL_P - 1.0) * z)


def _rational_inverse(w):
    # (z + 0.1 z^2)/(1 - z) = w  <=>  0.1 z^2 + (1 + w) z - w = 0
    disc = cmath.sqrt((1.0 + w) ** 2 + 0.4 * w)
    roots = [(-(1.0 + w) + s * disc) / 0.2 for s in (1.0, -1.0)]
    inside = [z for z in roots if abs(z) < 1.0]
    require(len(inside) == 1, f"rational map: {len(inside)} preimages of {w} in the disk")
    return inside[0]


# name -> (h, h', h^{-1} or None)
MAPS = {
    "identity": (lambda z: z, lambda z: 1.0 + 0j, lambda w: w),
    "koebe": (lambda z: z / (1.0 - z) ** 2,
              lambda z: (1.0 + z) / (1.0 - z) ** 3,
              lambda w: 2.0 * w / (2.0 * w + 1.0 + cmath.sqrt(4.0 * w + 1.0))),
    "half_plane": (lambda z: (1.0 - z) / (1.0 + z),
                   lambda z: -2.0 / (1.0 + z) ** 2,
                   lambda w: (1.0 - w) / (1.0 + w)),
    "mobius": (lambda z: z / (1.0 + MOBIUS_C * z),
               lambda z: 1.0 / (1.0 + MOBIUS_C * z) ** 2,
               lambda w: w / (1.0 - MOBIUS_C * w)),
    "spiral_koebe": (_spiral, _spiral_d, None),  # plain verdicts only
    "rational": (lambda z: (z + 0.1 * z * z) / (1.0 - z),
                 lambda z: (1.0 + 0.2 * z - 0.1 * z * z) / (1.0 - z) ** 2,
                 _rational_inverse),
}

# Families whose h(Omega_alpha) has a closed form: Omega_alpha is a disk
# {|x - xc| < rho} because |h'(x)|(1-|x|^2) > T is a quadratic inequality, and
# h maps it to a disk (identity, Mobius) or to the half-plane Re w > T/2.
EXACT_FAMILIES = ("identity", "half_plane", "mobius")


def covering_prediction(fam, x0, alpha, beta=None):
    """(predicted radius, centre, secondary radius or None, threshold T)."""
    h, dh, inv = MAPS[fam]
    x0 = complex(x0)
    weight0 = abs(dh(x0)) * (1.0 - abs(x0) ** 2)
    threshold = alpha * weight0
    if beta is None:
        return (1.0 - alpha) / 4.0 * weight0, h(x0), None, threshold
    centre = beta * h(x0)
    x1 = inv(centre)
    pred = (beta - alpha) / (4.0 * beta) * abs(dh(x1)) * (1.0 - abs(x1) ** 2)
    return pred, centre, (beta - alpha) / 4.0 * weight0, threshold


def exact_covering(fam, threshold, centre, grid):
    """(exact radius of the largest disk about centre inside h(Omega_alpha),
    bound on how far a polar-grid sweep of the complement can overshoot it).

    The sweep's minimum comes from a grid point in the complement; the
    complement holds a ball of radius d/2 tangent to the boundary at the
    nearest preimage x*, and every such ball holds a grid point, so the
    overshoot is at most d * max |h'| over the ball of radius d about x*, with
    d the cell diagonal (radial step < 2/nr, angular step 2 pi/nt)."""
    nr, nt = grid
    d = math.hypot(2.0 / nr, 2.0 * math.pi / nt)
    centre = complex(centre)
    if fam == "half_plane":
        edge = threshold / 2.0
        w_star = complex(edge, centre.imag)
        x_star = (1.0 - w_star) / (1.0 + w_star)
        gap = abs(1.0 + x_star) - d
        lip = 2.0 / gap ** 2 if gap > 0 else math.inf
        return centre.real - edge, lip * d
    c = MOBIUS_C if fam == "mobius" else 0j
    h = MAPS[fam][0]
    a = 1.0 + threshold * abs(c) ** 2
    xc = -threshold * c.conjugate() / a
    rho = math.sqrt((1.0 - threshold) / a + (threshold * abs(c) / a) ** 2)
    if c == 0:
        img_c, img_r = xc, rho
    else:
        pole = -1.0 / c
        mirror = xc + rho ** 2 / (pole - xc).conjugate()  # pole's mirror point
        img_c = h(mirror)                                 # image of the mirror is the centre
        img_r = abs(h(xc + rho) - img_c)
    off = centre - img_c
    w_star = img_c + img_r * (off / abs(off) if abs(off) > 0 else 1.0)
    x_star = w_star / (1.0 - c * w_star)
    gap = abs(1.0 + c * x_star) - abs(c) * d
    lip = 1.0 / gap ** 2 if gap > 0 else math.inf
    return img_r - abs(off), lip * d


# -- generators of the koenigs-genext workload ---------------------------------
# Each entry: polynomial coefficients (ascending), kind, tau, mu, the closed-form
# Koenigs map h with h' f = mu h, and its inverse.

def _conj_logistic_poly(tau):
    k = (1.0 - tau) / (tau * tau - 1.0)
    # f(z) = k (tau - z)(1 + z) = k (tau + (tau - 1) z - z^2)
    return [k * tau, k * (tau - 1.0), -k]


_T = TAU_CONJ
GENERATORS = {
    "dilation": dict(
        poly=[0.0, 1.0], kind="dilation", tau=0.0, mu=1.0,
        h=lambda z: z, hinv=lambda w: w, dh=lambda z: np.ones_like(z)),
    "logistic": dict(
        poly=[0.0, 1.0, -1.0], kind="dilation", tau=0.0, mu=1.0,
        h=lambda z: z / (1.0 - z), hinv=lambda w: w / (1.0 + w),
        dh=lambda z: 1.0 / (1.0 - z) ** 2),
    "hyperbolic": dict(
        poly=[-1.0, 0.0, 1.0], kind="hyperbolic", tau=1.0, mu=2.0,
        h=lambda z: (1.0 - z) / (1.0 + z), hinv=lambda w: (1.0 - w) / (1.0 + w),
        dh=lambda z: -2.0 / (1.0 + z) ** 2),
    "conj_logistic": dict(
        poly=_conj_logistic_poly(_T), kind="dilation", tau=_T, mu=1.0,
        h=lambda z: (_T - z) / ((1.0 - _T) * (1.0 + z)),
        hinv=lambda w: (_T - w * (1.0 - _T)) / (1.0 + w * (1.0 - _T)),
        dh=lambda z: -(1.0 + _T) / ((1.0 - _T) * (1.0 + z) ** 2)),
}


def generator_spec(name):
    g = GENERATORS[name]
    return {"poly": [[float(c), 0.0] for c in g["poly"]], "kind": g["kind"],
            "tau": [g["tau"], 0.0], "mu": [g["mu"], 0.0]}


def disk_flow(name, z0, t):
    """Closed-form flow of dz/dt = -f(z): h(z(t)) = exp(-mu t) h(z0)."""
    g = GENERATORS[name]
    return g["hinv"](np.exp(-g["mu"] * np.asarray(t)) * g["h"](np.asarray(z0, dtype=complex)))


def conjugated_invariants(name, lam, r, coef, x, y):
    """H~(x, y) = (h(x) - h'(x) Q(y)/(r lam), h'(x) y^r) for m = 1 and
    Q(y) = coef y^r; the ball flow of -fhat moves it by exp(-mu t) and
    exp(-(r lam + mu) t) respectively."""
    g = GENERATORS[name]
    d = g["dh"](x)
    q = coef * y ** r
    return g["h"](x) - d * q / (r * lam), d * y ** r


# -- sharp bound ---------------------------------------------------------------

def sharp_infimum(lam):
    """inf_t f(t) = (Re lambda / |lambda|)^2, the limit at t -> 0."""
    return (lam.real / abs(lam)) ** 2
