"""Unit and property tests for the univalent map families."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from spirallab import kernels
from spirallab.extensions import BallSpace, sample_ball
from spirallab.families import (
    BranchedPower,
    NoConvergence,
    PointOutsideDisk,
    UnivalentMap,
    _conformal_radius_array,
    continued_log_deriv,
    disk_automorphism,
    invert_map,
    newton_invert,
    normalize_at,
    roots_inside,
)
from spirallab.semigroups import Generator, koenigs, spirallike_margin

from conftest import ALL_FAMILIES, RATIONAL, random_disk, standard_families

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


@pytest.mark.parametrize("deg", [0, 1, 4])
def test_horner_is_the_plain_recurrence_bit_for_bit(deg):
    """kernels.horner starts from c[-1] z + c[-2], the first step of the
    recurrence acc = c[k] + acc z from acc = c[-1]: the same floating-point
    operations, so the same bits."""
    rng = np.random.default_rng(deg)
    c = tuple(complex(*rng.normal(size=2)) for _ in range(deg + 1))
    z = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    acc = c[-1] + z * 0
    for v in c[-2::-1]:
        acc = v + acc * z
    got = kernels.horner(c, z)
    assert got.shape == z.shape
    assert got.tobytes() == acc.tobytes()


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


# ---------------------------------------------------------------- protocol

PROTOCOL = ("eval", "deriv", "eval_array", "deriv_array", "abs_deriv_array", "invert",
            "invert_array", "conformal_radius_array", "spiral_multiplier")
TWINS = ("eval", "deriv", "deriv2", "log_deriv")


def _protocol_maps():
    koenigs_gen = Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0)
    shifted_gen = Generator([-0.3, 1.09, -0.3], kind="dilation", tau=0.3,
                            mu=0.91)
    return {"univalent": UnivalentMap.mobius_spiral(0.3j),
            "normalized": normalize_at(UnivalentMap.koebe(), 0.3 + 0.2j),
            "koenigs": koenigs(koenigs_gen),
            "conjugated": koenigs(shifted_gen)}


@pytest.mark.parametrize("name", ["univalent", "normalized", "koenigs", "conjugated"])
def test_every_disk_map_has_the_whole_protocol(name):
    """disk_map writes every protocol member onto the map's own class, where
    the benchmark tracer wraps it; every map has all four scalar twins, and
    each gives the bits of its array method at one point and refuses a point
    outside the disk."""
    h = _protocol_maps()[name]
    own = vars(type(h))
    assert [m for m in PROTOCOL if m not in own] == []
    z = 0.4 - 0.3j
    for m in TWINS:
        value = getattr(h, m)(z)
        assert type(value) is complex
        array = getattr(h, f"{m}_array")(np.array([z]))
        assert np.array([value]).tobytes() == array.tobytes()
        with pytest.raises(PointOutsideDisk):
            getattr(h, m)(1.2)
    assert h.invert(h.eval(z)) == invert_map(h, h.eval(z))


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


@pytest.mark.parametrize("h,w", [
    (UnivalentMap.identity(), 1.5 + 0j),
    (UnivalentMap.koebe(), -1.0 + 0j),
    (UnivalentMap.mobius_spiral(0.5), 3.0 + 0j),
    (UnivalentMap.half_plane(), -2.0 + 0j),
    (UnivalentMap.half_plane(), -1.0 + 0j),
    (UnivalentMap.mobius_spiral(0.3j), 1 / 0.3j),
    (UnivalentMap.mobius_spiral(-0.5), -2.0 + 0j),
], ids=["identity", "koebe", "mobius", "half_plane", "half_plane_pole", "mobius_pole",
        "mobius_-0.5_pole"])
def test_closed_inverse_outside_the_image_is_nan(h, w):
    """A point outside h(D) has no preimage in the disk: the closed form's
    root off the open disk comes back as NaN, and invert_map raises; at the
    image of the pole the division by zero does not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(h.invert_array(np.array([w]))).all()
        with pytest.raises(NoConvergence, match="no preimage in the disk"):
            h.invert(w)


def test_koebe_closed_inverse_on_the_slit_is_nan():
    """The Koebe slit w <= -1/4, with either sign of zero, is the image of
    the circle: its closed-form root is on the circle, and rounding does not
    bring it inside the disk."""
    w = -np.concatenate([[0.25, 1.0], np.geomspace(0.25, 1e8, 500)]) + 0j
    assert np.isnan(UnivalentMap.koebe().invert_array(np.concatenate([w, np.conj(w)]))).all()


CLOSED_FORMS = [h for h in ALL_FAMILIES if h.family in ("mobius_spiral", "half_plane")]


@pytest.mark.parametrize("h", CLOSED_FORMS + [UnivalentMap.mobius_spiral(-0.7 + 0.2j)],
                         ids=lambda h: f"{h.family}{h.params}")
def test_closed_form_conformal_radius_matches_the_default(h):
    """kernels.conformal_radius, from w alone, agrees with disk_map's default
    |h'(x)|(1 - |x|^2) at x = h^-1(w) out to |x| = 0.995, within 16 eps /
    (1 - |x|^2): the default's own cancellation in 1 - |x|^2 (at most 6 of
    these units is seen)."""
    rng = np.random.default_rng(22)
    rim = (1.0 - 10.0 ** rng.uniform(-2.3, -0.5, 2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    xs = np.concatenate([random_disk(rng, 2000, 0.995), rim])
    xs = xs[np.abs(xs) <= 0.995]
    ws = h.eval_array(xs)
    closed = h.conformal_radius_array(ws)
    assert closed.dtype == float
    default = _conformal_radius_array(h, ws)
    eps = np.finfo(float).eps
    assert np.all(np.abs(closed / default - 1.0) <= 16 * eps / (1.0 - np.abs(xs) ** 2))


@pytest.mark.parametrize("h,ws", [
    (UnivalentMap.mobius_spiral(0.3j), [1 / 0.3j, 1 / 0.3j + 1.0]),
    (UnivalentMap.mobius_spiral(0.5), [2.0, 3.0]),
    (UnivalentMap.half_plane(), np.concatenate([[-1.0, -2.0 + 1.0j, 0.0],
                                                1j * np.geomspace(1e-8, 1e8, 500)])),
], ids=["mobius_pole", "mobius_real", "half_plane"])
def test_conformal_radius_off_the_image_is_nan(h, ws):
    """Points off h(D), the image of the pole (w = -1, w = 1/c) and the
    half-plane's boundary line: the closed form and disk_map's default are
    both NaN, and neither warns."""
    ws = np.asarray(ws, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(h.conformal_radius_array(ws)).all()
        assert np.isnan(_conformal_radius_array(h, ws)).all()


def test_newton_preimage_at_large_w_is_accepted_relative_to_w():
    """Two points of spiral_koebe(0.5)'s image with |w| ~ 460 and 840, whose
    preimages lie at |x| ~ 0.99 where |h'| ~ 1e5: the solves end at the
    rounding floor, residuals of a few 1e-12 (~1e-15 relative), and count as
    preimages, as NEWTON_TOL max(1, |w|) allows; an absolute NEWTON_TOL
    returned NaN for both."""
    h = UnivalentMap.spiral_koebe(0.5)
    ws = np.array([53.70017647957181 + 455.6583335429338j,
                   -170.84129064697933 - 826.8527098398375j])
    back = h.invert_array(ws)
    assert not np.isnan(back).any() and np.all(np.abs(back) < 1.0)
    res = np.abs(h.eval_array(back) - ws)
    assert np.all(res > kernels.NEWTON_TOL) and np.all(res <= kernels.NEWTON_TOL * np.abs(ws))


@pytest.mark.parametrize("h", [UnivalentMap.spiral_koebe(0.5), RATIONAL,
                               koenigs(Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0))],
                         ids=["spiral_koebe", "rational", "koenigs"])
def test_warm_start_loses_no_preimage(h):
    """invert_array from the bad start g = -x for w = h(x) finds every preimage
    the start at 0 finds, to the acceptance tolerance."""
    xs = random_disk(np.random.default_rng(29), 500, 0.99)
    ws = h.eval_array(xs)
    cold = h.invert_array(ws, guess=0j)
    warm = h.invert_array(ws, guess=-xs)
    assert not np.isnan(cold).any() and not np.isnan(warm).any()
    tol = kernels.NEWTON_TOL * np.maximum(1.0, np.abs(ws))
    assert np.all(np.abs(h.eval_array(warm) - ws) <= tol)
    assert np.max(np.abs(warm - cold)) <= 1e-9


def test_preimages_solve_a_lost_warm_start_again_from_zero():
    """Newton from 0.9 heads for the root 0.5 + sqrt(w) of (z - 0.5)^2 = w,
    outside the disk, and stalls on the clamp circle; preimages solves those
    entries again from 0, which finds the root 0.5 - sqrt(w) = x in the
    disk, bit for bit as the start at 0 alone does."""
    xs = np.array([-0.3, -0.5j, -0.2 - 0.4j])
    F, dF = (lambda z: (z - 0.5) ** 2), (lambda z: 2.0 * (z - 0.5))
    cold = kernels.preimages(F, dF, F(xs), 0j, None)
    _, res = kernels.newton(F, dF, F(xs), 0.9)
    assert np.all(res > 0.1)
    assert np.max(np.abs(cold - xs)) < 1e-12
    assert np.array_equal(kernels.preimages(F, dF, F(xs), np.full(3, 0.9 + 0j), None), cold)


@pytest.mark.parametrize("theta", [0.5, 1.0, 1.3])
def test_spiral_koebe_newton_round_trip_from_zero(theta):
    """Damped Newton from 0 alone leaves points of spiral_koebe(theta)
    unsolved; invert_array solves them on the e^(-i theta) spiral path."""
    h = UnivalentMap.spiral_koebe(theta)
    zs = random_disk(np.random.default_rng(13), 2000, 0.9)
    ws = h.eval_array(zs)
    _, res = kernels.newton(h.eval_array, h.deriv_array, ws, 0j)
    assert np.any(res > kernels.NEWTON_TOL)
    back = h.invert_array(ws, guess=0j)
    assert not np.isnan(back).any()
    assert np.max(np.abs(back - zs)) <= 1e-9


@pytest.mark.parametrize("theta", [0.5, 1.0, 1.3, 2.0, 1.2 + math.pi])
def test_spiral_koebe_multiplier_is_spirallike(theta):
    """spiral_koebe(theta) carries mu = e^(-i t), t = theta reduced into
    [-pi/2, pi/2] modulo pi, for which Re(mu h / (z h')) >= 0 on the disk
    grid; the mirror multiplier fails."""
    h, t = UnivalentMap.spiral_koebe(theta), math.remainder(theta, math.pi)
    assert h.spiral_multiplier == np.exp(-1j * t)
    assert spirallike_margin(h, h.spiral_multiplier) > 0
    assert spirallike_margin(h, np.exp(1j * t)) < 0


@pytest.mark.parametrize("theta", [2.0, 3.0, 1.2 + math.pi])
def test_spiral_koebe_has_period_pi(theta):
    """The map z(1 - z)^(-p), p = 2 e^(-i theta) cos(theta), has period pi in
    theta: theta and theta - pi build the same map, with one multiplier of
    positive real part, and a cold inverse from 0 solves all but at most 2 of
    2,000 points out to |x| = 0.999."""
    h, g = UnivalentMap.spiral_koebe(theta), UnivalentMap.spiral_koebe(theta - math.pi)
    assert h == g
    assert h.spiral_multiplier.real > 0
    ws = h.eval_array(random_disk(np.random.default_rng(49), 2000, 0.999))
    assert np.count_nonzero(np.isnan(h.invert_array(ws))) <= 2


def test_spiral_newton_walks_the_spiral():
    """spiral_newton alone, from z = e^(-8 mu) w / h'(0), solves every point."""
    h = UnivalentMap.spiral_koebe(0.5)
    zs = random_disk(np.random.default_rng(14), 500, 0.9).reshape(20, 25)
    z, res = kernels.spiral_newton(h.eval_array, h.deriv_array, h.eval_array(zs),
                                   h.spiral_multiplier, 1.0)
    assert z.shape == res.shape == zs.shape
    assert np.all(res <= kernels.NEWTON_TOL)
    assert np.max(np.abs(z - zs)) <= 1e-9


def test_spiral_newton_keeps_the_first_path_where_it_converges():
    """Entries that converge at every node of the SPIRAL_STEPS-step path come
    out bit for bit as from that plain walk; the 31 others (near the rim)
    refine their own steps from their last converged node and are solved."""
    h = UnivalentMap.spiral_koebe(0.5)
    mu = h.spiral_multiplier
    ws = h.eval_array(random_disk(np.random.default_rng(3), 3000, 0.99))
    walked, every = np.exp(-mu * kernels.SPIRAL_TAU) * ws, np.ones(ws.shape, bool)
    for tau in np.linspace(kernels.SPIRAL_TAU, 0.0, kernels.SPIRAL_STEPS + 1):
        walked, res = kernels.newton(h.eval_array, h.deriv_array, np.exp(-mu * tau) * ws, walked)
        every &= res <= kernels.NEWTON_TOL
    z, res = kernels.spiral_newton(h.eval_array, h.deriv_array, ws, mu, 1.0)
    assert (~every).sum() == 31
    assert np.array_equal(z[every], walked[every])
    assert np.all(res <= kernels.NEWTON_TOL)


def test_spiral_newton_goes_on_in_one_node_steps_past_a_failing_node(monkeypatch):
    """w = -1 lies off the image of the Koebe map, the plane minus
    (-inf, -1/4], and its path e^(-tau) w leaves the image at tau = log 4: the
    entry halves its step there down to one node, then walks the 67 nodes left
    one at a time, each from the last failed iterate, and reports its residual
    at w itself; w = 1 is solved."""
    h = UnivalentMap.koebe()
    w = np.array([-1.0, 1.0]) + 0j
    taus = []
    orig = kernels.newton

    def counted(F, dF, target, z0):
        taus.append(-np.log(np.abs(target[0])))
        return orig(F, dF, target, z0)

    monkeypatch.setattr(kernels, "newton", counted)
    z, res = kernels.spiral_newton(h.eval_array, h.deriv_array, w, 1.0, 1.0)
    nodes = np.linspace(kernels.SPIRAL_TAU, 0.0, kernels.SPIRAL_MAX_STEPS + 1)
    below = nodes[nodes < np.log(4.0)]
    assert below.size == 67
    assert np.allclose(taus[-67:], below, atol=1e-12)
    assert res[0] == np.abs(h.eval_array(z[:1]) - w[0])[0] > kernels.NEWTON_TOL
    assert abs(z[1] - (3.0 - np.sqrt(5.0)) / 2.0) < 1e-12 and res[1] <= kernels.NEWTON_TOL


def test_newton_stalled_entry_leaves_after_one_bottomed_out_halving():
    """An entry whose Newton step never lowers the residual leaves after one
    full halving (25 trial steps, down to 2^-24) and keeps its iterate; the
    other entry converges on its first step."""
    calls = []

    def F(z):
        calls.append(z.size)
        return z

    def dF(z):  # the wrong sign on the left half: every step there goes uphill
        return np.where(z.real < 0, -1.0, 1.0) + 0j

    z, res = kernels.newton(F, dF, np.array([-0.3, 0.3]) + 0j, np.array([-0.5, 0.5]))
    assert calls == [2, 2] + [1] * 24
    assert z[0] == -0.5 and abs(res[0] - 0.2) < 1e-15
    assert abs(z[1] - 0.3) < 1e-15 and res[1] <= kernels.NEWTON_TOL


def test_newton_entry_at_a_zero_of_dF_stalls():
    """A Newton step that divides by dF = 0 is not finite: that entry stalls
    at once and keeps its iterate, with no divide-by-zero warning (the suite
    turns warnings into errors) and no trial step; the other entry converges."""
    calls = []

    def F(z):
        calls.append(z.size)
        return (z - 0.5) ** 2

    z, res = kernels.newton(F, lambda z: 2.0 * (z - 0.5), np.array([0.01, 0.04]) + 0j,
                            np.array([0.5, 0.65]))
    assert calls[:2] == [2, 1]
    assert z[0] == 0.5 and res[0] == 0.01
    assert abs(z[1] - 0.7) < 1e-12 and res[1] <= kernels.NEWTON_TOL


def _newton_without_stall_exit(F, dF, w, z0):
    """kernels.newton before its stall exit: an entry whose halving bottoms
    out takes its last trial step and goes on iterating."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    z = kernels._clamp(np.atleast_1d(np.asarray(z0, dtype=complex)) * np.ones_like(w))
    z, wf = z.ravel(), w.ravel()
    resid = F(z) - wf
    act = np.flatnonzero(np.abs(resid) > kernels.NEWTON_TOL)
    for _ in range(kernels.NEWTON_MAX_ITER):
        if not act.size:
            break
        za, ra, wa = z[act], resid[act], wf[act]
        step = ra / dF(za)
        lam = np.ones(act.size)
        cand, new = np.empty_like(za), np.empty_like(za)
        todo = np.arange(act.size)
        for _ in range(25):
            c = kernels._clamp(za[todo] - lam[todo] * step[todo])
            cand[todo], new[todo] = c, F(c) - wa[todo]
            todo = todo[(np.abs(new[todo]) >= np.abs(ra[todo])) & (lam[todo] > 2.0**-24)]
            if not todo.size:
                break
            lam[todo] *= 0.5
        z[act], resid[act] = cand, new
        act = act[np.abs(new) > kernels.NEWTON_TOL]
    return z.reshape(w.shape), np.abs(resid).reshape(w.shape)


@pytest.mark.parametrize("h,r_max", [
    (UnivalentMap.spiral_koebe(0.5), 0.9),
    (RATIONAL, 0.999),
    (normalize_at(UnivalentMap.koebe(), 0.3 + 0.2j), 0.999),
], ids=["spiral_koebe", "rational", "normalized_koebe"])
def test_newton_converged_entries_unchanged_by_the_stall_exit(h, r_max):
    """The stall exit only stops entries that would not have converged here:
    the converged entries and their residuals are bit-identical to the loop
    without it."""
    ws = h.eval_array(random_disk(np.random.default_rng(3), 5000, r_max))
    z, res = kernels.newton(h.eval_array, h.deriv_array, ws, 0j)
    z_ref, res_ref = _newton_without_stall_exit(h.eval_array, h.deriv_array, ws, 0j)
    ok = res <= kernels.NEWTON_TOL
    assert np.array_equal(ok, res_ref <= kernels.NEWTON_TOL)
    assert np.array_equal(z[ok], z_ref[ok]) and np.array_equal(res[ok], res_ref[ok])


def test_normalized_map_inverts_through_its_base_map():
    """normalize_at(koebe, x0) inverts as phi(h^-1(h(x0) + scale w)), by
    Koebe's closed form: all 100 points round-trip, where damped Newton on
    the normalized map from 0 leaves 5 of them NaN."""
    g = normalize_at(UnivalentMap.koebe(), 0.3 + 0.2j)
    xs, _ = sample_ball(BallSpace(2.0, 1), 100, np.random.default_rng(47))
    xs = 0.8 * xs
    ws = g.eval_array(xs)
    back = g.invert_array(ws)
    assert not np.isnan(back).any()
    assert np.max(np.abs(back - xs)) <= 1e-13
    assert np.count_nonzero(np.isnan(newton_invert(g, ws))) == 5
    assert abs(invert_map(g, g.eval(0.5 - 0.1j)) - (0.5 - 0.1j)) <= 1e-13


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


def test_branched_power_real_order():
    """A non-integer order."""
    h = UnivalentMap.koebe()
    zs = random_disk(np.random.default_rng(14), 50, 0.8)
    v = BranchedPower(h, 2.5).array(zs)
    assert np.max(np.abs(v ** 2.5 / h.deriv_array(zs) - 1.0)) < 1e-12


def test_continued_log_arrays_match_single_points():
    """Each point keeps its own step doubling: the batched call agrees with
    one call per point, bit for bit."""
    h = RATIONAL
    zs = random_disk(np.random.default_rng(15), 300, 0.999)
    batch = continued_log_deriv(h, zs)
    single = np.array([continued_log_deriv(h, complex(z)) for z in zs])
    assert np.array_equal(batch, single)
    assert np.array_equal(continued_log_deriv(h, zs.reshape(20, 15)), batch.reshape(20, 15))


# ----------------------------------------------------------------- kernels

@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_log_deriv_exponentiates_to_deriv(h):
    """exp(log h') = h' on every family; the rational family has no closed
    form in the kernels and goes through the continued logarithm."""
    zs = random_disk(np.random.default_rng(9), 500, 0.9)
    if h.family == "rational":
        with pytest.raises(ValueError):
            kernels.log_deriv(h.family, h.params, h.num, h.den, zs)
        ld = h.log_deriv_array(zs)
    else:
        ld = kernels.log_deriv(h.family, h.params, h.num, h.den, zs)
    d = kernels.eval_deriv(h.family, h.params, h.num, h.den, zs)
    assert np.max(np.abs(np.exp(ld) / d - 1.0)) < 1e-13


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_deriv2_matches_cauchy_integral(h):
    """h''(z) = 2/rho^2 * mean_k h(z + rho w^k) w^(-2k) over the n-th roots of
    unity w (the trapezoid rule of Cauchy's formula, exact to rounding here)."""
    n = 256
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    zs = random_disk(np.random.default_rng(10), 40, 0.8)
    rho = (1.0 - np.abs(zs)) / 2.0
    vals = h.eval_array(zs[:, None] + rho[:, None] * ring)
    cauchy = 2.0 / rho**2 * np.mean(vals * ring ** -2, axis=1)
    d2 = kernels.eval_deriv2(h.family, h.params, h.num, h.den, zs)
    assert np.max(np.abs(d2 - cauchy) / np.maximum(1.0, np.abs(d2))) < 1e-9


def _mp_deriv(h, z):
    """h'(z) in mpmath arithmetic, from the map's own (rounded) parameters."""
    mpmath = pytest.importorskip("mpmath")
    z = mpmath.mpc(complex(z))
    if h.family == "identity":
        return mpmath.mpc(1)
    if h.family == "koebe":
        return (1 + z) / (1 - z) ** 3
    if h.family == "mobius_spiral":
        return 1 / (1 + mpmath.mpc(complex(h.params[0])) * z) ** 2
    if h.family == "spiral_koebe":
        p, q = (mpmath.mpc(complex(v)) for v in h.params)
        return mpmath.exp(-(p + 1) * mpmath.log(1 - z)) * (1 + q * z)
    if h.family == "half_plane":
        return -2 / (1 + z) ** 2
    num, den = ([mpmath.mpc(complex(c)) for c in cs] for cs in (h.num, h.den))
    n, d = (sum(c * z**k for k, c in enumerate(cs)) for cs in (num, den))
    n1, d1 = (sum(k * c * z ** (k - 1) for k, c in enumerate(cs) if k) for cs in (num, den))
    return (n1 * d - n * d1) / d**2


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_abs_deriv_matches_mpmath(h):
    """The real-arithmetic |h'| of every family agrees with h' at 40 digits
    to 1e-14 relative, out to |z| = 1 - 1e-9 (the complex path's own error on
    these points is a few 1e-15)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    rim = (1.0 - 10.0 ** rng.uniform(-9, -2, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    zs = np.concatenate([random_disk(rng, 200, 0.99), rim])
    with mpmath.workdps(40):
        exact = np.array([float(abs(_mp_deriv(h, z))) for z in zs])
    got = kernels.abs_deriv(h.family, h.params, h.num, h.den, zs)
    assert got.dtype == float
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-14
    assert np.array_equal(h.abs_deriv_array(zs), got)


def _clusters(radius, n):
    """(root, multiplicity 1-4) lists of at most n roots of the given modulus."""
    return st.lists(st.tuples(st.builds(lambda r, t: r * cmath.exp(1j * t), radius,
                                        st.floats(0.0, 2 * np.pi)),
                              st.integers(1, 4)), max_size=n)


@given(rim=_clusters(st.just(1.0), 3), inner=_clusters(st.floats(0.0, 0.9), 2),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
@settings(max_examples=150, deadline=None)
def test_roots_inside_are_the_roots_inside_whatever_their_multiplicity(rim, inner, scale):
    """Roots on the circle and at |z| <= 0.9, each of multiplicity 1-4 and
    0.25 or more apart, scaled by 1e-6, 1 or 1e6: roots_inside finds each
    root inside with its multiplicity, nearer to it than to any on the circle,
    though the root finder moves an m-fold root by about eps^(1/m).  (Roots
    closer together act as one root of their summed multiplicity, whose
    error the bound no longer holds from ten on.)"""
    points = [z for z, _ in rim + inner]
    assume(all(abs(a - b) >= 0.25 for i, a in enumerate(points) for b in points[:i]))
    roots = [z for z, m in rim + inner for _ in range(m)]
    got = roots_inside(tuple(scale * P.polyfromroots(roots)) if roots else (scale,))
    assert len(got) == sum(m for _, m in inner)
    for r in got:
        assert min(abs(r - z) for z, _ in inner) < min((abs(r - z) for z, _ in rim),
                                                       default=np.inf)


@pytest.mark.parametrize("roots,scale,inside", [
    ([1, 1], 1.0, 0), ([1, -1], 1.0, 0), ([1j, 1j], 1.0, 0), ([1, 1, 1], 1.0, 0),
    ([1, 1, 1, 1], 1.0, 0), ([-1, -1], 1e6, 0),
    ([1 - 1e-9], 1.0, 1), ([0.99999], 1.0, 1), ([0.999, 0.999], 1.0, 2), ([0.5, 0.5], 1.0, 2),
    ([0.9, 0.9, 0.9], 1.0, 3),
], ids=["koebe_D", "koebe_W", "double_i", "triple_1", "quadruple_1", "double_-1_scaled",
        "simple_1-1e-9", "simple_0.99999", "double_0.999", "double_0.5", "triple_0.9"])
def test_roots_inside_beyond_their_error_and_none_on_the_circle(roots, scale, inside):
    """Roots on the circle are not inside, whatever their multiplicity (a fixed
    1e-6 band took the triple and quadruple roots at 1 for roots inside); a
    simple root 1e-9 inside the circle, found to about 1e-16, is inside; and
    so is (z - 0.5)^2, solved exactly, where p'(r) = 0 and Wilkinson's m = 1
    bound is infinite, so only the least bound over m finds it."""
    assert len(roots_inside(tuple(scale * P.polyfromroots(roots)))) == inside


@pytest.mark.parametrize("num,den", [
    (RATIONAL.num, RATIONAL.den),
    ((0.3, 1 + 0.2j, -0.1j, 0.05), (1, -0.4j, 0.1)),
    ((0j, 1), (1 + 0j,)),
], ids=["conftest", "cubic", "constant_den"])
def test_rational_kernels_match_polyval_bit_for_bit(num, den):
    """Horner on coefficients derived once per map gives numpy's polyval of
    N, D, D', W = N'D - ND' and W', bit for bit, for h = N/D, h' = W/D^2 and
    h'' = (W'D - 2WD')/D^3."""
    zs = random_disk(np.random.default_rng(12), 1000, 0.99)
    wc = P.polysub(P.polymul(P.polyder(num), den), P.polymul(num, P.polyder(den)))
    assert np.array_equal(kernels._rational(num, den)[3], wc)
    n, d, d1 = (P.polyval(zs, c) for c in (num, den, P.polyder(den)))
    w, w1 = (P.polyval(zs, c) for c in (wc, P.polyder(wc)))
    assert np.array_equal(kernels.eval_map("rational", (), num, den, zs), n / d)
    assert np.array_equal(kernels.eval_deriv("rational", (), num, den, zs), w / d**2)
    assert np.array_equal(kernels.eval_deriv2("rational", (), num, den, zs),
                          (w1 * d - 2.0 * w * d1) / d**3)


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_kernels_do_not_depend_on_the_batch_size(h):
    """h, h', h'' and |h'| of 160,000 points in one call equal those of 4,000
    point chunks bit for bit: numpy would run an operator on a temporary of
    256 KiB or more in place, and an in-place complex product can round
    differently."""
    zs = random_disk(np.random.default_rng(23), 160_000, 0.99)
    fns = [kernels.eval_map, kernels.eval_deriv, kernels.eval_deriv2, kernels.abs_deriv]
    if h.family != "rational":
        fns.append(kernels.log_deriv)
    for fn in fns:
        def at(z):
            return fn(h.family, h.params, h.num, h.den, z)

        chunks = np.concatenate([at(z) for z in np.split(zs, 40)])
        assert at(zs).tobytes() == chunks.tobytes(), fn.__name__
    if h.family in ("identity", "koebe", "mobius_spiral", "half_plane"):  # the closed-form inverses and conformal radii
        ws = h.eval_array(zs)
        for fn in (lambda w: kernels.invert(h.family, h.params, h.num, h.den, w, 0j),
                   lambda w: kernels.conformal_radius(h.family, h.params, w)):
            whole = fn(ws)
            if whole is not None:
                chunks = np.concatenate([fn(w) for w in np.split(ws, 40)])
                assert whole.tobytes() == chunks.tobytes()


# --------------------------------------------------------------- ser/deser

@pytest.mark.parametrize("spec, want", [
    ({"family": "identity"}, UnivalentMap.identity()),
    ({"family": "koebe"}, UnivalentMap.koebe()),
    ({"family": "mobius_spiral", "c": [0, 0.3]}, UnivalentMap.mobius_spiral(0.3j)),
    ({"family": "mobius_spiral", "c": 0.3}, UnivalentMap.mobius_spiral(0.3)),
    ({"family": "spiral_koebe", "theta": 0.5}, UnivalentMap.spiral_koebe(0.5)),
    ({"family": "half_plane"}, UnivalentMap.half_plane()),
    ({"family": "rational", "num": [0, 1, [0.1, 0]], "den": [1, -1]}, RATIONAL),
], ids=["identity", "koebe", "mobius_0.3i", "mobius_0.3", "spiral_koebe", "half_plane",
        "rational"])
def test_spec_literal_builds_its_family(spec, want):
    h = UnivalentMap.from_spec(spec)
    assert (h.family, h.params, h.num, h.den) == (want.family, want.params, want.num, want.den)
    zs = random_disk(np.random.default_rng(11), 20)
    assert np.array_equal(h.eval_array(zs), want.eval_array(zs))

