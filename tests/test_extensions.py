"""Tests for the ball geometry, extension operators, and invariance sweeps."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spirallab import extensions, families, kernels
from spirallab.cli import main
from spirallab.extensions import (
    BallSpace,
    DegreeMismatch,
    HomogeneousPolynomial,
    SpiralMatrix,
    automorphism_phi,
    conjugated_action,
    covering_radius_Rt,
    extend_H,
    extend_H_arrays,
    membership_H,
    membership_H_arrays,
    muir_extend,
    sample_ball,
    semigroup_action,
    sup_norm_Q,
    verify_invariance,
)
from spirallab.families import BranchedPower, UnivalentMap, disk_map, normalize_at
from spirallab.semigroups import Generator, koenigs

from conftest import ALL_FAMILIES, RATIONAL, random_disk


def space(r=2.0, m=1):
    return BallSpace(r=r, m=m)


def q_poly(coef=0.25, r=2, m=1):
    return HomogeneousPolynomial.monomial(int(r), m, coef=coef, index=0)


# -------------------------------------------------------------------- ball

def test_gauge_and_membership():
    sp = space(2.0, 2)
    assert sp.gauge(0.5, np.array([0.5, 0.5])) < 1.0  # 0.25+0.5 < 1
    assert not sp.gauge(0.8, np.array([0.6, 0.6])) < 1.0


def test_gauge_formula():
    sp = BallSpace(r=3.0, m=1)
    g = sp.gauge(0.5j, np.array([0.5 + 0j]))
    assert abs(g - (0.25 + 0.5**3)) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fibre_norm_is_the_p_norm_bit_for_bit(m):
    """One exponent p names the fibre norm: at p = 2, inf and 3 the norm is,
    bit for bit, numpy's default vector norm, the largest modulus and the
    p-th root of the sum of p-th powers."""
    rng = np.random.default_rng(50)
    y = rng.normal(size=(500, m)) + 1j * rng.normal(size=(500, m))
    a = np.abs(y)
    for p, want in ((2.0, np.linalg.norm(y, axis=-1)), (np.inf, np.max(a, axis=-1)),
                    (3.0, np.sum(a**3.0, axis=-1) ** (1.0 / 3.0))):
        assert np.array_equal(BallSpace(r=2.0, m=m, p=p).norm(y), want)


@pytest.mark.parametrize("p", [0.5, -np.inf, np.nan])
def test_fibre_norm_refuses_p_below_1_and_nan(p):
    with pytest.raises(ValueError, match="p must lie in"):
        BallSpace(r=2.0, m=2, p=p)


def test_sample_ball_stays_interior():
    sp = space(2.0, 3)
    rng = np.random.default_rng(41)
    xs, ys = sample_ball(sp, 5000, rng)
    gauges = np.abs(xs) ** 2 + np.sum(np.abs(ys) ** 2, axis=-1)
    assert np.all(gauges < 1.0)
    # and actually fills the ball rather than hugging the center
    assert gauges.max() > 0.9


# ------------------------------------------------------------- polynomials

def test_homogeneous_eval_and_grad():
    Q = HomogeneousPolynomial.build(2, 2, {(1, 1): 0.5})  # 0.5 y1 y2
    y = np.array([2.0 + 0j, 3.0 + 0j])
    assert abs(Q.eval(y) - 3.0) < 1e-14
    g = Q.grad(y)
    assert abs(g[0] - 1.5) < 1e-14 and abs(g[1] - 1.0) < 1e-14


@given(c=st.complex_numbers(max_magnitude=2, allow_nan=False,
                            allow_infinity=False),
       y0=st.complex_numbers(max_magnitude=1, allow_nan=False,
                             allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_homogeneity_property(c, y0):
    """Q(c y) = c^r Q(y) to 1e-12."""
    Q = HomogeneousPolynomial.build(3, 2, {(2, 1): 0.7, (0, 3): -0.2j})
    y = np.array([y0, 0.4 - 0.3j])
    assert abs(Q.eval(c * y) - c**3 * Q.eval(y)) <= 1e-12


def test_degree_mismatch_raises():
    with pytest.raises(DegreeMismatch):
        HomogeneousPolynomial.build(2, 2, {(1, 2): 1.0})


def test_sup_norm_monomial():
    """sup of |y1^2| over ||y||_2 <= 1 is 1; of |y1 y2| is 1/2."""
    sp = BallSpace(r=2.0, m=2)
    q1 = HomogeneousPolynomial.monomial(2, 2, coef=1.0, index=0)
    q2 = HomogeneousPolynomial.build(2, 2, {(1, 1): 1.0})
    assert abs(sup_norm_Q(q1, sp, samples=20000) - 1.0) < 1e-3
    assert abs(sup_norm_Q(q2, sp, samples=20000) - 0.5) < 1e-3


def _sup_norm_Q_per_start(Q, space, samples=100_000, seed=0, ascent_steps=50, top=10):
    """Reference: the ascent of ``sup_norm_Q`` run one start at a time."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, Q.m)) + 1j * rng.standard_normal((samples, Q.m))
    ys = g / space.norm(g)[:, None]
    vals = np.abs(Q.eval(ys))
    best = float(np.max(vals))
    for i in np.argsort(vals)[-top:]:
        y = ys[i].copy()
        step = 0.1
        val = abs(Q.eval(y))
        for _ in range(ascent_steps):
            d = Q.eval(y) * np.conj(Q.grad(y))
            nd = np.linalg.norm(d)
            if nd == 0:
                break
            cand = y + step * d / nd
            cand = cand / space.norm(cand)
            cval = abs(Q.eval(cand))
            if cval > val:
                y, val = cand, cval
                step *= 1.2
            else:
                step *= 0.5
        best = max(best, val)
    return best


def test_sup_norm_batched_ascent_matches_per_start_loop():
    """The batched ascent follows the per-start loop to within 1e-15 relative,
    on monomials and on random Q.  It is not bit for bit: numpy rounds complex
    products of 0-d arrays and of whole arrays differently in the last bit
    (y3^3 on C^3 gives 1.0000000000000009 against 1.0000000000000007)."""
    rng = np.random.default_rng(3)
    cases = [HomogeneousPolynomial.monomial(deg, m, coef=0.25j, index=m - 1)
             for m in (1, 2, 3) for deg in (1, 2, 3)]
    for _ in range(20):
        m, deg = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        exps = [e for e in itertools.product(range(deg + 1), repeat=m) if sum(e) == deg]
        pick = rng.choice(len(exps), size=int(rng.integers(1, len(exps) + 1)), replace=False)
        cases.append(HomogeneousPolynomial.build(
            deg, m, {exps[i]: complex(*rng.standard_normal(2)) for i in pick}))
    for Q in cases:
        sp = BallSpace(r=2.0, m=Q.m)
        # 3 steps stop mid-ascent, where the result still shows the path
        for steps in (3, 50):
            ref = _sup_norm_Q_per_start(Q, sp, samples=2000, ascent_steps=steps)
            got = sup_norm_Q(Q, sp, samples=2000, ascent_steps=steps)
            assert abs(got - ref) <= 1e-15 * ref, (Q, steps)


def test_poly_spec_literal():
    Q = HomogeneousPolynomial.build(2, 2, {(1, 1): 0.5 + 0.25j})
    spec = {"degree": 2, "terms": [{"exps": [1, 1], "coef": [0.5, 0.25]}]}
    again = HomogeneousPolynomial.from_spec(spec)
    assert (again.degree, again.m, again.terms) == (Q.degree, Q.m, Q.terms)
    y = np.array([0.3 + 0.1j, -0.2j])
    assert again.eval(y) == Q.eval(y)


# --------------------------------------------------------------- operators

def test_extend_H_koebe_point():
    """H(x,y) = (k(x), k'(x)^{1/2} y) at x=1/2: (2, sqrt(12) y)."""
    sp = space(2.0, 1)
    h = UnivalentMap.koebe()
    z, w = extend_H(h, sp, 0.5, np.array([0.1]))
    assert abs(z - 2.0) < 1e-12
    assert abs(w[0] - np.sqrt(12.0) * 0.1) < 1e-12


def test_extend_H_arrays_matches_scalar():
    sp = space(2.0, 2)
    h = UnivalentMap.mobius_spiral(0.3j)
    rng = np.random.default_rng(42)
    xs, ys = sample_ball(sp, 50, rng)
    zs, ws = extend_H_arrays(h, sp, xs, ys)
    for i in range(len(xs)):
        z, w = extend_H(h, sp, xs[i], ys[i])
        assert abs(zs[i] - z) < 1e-11
        assert np.max(np.abs(ws[i] - w)) < 1e-11


def test_automorphism_round_trip():
    """The shear (z,w) -> (z + Q(w), w) inverts to machine precision; the
    fiber comes back bitwise identical."""
    Q = q_poly(0.25)
    rng = np.random.default_rng(43)
    for _ in range(100):
        z = complex(*rng.normal(size=2))
        w = rng.normal(size=1) + 1j * rng.normal(size=1)
        z1, w1 = automorphism_phi(Q, z, w)
        z2, w2 = automorphism_phi(Q, z1, w1, inverse=True)
        assert abs(z2 - z) <= 1e-14 * max(1.0, abs(z))
        assert np.all(w2 == w)


def test_muir_is_shear_of_extension():
    """muir_extend == shear automorphism composed with the plain extension."""
    sp = space(2.0, 1)
    h = UnivalentMap.koebe()
    Q = q_poly(0.25)
    rng = np.random.default_rng(44)
    xs, ys = sample_ball(sp, 50, rng)
    for i in range(len(xs)):
        zm, wm = muir_extend(h, sp, Q, xs[i], ys[i])
        zc, wc = automorphism_phi(Q, *extend_H(h, sp, xs[i], ys[i]))
        assert abs(zm - zc) < 1e-14
        assert np.max(np.abs(wm - wc)) < 1e-14


def test_semigroup_action_law():
    """A_t A_s = A_{t+s} for the diagonal spiral action, to 1e-14."""
    A = SpiralMatrix(mu=1 + 1j, lam=0.5 - 0.2j, r=2.0)
    z, w = 0.3 + 0.4j, np.array([0.2 - 0.1j])
    s, t = 0.7, 1.3
    z1, w1 = semigroup_action(A, t, z, w)
    z1, w1 = semigroup_action(A, s, z1, w1)
    z2, w2 = semigroup_action(A, s + t, z, w)
    assert abs(z1 - z2) < 1e-14
    assert np.max(np.abs(w1 - w2)) < 1e-14


def test_conjugated_action_law():
    """The sheared action also satisfies the semigroup law, to 1e-14."""
    A = SpiralMatrix(mu=1.0, lam=0.5, r=2.0)
    Q = q_poly(0.25)
    z, w = 0.3 + 0.4j, np.array([0.2 - 0.1j])
    s, t = 0.4, 1.1
    z1, w1 = conjugated_action(A, Q, t, z, w)
    z1, w1 = conjugated_action(A, Q, s, z1, w1)
    z2, w2 = conjugated_action(A, Q, s + t, z, w)
    assert abs(z1 - z2) < 1e-14
    assert np.max(np.abs(w1 - w2)) < 1e-14


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("mu,lam", [(1.0, 0.5), (1 + 0.5j, 0.7 - 0.2j), (0.3 - 1j, 2 + 1.5j)],
                         ids=["real", "complex", "fast_rotation"])
def test_conjugated_matches_shear_conjugation(mu, lam, r, m):
    """conjugated_action == shear^-1 o e^{-At} o shear on arrays of points,
    A = diag(mu, lam + mu/r), for a degree-r Q with every monomial of C^m."""
    A = SpiralMatrix(mu=mu, lam=lam, r=float(r))
    rng = np.random.default_rng(45)
    exps = [e for e in itertools.product(range(r + 1), repeat=m) if sum(e) == r]
    Q = HomogeneousPolynomial.build(r, m, {e: complex(*rng.normal(size=2)) * 0.3 for e in exps})
    z = (rng.normal(size=40) + 1j * rng.normal(size=40)) * 0.3
    w = (rng.normal(size=(40, m)) + 1j * rng.normal(size=(40, m))) * 0.3
    for t in (0.0, 0.3, 1.7):
        zs, ws = automorphism_phi(Q, *semigroup_action(A, t, *automorphism_phi(Q, z, w)),
                                  inverse=True)
        zc, wc = conjugated_action(A, Q, t, z, w)
        assert np.max(np.abs(zs - zc)) < 1e-14
        assert np.max(np.abs(ws - wc)) < 1e-14


def test_conjugated_action_rejects_degree_mismatch():
    """The closed form needs Q(c w) = c^r Q(w): a Q of another degree is
    refused, by the action and by the muir sweep that moves h'(x) Q(y)."""
    A = SpiralMatrix(mu=1.0, lam=0.5, r=2.0)
    with pytest.raises(DegreeMismatch):
        conjugated_action(A, q_poly(0.25, r=3), 0.5, 0.1, np.array([0.1]))
    with pytest.raises(DegreeMismatch):
        verify_invariance(UnivalentMap.koebe(), 1.0, 0.5, space(2.0, 1), q_poly(0.25, r=3), [0.5],
                          n_samples=10)


# ------------------------------------------------------------- membership

def test_membership_H_koebe():
    sp = space(2.0, 1)
    h = UnivalentMap.koebe()
    assert membership_H(h, sp, 2.0, np.array([1.0 + 0j]))  # image of (1/2, ...)
    assert not membership_H(h, sp, 2.0, np.array([3.0 + 0j]))
    assert not membership_H(h, sp, -0.5, np.array([0.0j]))  # off the image


def test_membership_of_near_rim_koebe_points():
    """Every extended point is a member, also where |k(x)| ~ 1e5 and rounding
    alone puts |k(x) - z| above an absolute 1e-8 (17 of these points)."""
    sp = space(1.0, 1)
    h = UnivalentMap.koebe()
    rng = np.random.default_rng(46)
    n = 200_000
    rad = rng.uniform(0.99, 0.999, n)
    xs = rad * np.exp(2j * np.pi * rng.uniform(size=n))
    ys = (0.5 * (1 - rad**2) * rng.uniform(size=n))[:, None] + 0j
    zs, ws = extend_H_arrays(h, sp, xs, ys)
    assert membership_H_arrays(h, sp, zs, sp.fibre(ws))[0].all()


def test_membership_of_a_map_without_invert_array():
    """A disk map that defines only eval_array and deriv_array (here a
    normalized map stripped of its invert_array): membership goes through the
    damped Newton invert_array that disk_map gives it, and its log_deriv_array
    is continued_log_deriv, bit for bit."""
    sp = space(2.0, 1)
    n = normalize_at(UnivalentMap.mobius_spiral(0.5), 0.3 + 0.2j)

    @disk_map
    class Stripped:
        eval_array = staticmethod(n.eval_array)
        deriv_array = staticmethod(n.deriv_array)

    g = Stripped()
    xs, ys = sample_ball(sp, 100, np.random.default_rng(47))
    assert g.log_deriv_array(xs).tobytes() == families.continued_log_deriv(g, xs).tobytes()
    zs, ws = extend_H_arrays(g, sp, xs, ys)
    assert membership_H_arrays(g, sp, zs, sp.fibre(ws))[0].all()
    # the same x with |y| = 1.01 lies outside the ball
    zs, ws = extend_H_arrays(g, sp, xs, 1.01 * ys / np.abs(ys))
    assert not membership_H_arrays(g, sp, zs, sp.fibre(ws))[0].any()


@pytest.mark.parametrize("h", [UnivalentMap.mobius_spiral(0.3j), UnivalentMap.half_plane()],
                         ids=["mobius", "half_plane"])
def test_membership_of_a_closed_form_map_does_not_evaluate_h(h, monkeypatch):
    """The Mobius and half-plane maps have their conformal radius in closed
    form, so membership neither inverts h nor evaluates it."""
    sp = space(2.0, 1)
    xs, ys = sample_ball(sp, 200, np.random.default_rng(45))
    zs, ws = extend_H_arrays(h, sp, xs, ys)
    zo = np.concatenate([zs, -zs])  # -zs: outside the half-plane image
    fibre = np.concatenate([sp.fibre(ws)] * 2)

    def forbidden(*args):
        raise AssertionError("kernels.eval_map or kernels.invert called")

    monkeypatch.setattr(kernels, "eval_map", forbidden)
    monkeypatch.setattr(kernels, "invert", forbidden)
    ok = membership_H_arrays(h, sp, zo, fibre)[0]
    assert ok[:200].all()
    if h.family == "half_plane":
        assert not ok[200:].any()


def _branch_tracked_membership(h, sp, zs, ws):
    """Residual check of its own (relative 1e-8, independent of the inverse's
    acceptance rule) and gauge of the preimage (x, w / h'(x)^(1/r)), with the
    root taken on the branch continued from the principal value at 0."""
    xs = h.invert_array(zs, guess=0j)
    ok = ~np.isnan(xs)
    xs = np.where(ok, xs, 0j)
    ok &= np.abs(h.eval_array(xs) - zs) <= 1e-8 * np.maximum(1.0, np.abs(zs))
    return ok, sp.gauge(xs, ws / BranchedPower(h, sp.r).array(xs)[:, None])


@pytest.mark.parametrize("p", [2.0, np.inf, 3.0], ids=["euclidean", "sup", "p3"])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_membership_gauge_matches_branch_tracked_definition(h, r, p):
    """|x|^2 + ||w||^r / |h'(x)| decides membership as the gauge of
    (x, w / h'(x)^(1/r)) does, also within 1e-6 of the rim; only points whose
    gauge lies within 1e-12 of 1, where rounding decides, are skipped."""
    sp = BallSpace(r=r, m=2, p=p)
    rng = np.random.default_rng(48)
    n = 600
    xs = random_disk(rng, n, 0.7)
    target = rng.uniform(0.5, 1.5, n)
    target[::3] = 1.0 + rng.uniform(-1e-6, 1e-6, target[::3].size)
    g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    ys = g / sp.norm(g)[:, None] * ((target - np.abs(xs) ** 2) ** (1.0 / r))[:, None]
    zs, ws = extend_H_arrays(h, sp, xs, ys)
    ok, gauge = _branch_tracked_membership(h, sp, zs, ws)
    keep = np.abs(gauge - 1.0) > 1e-12
    assert np.array_equal(membership_H_arrays(h, sp, zs, sp.fibre(ws))[0][keep], (ok & (gauge < 1.0))[keep])
    near = keep & ok & (np.abs(gauge - 1.0) < 1e-6)
    assert (gauge[near] < 1.0).sum() > 50 and (gauge[near] > 1.0).sum() > 50


def test_rational_membership_does_no_path_continuation(monkeypatch):
    """The gauge needs |h'| alone, so membership never continues log h'."""
    sp = space(1.5, 2)
    xs, ys = sample_ball(sp, 300, np.random.default_rng(49))
    zs, ws = extend_H_arrays(RATIONAL, sp, xs, ys)
    zo, wo = extend_H_arrays(RATIONAL, sp, xs, 1.01 * ys / sp.norm(ys)[:, None])

    def no_continuation(*args, **kwargs):
        raise AssertionError("continued_log_deriv called")

    monkeypatch.setattr(families, "continued_log_deriv", no_continuation)
    assert membership_H_arrays(RATIONAL, sp, zs, sp.fibre(ws))[0].all()
    assert not membership_H_arrays(RATIONAL, sp, zo, sp.fibre(wo))[0].any()


def test_covering_radius_Rt_identity():
    """h = id: R_t = (1 - |e^{-lam t}|^r)/4 * 1 * (1 - |z1|^2), z1 = e^{-mu t} z0,
    at every center of an array."""
    h = UnivalentMap.identity()
    A = SpiralMatrix(mu=1 + 0.5j, lam=0.7 - 0.2j, r=2.0)
    z0 = random_disk(np.random.default_rng(50), 200, 0.95)
    for t in (0.0, 0.4, 1.0, 3.0):
        rt = covering_radius_Rt(h, A, t, z0)
        z1 = np.exp(-A.mu * t) * z0
        expect = (1 - np.exp(-2 * 0.7 * t)) / 4.0 * (1 - np.abs(z1) ** 2)
        assert rt.shape == z0.shape
        assert np.max(np.abs(rt - expect)) < 1e-15


def test_covering_radius_Rt_is_nan_where_the_closed_inverse_leaves_the_disk():
    """half_plane with mu = 1 + 2i turns e^(-mu t) z0 into the left half-plane,
    outside h(D): its closed-form root lies off the disk, so R_t is NaN there
    rather than a negative radius from 1 - |x1|^2 < 0."""
    h = UnivalentMap.half_plane()
    A = SpiralMatrix(mu=1 + 2j, lam=1.0, r=1.0)
    rt = covering_radius_Rt(h, A, 1.0, np.array([1.0, 2.0, 0.5, 0.3j]))
    assert np.all(np.isnan(rt[:3]))
    assert rt[3] > 0


def test_covering_radius_Rt_is_nan_where_inversion_fails():
    """Centers whose contracted point lies outside h(D) have no preimage:
    they give NaN radii, without raising, and only they do.  h = (z + z^2/5)/2
    has no closed inverse, and |h| < 0.6 on the disk."""
    h = UnivalentMap.rational([0, 0.5, 0.1], [1])
    A = SpiralMatrix(mu=np.exp(-0.5j), lam=1.0, r=1.0)
    t = 0.5
    rng = np.random.default_rng(13)
    inside = h.eval_array(random_disk(rng, 1000, 0.99))
    outside = rng.uniform(1.0, 5.0, 1000) * np.exp(2j * np.pi * rng.uniform(size=1000))
    rt = covering_radius_Rt(h, A, t, np.exp(A.mu * t) * np.concatenate([inside, outside]))
    assert np.all(rt[:1000] > 0)
    assert np.all(np.isnan(rt[1000:]))


# -------------------------------------------------------------- invariance

def test_invariance_muir_small():
    h = UnivalentMap.koebe()
    sp = space(2.0, 1)
    out = verify_invariance(h, 1.0, 1.0, sp, q_poly(0.25), times=[0.1, 1.0],
                            n_samples=500, mode="muir", seed=3)
    assert out["pass"] and out["failures"] == 0
    assert out["checked"] == 1000


def test_invariance_gamma_small():
    h = UnivalentMap.koebe()
    sp = space(2.0, 1)
    out = verify_invariance(h, 1.0, 1.0, sp, q_poly(0.0), times=[0.5],
                            n_samples=100, mode="gamma", seed=4, n_gamma=8)
    assert out["pass"] and out["failures"] == 0


def test_invariance_detects_violation():
    """An oversized shear coefficient must produce failures: the sweep is a
    real oracle, not a rubber stamp."""
    h = UnivalentMap.koebe()
    sp = space(2.0, 1)
    out = verify_invariance(h, 1.0, 1.0, sp, q_poly(5.0), times=[0.05],
                            n_samples=400, mode="muir", seed=5)
    assert out["failures"] > 0 and not out["pass"]
    assert out["witnesses"]

@pytest.mark.parametrize("mode,n_samples,times", [
    ("muir", 300, [0.1, 0.5, 1.0, 2.0]),
    ("gamma", 100, [0.5, 2.0]),
])
def test_invariance_failures_count_every_failing_point(mode, n_samples, times):
    """failures counts every failed membership, not the capped witness list.
    spiral_koebe at theta = 0.5 is e^{-0.5i}-spirallike, not e^{+0.5i}-spirallike,
    so the sweep with mu = e^{+0.5i} has real failures."""
    h = UnivalentMap.spiral_koebe(0.5)
    sp = space(1.0, 1)
    capped, full = (verify_invariance(h, np.exp(0.5j), 1.0, sp,
                                      HomogeneousPolynomial.zero(1, 1), times=times,
                                      n_samples=n_samples, mode=mode, seed=42,
                                      n_gamma=8, max_witnesses=cap)
                    for cap in (1, 10**6))
    assert capped["failures"] == full["failures"] > 20
    assert not capped["pass"]
    assert len(capped["witnesses"]) == 1
    assert len(full["witnesses"]) == full["failures"]
    assert not any(np.isnan(w["z"]).any() for w in full["witnesses"])


@pytest.mark.parametrize("mode", ["muir", "gamma"])
def test_invariance_of_a_spirallike_map_has_no_failures(mode):
    """spiral_koebe(0.5) with its own multiplier mu = e^{-0.5i}: every base
    preimage is found on the spiral path, so nothing fails (Newton from 0
    alone left 7 base preimages NaN at t = 0.5, which made 28 of 32 gamma
    failures)."""
    out = verify_invariance(UnivalentMap.spiral_koebe(0.5), np.exp(-0.5j), 1.0,
                            space(1.0, 1), HomogeneousPolynomial.zero(1, 1),
                            times=[0.5, 2.0], n_samples=100, mode=mode, seed=42,
                            n_gamma=4)
    assert out["pass"] and out["failures"] == 0 and out["witnesses"] == []


@pytest.mark.parametrize("h,mu,lam,r,m,n,failing", [
    (RATIONAL, 1.0, 1.0, 1.0, 2, 30, False),
    # the half-plane map (1 - z)/(1 + z) as a rational map, which has no
    # conformal_radius_form, so its gamma sweep probes every point
    (UnivalentMap.rational([1, -1], [1, 1]), 1.0, 0.9 + 0.4j, 2.0, 1, 300, False),
    (UnivalentMap.spiral_koebe(0.5), np.exp(0.5j), 1.0, 1.0, 1, 300, True),
    (UnivalentMap.spiral_koebe(0.5), np.exp(0.5j), 1.0, 1.0, 2, 30, True),
], ids=["rational", "half_plane", "spiral_koebe", "spiral_koebe_m2"])
def test_gamma_blocks_of_directions_do_not_change_the_report(h, mu, lam, r, m, n, failing,
                                                             monkeypatch):
    """Gamma mode probes blocks of whole directions, at most SWEEP_BLOCK points
    a membership call, for maps without a conformal_radius_form: the report is
    the same as with one direction a call.
    spiral_koebe(0.5) with mu = e^{+0.5i} fails, so the witnesses of a tiled
    block (their w rows, m = 2 included) are compared too."""
    args = (h, mu, lam, space(r, m), HomogeneousPolynomial.zero(int(r), m),
            [0.2, 0.7, 1.5, 3.0])
    kw = dict(n_samples=n, mode="gamma", seed=9, max_witnesses=10**6)
    calls = []
    orig = extensions.membership_H_arrays

    def counted(*a, **k):
        calls.append(len(a[2]))
        return orig(*a, **k)

    monkeypatch.setattr(extensions, "membership_H_arrays", counted)
    blocked = verify_invariance(*args, **kw)
    per = kernels.SWEEP_BLOCK // n  # 136 directions for n = 30, 13 for n = 300
    assert calls == [min(per, 16 - k) * n for k in range(0, 16, per)] * 4
    monkeypatch.setattr(kernels, "SWEEP_BLOCK", 1)
    calls.clear()
    single = verify_invariance(*args, **kw)
    assert calls == [n] * 16 * 4
    assert (blocked["failures"] > 0) == failing
    assert json.dumps(blocked) == json.dumps(single)


@pytest.mark.parametrize("mode", ["muir", "gamma"])
@pytest.mark.parametrize("n", [30, 10_000])
def test_fibre_term_is_computed_once_per_time(mode, n, monkeypatch):
    """The fibre term ||w||^r = |h'(x)| ||y||^r of the membership gauge is read
    once a sweep and scaled by |e^(-(lambda + mu/r) t)|^r at each time, the same
    for every gamma direction: one BallSpace.fibre call a sweep, on the n rows
    of y, whether the 16 directions share a membership call (n = 30) or each
    gets its own (n = 10 000)."""
    calls = []
    orig = BallSpace.fibre

    def counted(self, y):
        calls.append(np.shape(y))
        return orig(self, y)

    monkeypatch.setattr(BallSpace, "fibre", counted)
    times = [0.2, 0.7, 1.5]
    out = verify_invariance(UnivalentMap.half_plane(), 1.0, 0.9 + 0.4j, space(2.0, 2),
                            q_poly(0.1, m=2), times, n_samples=n, mode=mode, seed=9)
    assert out["checked"] == n * len(times) * (16 if mode == "gamma" else 1)
    assert calls == [(n, 2)]


def test_spiral_continuation_refines_only_from_the_failed_node(monkeypatch):
    """The 200 moved points of the muir sweep of spiral_koebe(0.5) with its own
    multiplier (50 samples, seed 42, the CLI's default times), inverted from 0
    one time at a time, have entries whose spiral path fails only at its last
    node: each halves its own step from the node before, so the solves make
    49 newton calls (142 when such entries walked the whole path again at
    twice the steps) and find every preimage.  The sweep itself, whose solves
    start at each sample's preimage, passes."""
    h, mu, times = UnivalentMap.spiral_koebe(0.5), np.exp(-0.5j), [0.1, 0.5, 1.0, 2.0]
    sp, Q = space(1.0, 1), HomogeneousPolynomial.zero(1, 1)
    out = verify_invariance(h, mu, 1.0, sp, Q, times=times, n_samples=50, mode="muir", seed=42)
    assert out["pass"] and out["checked"] == 200
    A = SpiralMatrix(mu, 1.0, 1.0)
    zs, ws = extend_H_arrays(h, sp, *sample_ball(sp, 50, np.random.default_rng(42)))
    calls = []
    orig = kernels.newton

    def counted(*a):
        calls.append(np.size(a[2]))
        return orig(*a)

    monkeypatch.setattr(kernels, "newton", counted)
    xs = [h.invert_array(conjugated_action(A, Q, t, zs, ws)[0], guess=0j) for t in times]
    assert not np.isnan(xs).any()
    assert len(calls) == 49


@pytest.mark.parametrize("mode", ["muir", "gamma"])
def test_spiral_koebe_invariance_at_large_w(mode):
    """spiral_koebe(0.5) is e^(-0.5 i)-spirallike, so no moved point leaves
    H(B); the sweep reaches |w| ~ 450-1100, where Newton ends at residuals of a
    few 1e-12, which the relative acceptance counts as preimages."""
    out = verify_invariance(UnivalentMap.spiral_koebe(0.5), np.exp(-0.5j), 1.0, space(2.0, 1),
                            q_poly(0.25j), [0.5, 2.0], n_samples=2000, mode=mode, seed=17,
                            n_gamma=4)
    assert out["failures"] == 0 and out["pass"]


@pytest.mark.parametrize("mode", ["muir", "gamma"])
@pytest.mark.parametrize("h,mu", [
    (UnivalentMap.half_plane(), 1.0),
    (UnivalentMap.mobius_spiral(0.3j), np.exp(0.4j)),
    (UnivalentMap.spiral_koebe(0.5), np.exp(-0.5j)),
], ids=["half_plane", "mobius_0.3i", "spiral_koebe_0.5"])
def test_invariance_report_same_with_complex_modulus(h, mu, mode, monkeypatch):
    """Membership and R_t read the conformal radius in real arithmetic: in
    closed form from z for half_plane and mobius (on the gamma circle too),
    from |h'| at the preimage for spiral_koebe.  With disk_map's default, the
    preimage and the modulus of the complex h', in its place, and every gamma
    probe a membership test, the report is the same (spiral_koebe
    included, whose sweep reaches |z| > 450).  A gamma witness, where any, is
    built from R_t, so its z may move in the last bits; everything else, the
    counts and every membership decision included, is compared as JSON, where
    NaN witnesses match."""
    args = (h, mu, 1.0, space(2.0, 1), q_poly(0.25j), [0.5, 2.0])
    kw = dict(n_samples=2000, mode=mode, seed=17, n_gamma=4, max_witnesses=10**6)
    reports = [verify_invariance(*args, **kw)]
    calls = []

    def complex_modulus(h, z):
        calls.append(np.size(z))
        return np.abs(h.deriv_array(z))

    monkeypatch.setattr(type(h), "abs_deriv_array", complex_modulus)
    if h.family in ("half_plane", "mobius_spiral"):
        monkeypatch.setattr(type(h), "preimage_radius_array", families.preimage_radius)
        monkeypatch.setattr(type(h), "conformal_radius_array",
                            families._conformal_radius_array)
        monkeypatch.setattr(type(h), "conformal_radius_form", None)
    reports.append(verify_invariance(*args, **kw))
    assert calls
    z_fast, z_ref = (np.array([complex(*w.pop("z")) for w in rep["witnesses"]])
                     for rep in reports)
    assert json.dumps(reports[0]) == json.dumps(reports[1])
    assert np.array_equal(np.isnan(z_fast), np.isnan(z_ref))
    ok = ~np.isnan(z_ref)
    assert np.all(np.abs(z_fast[ok] - z_ref[ok]) <= 1e-15 * np.abs(z_ref[ok]))
    if mode == "muir":
        assert np.array_equal(z_fast, z_ref, equal_nan=True)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_sweep_moves_the_named_actions_of_the_extension(h, r, m, monkeypatch):
    """The sweep moves h(x), h'(x) Q(y) and |h'(x)| ||y||^r by scalars, taking
    no branch of h'^(1/r); the first coordinate it tests (muir) and the fibre
    term (both modes) are conjugated_action / semigroup_action of
    extend_H_arrays to 1e-13 relative, with and without Q.  The gamma circle
    of a map with a conformal_radius_form (mobius, half_plane) is centred at
    semigroup_action's first coordinate, with radius gamma_frac R_t bit for
    bit."""
    rng = np.random.default_rng(47)
    exps = [e for e in itertools.product(range(r + 1), repeat=m) if sum(e) == r]
    sp, times, n = space(float(r), m), [0.3, 1.7], 40
    mu, lam = 1 + 0.5j, 0.7 - 0.2j
    A = SpiralMatrix(mu, lam, float(r))
    calls = []
    orig, orig_circle = extensions.membership_H_arrays, extensions._gamma_circle

    def recorded(h, space, z, fibre, guess):
        calls.append((z, fibre))
        return orig(h, space, z, fibre, guess)

    def recorded_circle(form, z1, d1, step, fibre, n_gamma):
        calls.append((z1, fibre, step))
        return orig_circle(form, z1, d1, step, fibre, n_gamma)

    monkeypatch.setattr(extensions, "membership_H_arrays", recorded)
    monkeypatch.setattr(extensions, "_gamma_circle", recorded_circle)
    zs, ws = extend_H_arrays(h, sp, *sample_ball(sp, n, np.random.default_rng(5)))
    for Q in (HomogeneousPolynomial.zero(r, m),
              HomogeneousPolynomial.build(r, m, {e: complex(*rng.normal(size=2)) * 0.1
                                                 for e in exps})):
        for mode, action in (("muir", lambda t: conjugated_action(A, Q, t, zs, ws)),
                             ("gamma", lambda t: semigroup_action(A, t, zs, ws))):
            calls.clear()
            verify_invariance(h, mu, lam, sp, Q, times, n_samples=n, mode=mode, seed=5, n_gamma=4)
            assert len(calls) == len(times)
            circle = mode == "gamma" and h.conformal_radius_form is not None
            assert all(len(c) == (3 if circle else 2) for c in calls)
            for t, (z, fibre, *step) in zip(times, calls):
                z_ref, w_ref = action(t)
                f_ref = np.tile(sp.fibre(w_ref), fibre.size // n)
                assert np.all(np.abs(fibre - f_ref) <= 1e-13 * f_ref)
                if mode == "muir":
                    scale = np.abs(z_ref - np.exp(-mu * t) * zs) + np.abs(np.exp(-mu * t) * zs)
                    assert np.all(np.abs(z - z_ref) <= 1e-13 * scale)
                if circle:
                    assert fibre.size == n and np.array_equal(z, z_ref)
                    assert np.array_equal(step[0], 0.999 * covering_radius_Rt(h, A, t, zs),
                                          equal_nan=True)


# (r, m, Q, lambda, mu) of test_extend_outcomes_are_pinned
PINNED_CASES = {
    "r2m1": ("2", "1", {"degree": 2, "terms": [{"exps": [2], "coef": 0.75}]}, "1,0", "1,0"),
    "r1m2": ("1", "2", {"degree": 1, "terms": [{"exps": [1, 0], "coef": [0, 0.9]}]}, "1,0.5",
             "1,0"),
    "r2m2": ("2", "2", None, "1,-0.5", "0.6,-0.8"),
}
PINNED_MAPS = {"koebe": "koebe", "half_plane": "half_plane", "identity": "identity",
               "mobius": {"family": "mobius_spiral", "c": [0, 0.3]},
               "rational": {"family": "rational", "num": [0, 1, 0.1], "den": [1, -1]},
               "spiral_koebe": {"family": "spiral_koebe", "theta": 1.0}}
# (exit code, checked, failures) in the order of PINNED_CASES, muir then gamma
PINNED = {
    "koebe": [(1, 1200, 13), (1, 1200, 4), (1, 1200, 22),
              (0, 19200, 0), (0, 19200, 0), (1, 19200, 369)],
    "half_plane": [(1, 1200, 48), (1, 1200, 31), (1, 1200, 378),
                   (0, 19200, 0), (0, 19200, 0), (1, 19200, 6084)],
    "identity": [(0, 1200, 0)] * 3 + [(0, 19200, 0)] * 3,
    "mobius": [(0, 1200, 0)] * 3 + [(0, 19200, 0)] * 3,
    "rational": [(0, 1200, 0), (0, 1200, 0), (1, 1200, 67),
                 (0, 19200, 0), (0, 19200, 0), (1, 19200, 1067)],
    "spiral_koebe": [(1, 1200, 7), (1, 1200, 13), (0, 1200, 0),
                     (1, 19200, 141), (1, 19200, 204), (0, 19200, 0)],
}


@pytest.mark.parametrize("fn", list(PINNED_MAPS))
def test_extend_outcomes_are_pinned(fn, tmp_path):
    """36 extend runs (six maps, both modes, three (r, m, Q, lambda, mu), 300
    samples, the CLI's default times and seed) keep the exit code, checked and
    failures of the sweep that moved w = h'(x)^(1/r) y along its continued
    branch and solved every membership from 0."""
    spec = PINNED_MAPS[fn]
    if isinstance(spec, dict):
        (tmp_path / "map.json").write_text(json.dumps(spec))
        spec = str(tmp_path / "map.json")
    got = []
    for mode in ("muir", "gamma"):
        for r, m, q, lam, mu in PINNED_CASES.values():
            argv = ["extend", "--fn", spec, "--r", r, "--m", m, "--mu", mu, f"--lambda={lam}",
                    "--samples", "300", "--mode", mode, "--out", str(tmp_path / "rep.json")]
            if q is not None:
                (tmp_path / "q.json").write_text(json.dumps(q))
                argv += ["--Q", str(tmp_path / "q.json")]
            code = main(argv)
            rep = json.loads((tmp_path / "rep.json").read_text())
            got.append((code, rep["checked"], rep["failures"]))
    assert got == PINNED[fn]


@pytest.mark.parametrize("mode", ["muir", "gamma"])
def test_rational_sweep_takes_no_branch(mode, monkeypatch):
    """A passing sweep of the rational map continues no log h' along a path:
    its verdict reads h' and |h'| only."""

    def refuse(*a):
        raise AssertionError("continued_log_deriv called")

    monkeypatch.setattr(families, "continued_log_deriv", refuse)
    out = verify_invariance(RATIONAL, 1.0, 1.0, space(2.0, 1), q_poly(0.75), [0.1, 0.5, 1.0, 2.0],
                            n_samples=300, mode=mode, seed=0)
    assert out["pass"] and out["witnesses"] == []


def _form_maps():
    """Mobius with positive, negative, imaginary and complex c (|c| <= 0.999),
    and the half-plane map."""
    mag = st.floats(0.0, 0.999)
    return st.one_of(
        mag.map(lambda u: UnivalentMap.mobius_spiral(u)),
        mag.map(lambda u: UnivalentMap.mobius_spiral(-u)),
        mag.map(lambda u: UnivalentMap.mobius_spiral(1j * u)),
        st.tuples(mag, st.floats(0.0, 2 * np.pi)).map(
            lambda p: UnivalentMap.mobius_spiral(p[0] * np.exp(1j * p[1]))),
        st.just(UnivalentMap.half_plane()))


@given(h=_form_maps(), rho=st.floats(0.0, 0.999), arg=st.floats(0.0, 2 * np.pi),
       frac=st.floats(1e-6, 1.0), scale=st.sampled_from([0.25, 4.0]))
@settings(max_examples=300, deadline=None)
def test_circle_radius_matches_the_point_kernel(h, rho, arg, frac, scale):
    """On the circle z1 + s e^(2 pi i k / 16) about z1 = h(x), the closed form
    d1 + g s^2 + 2 s Re((b + g conj(z1)) e^(i phi)) is kernels.conformal_radius
    at every probe within 32 eps (1 + |z1| + s)^2, the rounding of the two
    formulas' terms.  s <= delta(z1)/4 stays inside the image (Koebe 1/4;
    for these images, a disk or a half-plane, the boundary is at least
    delta/2 away); s up to 4 delta(z1) leaves it, where, outside that band,
    the closed form is <= 0 exactly where the point kernel is NaN."""
    z1 = h.eval_array(np.array([rho * np.exp(1j * arg)]))
    d1 = h.conformal_radius_array(z1)
    s = frac * scale * d1
    got = list(extensions._circle_radii(h.conformal_radius_form, z1, d1, s, 16))
    dirs = np.array([d for d, _ in got])
    assert np.array_equal(dirs, np.exp(2j * np.pi * np.arange(16) / 16))
    circle = np.concatenate([radius for _, radius in got])
    point = kernels.conformal_radius(h.family, h.params, z1 + s * dirs)
    band = 32 * np.finfo(float).eps * (1.0 + abs(z1[0]) + s[0]) ** 2
    inside = ~np.isnan(point)
    assert np.all(np.abs(circle[inside] - point[inside]) <= band)
    assert np.all(circle[~inside] <= band)
    clear = np.abs(circle) > band
    assert np.array_equal((circle <= 0)[clear], ~inside[clear])
    if scale == 0.25:
        assert inside.all()


# (c, mu) of Mobius gamma sweeps that fail (3,431 to 24,092 of 160,000 probes)
FAILING_MOBIUS = [(c, mu) for c in (0.3j, 0.9, -0.95 + 0.2j)
                  for mu in (np.exp(1.4j), np.exp(-1.5j), 0.05 + 1j)]


@pytest.mark.parametrize("case", [*range(len(FAILING_MOBIUS)), "half_plane_r2m2"],
                         ids=lambda c: c if isinstance(c, str) else f"mobius{c}")
def test_circle_path_equals_probe_path_on_failing_sweeps(case, monkeypatch):
    """Gamma sweeps that fail, every witness kept: nine Mobius sweeps (2,000
    samples, five times) and the pinned r2m2 half-plane case (300 samples, the
    CLI's default times and seed), each with its conformal radius read in
    closed form on the circle and with every probe a membership test (the
    form switched off), give the same report JSON."""
    if case == "half_plane_r2m2":
        r, m, _, lam, mu = PINNED_CASES["r2m2"]
        args = (UnivalentMap.half_plane(), complex(*map(float, mu.split(","))),
                complex(*map(float, lam.split(","))), space(float(r), int(m)),
                HomogeneousPolynomial.zero(int(r), int(m)), [0.1, 0.5, 1.0, 2.0])
        kw = dict(n_samples=300, seed=0)
    else:
        c, mu = FAILING_MOBIUS[case]
        args = (UnivalentMap.mobius_spiral(c), mu, 1.0, space(2.0, 1), q_poly(0.25j),
                [0.1, 0.5, 1.0, 2.0, 4.0])
        kw = dict(n_samples=2000, seed=7)
    circle = verify_invariance(*args, mode="gamma", max_witnesses=10**6, **kw)
    monkeypatch.setattr(UnivalentMap, "conformal_radius_form", None)
    probed = verify_invariance(*args, mode="gamma", max_witnesses=10**6, **kw)
    assert circle["failures"] > 0 and len(circle["witnesses"]) == circle["failures"]
    assert json.dumps(circle) == json.dumps(probed)
    if case == "half_plane_r2m2":
        assert circle["failures"] == PINNED["half_plane"][5][2]


@pytest.mark.parametrize("h,form", [
    (UnivalentMap.mobius_spiral(0.3 - 0.4j), (1.0, -(0.3 - 0.4j), 0.25 - 1.0)),
    (UnivalentMap.half_plane(), (0.0, 1.0, 0.0)),
    (UnivalentMap.koebe(), None),
    (RATIONAL, None),
    (normalize_at(UnivalentMap.half_plane(), 0.2j), None),
], ids=["mobius", "half_plane", "koebe", "rational", "composed"])
def test_conformal_radius_form_is_the_closed_form_radius(h, form):
    """The Mobius and half-plane maps carry (a, b, g) with
    conformal_radius_array = a + 2 Re(b w) + g |w|^2 where positive; every
    other disk map (disk_map's default) carries None."""
    if form is None:
        assert h.conformal_radius_form is None
        return
    assert h.conformal_radius_form == pytest.approx(form, abs=1e-15)
    w = h.eval_array(random_disk(np.random.default_rng(8), 50))
    a, b, g = form
    want = a + 2 * (b * w).real + g * np.abs(w) ** 2
    assert np.allclose(h.conformal_radius_array(w), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("c", [0.3 - 0.4j, 0.9, -0.95 + 0.2j, 0.999j, 0.0],
                         ids=lambda c: f"mobius{c}")
def test_form_is_the_mobius_and_half_plane_radius(c):
    """The form's radius is |1 - cw|^2 - |w|^2 for the Mobius map, within
    8 eps (1 + |w|)^2, the rounding of both formulas' terms, and 2 Re w for
    the half-plane bit for bit, on the images of points out to |x| = 0.999
    and at |w| up to 1e200, where |w|^2 overflows."""
    x = random_disk(np.random.default_rng(9), 2000, 0.999)
    h = UnivalentMap.mobius_spiral(c)
    w = h.eval_array(x)
    got = kernels.conformal_radius(h.family, h.params, w)
    want = np.abs(1.0 - c * w) ** 2 - np.abs(w) ** 2
    assert not np.isnan(got).any()
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * (1.0 + np.abs(w)) ** 2)
    w = UnivalentMap.half_plane().eval_array(x)
    assert np.array_equal(kernels.conformal_radius("half_plane", (), w), 2.0 * w.real)
    assert np.array_equal(kernels.conformal_radius("half_plane", (), [1e200, 1e150 + 1e155j]),
                          [2e200, 2e150])


LOGISTIC_KOENIGS = koenigs(Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0))


@pytest.mark.parametrize("mode", ["muir", "gamma"])
@pytest.mark.parametrize("h,mu,n,failing", [
    (RATIONAL, 1.0, 300, False),
    (UnivalentMap.spiral_koebe(0.5), np.exp(-0.5j), 300, False),
    (UnivalentMap.spiral_koebe(0.5), np.exp(0.5j), 300, True),
    (UnivalentMap.koebe(), 1.0, 300, False),
    (LOGISTIC_KOENIGS, 1.0, 60, False),
], ids=["rational", "spiral_koebe_passes", "spiral_koebe_fails", "koebe", "koenigs_logistic"])
def test_warm_started_sweep_equals_its_single_time_sweeps(h, mu, n, failing, mode):
    """Each sample's solve at a time starts at its last preimage, so a sweep
    over four times, given out of order, solves from other starts than four
    sweeps of one time each, which all start at the samples' own x.  checked
    and failures are the same exactly, and so are the witnesses, in order,
    with w to 1e-13 relative and z to NEWTON_TOL relative: a gamma witness's
    z is built from R_t, whose conformal radius at the centre is solved from
    another start, and both solves stop at a residual of NEWTON_TOL (the
    failing spiral_koebe gamma sweep moves z by up to 4.4e-13 relative at
    seeds 0-5)."""
    args = (h, mu, 1.0, space(2.0, 1), q_poly(0.25j))
    kw = dict(n_samples=n, mode=mode, seed=3, n_gamma=8, max_witnesses=10**6)
    times = [1.5, 0.2, 3.0, 0.7]
    whole = verify_invariance(*args, times, **kw)
    parts = [verify_invariance(*args, [t], **kw) for t in times]
    assert whole["checked"] == sum(p["checked"] for p in parts)
    assert whole["failures"] == sum(p["failures"] for p in parts)
    assert (whole["failures"] > 0) == failing
    wit = [w for p in parts for w in p["witnesses"]]
    assert len(whole["witnesses"]) == len(wit) == whole["failures"]
    for a, b in zip(whole["witnesses"], wit):
        assert a["t"] == b["t"]
        for key, tol in (("z", kernels.NEWTON_TOL), ("w", 1e-13)):
            u, v = (np.array(c[key]) @ [1, 1j] for c in (a, b))
            assert np.all(np.abs(u - v) <= tol * np.abs(v))
