"""Tests for generators, flows, Koenigs linearization, and margins."""

import numpy as np
import pytest

from spirallab import kernels
from spirallab.families import UnivalentMap
from spirallab.semigroups import (
    Generator,
    InvalidGenerator,
    berkson_porta_margin,
    flow,
    flow_many,
    koenigs,
    margin_circle,
    schroder_residual,
    spirallike_margin,
)

from conftest import random_disk


def gen_linear(mu=1.0):
    return Generator([0, mu], kind="dilation", tau=0.0, mu=mu)


def gen_logistic():
    # f(z) = z(1-z) = z - z^2
    return Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0)


def gen_hyperbolic():
    # f(z) = z^2 - 1, Denjoy-Wolff point 1, angular derivative mu = 2
    return Generator([-1, 0, 1], kind="hyperbolic", tau=1.0, mu=2.0)


# ------------------------------------------------------------------- flows

def test_flow_linear_is_exponential():
    g = gen_linear(1.0 + 2.0j)
    z0 = 0.4 - 0.1j
    for t in (0.1, 0.5, 2.0):
        res = flow(g, z0, t)
        assert abs(res.endpoint - z0 * np.exp(-(1 + 2j) * t)) < 1e-9


def test_flow_logistic_closed_form():
    """dz/dt = -z(1-z) has solution z0 e^{-t} / (1 - z0 + z0 e^{-t})."""
    g = gen_logistic()
    z0 = 0.5
    for t in (0.25, np.log(2.0), 3.0):
        e = np.exp(-t)
        expect = z0 * e / (1 - z0 + z0 * e)
        assert abs(flow(g, z0, t).endpoint - expect) < 1e-9


def test_flow_hyperbolic_tanh():
    """dz/dt = 1 - z^2 from 0 gives tanh(t)."""
    g = gen_hyperbolic()
    res = flow(g, 0.0, 1.0)
    assert abs(res.endpoint - np.tanh(1.0)) < 1e-9


def test_flow_many_matches_scalar():
    g = gen_logistic()
    z0s = random_disk(np.random.default_rng(31), 40, 0.8)
    ends = flow_many(g, z0s, 0.7)
    for z0, e in zip(z0s, ends):
        assert abs(flow(g, complex(z0), 0.7).endpoint - e) < 1e-9


def test_semigroup_law():
    """F_{s+t} = F_s o F_t pointwise."""
    g = gen_logistic()
    z0s = random_disk(np.random.default_rng(32), 25, 0.8)
    s, t = 0.3, 0.9
    once = flow_many(g, z0s, s + t)
    twice = flow_many(g, flow_many(g, z0s, t), s)
    assert np.max(np.abs(once - twice)) < 1e-8


# --------------------------------------------------------------- validation

def test_generator_validation_rejects_nonvanishing():
    with pytest.raises(InvalidGenerator):
        Generator([1, 1], kind="dilation", tau=0.0, mu=1.0)


def test_generator_validation_rejects_bad_mu():
    with pytest.raises(InvalidGenerator):
        Generator([0, -1], kind="dilation", tau=0.0, mu=-1.0)


def test_berkson_porta_margin_sign():
    assert berkson_porta_margin(gen_logistic()) > 0
    assert berkson_porta_margin(gen_hyperbolic()) > 0
    # f = z(1 + z/1.01)^2 is no generator, though its only zero in the disk is
    # 0, so the constructor accepts it: the margin fails it
    bad = Generator([0, 1, 1.9801980198019802, 0.9802960494069208], kind="dilation", tau=0.0)
    assert berkson_porta_margin(bad) < 0



def test_margin_circle_is_one_read_only_array():
    """Built once: every margin reads the same read-only samples."""
    z = margin_circle()
    assert margin_circle() is z
    assert not z.flags.writeable
    assert np.array_equal(z, (1.0 - 1e-3) * np.exp(2j * np.pi * np.arange(2560) / 2560))
    with pytest.raises(ValueError):
        z[0] = 0.0

# ------------------------------------------------------------------ koenigs

def test_koenigs_logistic_is_koebe_like():
    """f = z(1-z), mu=1 linearizes via h(z) = z/(1-z)."""
    h = koenigs(gen_logistic())
    zs = random_disk(np.random.default_rng(33), 60, 0.9)
    expect = zs / (1 - zs)
    assert np.max(np.abs(h.eval_array(zs) - expect)) < 1e-7


def test_koenigs_hyperbolic_half_plane():
    """f = z^2 - 1 linearizes via h(z) = (1-z)/(1+z), h(0)=1."""
    h = koenigs(gen_hyperbolic())
    zs = random_disk(np.random.default_rng(34), 60, 0.9)
    expect = (1 - zs) / (1 + zs)
    assert np.max(np.abs(h.eval_array(zs) - expect)) < 1e-7
    assert abs(h.eval(0.0) - 1.0) < 1e-10


def test_koenigs_functional_equation():
    """h' f = mu h pointwise, the defining ODE."""
    for g in (gen_logistic(), gen_hyperbolic()):
        h = koenigs(g)
        zs = random_disk(np.random.default_rng(35), 40, 0.85)
        lhs = h.deriv_array(zs) * g.f(zs)
        rhs = g.mu * h.eval_array(zs)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_schroder_residual_small():
    zs = random_disk(np.random.default_rng(36), 50, 0.8)
    for g in (gen_logistic(), gen_hyperbolic()):
        h = koenigs(g)
        for t in (0.25, 1.0, 3.0):
            assert schroder_residual(h, g, t, zs) < 1e-6


def test_koenigs_shifted_denjoy_wolff():
    """tau != 0, integrated along geodesics from tau: the residual of
    h(F_t) = e^{-mu t} h stays small and h(tau) = 0."""
    tau = 0.3
    # f(z) = (z - tau)(1 - tau z) vanishes at tau, f'(tau) = 1 - tau^2
    mu = 1 - tau**2
    g = Generator([-tau, 1 + tau**2, -tau], kind="dilation",
                  tau=tau, mu=mu)
    h = koenigs(g)
    zs = random_disk(np.random.default_rng(37), 30, 0.7)
    assert schroder_residual(h, g, 0.5, zs) < 1e-6
    assert abs(h.eval(tau)) < 1e-9


def test_koenigs_inverse():
    h = koenigs(gen_logistic())
    zs = random_disk(np.random.default_rng(38), 20, 0.8)
    for z in zs:
        w = h.eval(complex(z))
        assert abs(h.invert(w, guess=complex(z) * 0.9) - z) < 1e-8


@pytest.mark.parametrize("tau", [0.0, 0.3 - 0.2j], ids=["plain", "conjugated"])
def test_koenigs_invert_array_round_trip(tau):
    """Batched damped Newton on a Koenigs map, plain (tau = 0) and conjugated."""
    tau = complex(tau)
    g = Generator([-tau, 1 + abs(tau) ** 2, -np.conj(tau)], kind="dilation",
                  tau=tau, mu=1 - abs(tau) ** 2)
    h = koenigs(g)
    zs = random_disk(np.random.default_rng(39), 200, 0.8)
    back = h.invert_array(h.eval_array(zs), guess=0j)
    assert np.max(np.abs(back - zs)) < 1e-9
    assert abs(h.invert(h.eval(complex(zs[0]))) - zs[0]) < 1e-9


def test_koenigs_dilation_map_at_zero_carries_its_spiral_multiplier():
    """A dilation Koenigs map with tau = 0 is mu-spirallike for its own mu
    (mu h/(z h') = f/z), so it carries spiral_multiplier = mu; with tau != 0
    or of hyperbolic type it carries None.  Its points to |z| = 0.99 invert
    from guess=0j, and spiral_newton alone on that multiplier solves them."""
    mu = np.exp(-1j)
    h = koenigs(Generator([0, mu, -0.5 * mu], kind="dilation", tau=0.0))
    assert h.spiral_multiplier == mu
    assert koenigs(gen_conj_logistic()).spiral_multiplier is None
    assert koenigs(gen_hyperbolic()).spiral_multiplier is None
    zs = random_disk(np.random.default_rng(40), 200, 0.99)
    ws = h.eval_array(zs)
    assert np.max(np.abs(h.invert_array(ws, guess=0j) - zs)) < 1e-9
    z, res = kernels.spiral_newton(h.eval_array, h.deriv_array, ws, h.spiral_multiplier,
                                   h.deriv(0j))
    assert np.all(res <= kernels.NEWTON_TOL)
    assert np.max(np.abs(z - zs)) < 1e-9


@pytest.mark.parametrize("tau", [0.0, 0.3], ids=["plain", "conjugated"])
def test_koenigs_memo_is_bit_identical_and_read_only(tau):
    """eval, log h' and h'' at one point set pay for one quadrature and give the
    bits of a fresh map; the kept logs are read-only, and new points (or the
    same bytes in another shape) are recomputed."""
    g = Generator([-tau, 1 + tau**2, -tau], kind="dilation", tau=tau,
                  mu=1 - tau**2)
    zs = random_disk(np.random.default_rng(40), 30, 0.8)
    other = random_disk(np.random.default_rng(41), 30, 0.8)
    methods = ("eval_array", "log_deriv_array", "deriv2_array")

    def values(h, z):
        return [getattr(h, m)(z).tobytes() for m in methods]

    h = koenigs(g)
    quadratures = []
    integrate = h._integrate
    h._integrate = lambda *a: quadratures.append(1) or integrate(*a)
    first = values(h, zs)
    assert first == values(koenigs(g), zs) == values(h, zs)
    assert len(quadratures) == 1
    assert all(not v.flags.writeable for v in h._memo[1])
    assert values(h, other) == values(koenigs(g), other)
    assert len(quadratures) == 2
    assert h.eval_array(zs.reshape(5, 6)).tobytes() == first[0]
    assert len(quadratures) == 3


# ------------------------------------------------------------------ margins

def test_spirallike_margin_koebe():
    """koebe is starlike: Re(h/(z h')) = Re((1-z)/(1+z)) > 0."""
    assert spirallike_margin(UnivalentMap.koebe(), 1.0) > 0


def test_spirallike_margin_negative_for_wrong_mu():
    """koebe is NOT mu-spirallike for a strongly rotated mu."""
    assert spirallike_margin(UnivalentMap.koebe(), 0.05 + 1.0j) < 0


@pytest.mark.parametrize("c, critical", [(0.4995, False), (0.5006, True), (0.50025, True),
                                         (1.2, True)])
def test_rational_map_with_a_critical_point_inside_is_refused(c, critical):
    """h = z + c z^2 has h'(-1/(2c)) = 0: inside the disk for c = 0.5006,
    0.50025 (between the margin circle |z| = 0.999 and the circle) and 1.2,
    just beyond it for c = 0.4995, whose margin is then read."""
    if critical:
        with pytest.raises(ValueError, match="h' vanishes inside the disk, at ") as e:
            UnivalentMap.rational([0, 1, c], [1])
        assert abs(complex(str(e.value).split(" at ")[1]) + 0.5 / c) < 1e-12
    else:
        assert spirallike_margin(UnivalentMap.rational([0, 1, c], [1]), 1.0) > 0


@pytest.mark.parametrize("h", [
    UnivalentMap.koebe(), UnivalentMap.spiral_koebe(0.0), UnivalentMap.mobius_spiral(0.9999),
    UnivalentMap.rational([0, 1], [1, -2, 1]),
], ids=["koebe", "spiral_koebe", "mobius_0.9999", "double_pole_on_circle"])
def test_spirallike_margin_counts_no_zero_beside_a_pole_beyond_the_circle(h):
    """Starlike maps whose h' has a pole on the unit circle or just beyond it,
    1e-3 or more beyond the margin circle: their margin on that circle's
    samples is positive and small, as h / (z h') nears 0 by the pole."""
    assert 0 < spirallike_margin(h, 1.0) < 1e-2


@pytest.mark.parametrize("spec, want", [
    ({"poly": [0, 1, -1], "kind": "dilation", "tau": 0, "mu": 1}, gen_logistic()),
    ({"poly": [[-1, 0], 0, [1, 0]], "kind": "hyperbolic", "tau": [1, 0]}, gen_hyperbolic()),
], ids=["logistic", "hyperbolic"])
def test_generator_spec_literal(spec, want):
    """A literal spec builds the generator the constructor does; a missing mu is f'(tau)."""
    g = Generator.from_spec(spec)
    zs = random_disk(np.random.default_rng(39), 10)
    assert np.array_equal(g.f(zs), want.f(zs))
    assert (g.kind, g.tau, g.mu) == (want.kind, want.tau, want.mu)


# ------------------------------------------------- graded quadrature accuracy

def gen_conj_logistic(tau=0.3):
    # f(z) = -(tau - z)(1 + z)/(1 + tau), mu = 1, h = (tau - z)/((1 - tau)(1 + z))
    k = -1.0 / (1.0 + tau)
    return Generator([k * tau, k * (tau - 1.0), -k], kind="dilation",
                     tau=tau, mu=1.0)


CLOSED_FORMS = {
    "logistic": (gen_logistic, lambda z: z / (1 - z), lambda z: 1 / (1 - z) ** 2),
    "hyperbolic": (gen_hyperbolic, lambda z: (1 - z) / (1 + z),
                   lambda z: -2 / (1 + z) ** 2),
    "conj_logistic": (gen_conj_logistic, lambda z: (0.3 - z) / (0.7 * (1 + z)),
                      lambda z: -1.3 / (0.7 * (1 + z) ** 2)),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_koenigs_closed_forms_to_the_boundary(name):
    """eval, deriv and exp(log_deriv) match the closed forms to 1e-12 relative
    for |z| <= 0.999, and the scalar calls agree with the array calls."""
    make_gen, h_exact, dh_exact = CLOSED_FORMS[name]
    h = koenigs(make_gen())
    zs = np.concatenate([random_disk(np.random.default_rng(40), 300, 0.999),
                         0.999 * np.exp(2j * np.pi * np.arange(16) / 16)])

    def rel(got, want):
        return float(np.max(np.abs(got - want) / np.abs(want)))

    assert rel(h.eval_array(zs), h_exact(zs)) <= 1e-12
    assert rel(h.deriv_array(zs), dh_exact(zs)) <= 1e-12
    assert rel(np.exp(h.log_deriv_array(zs)), dh_exact(zs)) <= 1e-12
    for z in zs[::37]:
        assert h.eval(z) == h.eval_array([z])[0]
        assert h.log_deriv(z) == h.log_deriv_array([z])[0]


def test_koenigs_tau_near_the_circle():
    """tau = 0.95: f = (z - tau)(1 - tau z) linearizes via the disk
    automorphism (tau - z)/(1 - tau z), to 1e-12 relative for |z| <= 0.999,
    though g vanishes at 1/tau, 0.05 beyond the circle."""
    tau = 0.95
    h = koenigs(Generator([-tau, 1 + tau**2, -tau], kind="dilation", tau=tau,
                          mu=1 - tau**2))
    zs = np.concatenate([random_disk(np.random.default_rng(44), 300, 0.999),
                         0.999 * np.exp(2j * np.pi * np.arange(16) / 16)])
    exact = (tau - zs) / (1 - tau * zs)
    assert np.max(np.abs(h.eval_array(zs) - exact) / np.abs(exact)) <= 1e-12


@pytest.mark.parametrize("theta", [0.7, np.pi / 2, 2.5, -1.2])
def test_koenigs_hyperbolic_rotated(theta):
    """f = conj(e) z^2 - e with tau = e = e^(i theta), mu = 2, the hyperbolic
    half-plane generator rotated, linearizes via h = (1 - conj(e) z)/(1 +
    conj(e) z), h(0) = 1: h and h' to 4e-15 relative (18 ulp) for |z| <= 0.95."""
    e = np.exp(1j * theta)
    h = koenigs(Generator([-e, 0, np.conj(e)], kind="hyperbolic", tau=e, mu=2.0))
    zs = np.concatenate([random_disk(np.random.default_rng(45), 300, 0.95),
                         0.95 * np.exp(2j * np.pi * np.arange(16) / 16)])
    w = np.conj(e) * zs
    exact, dexact = (1 - w) / (1 + w), -2 * np.conj(e) / (1 + w) ** 2
    assert np.max(np.abs(h.eval_array(zs) - exact) / np.abs(exact)) <= 4e-15
    assert np.max(np.abs(h.deriv_array(zs) - dexact) / np.abs(dexact)) <= 4e-15


def test_koenigs_second_derivative_closed_form():
    z = random_disk(np.random.default_rng(41), 100, 0.99)
    h = koenigs(gen_logistic())
    assert np.max(np.abs(h.deriv2_array(z) * (1 - z) ** 3 / 2 - 1)) <= 1e-12
    assert abs(h.deriv2(0.0) - 2.0) <= 1e-12
    hc = koenigs(gen_conj_logistic())
    exact = 2.6 / (0.7 * (1 + z) ** 3)
    assert np.max(np.abs(hc.deriv2_array(z) / exact - 1)) <= 1e-12


def test_conjugated_log_deriv_is_continuous():
    """log h' of the conjugated map is one continuous branch on the disk: no
    2 pi jump between neighbours on a circle, where |d log h'/dz| <= 40."""
    h = koenigs(gen_conj_logistic())
    ring = 0.95 * np.exp(2j * np.pi * np.arange(2001) / 2000)
    steps = np.abs(np.diff(h.log_deriv_array(ring)))
    assert np.max(steps) < 0.2


def test_conjugated_koenigs_map_round_trips():
    """The tau = 0.3 Koenigs map inverts by damped Newton: 2,000 points
    round-trip, and w off its image, the half-plane Re w > -1/2, comes back
    NaN."""
    h = koenigs(gen_conj_logistic())
    zs = random_disk(np.random.default_rng(43), 2000, 0.9)
    back = h.invert_array(h.eval_array(zs))
    assert np.max(np.abs(back - zs)) <= 1e-11
    assert np.isnan(h.invert_array(np.array([-1.0, -2.0 + 1j]))).all()
