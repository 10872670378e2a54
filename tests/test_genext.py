"""Tests for the perturbed generator extension on the ball."""

import numpy as np
import pytest

from spirallab.extensions import (
    BallSpace,
    HomogeneousPolynomial,
    sample_ball,
    sup_norm_Q,
    sup_norm_Q_bound,
)
from spirallab.genext import (
    ExtendedGenerator,
    conjugation_residual,
    dh_tilde_identity_residual,
    extend_generator,
    flow_ball,
    h_tilde,
)
from spirallab.semigroups import Generator, UnresolvedSingularity, koenigs


def gen_logistic():
    return Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0)


def gen_hyperbolic():
    return Generator([-1, 0, 1], kind="hyperbolic", tau=1.0, mu=2.0)


def make(base=None, lam=1.0, r=2, m=1, q=0.25):
    base = base or gen_logistic()
    sp = BallSpace(r=float(r), m=m)
    Q = (HomogeneousPolynomial.monomial(r, m, coef=q, index=0)
         if q else HomogeneousPolynomial.zero(r, m))
    return ExtendedGenerator(base=base, lam=lam, space=sp, Q=Q)


def sample_points(g, n, seed=0, margin=0.05):
    rng = np.random.default_rng(seed)
    return sample_ball(g.space, n, rng, margin=margin)


def point(x, *y):
    """One ball point as a batch of one: x (1,), y (1, m)."""
    return np.array([x], dtype=complex), np.array([y], dtype=complex)


# --------------------------------------------------------------- structure

def test_extend_generator_linear_base():
    """f = mu z extends to (mu x + Q(y), (lam + mu/r) y) since f' is constant
    and the quotient vanishes."""
    base = Generator([0, 1], kind="dilation", tau=0.0, mu=1.0)
    g = make(base=base, lam=1.0, r=2, q=0.25)
    first, second = extend_generator(g, *point(0.3, 0.4))
    assert abs(first[0] - (0.3 + 0.25 * 0.16)) < 1e-12
    assert abs(second[0, 0] - (0.5 + 1.0) * 0.4) < 1e-12


def test_quotient_removable_singularity():
    """(mu - f')/f at the fixed point is exactly -f''(tau)/mu, by l'Hopital."""
    # f = z - z^2: f'' = -2, mu = 1, so the limit is 2
    base = gen_logistic()
    assert base.quotient(0.0) == 2.0
    assert abs(base.quotient(1e-5) - 2.0) < 1e-4
    # tau != 0: f = (z - tau)(1 - tau z), f'' = -2 tau, mu = 1 - tau^2
    tau = 0.3
    base = Generator([-tau, 1 + tau**2, -tau], kind="dilation", tau=tau,
                     mu=1 - tau**2)
    assert abs(base.quotient(tau) - 2 * tau / (1 - tau**2)) <= 1e-15


def test_quotient_matches_closed_form_near_tau():
    """f = z - z^2 + 0.3 z^3: (mu - f')/f = (2 - 0.9 x)/(1 - x + 0.3 x^2)
    within 4 ulp at |x - tau| from 1e-2 down to 1e-12, in every direction."""
    base = Generator([0, 1, -1, 0.3], kind="dilation", tau=0.0, mu=1.0)
    r = 10.0 ** -np.arange(2, 13)
    x = (r[:, None] * np.exp(2j * np.pi * np.arange(8) / 8)).ravel()
    exact = (2 - 0.9 * x) / (1 - x + 0.3 * x**2)
    assert np.max(np.abs(base.quotient(x) - exact) / np.abs(exact)) <= 4 * np.finfo(float).eps


def test_quotient_raises_at_a_zero_of_f_away_from_tau():
    """f = z - z^2 vanishes at 1, with or without a point near tau, or a NaN,
    in the batch, and so does the field of its extension."""
    g = make()
    for x in ([1.0], [1e-5, 1.0], [np.nan, 1.0]):
        with pytest.raises(UnresolvedSingularity, match="f vanishes at"):
            g.base.quotient(np.array(x, dtype=complex))
    with pytest.raises(UnresolvedSingularity, match="f vanishes at"):
        extend_generator(g, *point(1.0, 0.1))


def test_bound_enforced():
    """sup|Q| must not exceed r Re(lam)/4."""
    with pytest.raises(ValueError):
        make(q=5.0)
    make(q=0.49, lam=1.0, r=2)  # 0.49 < 2*1/4 = 0.5 is fine


# -------------------------------------------------------------- conjugation

@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("q", [0.0, None])
def test_conjugation_residual_small(r, q):
    qv = 0.0 if q == 0.0 else r / 4.0
    for base in (gen_logistic(), gen_hyperbolic()):
        g = make(base=base, lam=1.0, r=r, q=qv)
        h = koenigs(base)
        xs, ys = sample_points(g, 60, seed=7)
        # keep the base coordinate off the extremes for quadrature accuracy
        assert conjugation_residual(g, h, 0.8 * xs, ys) < 1e-8, (base.kind, r, qv)


def test_dh_identity_residual():
    for m in (1, 2):
        sp = BallSpace(r=2.0, m=m)
        Q = HomogeneousPolynomial.monomial(2, m, coef=0.25, index=0)
        g = ExtendedGenerator(base=gen_logistic(), lam=1.0, space=sp, Q=Q)
        h = koenigs(gen_logistic())
        xs, ys = sample_points(g, 40, seed=8)
        # the residual is the max over the points, so each point is checked
        assert dh_tilde_identity_residual(g, h, 0.8 * xs, ys) < 1e-9


def test_h_tilde_reduces_to_extension_when_Q_zero():
    g = make(q=0.0)
    h = koenigs(gen_logistic())
    z, _ = h_tilde(g, h, *point(0.3, 0.2))
    assert abs(z[0] - h.eval(0.3)) < 1e-10


# -------------------------------------------------------------------- flows

def test_flow_ball_stays_inside():
    g = make(q=0.25)
    flow = flow_ball(g, *sample_points(g, 10, seed=9, margin=0.02), T=5.0)
    assert not np.any(flow.exited)
    end = flow.v[-1]
    assert np.all(g.space.gauge(end[:, 0], end[:, 1:]) < 1.0)


def test_flow_ball_contracts_to_origin():
    """Dilation base: the extended flow collapses to (0, 0)."""
    g = make(q=0.25)
    end = flow_ball(g, *point(0.4, 0.5), T=30.0).v[-1, 0]
    assert abs(end[0]) < 1e-8
    assert np.max(np.abs(end[1:])) < 1e-8


def test_flow_ball_flags_exterior_start():
    """Starting outside the ball is flagged rather than silently integrated."""
    g = make(q=0.0)
    flow = flow_ball(g, *point(0.9, 0.9), T=1.0)
    assert flow.exited[0] and flow.reached[0] == 1


def test_flow_ball_flags_exit_for_reversed_field(monkeypatch):
    """With the field negated the trajectory blows up; the exit must be
    flagged, not swallowed."""
    import spirallab.genext as gx

    g = make(q=0.0)
    orig = gx.extend_generator
    monkeypatch.setattr(
        gx, "extend_generator",
        lambda gg, x, y: tuple(-np.asarray(v) for v in orig(gg, x, y)))
    assert gx.flow_ball(g, *point(0.6, 0.5), T=10.0).exited[0]


class _Captured(Exception):
    pass


@pytest.mark.parametrize("case", ["Q zero", "Q nonzero", "near tau"])
def test_flow_ball_field_is_minus_extend_generator_bit_for_bit(case, monkeypatch):
    """The right-hand side flow_ball hands to ode.integrate is -fhat, bit for
    bit, also with points at and near tau."""
    import spirallab.genext as gx

    g = make(q=0.0 if case == "Q zero" else 0.25)
    x, y = sample_points(g, 12, seed=3)
    if case == "near tau":
        x[:4] = g.base.tau + 1e-4 * np.array([0.0, 0.5, 0.9j, -0.99])
    fields = []

    def capture(rhs, v0, *args, **kwargs):
        fields.append(rhs(v0))
        raise _Captured

    monkeypatch.setattr(gx.ode, "integrate", capture)
    with pytest.raises(_Captured):
        gx.flow_ball(g, x, y, T=1.0)
    first, second = extend_generator(g, x, y)
    expect = -np.concatenate([first[:, None], second], axis=1)
    assert fields[0].tobytes() == expect.tobytes()


# ------------------------------------------------------------ batched calls

def _same_trajectory(a, i, b, j=0, tol=1e-9):
    """Flow i of a and flow j of b record the same checkpoints."""
    assert a.t.tolist() == b.t.tolist()
    n = a.reached[i]
    assert n == b.reached[j]
    assert np.max(np.abs(a.v[:n, i] - b.v[:n, j])) <= tol


def test_flow_ball_batch_matches_single_starts():
    g = make(q=0.25)
    xs, ys = sample_points(g, 6, seed=11, margin=0.02)
    batch = flow_ball(g, xs, ys, T=2.0)
    assert batch.v.shape == (51, 6, 2)
    assert not np.any(batch.exited)
    for i in range(6):
        _same_trajectory(batch, i, flow_ball(g, xs[i:i + 1], ys[i:i + 1], T=2.0))


def test_flow_ball_batch_flags_only_the_exterior_start():
    g = make(q=0.25)
    xs, ys = sample_points(g, 4, seed=12, margin=0.02)
    xs, ys = np.insert(xs, 2, 0.9), np.insert(ys, 2, [0.9], axis=0)
    batch = flow_ball(g, xs, ys, T=1.0)
    assert batch.exited.tolist() == [False, False, True, False, False]
    assert batch.reached[2] == 1
    for i in (0, 1, 3, 4):
        _same_trajectory(batch, i, flow_ball(g, xs[i:i + 1], ys[i:i + 1], T=1.0))


def test_flow_ball_batch_redoes_segment_after_an_exit(monkeypatch):
    """A trajectory that leaves mid-flow stops at its last checkpoint; the
    others go on as if integrated alone.  steps sums the integrator's steps
    over the call that left and the restart."""
    import spirallab.genext as gx

    g = make(q=0.0)
    alone = gx.flow_ball(g, *point(-0.4, 0.3), T=3.0)
    orig = gx.extend_generator
    integrate, counted = gx.ode.integrate, []

    def counting(*args, **kwargs):
        try:
            out = integrate(*args, **kwargs)
        except gx.ode.LeftDomain as e:
            counted.append(e.steps)
            raise
        counted.append(out[1])
        return out

    monkeypatch.setattr(gx.ode, "integrate", counting)

    def reversed_where_re_x_positive(gg, x, y):
        first, second = orig(gg, x, y)
        sign = np.where(np.real(x) > 0, -1.0, 1.0)
        return sign * first, sign[..., None] * second

    monkeypatch.setattr(gx, "extend_generator", reversed_where_re_x_positive)
    batch = gx.flow_ball(g, np.array([0.6, -0.4], dtype=complex),
                         np.array([[0.5], [0.3]], dtype=complex), T=3.0)
    assert batch.exited.tolist() == [True, False]
    assert 1 < batch.reached[0] < batch.reached[1]
    assert np.all(np.isnan(batch.v[batch.reached[0]:, 0]))
    _same_trajectory(batch, 1, alone)
    assert len(counted) == 2 and min(counted) > 0 and batch.steps == sum(counted)


def test_batched_residuals_match_per_point_calls():
    g = make(q=0.25)
    h = koenigs(gen_logistic())
    xs, ys = sample_points(g, 20, seed=13)
    xs = 0.8 * xs
    per_point = max(conjugation_residual(g, h, xs[i:i + 1], ys[i:i + 1])
                    for i in range(20))
    assert abs(conjugation_residual(g, h, xs, ys) - per_point) <= 1e-13
    z, w = h_tilde(g, h, xs, ys)
    for i in range(20):
        zi, wi = h_tilde(g, h, xs[i:i + 1], ys[i:i + 1])
        assert abs(zi[0] - z[i]) <= 1e-12
        assert np.max(np.abs(wi[0] - w[i])) <= 1e-12
    assert dh_tilde_identity_residual(g, h, xs, ys) < 1e-9


# ------------------------------------------------------------ bound gate

def _gate_rejects(Q, sp, lam):
    try:
        ExtendedGenerator(base=gen_logistic(), lam=lam, space=sp, Q=Q)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("m,terms", [
    (1, {(2,): 0.5}),                                 # monomial at the bound
    (1, {(2,): 0.5 + 1e-6}),                          # monomial just above it
    (2, {(1, 1): 1.0}),                               # sup 1/2 on the sphere
    (2, {(2, 0): 0.3, (0, 2): 0.3}),                  # sum of |c| 0.6, sup 0.3
    (2, {(2, 0): 0.45, (1, 1): 0.2}),                 # upper bound 0.55, sup 0.471
    (2, {(2, 0): 0.5, (1, 1): 0.2}),                  # sup 0.519 > 0.5
])
def test_bound_gate_matches_sampled_gate(m, terms):
    """The upper-bound fast path never changes the verdict of the sampled gate
    (r Re lam / 4 = 0.5 here)."""
    sp = BallSpace(r=2.0, m=m)
    Q = HomogeneousPolynomial.build(2, m, terms)
    est = sup_norm_Q(Q, sp, samples=20_000)
    assert est <= sup_norm_Q_bound(Q, sp) + 1e-12
    assert _gate_rejects(Q, sp, 1.0) == (est > 0.5 + 1e-12)


def test_bound_gate_skips_sampling_under_the_upper_bound(monkeypatch):
    import spirallab.genext as gx

    def no_sampling(*a, **k):
        raise AssertionError("sampled sup_norm_Q called")

    monkeypatch.setattr(gx, "sup_norm_Q", no_sampling)
    sp = BallSpace(r=2.0, m=2)
    make(q=0.5, lam=1.0, r=2)
    ExtendedGenerator(base=gen_logistic(), lam=1.0, space=sp,
                      Q=HomogeneousPolynomial.build(2, 2, {(1, 1): 1.0}))
    with pytest.raises(AssertionError):
        make(q=0.6, lam=1.0, r=2)


def test_sup_norm_bound_is_exact_for_monomials():
    """sup |y^a| on the unit sphere: sqrt(prod a^a / |a|^|a|) (Euclidean), 1 (sup)."""
    Q = HomogeneousPolynomial.build(3, 2, {(1, 2): 1.0})
    assert abs(sup_norm_Q_bound(Q, BallSpace(r=3.0, m=2)) - np.sqrt(4 / 27)) <= 1e-15
    assert sup_norm_Q_bound(Q, BallSpace(r=3.0, m=2, p=np.inf)) == 1.0
