"""Tests for the DOP853 integrator: its tableau, its orders of convergence, its
dense output, and their use in flow_ball."""

import numpy as np
import pytest

import spirallab.genext as gx
from spirallab import ode, semigroups
from spirallab.extensions import BallSpace, HomogeneousPolynomial
from spirallab.semigroups import Generator


def logistic():
    return Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0)


def logistic_flow(z0, t):
    """Closed-form flow of dz/dt = -(z - z^2)."""
    return z0 * np.exp(-t) / (1.0 - z0 + z0 * np.exp(-t))


Z0 = np.array([0.5 + 0.2j, -0.7 + 0.1j, 0.1j])


def test_dense_output_matches_closed_form_disk_flow():
    g = logistic()
    ts = np.cumsum(np.r_[0.0, np.full(50, 1.5 / 50)])
    dense, _, _ = ode.integrate(lambda z: -g.f(z), Z0, ts[-1], t_eval=ts)
    assert dense.shape == (51, 3)
    assert np.max(np.abs(dense - logistic_flow(Z0, ts[:, None]))) <= 1e-9


def test_last_dense_state_is_the_plain_endpoint():
    g = logistic()
    ts = np.linspace(0.0, 2.0, 7)
    dense, steps, err = ode.integrate(lambda z: -g.f(z), Z0, 2.0, t_eval=ts)
    end, plain_steps, plain_err = ode.integrate(lambda z: -g.f(z), Z0, 2.0)
    assert (steps, err) == (plain_steps, plain_err)
    assert np.array_equal(dense[-1], end)  # the step's own state, not interpolated
    assert np.array_equal(dense[0], Z0)


def test_extra_stages_only_on_steps_with_a_time_inside():
    """The 3 dense-output stages are paid on a step with a time of t_eval
    strictly inside it, once however many times it holds, and not for times
    on the step ends."""
    calls = []

    def rhs(z):
        calls.append(1)
        return -(z - z * z)

    counts = []
    for t_eval in [None, [0.0, 2.0], [1e-3, 1e-3]]:
        calls.clear()
        ode.integrate(rhs, Z0, 2.0, t_eval=t_eval)
        counts.append(len(calls))
    assert counts[1] == counts[0] and counts[2] == counts[0] + 3


def _ball_field():
    g = gx.ExtendedGenerator(base=logistic(), lam=1.0 + 0.5j, space=BallSpace(r=2.0, m=1),
                             Q=HomogeneousPolynomial.build(2, 1, {(2,): 0.25}))

    def f(v):
        out = np.empty_like(v)
        out[:, 0], out[:, 1:] = gx.extend_generator(g, v[:, 0], v[:, 1:])
        return -out

    v0 = np.array([[0.5 + 0.2j, 0.3], [-0.6 + 0.1j, 0.2j], [0.1j, -0.5], [0.05, 0.4 - 0.1j]])
    return f, v0, g.space


@pytest.mark.parametrize("case", ["disk_point", "ball_4x2"])
def test_every_stage_point_is_its_expression_bit_for_bit(monkeypatch, case):
    """The stage points, whose sums of k go through one reused scratch array,
    are bit for bit y + h (A[i, :i] @ k[:i]), with the stages k recomputed
    here from the points the rhs saw, on every stage of every step, dense
    stages included."""
    if case == "disk_point":
        g, domain = logistic(), None
        f, y0 = (lambda z: -g.f(z)), np.array([0.5 + 0.2j])
    else:
        f, y0, space = _ball_field()
        domain = lambda v: space.gauge(v[:, 0], v[:, 1:]) < 1.0  # noqa: E731
    seen, built = [], []
    point = ode._point

    def spy(y, h, kr, i, *out):
        y = y.copy()
        p = point(y, h, kr, i, *out)
        built.append((y, h, i, p.copy()))
        return p

    def rhs(z):
        seen.append(z.copy())
        return f(z)

    monkeypatch.setattr(ode, "_point", spy)
    ts = np.cumsum(np.r_[0.0, np.full(20, 1.5 / 20)])
    _, steps, _ = ode.integrate(rhs, y0, ts[-1], domain=domain, t_eval=ts)
    assert steps > 1 and any(i > 12 for _, _, i, _ in built)
    points = {}
    for y, h, i, p in built:
        if i == 1:
            points = {0: y}
        k = np.array([f(points[j]).ravel() for j in range(i)])
        want = y + h * (ode._A[i, :i] @ k.view(float)).view(complex).reshape(y.shape)
        assert p.tobytes() == want.tobytes(), (i, h)
        points[i] = p
    # the rhs was called at each stage point (not y1, stage 12), in order
    calls = iter([z.tobytes() for z in seen])
    assert all(p.tobytes() in calls for _, _, i, p in built if i != 12)


def test_an_rhs_returning_its_argument_still_integrates():
    """Every stage's sum goes through one scratch array, which no stage point
    and no state may alias: z' = z, whose rhs hands each point back as its
    stage, integrates to e^t z0, at every checkpoint."""
    ts = np.linspace(0.0, 1.0, 11)
    dense, _, _ = ode.integrate(lambda z: z, Z0, 1.0, t_eval=ts)
    assert np.max(np.abs(dense - np.exp(ts)[:, None] * Z0)) <= 1e-10
    y, _, _ = ode.integrate(lambda z: z, Z0, 1.0)
    assert np.max(np.abs(y - np.e * Z0)) <= 1e-10

def test_plain_integration_keeps_its_steps():
    """flow reports hash their steps and endpoint: these pin the integrator's
    steps, its step control and its default tolerance."""
    res = semigroups.flow(logistic(), 0.5 + 0.2j, 2.0)
    assert res.steps == 9
    assert abs(res.endpoint - (0.0957879291493478 + 0.07686177962946647j)) <= 1e-15
    assert semigroups.flow(logistic(), Z0, 1.5).steps == 15


def test_final_step_lands_on_t_end():
    """0.1 + (0.3502 - 0.1) rounds below 0.3502; the last step must still end
    the integration instead of leaving an ulp that underflows."""
    y, steps, _ = ode.integrate(lambda z: 0 * z, [1.0], 0.3502)
    assert steps == 2 and y.tolist() == [1.0]
    dense, _, _ = ode.integrate(lambda z: 0 * z, [1.0], 0.3502, t_eval=[0.2, 0.3502])
    assert dense.tolist() == [[1.0], [1.0]]


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -1.0])
def test_non_finite_or_negative_time_is_rejected(t_end):
    with pytest.raises(ValueError):
        ode.integrate(lambda z: -z, Z0, t_end)


@pytest.mark.parametrize("t_eval", [[0.5, 0.2], [0.0, 3.0], [-0.1, 1.0]])
def test_t_eval_outside_or_unordered_is_rejected(t_eval):
    with pytest.raises(ValueError):
        ode.integrate(lambda z: -z, Z0, 2.0, t_eval=t_eval)


# ----------------------------------------------- the DOP853 tableau

# the nodes c_i in closed form (Hairer, Norsett and Wanner, Solving ODEs I, II.5)
S6 = np.sqrt(6.0)
C = np.array([0.0, (6 - S6) / 67.5, (6 - S6) / 45, (6 - S6) / 30, (6 + S6) / 30,
              1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0,
              1 / 10, 1 / 5, 7 / 9])


def test_stage_rows_sum_to_their_nodes():
    """Every row of the tableau, the 3 dense-output rows included."""
    assert ode._A.shape == (16, 16)
    assert np.all(np.triu(ode._A) == 0)
    assert np.max(np.abs(ode._A.sum(axis=1) - C)) <= 1e-13


@pytest.mark.parametrize("k", range(1, 9))
def test_weights_meet_the_quadrature_conditions(k):
    b = ode._A[12, :12]
    assert abs(b @ C[:12] ** (k - 1) - 1 / k) <= 1e-14


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.8])
def test_dense_weights_meet_the_quadrature_conditions(theta):
    """The state at the fraction theta of a step is y + h sum_i b_i(theta) k_i;
    an order-7 extension has sum_i b_i(theta) c_i^(k-1) = theta^k / k for
    k = 1..7, which every entry of _D enters."""
    b, e = ode._A[12], np.eye(16)
    terms = [b, e[0] - b, 2 * b - e[0] - e[12], *ode._D]
    out = terms[6]
    for i in range(5, -1, -1):
        out = terms[i] + (theta if i % 2 else 1 - theta) * out
    for k in range(1, 8):
        assert abs(theta * out @ C ** (k - 1) - theta ** k / k) <= 1e-14


def test_error_weights_sum_to_zero():
    assert ode._E.shape == (2, 12)
    assert np.max(np.abs(ode._E.sum(axis=1))) <= 1e-14


def fixed_steps(n, T=0.4, c=5.0):
    """Endpoint and worst midpoint errors of n steps of size T/n on the
    logistic flow at speed c.  Given a huge tolerance and a t_end no longer
    than its first trial step (0.1), integrate takes exactly one step."""
    h = T / n
    y, mid = Z0, 0.0
    for j in range(n):
        dense, steps, _ = ode.integrate(lambda z: -c * (z - z * z), y, h, tol=1.0,
                                        t_eval=[h / 2, h])
        assert steps == 1
        mid = max(mid, np.max(np.abs(dense[0] - logistic_flow(Z0, c * (j + 0.5) * h))))
        y = dense[1]
    return np.max(np.abs(y - logistic_flow(Z0, c * T))), mid


def test_step_has_order_8_and_dense_output_order_7():
    """Halving the step cuts the endpoint error by about 2^8 (at least 2^7)
    and the dense output's error by about 2^7 (at least 2^6)."""
    (end, mid), (end2, mid2) = fixed_steps(8), fixed_steps(16)
    assert 1e-14 < end2 and end / end2 >= 2.0 ** 7
    assert 1e-14 < mid2 and mid / mid2 >= 2.0 ** 6


# ----------------------------------------------- flow_ball after an exit

X0 = np.array([0.6, -0.4], dtype=complex)
Y0 = np.array([[0.5], [0.3]], dtype=complex)
# start 0 grows as exp(t) and leaves the ball (r = 2) at gauge exp(2t) 0.61 = 1
EXIT_TIME = -np.log(0.61) / 2.0


@pytest.fixture
def grow_where_re_x_above_quarter(monkeypatch):
    """d(x, y)/dt = +(x, y) for Re x > 1/4 and -(x, y) elsewhere."""
    def field(g, x, y):
        sign = np.where(np.real(x) > 0.25, -1.0, 1.0)
        return sign * x, sign[..., None] * y

    monkeypatch.setattr(gx, "extend_generator", field)
    sp = BallSpace(r=2.0, m=1)
    return gx.ExtendedGenerator(base=logistic(), lam=1.0, space=sp,
                                Q=HomogeneousPolynomial.zero(2, 1))


@pytest.mark.parametrize("T, reached", [(50.0, 1), (EXIT_TIME / 0.99, 50)],
                         ids=["first_segment", "last_segment"])
def test_exit_keeps_the_checkpoints_before_it(grow_where_re_x_above_quarter, T, reached):
    flow = gx.flow_ball(grow_where_re_x_above_quarter, X0, Y0, T)
    assert flow.reached.tolist() == [reached, 51]
    assert flow.exited.tolist() == [True, False]
    v0 = np.concatenate([X0[:, None], Y0], axis=1)
    t = flow.t[:, None, None]
    assert np.max(np.abs(flow.v[:reached, 0] - v0[0] * np.exp(t[:reached, 0]))) <= 1e-9
    assert np.all(np.isnan(flow.v[reached:, 0]))
    assert np.max(np.abs(flow.v[:, 1] - v0[1] * np.exp(-t[:, 0]))) <= 1e-9


# ----------------------------------------------- closed-form ball flow


def test_ball_flow_matches_closed_form():
    """For Q = 0 and r = 1 the flow of -fhat is the disk flow x(t) and
    y(t) = y0 f(x(t))/f(x0) exp(-lam t), since d/dt log f(x) = -f'(x)."""
    g = gx.ExtendedGenerator(base=logistic(), lam=1.0 + 0.5j,
                             space=BallSpace(r=1.0, m=1),
                             Q=HomogeneousPolynomial.zero(1, 1))
    x0 = np.array([0.5 + 0.2j, -0.7 + 0.1j, 0.3j, 0.05])
    y0 = np.array([[0.4], [0.2j], [-0.8], [0.9 - 0.05j]])
    flow = gx.flow_ball(g, x0, y0, 1.5)
    assert not flow.exited.any()
    t = flow.t[:, None]
    x = logistic_flow(x0, t)
    y = y0[:, 0] * (x - x * x) / (x0 - x0 * x0) * np.exp(-g.lam * t)
    assert np.max(np.abs(flow.v[..., 0] - x)) <= 1e-9
    assert np.max(np.abs(flow.v[..., 1] - y)) <= 1e-9
    # the domain predicate sees only step ends; every checkpoint between them
    # must be inside the ball too
    assert np.all(g.space.gauge(flow.v[..., 0], flow.v[..., 1:]) < 1.0)
