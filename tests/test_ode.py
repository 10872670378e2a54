"""Tests for the Dormand-Prince integrator's dense output and its use in
flow_ball."""

import numpy as np
import pytest

import spirallab.genext as gx
from spirallab import ode, semigroups
from spirallab.extensions import BallSpace, HomogeneousPolynomial
from spirallab.semigroups import Generator


def logistic():
    return Generator.from_poly([0, 1, -1], kind="dilation", tau=0.0, mu=1.0)


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


def test_plain_integration_keeps_its_steps():
    """Without t_eval, flow reports (hashed steps and endpoint) stay as they
    were before the dense output existed."""
    res = semigroups.flow(logistic(), 0.5 + 0.2j, 2.0)
    assert res.steps == 29
    assert abs(res.endpoint - (0.09578792915493645 + 0.07686177962096666j)) <= 1e-15
    assert semigroups.flow(logistic(), Z0, 1.5).steps == 49


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
