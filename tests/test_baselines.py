import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_closed_chain, make_pendulum
from mcdyn.errors import SimulationError
from mcdyn.baselines import _V, _W, _acceleration_rates, heun_simulate
from mcdyn.integrator import StepContext, run_simulation, stacked_loads, total_energy
from test_integrator import free_body


def committed(mech):
    """The baseline's state of the committed knot: x2, q2 and the velocities (v1, w1) that reached it."""
    return np.concatenate([mech.x2, mech.q2, mech.v1, mech.w1], axis=1)


class TestAccelerationSolve:
    def test_free_fall_rates(self):
        mech = free_body()
        ctx = StepContext(h=0.01)
        rates = _acceleration_rates(mech, committed(mech), ctx, stacked_loads(mech, ctx))
        assert_allclose(rates[0, _V], [0.0, 0.0, -9.81])
        assert_allclose(rates[0, _W], np.zeros(3), atol=1e-12)

    def test_horizontal_pendulum_initial_swing(self):
        # rod pivoted at one end, released horizontally: the initial angular
        # acceleration is m g (L/2) / (I_center + m (L/2)^2)
        mech = make_pendulum(1)
        ctx = StepContext(h=0.01)
        rates = _acceleration_rates(mech, committed(mech), ctx, stacked_loads(mech, ctx))
        i_center = (1.0 + 3 * 0.05**2) / 12.0
        alpha = 9.81 * 0.5 / (i_center + 0.25)
        assert_allclose(np.abs(rates[0, _W]), [0.0, alpha, 0.0], atol=1e-9)
        # center of mass initially accelerates straight down at alpha * L/2
        assert_allclose(rates[0, _V], [0.0, 0.0, -alpha * 0.5], atol=1e-9)

    def test_constraint_consistent_acceleration(self):
        # acceleration-level solve keeps the second derivative of the
        # residual zero: a one-step violation grows only at O(h^3)
        mech = make_pendulum(2)
        ctx = StepContext(h=0.01)
        recs = heun_simulate(mech, ctx, 1)
        assert recs[0].max_violation < 1e-6


class TestHeun:
    def test_exact_for_free_fall(self):
        mech = free_body()
        ctx = StepContext(h=0.01)
        recs = heun_simulate(mech, ctx, 100)
        # Heun integrates the quadratic free-fall trajectory exactly
        assert np.isclose(recs[-1].energy, 0.0, atol=1e-9)

    def test_energy_error_grows_on_pendulum(self):
        mech = make_pendulum(2)
        ctx = StepContext(h=0.01)
        e0 = total_energy(mech, ctx)
        recs = heun_simulate(mech, ctx, 600)
        err = np.abs(np.array([r.energy for r in recs]) - e0)
        assert err[-1] > 10.0 * max(err[49], 1e-12)

    def test_drift_grows_on_closed_chain(self):
        mech = make_closed_chain(4)
        ctx = StepContext(h=0.01)
        base = heun_simulate(mech, ctx, 200)

        mech_v = make_closed_chain(4)
        var = run_simulation(mech_v, StepContext(h=0.01), 200)
        v_base = max(r.max_violation for r in base)
        v_var = max(r.max_violation for r in var)
        assert v_base > 1e3 * v_var
        # acceleration-level violations keep growing
        assert base[-1].max_violation > 10.0 * base[19].max_violation

    def test_leaves_mechanism_untouched(self):
        mech = make_pendulum(1)
        x_before = mech.bodies[1].state.x2.copy()
        names = ("x1", "q1", "x2", "q2", "v1", "w1", "unknowns")
        arrays_before = {name: getattr(mech, name).copy() for name in names}
        heun_simulate(mech, StepContext(h=0.01), 10)
        assert_allclose(mech.bodies[1].state.x2, x_before)
        for name in names:
            np.testing.assert_array_equal(getattr(mech, name), arrays_before[name])


class TestHeunInputs:
    """The baseline takes h, gravity and the step count by the variational stepper's rules."""

    @pytest.mark.parametrize("n_steps", [-3, 2.5, "2", None])
    def test_step_count_that_is_no_non_negative_integer_rejected(self, n_steps):
        with pytest.raises(SimulationError, match=f"^n_steps must be a non-negative integer, got {re.escape(repr(n_steps))}$"):
            heun_simulate(make_pendulum(2), StepContext(h=0.01), n_steps)

    def test_any_integer_step_count_taken(self):
        assert heun_simulate(make_pendulum(2), StepContext(h=0.01), 0) == []
        assert [r.step for r in heun_simulate(make_pendulum(2), StepContext(h=0.01), np.int64(2))] == [1, 2]

    # a negative h would integrate backwards, a tiny one return records; a huge or NaN one ended in a
    # SingularBlockError, a string in a numpy type error
    @pytest.mark.parametrize("h,message", [
        (-0.01, "be finite and positive"),
        (np.nan, "be finite and positive"),
        ("0.01", "be finite and positive"),
        (1e-200, "lie between about 1.5e-154 and 1.3e154"),
        (1e200, "lie between about 1.5e-154 and 1.3e154"),
    ])
    def test_bad_time_step_rejected_before_integrating(self, h, message):
        with pytest.raises(SimulationError, match=f"^h must {message}, got {re.escape(repr(h))}$"):
            heun_simulate(make_pendulum(2), StepContext(h=h), 3)

    @pytest.mark.parametrize("gravity", [np.nan, np.inf, "9.81", None])
    def test_bad_gravity_rejected_before_integrating(self, gravity):
        with pytest.raises(SimulationError, match=f"^gravity must be finite, got {re.escape(repr(gravity))}$"):
            heun_simulate(make_pendulum(2), StepContext(h=0.01, gravity=gravity), 3)
