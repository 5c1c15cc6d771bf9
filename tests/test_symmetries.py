"""Discrete momentum conservation and time reversal on multibody mechanisms.

The variational step conserves the discrete linear and angular momentum of
a mechanism on which no external load acts: joint impulses come in equal
and opposite pairs about the joint point.  Each mechanism here first gets
a seeded random force and torque kick, gravity off, over a few steps.
Floating free with gravity off, its momentum must then hold over the free
steps to rounding; under gravity, its vertical momentum must fall by the
weight's impulse each step and the horizontal one hold.  The step is also
symmetric in time: swapping the last two knots and negating the
velocities, a run steps back over the knots it recorded.
"""

import numpy as np
import pytest

from conftest import make_pendulum, make_segmented_chain, star_mechanism
from mcdyn.integrator import StepContext, angular_momentum, step
from mcdyn.mechanism import load_mechanism
from mcdyn.scenarios import Scenario, generate_scenario
from test_mechanism import floating_ring

H = 0.01
KICK_STEPS = 10
FREE_STEPS = 290
TOL = 1e-12
REVERSE_STEPS = 200


def floating(kind: str, n: int, joint_kind: str = "revolute"):
    """Scenario ``kind`` of size n without its world joint, floating free."""
    data = generate_scenario(Scenario(kind=kind, n_links=n, joint_kind=joint_kind))
    data["joints"] = [joint for joint in data["joints"] if joint["parent"] != "world"]
    return load_mechanism(data)


def momentum(mech) -> tuple[np.ndarray, np.ndarray]:
    """Total linear momentum P = sum m v1 and angular momentum L = sum x2 x m v1 + the bodies' discrete spin."""
    p = mech.mass[:, None] * mech.v1
    spin = sum(angular_momentum(body, H) for body in mech.bodies.values())
    return p.sum(axis=0), np.cross(mech.x2, p).sum(axis=0) + spin


def kick(mech, seed: int) -> None:
    """KICK_STEPS gravity-free steps under a seeded random force and torque, N(0, 1) per component, on every body."""
    rng = np.random.default_rng(seed)
    for _ in range(KICK_STEPS):
        ctx = StepContext(h=H, gravity=0.0, forces={b: rng.normal(size=3) for b in mech.bodies},
                          torques={b: rng.normal(size=3) for b in mech.bodies})
        step(mech, ctx, tol=TOL)


def momentum_drift(mech, seed: int) -> tuple[float, float]:
    """Largest change of P and of L (max abs component) over the free steps after a seeded kick."""
    kick(mech, seed)
    free = StepContext(h=H, gravity=0.0)
    p0, l0 = momentum(mech)
    drift_p = drift_l = 0.0
    for _ in range(FREE_STEPS):
        step(mech, free, tol=TOL)
        p, l = momentum(mech)
        drift_p, drift_l = max(drift_p, np.abs(p - p0).max()), max(drift_l, np.abs(l - l0).max())
    assert np.abs(p0).max() > 0.01 and np.abs(l0).max() > 0.01  # the kick set the mechanism moving and turning
    return drift_p, drift_l


# The drift of P is rounding: joint impulses cancel in it at any Newton iterate.  That of L follows
# the Newton tolerance.  Over seeds 0-4 at tol 1e-12 the largest drifts before this test was added
# were 3.3e-16 (P) and 3.7e-13 (L) on the star, 1.1e-16 and 2.1e-13 on the ring; the bounds are
# 30 and 10 times the larger of each.  The floating segmented chain, whose loops go through the
# relieved pivots' pseudo-inverse, drifted at most 4.4e-16 and 2.0e-14.
# The free pendulums 5 drifted at most 8.3e-16 (P) and 3.0e-13 (L) over seeds 0-4.
@pytest.mark.parametrize(
    "build",
    [star_mechanism, floating_ring, lambda: floating("segmented_chain", 3), lambda: floating("pendulum", 5),
     lambda: floating("pendulum", 5, "ball")],
    ids=["star", "floating_ring", "floating_segmented_chain", "floating_pendulum_revolute", "floating_pendulum_ball"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_free_mechanism_conserves_momentum(build, seed):
    drift_p, drift_l = momentum_drift(build(), seed)
    assert drift_p <= 1e-14 and drift_l <= 4e-12, (drift_p, drift_l)


def vertical_momentum_error(mech, seed: int) -> tuple[float, float]:
    """Largest miss of P_x, P_y from their post-kick values and of P_z from P_z0 - M g h k, steps k under gravity."""
    kick(mech, seed)
    ctx = StepContext(h=H)
    p0, _ = momentum(mech)
    weight = mech.mass.sum() * ctx.gravity * H  # the momentum gravity takes away per step
    err_xy = err_z = 0.0
    for k in range(1, FREE_STEPS + 1):
        step(mech, ctx, tol=TOL)
        p, _ = momentum(mech)
        err_xy, err_z = max(err_xy, np.abs(p[:2] - p0[:2]).max()), max(err_z, abs(p[2] - (p0[2] - weight * k)))
    return err_xy, err_z


def reversal_error(mech, seed: int, ctx: StepContext) -> tuple[float, float]:
    """Largest miss in x and q (q up to sign) of a run stepped back over the REVERSE_STEPS it recorded after a kick."""
    kick(mech, seed)
    knots = [(mech.x2.copy(), mech.q2.copy())]
    for _ in range(REVERSE_STEPS):
        step(mech, ctx, tol=TOL)
        knots.append((mech.x2.copy(), mech.q2.copy()))
    mech.x1, mech.q1, mech.x2, mech.q2 = mech.x2, mech.q2, mech.x1, mech.q1
    mech.v1, mech.w1 = -mech.v1, -mech.w1
    mech.v0, mech.w0 = mech.v1.copy(), mech.w1.copy()
    err_x = err_q = 0.0
    for x, q in reversed(knots[:-2]):
        step(mech, ctx, tol=TOL)
        err_x = max(err_x, np.abs(mech.x2 - x).max())
        err_q = max(err_q, np.minimum(np.abs(mech.q2 - q).max(axis=1), np.abs(mech.q2 + q).max(axis=1)).max())
    return err_x, err_q


# Over seeds 0-4 the star missed at most 2.8e-16 in P_x, P_y and 5.7e-14 in P_z, whose size reaches
# M g h FREE_STEPS = 142; the bounds are 35 and 17 times those.
@pytest.mark.parametrize("seed", [0, 1])
def test_gravity_takes_its_impulse_from_vertical_momentum(seed):
    err_xy, err_z = vertical_momentum_error(star_mechanism(), seed)
    assert err_xy <= 1e-14 and err_z <= 1e-12, (err_xy, err_z)


# Largest misses in x and q over seeds 0-4: the star 3.3e-14 and 4.4e-14; the ball pendulum 1.1e-13 and
# 6.8e-13; segmented_chain 3 8.7e-12 and 5.6e-12 on seed 0 (seeds 2 and 3 stall in the line search at
# tol 1e-12, the rounding floor of ROADMAP item 2).  Each bound is at least 10 times its mechanism's
# largest.  With the sign of the gyroscopic term w1 x J w1 flipped in the residual the star misses by
# 1.1e-5 and the pendulum by 0.81; the planar segmented chain, whose w1 and J w1 are parallel, cannot
# see that fault.
@pytest.mark.parametrize("build,gravity,bound", [
    (star_mechanism, 0.0, 1e-12),
    (lambda: make_pendulum(5, "ball"), 9.81, 1e-11),
    (lambda: make_segmented_chain(3), 9.81, 1e-10),
], ids=["star", "pendulum_5_ball", "segmented_chain_3"])
def test_reversed_run_retraces_its_knots(build, gravity, bound):
    err_x, err_q = reversal_error(build(), 0, StepContext(h=H, gravity=gravity))
    assert err_x <= bound and err_q <= bound, (err_x, err_q)
