"""Discrete momentum conservation on multibody mechanisms.

The variational step conserves the discrete linear and angular momentum of
a mechanism on which no external load acts: joint impulses come in equal
and opposite pairs about the joint point.  Each mechanism here floats free
with gravity off; a seeded random force and torque kick over the first
steps sets it moving, and the momentum after the kick must then hold over
the free steps to rounding.
"""

import numpy as np
import pytest

from conftest import star_mechanism
from mcdyn.integrator import StepContext, angular_momentum, step
from mcdyn.mechanism import load_mechanism
from mcdyn.scenarios import Scenario, generate_scenario
from test_mechanism import floating_ring

H = 0.01
KICK_STEPS = 10
FREE_STEPS = 290
TOL = 1e-12


def floating_segmented_chain(k=3):
    """segmented_chain k without its world hinge: k parallelogram loops floating free."""
    data = generate_scenario(Scenario(kind="segmented_chain", n_links=k))
    data["joints"] = [joint for joint in data["joints"] if joint["parent"] != "world"]
    return load_mechanism(data)


def momentum(mech) -> tuple[np.ndarray, np.ndarray]:
    """Total linear momentum P = sum m v1 and angular momentum L = sum x2 x m v1 + the bodies' discrete spin."""
    p = mech.mass[:, None] * mech.v1
    spin = sum(angular_momentum(body, H) for body in mech.bodies.values())
    return p.sum(axis=0), np.cross(mech.x2, p).sum(axis=0) + spin


def momentum_drift(mech, seed: int) -> tuple[float, float]:
    """Largest change of P and of L (max abs component) over the free steps after a seeded kick."""
    rng = np.random.default_rng(seed)
    for _ in range(KICK_STEPS):
        ctx = StepContext(h=H, gravity=0.0, forces={b: rng.normal(size=3) for b in mech.bodies},
                          torques={b: rng.normal(size=3) for b in mech.bodies})
        step(mech, ctx, tol=TOL)
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
@pytest.mark.parametrize("build", [star_mechanism, floating_ring, floating_segmented_chain],
                         ids=["star", "floating_ring", "floating_segmented_chain"])
@pytest.mark.parametrize("seed", [0, 1])
def test_free_mechanism_conserves_momentum(build, seed):
    drift_p, drift_l = momentum_drift(build(), seed)
    assert drift_p <= 1e-14 and drift_l <= 4e-12, (drift_p, drift_l)
