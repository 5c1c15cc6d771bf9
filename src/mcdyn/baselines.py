"""Explicit second-order baseline integrator with acceleration-level constraints.

Contrast case for the energy and drift experiments: Heun's method (explicit
trapezoidal Runge-Kutta) on the continuous maximal-coordinate equations of
motion, with constraint forces obtained from the twice-differentiated
constraints at every stage.  No stabilization is applied, so position-level
constraint violations accumulate over time, and the explicit stepping has
no special energy behavior; both are exactly the effects the variational
stepper avoids.

A state is one (N, 13) array, a row per body in id order, with the columns
x | q | v | w; its rates have the same layout (x-dot = v, q-dot, v-dot, w-dot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .errors import SimulationError
from .integrator import StepContext, eliminate_bodies, impulse_blocks, mechanical_energy, solve_reduced, stacked_loads
from .mechanism import (
    Mechanism, check_parameter, check_step_count, check_time_step, constraint_jacobian_position, max_violation,
    velocities, with_world,
)

_EZ = np.array([0.0, 0.0, 1.0])
_DIRECTIONAL_EPS = 1e-5
_HALF_ROTATION = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])  # column scales of [dg/dx, (1/2) rotational dg/dq]
_X, _Q, _V, _W = slice(0, 3), slice(3, 7), slice(7, 10), slice(10, 13)


@dataclass
class BaselineRecord:
    step: int
    time: float
    energy: float
    max_violation: float


def _qdot(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quaternion rates (1/2) L(q) V^T w of body angular velocities w."""
    return 0.5 * (quat.lmat(q) @ quat.VMAT.T @ w[:, :, None])[..., 0]


def _coupling_blocks(mech: Mechanism, state: np.ndarray) -> list:
    """Per kind group, the (2, M, rows, 6) parent and child blocks [dg/dx, (1/2) rotational dg/dq].

    The half factor makes block @ [v; w] the time derivative of the
    residual (q-dot is half the angular-velocity embedding).
    """
    _, q, rot = with_world(state[:, _X], state[:, _Q])
    return [constraint_jacobian_position(group, q, rot) * _HALF_ROTATION for group in mech.groups]


def _residual_rates(mech: Mechanism, state: np.ndarray) -> list:
    """Per kind group, the (M, rows) time derivatives of the joint residuals."""
    vel = np.concatenate([state[:, _V.start :], np.zeros((1, 6))])[..., None]  # [v; w]; the world is at rest
    blocks = _coupling_blocks(mech, state)
    return [(blk @ vel[g.ends]).sum(axis=0)[..., 0] for g, blk in zip(mech.groups, blocks)]


def _rate_bias(mech: Mechanism, state: np.ndarray, motion: np.ndarray) -> list:
    """Per kind group, the directional derivative of the residual rates along ``motion``.

    ``motion`` holds (x-dot, q-dot) in the pose columns and zero in the
    velocity ones, so the velocities stay fixed: a central finite difference
    giving the bias term of the twice-differentiated constraint.
    """
    eps = _DIRECTIONAL_EPS
    return [
        (up - down) / (2.0 * eps)
        for up, down in zip(_residual_rates(mech, state + eps * motion), _residual_rates(mech, state - eps * motion))
    ]


def _acceleration_rates(mech: Mechanism, state: np.ndarray, ctx: StepContext, loads: tuple) -> np.ndarray:
    """The rates of ``state``, accelerations from the index-reduced saddle system under ``loads`` (stacked_loads)."""
    n = len(mech.body_ids)
    rates = np.zeros_like(state)
    rates[:, _X] = state[:, _V]
    rates[:, _Q] = _qdot(state[:, _Q], state[:, _W])
    body_diag = np.zeros((n, 6, 6))
    body_diag[:, :3, :3] = mech.mass[:, None, None] * np.eye(3)
    body_diag[:, 3:, 3:] = mech.inertia
    rhs = np.empty(mech.dim)
    body = rhs[: 6 * n].reshape(n, 6)
    force, torque = loads
    body[:, :3] = force - mech.mass[:, None] * ctx.gravity * _EZ
    jw = (mech.inertia @ state[:, _W, None])[..., 0]
    body[:, 3:] = torque - quat.cross(state[:, _W], jw)
    couplings = []
    for group, blocks, bias in zip(mech.groups, _coupling_blocks(mech, state), _rate_bias(mech, state, rates)):
        rhs[group.rows] = -bias
        couplings.append((blocks, impulse_blocks(blocks)))
    sol = solve_reduced(mech, eliminate_bodies(mech, mech.plan, body_diag, couplings, rhs))
    rates[:, _V], rates[:, _W] = velocities(sol, n)
    return rates


def heun_simulate(mech: Mechanism, ctx: StepContext, n_steps: int) -> list[BaselineRecord]:
    """Integrate with Heun's method, ending before a state that is not finite or a failed solve; leaves the mechanism as is.

    Raises SimulationError, before integrating, for a load on an unknown
    body or a load that is not a finite 3-vector, for an h that
    :func:`check_time_step` rejects, for gravity that is not a finite
    number and for an `n_steps` that is not an integer >= 0.
    """
    check_time_step(ctx.h)
    check_parameter("gravity", ctx.gravity, positive=False)
    count = check_step_count(n_steps)
    loads = stacked_loads(mech, ctx)
    y = np.concatenate([mech.x2, mech.q2, mech.v1, mech.w1], axis=1)
    h = ctx.h
    records = []
    for k in range(1, count + 1):
        try:
            k1 = _acceleration_rates(mech, y, ctx, loads)
            k2 = _acceleration_rates(mech, y + h * k1, ctx, loads)
        except SimulationError:
            break
        y = y + 0.5 * h * (k1 + k2)
        y[:, _Q] /= np.linalg.norm(y[:, _Q], axis=1, keepdims=True)
        if not np.isfinite(y).all():
            break
        records.append(
            BaselineRecord(
                step=k,
                time=k * h,
                energy=mechanical_energy(mech, ctx.gravity, y[:, _X], y[:, _V], y[:, _W]),
                max_violation=max_violation(mech.groups, *with_world(y[:, _X], y[:, _Q])),
            )
        )
    return records
