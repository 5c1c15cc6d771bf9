"""Explicit second-order baseline integrator with acceleration-level constraints.

Contrast case for the energy and drift experiments: Heun's method (explicit
trapezoidal Runge-Kutta) on the continuous maximal-coordinate equations of
motion, with constraint forces obtained from the twice-differentiated
constraints at every stage.  No stabilization is applied, so position-level
constraint violations accumulate over time, and the explicit stepping has
no special energy behavior; both are exactly the effects the variational
stepper avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .integrator import StepContext, eliminate_bodies, mechanical_energy, solve_reduced, stacked_loads
from .mechanism import (
    Mechanism, check_parameter, check_step_count, check_time_step, constraint_jacobian_position, max_violation,
    velocities, with_world,
)

_EZ = np.array([0.0, 0.0, 1.0])
_DIRECTIONAL_EPS = 1e-5
_HALF_ROTATION = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])  # column scales of [dg/dx, (1/2) rotational dg/dq]


@dataclass
class BaselineRecord:
    step: int
    time: float
    energy: float
    max_violation: float


@dataclass
class _State:
    """Stacked poses and velocities (or their rates), one row per body in id order."""

    x: np.ndarray
    q: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def committed(cls, mech: Mechanism) -> "_State":
        """Knot-2 poses and the velocities (v1, w1) that reached them (not copied)."""
        return cls(mech.x2, mech.q2, mech.v1, mech.w1)

    def shifted(self, rates: "_State", dt: float) -> "_State":
        return _State(
            self.x + dt * rates.x, self.q + dt * rates.q, self.v + dt * rates.v, self.w + dt * rates.w
        )


def _qdot(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quaternion rates (1/2) L(q) V^T w of body angular velocities w."""
    return 0.5 * (quat.lmat(q) @ quat.VMAT.T @ w[:, :, None])[..., 0]


def _coupling_blocks(mech: Mechanism, state: _State) -> list:
    """Per kind group, the (2, M, rows, 6) parent and child blocks [dg/dx, (1/2) rotational dg/dq].

    The half factor makes block @ [v; w] the time derivative of the
    residual (q-dot is half the angular-velocity embedding).
    """
    _, q, rot = with_world(state.x, state.q)
    return [constraint_jacobian_position(group, q, rot) * _HALF_ROTATION for group in mech.groups]


def _residual_rates(mech: Mechanism, state: _State) -> list:
    """Per kind group, the (M, rows) time derivatives of the joint residuals."""
    vel = np.concatenate([state.v, state.w], axis=1)
    vel = np.concatenate([vel, np.zeros((1, 6))])[..., None]  # the world is at rest
    blocks = _coupling_blocks(mech, state)
    return [(blk @ vel[g.ends]).sum(axis=0)[..., 0] for g, blk in zip(mech.groups, blocks)]


def _rate_bias(mech: Mechanism, state: _State) -> list:
    """Per kind group, the directional derivative of the residual rates along the motion.

    Central finite difference of d(g)/dt along (x-dot, q-dot) with the
    velocities held fixed; this is the bias term of the twice-differentiated
    constraint.
    """
    eps = _DIRECTIONAL_EPS
    qdot = _qdot(state.q, state.w)
    plus = _State(state.x + eps * state.v, state.q + eps * qdot, state.v, state.w)
    minus = _State(state.x - eps * state.v, state.q - eps * qdot, state.v, state.w)
    return [
        (up - down) / (2.0 * eps)
        for up, down in zip(_residual_rates(mech, plus), _residual_rates(mech, minus))
    ]


def _acceleration_rates(mech: Mechanism, state: _State, ctx: StepContext, loads: tuple) -> _State:
    """Accelerations and multipliers from the index-reduced saddle system under ``loads`` (stacked_loads)."""
    n = len(mech.body_ids)
    body_diag = np.zeros((n, 6, 6))
    body_diag[:, :3, :3] = mech.mass[:, None, None] * np.eye(3)
    body_diag[:, 3:, 3:] = mech.inertia
    rhs = np.empty(mech.dim)
    body = rhs[: 6 * n].reshape(n, 6)
    force, torque = loads
    body[:, :3] = force - mech.mass[:, None] * ctx.gravity * _EZ
    jw = (mech.inertia @ state.w[:, :, None])[..., 0]
    body[:, 3:] = torque - quat.cross(state.w, jw)
    couplings = []
    for group, blocks, bias in zip(mech.groups, _coupling_blocks(mech, state), _rate_bias(mech, state)):
        rhs[group.rows] = -bias
        couplings.append((blocks, -blocks.transpose(0, 1, 3, 2)))
    sol = solve_reduced(mech, eliminate_bodies(mech, mech.plan, body_diag, couplings, rhs))
    return _State(state.v.copy(), _qdot(state.q, state.w), *velocities(sol, n))


def heun_simulate(mech: Mechanism, ctx: StepContext, n_steps: int) -> list[BaselineRecord]:
    """Integrate with Heun's method; the mechanism's state is left untouched.

    Raises SimulationError, before integrating, for a load on an unknown
    body or a load that is not a finite 3-vector, for an h that
    :func:`check_time_step` rejects, for gravity that is not a finite
    number and for an `n_steps` that is not an integer >= 0.
    """
    check_time_step(ctx.h)
    check_parameter("gravity", ctx.gravity, positive=False)
    count = check_step_count(n_steps)
    loads = stacked_loads(mech, ctx)
    state = _State.committed(mech)
    h = ctx.h
    records = []
    for k in range(1, count + 1):
        k1 = _acceleration_rates(mech, state, ctx, loads)
        k2 = _acceleration_rates(mech, state.shifted(k1, h), ctx, loads)
        q = state.q + 0.5 * h * (k1.q + k2.q)
        state = _State(
            state.x + 0.5 * h * (k1.x + k2.x),
            q / np.linalg.norm(q, axis=1, keepdims=True),
            state.v + 0.5 * h * (k1.v + k2.v),
            state.w + 0.5 * h * (k1.w + k2.w),
        )
        records.append(
            BaselineRecord(
                step=k,
                time=k * h,
                energy=mechanical_energy(mech, ctx.gravity, state.x, state.v, state.w),
                max_violation=max_violation(mech.groups, *with_world(state.x, state.q)),
            )
        )
    return records
