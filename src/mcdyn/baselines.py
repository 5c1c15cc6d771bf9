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
from .block_solver import sparse_ldu_factorize, sparse_ldu_solve
from .integrator import StepContext, stacked_system
from .mechanism import WORLD, Mechanism, joint_jacobian_raw, max_violation

_EZ = np.array([0.0, 0.0, 1.0])
_DIRECTIONAL_EPS = 1e-5


@dataclass
class BaselineRecord:
    step: int
    time: float
    energy: float
    max_violation: float


class _State:
    """Plain pose/velocity arrays per body, detached from the mechanism knots."""

    def __init__(self, mech: Mechanism):
        self.x = {b: mech.bodies[b].state.x2.copy() for b in mech.body_ids}
        self.q = {b: mech.bodies[b].state.q2.copy() for b in mech.body_ids}
        self.v = {b: mech.bodies[b].state.v1.copy() for b in mech.body_ids}
        self.w = {b: mech.bodies[b].state.w1.copy() for b in mech.body_ids}

    def shifted(self, rates, dt):
        out = _State.__new__(_State)
        out.x = {b: self.x[b] + dt * rates.xdot[b] for b in self.x}
        out.q = {b: self.q[b] + dt * rates.qdot[b] for b in self.q}
        out.v = {b: self.v[b] + dt * rates.vdot[b] for b in self.v}
        out.w = {b: self.w[b] + dt * rates.wdot[b] for b in self.w}
        return out


class _Rates:
    def __init__(self, xdot, qdot, vdot, wdot):
        self.xdot, self.qdot, self.vdot, self.wdot = xdot, qdot, vdot, wdot


def _pose_fn(state: _State):
    def pose(bid):
        if bid == WORLD:
            return np.zeros(3), quat.identity()
        return state.x[bid], state.q[bid]

    return pose


def _coupling_block(joint, state: _State):
    """Per-body (rows, 6) blocks [dg/dx, (1/2) rotational dg/dq] at a state.

    The half factor makes block @ [v; w] the time derivative of the
    residual (q-dot is half the angular-velocity embedding).
    """
    pose = _pose_fn(state)
    out = {}
    for bid, (dx, dq) in joint_jacobian_raw(joint, pose).items():
        q = state.q[bid]
        out[bid] = np.hstack([dx, 0.5 * quat.rotational_jacobian(q, dq)])
    return out


def _residual_rate(joint, state: _State) -> np.ndarray:
    blocks = _coupling_block(joint, state)
    out = np.zeros(joint.rows)
    for bid, blk in blocks.items():
        out += blk @ np.concatenate([state.v[bid], state.w[bid]])
    return out


def _rate_bias(joint, state: _State) -> np.ndarray:
    """Directional derivative of the residual rate along the current motion.

    Central finite difference of d(g)/dt along (x-dot, q-dot) with the
    velocities held fixed; this is the bias term of the twice-differentiated
    constraint.
    """
    eps = _DIRECTIONAL_EPS
    plus = _State.__new__(_State)
    minus = _State.__new__(_State)
    for sgn, dst in ((+1.0, plus), (-1.0, minus)):
        dst.x = {b: state.x[b] + sgn * eps * state.v[b] for b in state.x}
        dst.q = {
            b: state.q[b] + sgn * eps * 0.5 * (quat.lmat(state.q[b]) @ quat.VMAT.T @ state.w[b])
            for b in state.q
        }
        dst.v = state.v
        dst.w = state.w
    return (_residual_rate(joint, plus) - _residual_rate(joint, minus)) / (2.0 * eps)


def _acceleration_rates(mech: Mechanism, state: _State, ctx: StepContext) -> _Rates:
    """Accelerations and multipliers from the index-reduced saddle system."""
    diag = {}
    rhs = {}
    offdiag = {}
    for bid in mech.body_ids:
        body = mech.bodies[bid]
        blk = np.zeros((6, 6))
        blk[:3, :3] = body.mass * np.eye(3)
        blk[3:, 3:] = body.inertia
        diag[bid] = blk
        w = state.w[bid]
        rhs[bid] = np.concatenate(
            [
                ctx.force(bid) - body.mass * ctx.gravity * _EZ,
                ctx.torque(bid) - np.cross(w, body.inertia @ w),
            ]
        )
    for jid in mech.joint_ids:
        joint = mech.joints[jid]
        diag[jid] = np.zeros((joint.rows, joint.rows))
        rhs[jid] = -_rate_bias(joint, state)
        for bid, blk in _coupling_block(joint, state).items():
            offdiag[(jid, bid)] = blk
            offdiag[(bid, jid)] = -blk.T
    sol = sparse_ldu_solve(sparse_ldu_factorize(stacked_system(mech, diag, offdiag, rhs)))

    xdot = {b: state.v[b].copy() for b in mech.body_ids}
    qdot = {
        b: 0.5 * (quat.lmat(state.q[b]) @ quat.VMAT.T @ state.w[b]) for b in mech.body_ids
    }
    vdot = {b: sol[b][:3] for b in mech.body_ids}
    wdot = {b: sol[b][3:] for b in mech.body_ids}
    return _Rates(xdot, qdot, vdot, wdot)


def _energy(mech: Mechanism, state: _State, ctx: StepContext) -> float:
    e = 0.0
    for bid in mech.body_ids:
        body = mech.bodies[bid]
        e += 0.5 * body.mass * (state.v[bid] @ state.v[bid])
        e += 0.5 * (state.w[bid] @ body.inertia @ state.w[bid])
        e += ctx.gravity * body.mass * state.x[bid][2]
    return float(e)


def heun_simulate(mech: Mechanism, ctx: StepContext, n_steps: int) -> list[BaselineRecord]:
    """Integrate with Heun's method; mechanism states are left untouched."""
    state = _State(mech)
    h = ctx.h
    records = []
    for k in range(1, n_steps + 1):
        k1 = _acceleration_rates(mech, state, ctx)
        predictor = state.shifted(k1, h)
        k2 = _acceleration_rates(mech, predictor, ctx)
        nxt = _State.__new__(_State)
        nxt.x = {b: state.x[b] + 0.5 * h * (k1.xdot[b] + k2.xdot[b]) for b in state.x}
        nxt.q = {b: state.q[b] + 0.5 * h * (k1.qdot[b] + k2.qdot[b]) for b in state.q}
        nxt.v = {b: state.v[b] + 0.5 * h * (k1.vdot[b] + k2.vdot[b]) for b in state.v}
        nxt.w = {b: state.w[b] + 0.5 * h * (k1.wdot[b] + k2.wdot[b]) for b in state.w}
        for b in nxt.q:
            nxt.q[b] = nxt.q[b] / np.linalg.norm(nxt.q[b])
        state = nxt
        records.append(
            BaselineRecord(
                step=k,
                time=k * h,
                energy=_energy(mech, state, ctx),
                max_violation=max_violation(mech.joints.values(), _pose_fn(state)),
            )
        )
    return records
