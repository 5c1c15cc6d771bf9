"""Implicit variational stepping of a mechanism.

Each step solves the nonlinear system stacking, for every body, the
discrete translational and rotational momentum-balance residuals over the
last two knots and, for every constraint, the joint residual evaluated at
the predicted next knot.  The unknowns are the next-interval velocities of
all bodies plus the constraint impulses.  A damped Newton iteration with
the graph-ordered sparse block solver drives the residual to tolerance;
the converged velocities then advance the poses through the norm-preserving
update rules and the solution warm-starts the next step.

One simulation context is single-threaded: the solver scribbles trial
velocities into the body states while iterating.  Independent mechanisms
may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quaternions as quat
from .block_solver import (
    LOOP_NODE,
    BlockSystem,
    augment_loop_node,
    sparse_ldu_factorize,
    sparse_ldu_solve,
)
from .errors import AngularRateError, LineSearchError, NonConvergenceError, SimulationError
from .mechanism import (
    WORLD,
    Mechanism,
    constraint_jacobian_position,
    constraint_jacobian_velocity,
    joint_residual,
)

_EZ = np.array([0.0, 0.0, 1.0])
_ZERO3 = np.zeros(3)
_ZERO3.setflags(write=False)  # shared default load; never written through
_IDQ = np.array([1.0, 0.0, 0.0, 0.0])
_MAX_HALVINGS = 20


@dataclass
class StepContext:
    """Per-step integration context: time step, gravity, exogenous loads.

    Forces and torques are world-frame / body-frame piecewise-constant
    signals keyed by body id; absent entries mean zero.
    """

    h: float
    gravity: float = 9.81
    forces: dict = field(default_factory=dict)
    torques: dict = field(default_factory=dict)

    def force(self, bid) -> np.ndarray:
        return np.asarray(self.forces.get(bid, _ZERO3), dtype=float)

    def torque(self, bid) -> np.ndarray:
        return np.asarray(self.torques.get(bid, _ZERO3), dtype=float)


def _check_loads(mech: Mechanism, ctx: StepContext) -> None:
    """Reject loads on unknown bodies and loads that are not finite 3-vectors."""
    for name, loads in (("force", ctx.forces), ("torque", ctx.torques)):
        for bid, value in loads.items():
            if bid not in mech.bodies:
                raise SimulationError(f"{name} on unknown body {bid!r}")
            try:
                value = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as err:
                raise SimulationError(f"{name} on body {bid} is not numeric") from err
            if value.shape != (3,):
                raise SimulationError(f"{name} on body {bid} has shape {value.shape}, not (3,)")
            if not np.isfinite(value).all():
                raise SimulationError(f"{name} on body {bid} is not finite: {value}")


@dataclass
class SystemLayout:
    """Slices of the stacked unknown/residual vector, bodies then joints."""

    body_slices: dict
    joint_slices: dict
    dim: int


def build_layout(mech: Mechanism) -> SystemLayout:
    body_slices = {}
    off = 0
    for bid in mech.body_ids:
        body_slices[bid] = slice(off, off + 6)
        off += 6
    joint_slices = {}
    for jid in mech.joint_ids:
        rows = mech.joints[jid].rows
        joint_slices[jid] = slice(off, off + rows)
        off += rows
    return SystemLayout(body_slices=body_slices, joint_slices=joint_slices, dim=off)


def get_unknowns(mech: Mechanism, layout: SystemLayout) -> np.ndarray:
    s = np.empty(layout.dim)
    for bid, sl in layout.body_slices.items():
        st = mech.bodies[bid].state
        s[sl.start : sl.start + 3] = st.v2
        s[sl.start + 3 : sl.stop] = st.w2
    for jid, sl in layout.joint_slices.items():
        s[sl] = mech.multipliers[jid]
    return s


def set_unknowns(mech: Mechanism, layout: SystemLayout, s: np.ndarray) -> None:
    for bid, sl in layout.body_slices.items():
        st = mech.bodies[bid].state
        st.v2 = s[sl.start : sl.start + 3].copy()
        st.w2 = s[sl.start + 3 : sl.stop].copy()
    for jid, sl in layout.joint_slices.items():
        mech.multipliers[jid] = s[sl].copy()


# ---------------------------------------------------------------------------
# residual


def _body_residual(body, pull: np.ndarray, ctx: StepContext) -> np.ndarray:
    st = body.state
    h = ctx.h
    m = body.mass
    J = body.inertia
    out = np.empty(6)
    out[:3] = m * ((st.v2 - st.v1) / h + ctx.gravity * _EZ) - ctx.force(body.id) - pull[:3]
    s2 = quat._rate_scalar(st.w2, h)
    s1 = quat._rate_scalar(st.w1, h)
    Jw2 = J @ st.w2
    Jw1 = J @ st.w1
    out[3:] = (
        Jw2 * s2
        + quat.cross(st.w2, Jw2)
        - Jw1 * s1
        + quat.cross(st.w1, Jw1)
        - 2.0 * ctx.torque(body.id)
        - pull[3:]
    )
    return out


def position_jacobian_blocks(mech: Mechanism) -> dict:
    """Knot-2 position-Jacobian blocks of every joint.

    These depend only on committed poses, so one computation serves every
    residual and Jacobian evaluation within a step's solve.
    """
    pose2 = mech.pose(2)
    return {
        jid: constraint_jacobian_position(mech.joints[jid], pose2)
        for jid in mech.joint_ids
    }


def _predicted_pose(mech: Mechanism, h: float):
    """Pose accessor for the next knot predicted from the current (v2, w2)."""
    cache = {}
    for bid in mech.body_ids:
        st = mech.bodies[bid].state
        cache[bid] = (st.x2 + h * st.v2, quat.orientation_update(st.q2, st.w2, h))

    def pose(bid):
        if bid == WORLD:
            return _ZERO3, _IDQ
        return cache[bid]

    return pose


def assemble_residual(
    mech: Mechanism, ctx: StepContext, layout: SystemLayout, pos_blocks: dict | None = None
) -> np.ndarray:
    """Stacked residual at the current unknowns (body rows, then joint rows).

    Joint rows evaluate at the predicted next knot so that the converged
    step satisfies the constraints at the position level.
    """
    if pos_blocks is None:
        pos_blocks = position_jacobian_blocks(mech)
    pose3 = _predicted_pose(mech, ctx.h)
    f = np.empty(layout.dim)
    pulls = {bid: np.zeros(6) for bid in mech.body_ids}
    for jid, sl in layout.joint_slices.items():
        joint = mech.joints[jid]
        lam = mech.multipliers[jid]
        for bid, blk in pos_blocks[jid].items():
            pulls[bid] += blk.T @ lam
        f[sl] = joint_residual(joint, pose3)
    for bid, sl in layout.body_slices.items():
        f[sl] = _body_residual(mech.bodies[bid], pulls[bid], ctx)
    return f


# ---------------------------------------------------------------------------
# Jacobian


def _body_diag_block(body, ctx: StepContext) -> np.ndarray:
    st = body.state
    h = ctx.h
    J = body.inertia
    s2 = quat._rate_scalar(st.w2, h)
    Jw = J @ st.w2
    out = np.zeros((6, 6))
    out[:3, :3] = (body.mass / h) * np.eye(3)
    out[3:, 3:] = (
        J * s2 - Jw[:, None] * (st.w2[None, :] / s2) + quat.skew(st.w2) @ J - quat.skew(Jw)
    )
    return out


def assemble_jacobian(
    mech: Mechanism, ctx: StepContext, layout: SystemLayout, pos_blocks: dict | None = None
) -> BlockSystem:
    """Exact Jacobian of the stacked residual as a graph-structured block system.

    Diagonal blocks: the 6x6 velocity derivative of each body's momentum
    balance; an exactly zero block for each constraint.  Off-diagonal
    blocks: minus the transposed position-Jacobian (body row, constraint
    column; the impulse direction) and the predicted-knot velocity Jacobian
    (constraint row, body column).  The zero/non-zero pattern is symmetric
    and identical to the mechanism's incidence graph.  Blocks are ordered
    like the residual vector (bodies, then joints) and the right-hand side
    is empty; :func:`newton_system` gives the form the solver factorizes.
    """
    if pos_blocks is None:
        pos_blocks = position_jacobian_blocks(mech)
    pose3 = _predicted_pose(mech, ctx.h)
    diag = {}
    offdiag = {}
    rot_jac = {}
    for bid in mech.body_ids:
        body = mech.bodies[bid]
        diag[bid] = _body_diag_block(body, ctx)
        rot_jac[bid] = quat.orientation_update_jacobian(body.state.q2, body.state.w2, ctx.h)
    for jid in mech.joint_ids:
        joint = mech.joints[jid]
        diag[jid] = np.zeros((joint.rows, joint.rows))
        vel_blocks = constraint_jacobian_velocity(joint, pose3, rot_jac, ctx.h)
        for bid in pos_blocks[jid]:
            offdiag[(bid, jid)] = -pos_blocks[jid][bid].T
            offdiag[(jid, bid)] = vel_blocks[bid]
    order = list(layout.body_slices) + list(layout.joint_slices)
    return BlockSystem(diag=diag, offdiag=offdiag, order=order, rhs={})


def stacked_system(mech: Mechanism, diag: dict, offdiag: dict, rhs: dict) -> BlockSystem:
    """Block system over the mechanism graph in the sparse solver's form.

    Nodes follow the graph's elimination order, and the loop-closure joints
    are stacked into the loop node.
    """
    loops = mech.graph.loop_joints
    order = [n for n in mech.graph.order if n != LOOP_NODE] + sorted(loops)
    return augment_loop_node(BlockSystem(diag=diag, offdiag=offdiag, order=order, rhs=rhs), loops)


def newton_system(
    mech: Mechanism, ctx: StepContext, layout: SystemLayout, f: np.ndarray,
    pos_blocks: dict | None = None,
) -> BlockSystem:
    """The Newton system at the current unknowns, ready to factorize.

    ``f`` is the stacked residual at the same unknowns; it becomes the
    right-hand side of the Jacobian from :func:`assemble_jacobian`.
    """
    system = assemble_jacobian(mech, ctx, layout, pos_blocks)
    for node, sl in (*layout.body_slices.items(), *layout.joint_slices.items()):
        system.rhs[node] = f[sl]
    return stacked_system(mech, system.diag, system.offdiag, system.rhs)


def _solution_vector(sol: dict, layout: SystemLayout, loop_layout) -> np.ndarray:
    ds = np.empty(layout.dim)
    for bid, sl in layout.body_slices.items():
        ds[sl] = sol[bid]
    if loop_layout:
        seg = sol[LOOP_NODE]
        off = 0
        for jid, rows in loop_layout:
            ds[layout.joint_slices[jid]] = seg[off : off + rows]
            off += rows
    for jid, sl in layout.joint_slices.items():
        if jid in sol:
            ds[sl] = sol[jid]
    return ds


# ---------------------------------------------------------------------------
# Newton iteration and stepping


@dataclass
class NewtonInfo:
    iterations: int
    residual_norm: float
    history: list  # residual 2-norm before the first and after each iteration


def newton_solve(
    mech: Mechanism,
    ctx: StepContext,
    tol: float = 1e-10,
    max_iters: int = 100,
) -> NewtonInfo:
    """Solve the implicit step equations from the current warm start.

    Iterates factor-and-substitute updates with a backtracking line search
    (first step-halving that decreases the residual 2-norm is accepted, up
    to 20 halvings).  Returns only once the residual norm is below `tol`,
    leaving the converged unknowns in the mechanism state.  Raises
    SimulationError for a load on an unknown body or a load that is not a
    finite 3-vector, LineSearchError when no halving reduces the residual,
    and NonConvergenceError when `max_iters` iterations do not reach `tol`.
    """
    _check_loads(mech, ctx)
    mech.ensure_initialized(ctx.h)
    layout = build_layout(mech)
    pos_blocks = position_jacobian_blocks(mech)
    s = get_unknowns(mech, layout)
    f = assemble_residual(mech, ctx, layout, pos_blocks)
    norm = float(np.linalg.norm(f))
    history = [norm]
    if norm < tol:
        return NewtonInfo(iterations=0, residual_norm=norm, history=history)
    for it in range(1, max_iters + 1):
        system = newton_system(mech, ctx, layout, f, pos_blocks)
        fact = sparse_ldu_factorize(system)
        sol = sparse_ldu_solve(fact)
        ds = _solution_vector(sol, layout, system.loop_layout)

        alpha = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            s_try = s - alpha * ds
            set_unknowns(mech, layout, s_try)
            try:
                f_try = assemble_residual(mech, ctx, layout, pos_blocks)
                norm_try = float(np.linalg.norm(f_try))
            except AngularRateError:
                norm_try = np.inf
            if norm_try < norm:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            set_unknowns(mech, layout, s)
            raise LineSearchError(
                f"line search stalled at residual {norm:.3e} after {_MAX_HALVINGS} halvings"
            )
        s, f, norm = s_try, f_try, norm_try
        history.append(norm)
        if norm < tol:
            return NewtonInfo(iterations=it, residual_norm=norm, history=history)
    raise NonConvergenceError(
        f"no convergence after {max_iters} iterations (residual {norm:.3e})"
    )


def step(
    mech: Mechanism,
    ctx: StepContext,
    tol: float = 1e-10,
    max_iters: int = 100,
) -> NewtonInfo:
    """Advance the mechanism by one time step.

    Runs the implicit solve, applies the position/orientation updates,
    shifts the knots, and keeps the solution as the next warm start.
    """
    info = newton_solve(mech, ctx, tol=tol, max_iters=max_iters)
    pose3 = _predicted_pose(mech, ctx.h)
    for bid, body in mech.bodies.items():
        st = body.state
        st.x1, st.q1 = st.x2, st.q2
        st.x2, st.q2 = pose3(bid)
        st.v1 = st.v2.copy()
        st.w1 = st.w2.copy()
    return info


def total_energy(mech: Mechanism, ctx: StepContext) -> float:
    """Kinetic plus gravitational potential energy of the committed state."""
    e = 0.0
    for body in mech.bodies.values():
        st = body.state
        e += 0.5 * body.mass * (st.v1 @ st.v1)
        e += 0.5 * (st.w1 @ body.inertia @ st.w1)
        e += ctx.gravity * body.mass * st.x2[2]
    return float(e)


def angular_momentum(body, h: float) -> np.ndarray:
    """World-frame angular momentum of one body in its discrete form.

    The discrete momentum (h/2)(sqrt((2/h)^2 - w.w) J w - w x J w) of the
    interval ending at the current pose, rotated into the world frame,
    equals J w + O(h^2) and is the quantity the stepper conserves exactly
    for an isolated torque-free body.
    """
    st = body.state
    s1 = quat._rate_scalar(st.w1, h)
    Jw = body.inertia @ st.w1
    return quat.rotate(st.q2, (h / 2.0) * (s1 * Jw - quat.cross(st.w1, Jw)))


@dataclass
class StepRecord:
    step: int
    time: float
    energy: float
    max_violation: float
    iterations: int
    residual: float
    bodies: list | None = None  # (id, x, q, v, w) snapshots when requested


def run_simulation(
    mech: Mechanism,
    ctx: StepContext,
    n_steps: int,
    tol: float = 1e-10,
    max_iters: int = 100,
    record_bodies: bool = False,
    loads_fn=None,
) -> list[StepRecord]:
    """Step `n_steps` times, returning one record per committed step.

    ``loads_fn(t) -> (forces, torques)``, when given, refreshes the
    exogenous loads before each step (piecewise constant over the step).
    """
    mech.ensure_initialized(ctx.h)
    records = []
    for k in range(1, n_steps + 1):
        if loads_fn is not None:
            ctx.forces, ctx.torques = loads_fn((k - 1) * ctx.h)
        info = step(mech, ctx, tol=tol, max_iters=max_iters)
        rec = StepRecord(
            step=k,
            time=k * ctx.h,
            energy=total_energy(mech, ctx),
            max_violation=mech.max_constraint_violation(at=2),
            iterations=info.iterations,
            residual=info.residual_norm,
        )
        if record_bodies:
            rec.bodies = [
                (
                    bid,
                    mech.bodies[bid].state.x2.copy(),
                    mech.bodies[bid].state.q2.copy(),
                    mech.bodies[bid].state.v1.copy(),
                    mech.bodies[bid].state.w1.copy(),
                )
                for bid in mech.body_ids
            ]
        records.append(rec)
    return records
