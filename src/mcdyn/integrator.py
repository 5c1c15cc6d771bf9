"""Implicit variational stepping of a mechanism.

Each step solves the nonlinear system stacking, for every body, the
discrete translational and rotational momentum-balance residuals over the
last two knots and, for every constraint, the joint residual evaluated at
the predicted next knot.  The unknowns are the next-interval velocities of
all bodies plus the constraint impulses.  A damped Newton iteration drives
the residual to tolerance; the converged velocities then advance the poses
through the norm-preserving update rules.  The next step's solve starts
from the velocities extrapolated over the last two steps, 2 (v1, w1) -
(v0, w0), which are O(h^2) off its solution where the last solution is
O(h) off (Hairer, Lubich & Wanner, *Geometric Numerical Integration*,
2006, VIII.6), and from the last solution's multipliers.

Each Newton step is solved body first, by the mechanism's elimination
plan (``mech.plan``).  Bodies couple only to joints, so all bodies with
at most three joints are eliminated in one batched pass while the
Jacobian is assembled (:func:`eliminate_bodies`); the sparse block LDU
then runs over the joints and the hubs (bodies with more joints), a
level of mutually independent nodes at a time in the plan's level
order, and one batched back-substitution recovers the other body rows
(:func:`solve_reduced`).
The full bodies-and-joints system (:func:`newton_system_at`) is built by
the same code under a plan that eliminates no body first.

Every residual and Jacobian evaluation works on stacked arrays: all bodies
at once, and all joints of one kind at once, from one batched evaluation
of the pose's rotation matrices.  The state is the
mechanism's knot arrays and its stacked unknown vector ``mech.unknowns``
(see :class:`~mcdyn.mechanism.Mechanism`).  A solve iterates on a copy of
``mech.unknowns`` and puts the last accepted vector back when it ends,
also when it raises; a step puts its predicted start there first and
rebinds the knot arrays after the solve.  One simulation
context is single-threaded; independent mechanisms may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quaternions as quat
from .block_solver import (
    NodeSystem,
    augment_loop_node,  # unused here; stepbench's tracer still patches this name
    check_pivots,
    name_failure,
    sparse_ldu_factorize,
    sparse_ldu_solve,
)
from .errors import AngularRateError, LineSearchError, NonConvergenceError, SimulationError
from .mechanism import (
    EliminationPlan,
    Mechanism,
    check_parameter,
    check_step_count,
    check_time_step,
    constraint_jacobian_position,
    constraint_jacobian_velocity,
    joint_residual,
    velocities,
    with_world,
)

_EZ = np.array([0.0, 0.0, 1.0])
_MAX_HALVINGS = 20
_MAX_ITERS = 100


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


def stacked_loads(mech: Mechanism, ctx: StepContext) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) forces and torques of ``ctx``, one row per body in id order.

    Raises SimulationError for a load on an unknown body or a load that is
    not a finite 3-vector.  Each kind of load is stacked and checked in one
    pass; only a failing pass walks its entries, to name the first bad one.
    """
    out = np.zeros((2, len(mech.body_ids), 3))
    for rows, (name, loads) in zip(out, (("force", ctx.forces), ("torque", ctx.torques))):
        if not loads:
            continue
        try:
            at = [mech.body_index[bid] for bid in loads]
            values = np.array(list(loads.values()), dtype=float)
            ok = values.shape == (len(at), 3) and np.isfinite(values).all()
        except (KeyError, TypeError, ValueError):
            ok = False
        if ok:
            rows[at] = values
            continue
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
    return out[0], out[1]


@dataclass
class SystemLayout:
    """The committed state one step's stacked residual is read against.

    The arrays have one row per body in id order, like the mechanism's
    state arrays.  The w1 terms of the rotational momentum balance and the
    knot-2 blocks do not change during a step and are computed once.
    """

    h: float
    gravity: float
    x2: np.ndarray  # (N, 3)
    q2: np.ndarray  # (N, 4)
    v1: np.ndarray  # (N, 3)
    force: np.ndarray  # (N, 3)
    torque2: np.ndarray  # (N, 3), twice the body torque
    jw1s1: np.ndarray  # (N, 3), J w1 sqrt((2/h)^2 - w1.w1)
    cross1: np.ndarray  # (N, 3), w1 x J w1
    pos_blocks: list  # per kind group, from position_jacobian_blocks


def build_layout(mech: Mechanism, ctx: StepContext) -> SystemLayout:
    """Read the committed knots and the loads of ``ctx`` into stacked arrays.

    Raises SimulationError for bad loads (:func:`stacked_loads`).
    """
    w1 = mech.w1
    force, torque = stacked_loads(mech, ctx)
    jw1 = (mech.inertia @ w1[:, :, None])[..., 0]
    return SystemLayout(
        h=ctx.h,
        gravity=ctx.gravity,
        x2=mech.x2,
        q2=mech.q2,
        v1=mech.v1,
        force=force,
        torque2=2.0 * torque,
        jw1s1=jw1 * quat._rate_scalar(w1, ctx.h)[:, None],
        cross1=quat.cross(w1, jw1),
        pos_blocks=position_jacobian_blocks(mech),
    )


def _predicted_pose(layout: SystemLayout, v2: np.ndarray, w2: np.ndarray) -> tuple:
    """The next knot predicted from the velocities (v2, w2): (x, q, rot, rate).

    ``x``, ``q`` and ``rot`` are its stacked poses and their rotations with
    the world's row last (:func:`~mcdyn.mechanism.with_world`), ``rate`` the
    rate scalars sqrt((2/h)^2 - w2.w2).  Raises AngularRateError when some
    ||w2|| >= 2/h.
    """
    h = layout.h
    rate = quat._rate_scalar(w2, h)
    return (*with_world(layout.x2 + h * v2, quat._orientation_update(layout.q2, w2, rate, h)), rate)


# ---------------------------------------------------------------------------
# residual


def impulse_blocks(pos: np.ndarray) -> np.ndarray:
    """The impulse directions -P^T of (2, M, rows, 6) blocks P, C-contiguous: products with a transposed view are slower."""
    return np.negative(pos.transpose(0, 1, 3, 2), order="C")


def body_sums(mech: Mechanism, terms: list) -> np.ndarray:
    """(N + 1, 6) sums of each kind group's (2, M, 6) ``terms`` at its ends (the world's row last), in np.add.at's order from zero."""
    n = len(mech.body_ids)
    return np.bincount(mech.end_cells, np.concatenate([np.zeros(0), *terms], axis=None), 6 * (n + 1)).reshape(n + 1, 6)


def position_jacobian_blocks(mech: Mechanism) -> list:
    """Per kind group, the knot-2 (parent, child) position-Jacobian blocks and their :func:`impulse_blocks`.

    These depend only on committed poses, so one computation (the layout's
    ``pos_blocks``) serves every evaluation within a step's solve.
    """
    _, q2, rot2 = with_world(mech.x2, mech.q2)
    return [(pos, impulse_blocks(pos)) for pos in (constraint_jacobian_position(g, q2, rot2) for g in mech.groups)]


def assemble_residual(
    mech: Mechanism, layout: SystemLayout, s: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Stacked residual at the unknowns ``s`` (body rows, then joint rows), and the pose it read.

    Joint rows evaluate at the predicted next knot so that the converged
    step satisfies the constraints at the position level.  Body rows
    subtract the impulse pull, the transposed knot-2 position Jacobian
    (``layout.pos_blocks``) applied to the multipliers.  Returns (f, pose),
    ``pose`` the predicted knot of :func:`_predicted_pose`, which
    :func:`jacobian_blocks` at the same unknowns reads.  Raises
    AngularRateError when some ||w2|| >= 2/h.
    """
    n = len(mech.body_ids)
    h = layout.h
    v2, w2 = velocities(s, n)
    pose = _predicted_pose(layout, v2, w2)
    f = np.empty(mech.dim)
    for group in mech.groups:
        f[group.rows] = joint_residual(group, *pose[:3])
    pull = body_sums(mech, [(s[g.rows][:, None, :] @ pos)[..., 0, :] for g, (pos, _) in zip(mech.groups, layout.pos_blocks)])
    jw2 = (mech.inertia @ w2[:, :, None])[..., 0]
    s2 = pose[3][:, None]
    body = f[: 6 * n].reshape(n, 6)
    body[:, :3] = (
        mech.mass[:, None] * ((v2 - layout.v1) / h + layout.gravity * _EZ)
        - layout.force
        - pull[:n, :3]
    )
    body[:, 3:] = (
        jw2 * s2
        + quat.cross(w2, jw2)
        - layout.jw1s1
        + layout.cross1
        - layout.torque2
        - pull[:n, 3:]
    )
    return f, pose


# ---------------------------------------------------------------------------
# Jacobian


@dataclass
class ReducedSystem:
    """A Newton-pattern system after the bodies a plan eliminates first are eliminated.

    The system is [[B, C], [V, 0]] over (body rows, joint rows), with B the
    block-diagonal body blocks, C the couplings in the bodies' rows and V
    those in the joints' rows.  With E those bodies, ``joints`` is the
    system left over the hubs and joints on the plan's layout, with the
    Schur complement -V_E B_E^-1 C_E added to the joint block and the
    right-hand side f_J - V_E B_E^-1 f_E.  ``inverse`` stacks B_E^-1 with
    zero rows for the hubs and the world, ``body_rhs`` stacks f_B with a
    zero last row, and ``cols`` keeps each kind group's C blocks,
    (2, M, 6, rows) on its parent and child side, for the back-substitution.
    """

    joints: NodeSystem
    inverse: np.ndarray  # (N + 1, 6, 6)
    body_rhs: np.ndarray  # (N + 1, 6)
    cols: list


def eliminate_bodies(
    mech: Mechanism, plan: EliminationPlan, body_diag: np.ndarray, couplings: list, rhs: np.ndarray
) -> ReducedSystem:
    """Eliminate the bodies outside the hubs of ``plan`` from a Newton-pattern system in one batched pass.

    ``body_diag`` stacks the (N, 6, 6) body blocks, whose translational
    parts are multiples of the identity and which have no translational-
    rotational coupling; joint diagonal blocks are zero.  ``couplings``
    holds per kind group the stacked blocks (row, col): (2, M, rows, 6)
    blocks in the joints' rows and (2, M, 6, rows) blocks in the bodies'
    rows, on the parent side, then the child side; world parents
    contribute nothing.  ``rhs`` and the plan's layout have the unknowns'
    rows.  Bodies are never adjacent to each other, so the pivots of
    ``plan.first`` are their body blocks: they are inverted together and
    checked in one pass, raising SingularBlockError naming the first
    failing body in id order.  The Schur blocks, one term per eliminated
    body and joint pair (the layout adds the terms of one pair), the
    hubs' blocks and their couplings go into the plan's layout, whose
    sweep alone pivots the hubs; under a plan with no ``first`` the joint
    diagonal blocks are zero and the sweep pivots every body.
    """
    n = len(mech.body_ids)
    first = plan.first
    inverse = np.zeros((n + 1, 6, 6))  # hubs and world parents meet zero rows
    if len(first):
        pivots = body_diag[first]
        inverse[first, :3, :3] = np.eye(3) / pivots[:, :1, :1]
        try:
            inverse[first, 3:, 3:] = np.linalg.inv(pivots[:, 3:, 3:])
        except np.linalg.LinAlgError as err:
            name_failure(pivots, [6] * len(first), [mech.body_ids[r] for r in first], (), (), err)
        check_pivots(body_diag.ravel(), inverse[:n].ravel(), np.arange(0, 36 * n, 36), first, mech.body_ids, [6] * n)
    body_rhs = np.zeros((n + 1, 6))
    body_rhs[:n] = rhs[: 6 * n].reshape(n, 6)
    rhs = rhs.copy()
    blocks, left, cols = [], [], []  # per group, V B^-1 and C on both sides
    for group, (row, col) in zip(mech.groups, couplings):
        vb = row @ inverse[group.ends]
        diag = vb @ col
        blocks.append(-(diag[0] + diag[1]))
        pull = vb @ body_rhs[group.ends][..., None]
        rhs[group.rows] -= (pull[0] + pull[1])[..., 0]
        left.append(vb)
        cols.append(col)
    blocks += [-(left[g][rows] @ cols[h][cs]) for g, h, _, rows, cs in plan.joint_pairs]
    blocks += [body_diag[plan.hubs], *(block[hub] for k, hub in plan.hub_sides for block in couplings[k])]
    joints = plan.layout.system(blocks, rhs)
    return ReducedSystem(joints=joints, inverse=inverse, body_rhs=body_rhs, cols=cols)


def solve_reduced(mech: Mechanism, system: ReducedSystem) -> np.ndarray:
    """The solution of a body-eliminated system, laid out like the unknowns.

    The sparse LDU over the plan's layout gives the hub and joint rows and
    zero in the others; the rows of the bodies eliminated first are then
    B^-1 (f_B - C x_J), at once.
    """
    n = len(mech.body_ids)
    x = sparse_ldu_solve(sparse_ldu_factorize(system.joints))
    rest = system.body_rhs - body_sums(mech, [(col @ x[g.rows][..., None])[..., 0] for g, col in zip(mech.groups, system.cols)])
    # the hubs' rows of B^-1 are zero: this adds to the other bodies' rows only
    x[: 6 * n] += (system.inverse[:n] @ rest[:n, :, None]).ravel()
    return x


def jacobian_blocks(
    mech: Mechanism, layout: SystemLayout, s: np.ndarray, pose: tuple
) -> tuple[np.ndarray, list]:
    """The exact Jacobian of the residual at the unknowns ``s``, as stacked blocks.

    ``pose`` is the predicted knot :func:`assemble_residual` returned at
    the same unknowns.  Returns the (N, 6, 6) velocity derivatives of the
    bodies' momentum balances and, per kind group, the couplings (row,
    col) of :func:`eliminate_bodies`: the predicted-knot velocity
    Jacobian in the joints' rows and minus the transposed knot-2 position
    Jacobian (the impulse direction) in the bodies' rows.  The joint
    diagonal blocks are exactly zero, so the pattern is the mechanism's
    incidence graph.
    """
    n = len(mech.body_ids)
    h = layout.h
    _, w2 = velocities(s, n)
    _, q3, rot3, rate = pose
    delta = np.concatenate([quat._update_rotation_jacobian(w2, rate, h), np.zeros((1, 3, 3))])  # the world does not move
    J = mech.inertia
    jw = (J @ w2[:, :, None])[..., 0]
    s2 = rate[:, None, None]
    body_diag = np.zeros((n, 6, 6))
    body_diag[:, :3, :3] = (mech.mass / h)[:, None, None] * np.eye(3)
    body_diag[:, 3:, 3:] = (
        J * s2 - jw[:, :, None] * (w2[:, None, :] / s2) + quat.skew(w2) @ J - quat.skew(jw)
    )
    couplings = [
        (constraint_jacobian_velocity(group, q3, rot3, delta, h), impulse)
        for group, (_, impulse) in zip(mech.groups, layout.pos_blocks)
    ]
    return body_diag, couplings


def assemble_jacobian(
    mech: Mechanism, layout: SystemLayout, s: np.ndarray, pose: tuple, f: np.ndarray
) -> ReducedSystem:
    """The Newton system at the unknowns ``s`` with the bodies outside the hubs eliminated.

    The blocks of :func:`jacobian_blocks` at ``pose``, with the residual
    ``f`` at the same unknowns as the right-hand side, go through
    :func:`eliminate_bodies` under ``mech.plan``; :func:`solve_reduced`
    solves the result.
    """
    return eliminate_bodies(mech, mech.plan, *jacobian_blocks(mech, layout, s, pose), f)


def newton_system_at(mech: Mechanism, ctx: StepContext) -> NodeSystem:
    """The first Newton system of a solve from ``mech.unknowns``, bodies and joints as nodes.

    The Newton loop's own builder under a plan that eliminates no body
    first: the full system over bodies and joints in the graph's
    children-first order, each cycle's loop joints stacked into a
    relieved node right after the cycle's highest node.
    It is evaluated at ``mech.unknowns`` (between steps, the last
    solution), as :func:`newton_solve` called directly starts; a
    :func:`step` would start from its predicted velocities instead.  Its
    layout's rows are the unknowns', so ``layout.perm`` maps the unknowns
    into elimination order.
    """
    layout = build_layout(mech, ctx)
    s = mech.unknowns
    f, pose = assemble_residual(mech, layout, s)
    return eliminate_bodies(mech, mech.full_plan, *jacobian_blocks(mech, layout, s, pose), f).joints


# ---------------------------------------------------------------------------
# Newton iteration and stepping


@dataclass
class NewtonInfo:
    iterations: int
    residual_norm: float
    history: list  # residual 2-norm before the first and after each iteration
    knot: tuple  # (x, q): the next knot the converged unknowns predict, one row per body


def newton_solve(mech: Mechanism, ctx: StepContext, tol: float = 1e-10) -> NewtonInfo:
    """Solve the implicit step equations starting from ``mech.unknowns``.

    Iterates factor-and-substitute updates with a backtracking line search
    (first step-halving that decreases the residual 2-norm is accepted, up
    to 20 halvings) on a copy of ``mech.unknowns``.  Returns only once the
    residual norm is below `tol`, leaving the converged vector in
    ``mech.unknowns`` and the next knot its accepted residual evaluation
    predicted in ``knot``.  Raises SimulationError for a load on an unknown
    body or a load that is not a finite 3-vector, for an h that
    :func:`check_time_step` rejects, for a `tol` that is not a finite
    positive number and for gravity that is not a finite number, all
    before any state changes; LineSearchError when no halving reduces the
    residual, and NonConvergenceError when _MAX_ITERS iterations do not
    reach `tol`; either way the last accepted vector is left in
    ``mech.unknowns``.
    """
    check_time_step(ctx.h)
    check_parameter("tol", tol, positive=True)
    check_parameter("gravity", ctx.gravity, positive=False)
    layout = build_layout(mech, ctx)  # reads no knot that initializing sets
    mech.ensure_initialized(ctx.h)
    s = mech.unknowns.copy()
    try:
        f, pose = assemble_residual(mech, layout, s)
        history = [float(np.linalg.norm(f))]
        for it in range(_MAX_ITERS + 1):
            if history[-1] < tol:
                return NewtonInfo(iterations=it, residual_norm=history[-1], history=history, knot=(pose[0][:-1], pose[1][:-1]))
            if it == _MAX_ITERS:
                raise NonConvergenceError(f"no convergence after {_MAX_ITERS} iterations (residual {history[-1]:.3e})")
            ds = solve_reduced(mech, assemble_jacobian(mech, layout, s, pose, f))
            for k in range(_MAX_HALVINGS + 1):
                s_try = s - 0.5**k * ds
                try:
                    f_try, pose_try = assemble_residual(mech, layout, s_try)
                except AngularRateError:
                    continue
                if (norm := float(np.linalg.norm(f_try))) < history[-1]:
                    break
            else:
                raise LineSearchError(
                    f"line search stalled at residual {history[-1]:.3e} after {_MAX_HALVINGS} halvings; last Newton "
                    f"step norm {np.linalg.norm(ds):.3e}, residual history [{', '.join(f'{r:.3e}' for r in history)}]"
                )
            s, f, pose = s_try, f_try, pose_try
            history.append(norm)
    finally:
        mech.unknowns = s


def _predicted_start(mech: Mechanism, h: float) -> np.ndarray:
    """The unknowns a step's solve starts from: extrapolated velocities, the last multipliers.

    The body rows are 2 (v1, w1) - (v0, w0), the interval velocities
    extrapolated linearly over the last two steps; the joint rows are the
    last solution's.  The multipliers are not extrapolated: the Newton
    correction never touches their null-space part on redundant loops, so
    extrapolating it could let it drift.  When some predicted ||w|| >= 2/h,
    returns ``mech.unknowns`` itself, the last solution.
    """
    w = 2.0 * mech.w1 - mech.w0
    try:
        quat._rate_scalar(w, h)
    except AngularRateError:
        return mech.unknowns
    s = mech.unknowns.copy()
    v2, w2 = velocities(s, len(mech.body_ids))
    v2[:], w2[:] = 2.0 * mech.v1 - mech.v0, w
    return s


def step(mech: Mechanism, ctx: StepContext, tol: float = 1e-10) -> NewtonInfo:
    """Advance the mechanism by one time step.

    Runs the implicit solve from :func:`_predicted_start` (on first use,
    from the start ``initialize`` makes), commits the next knot the
    solve's accepted residual evaluation predicted (the position and
    orientation updates at the converged velocities), and shifts the
    knots by rebinding the mechanism's knot arrays; the solution stays in
    ``mech.unknowns``.
    Input that :func:`newton_solve` rejects leaves every state array as
    it was; after a failed solve, ``mech.unknowns`` holds its last
    accepted vector.
    """
    last = mech.unknowns
    if mech.h == ctx.h:  # initialized with this h, which was checked then
        mech.unknowns = _predicted_start(mech, ctx.h)
    start = mech.unknowns
    try:
        info = newton_solve(mech, ctx, tol=tol)
    except SimulationError:
        if mech.unknowns is start:  # rejected before the solve took its copy
            mech.unknowns = last
        raise
    mech.x1, mech.q1, (mech.x2, mech.q2) = mech.x2, mech.q2, info.knot
    mech.v0, mech.w0, mech.v1, mech.w1 = mech.v1, mech.w1, mech.v2.copy(), mech.w2.copy()
    return info


def mechanical_energy(mech: Mechanism, gravity: float, x, v, w) -> float:
    """Kinetic plus gravitational potential energy of stacked positions and velocities."""
    jw = (mech.inertia @ w[:, :, None])[..., 0]
    return float(
        np.sum(
            0.5 * mech.mass * (v * v).sum(axis=1)
            + 0.5 * (w * jw).sum(axis=1)
            + gravity * mech.mass * x[:, 2]
        )
    )


def total_energy(mech: Mechanism, ctx: StepContext) -> float:
    """Energy of the committed state: knot-2 positions, velocities (v1, w1)."""
    return mechanical_energy(mech, ctx.gravity, mech.x2, mech.v1, mech.w1)


def angular_momentum(body, h: float) -> np.ndarray:
    """World-frame angular momentum of one body in its discrete form.

    The discrete momentum (h/2)(sqrt((2/h)^2 - w.w) J w - w x J w) of the
    interval ending at the current pose, rotated into the world frame,
    equals J w + O(h^2) and is the quantity the stepper conserves exactly
    for an isolated torque-free body.  SimulationError for an h that
    :func:`check_time_step` rejects.
    """
    check_time_step(h)
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
    bodies: list | None  # (id, x, q, v, w) snapshots when requested


def run_simulation(
    mech: Mechanism,
    ctx: StepContext,
    n_steps: int,
    tol: float = 1e-10,
    record_bodies: bool = False,
) -> list[StepRecord]:
    """Step `n_steps` times under ``ctx``, one record per committed step; SimulationError first unless `n_steps` is an integer >= 0."""
    count = check_step_count(n_steps)
    mech.ensure_initialized(ctx.h)
    records = []
    for k in range(1, count + 1):
        info = step(mech, ctx, tol=tol)
        rec = StepRecord(
            step=k,
            time=k * ctx.h,
            energy=total_energy(mech, ctx),
            max_violation=mech.max_constraint_violation(at=2),
            iterations=info.iterations,
            residual=info.residual_norm,
            bodies=list(zip(mech.body_ids, mech.x2.copy(), mech.q2.copy(), mech.v1.copy(), mech.w1.copy())) if record_bodies else None,
        )
        records.append(rec)
    return records
