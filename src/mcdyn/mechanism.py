"""Bodies, joints, constraint residuals/Jacobians, and the mechanism graph.

A mechanism is a set of rigid bodies connected by constraints.  Each body
carries its full 6-DOF pose; joints remove degrees of freedom through
explicit constraint equations g = 0 enforced at the position level.

The incidence structure (bodies and constraints as nodes, one edge per
body-constraint attachment) mirrors the block pattern of the implicit
step's Newton matrix, so the elimination order and loop-closure detection
computed here drive the sparse solver directly.

World attachments are constraints against an immovable environment: the
world contributes no unknowns and no graph node of its own, but a virtual
world vertex participates in cycle detection so that chains closed through
the ground are recognized as kinematic loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from . import quaternions as quat
from .block_solver import LOOP_NODE
from .errors import MechanismError, SimulationError

WORLD = "world"

KIND_BALL = "ball"
KIND_REVOLUTE = "revolute"
KIND_FIXED = "fixed_to_world"

ROWS_BY_KIND = {KIND_BALL: 3, KIND_REVOLUTE: 5, KIND_FIXED: 6}

_ASSEMBLY_TOL = 1e-8


@dataclass
class BodyState:
    """Pose and velocity knots of one body.

    Knots 1 and 2 are the two most recent committed states; (v1, w1) is the
    velocity over that interval, with w1 expressed in the knot-1 body frame.
    (v2, w2) is the current guess (or converged value) for the next interval
    and doubles as the warm start of the implicit solve.
    """

    x1: np.ndarray
    q1: np.ndarray
    x2: np.ndarray
    q2: np.ndarray
    v1: np.ndarray
    w1: np.ndarray
    v2: np.ndarray
    w2: np.ndarray


@dataclass
class RigidBody:
    id: int
    mass: float
    inertia: np.ndarray  # 3x3 body-frame inertia about the center of mass
    state: BodyState | None = None


@dataclass
class JointConstraint:
    """A typed constraint between a parent (body or world) and a child body.

    Anchors are constant body-frame vectors from the center of mass to the
    joint; for a world parent the anchor is a world-frame point.  Revolute
    joints also carry body-frame hinge axes; the two constant vectors n1, n2
    complete ``axis_b`` to an orthonormal triad in the child frame and span
    the plane whose alignment the last two rows constrain.
    """

    id: int
    kind: str
    parent: int | str
    child: int
    p_a: np.ndarray
    p_b: np.ndarray
    axis_a: np.ndarray | None = None
    axis_b: np.ndarray | None = None
    n1: np.ndarray = field(init=False, default=None)
    n2: np.ndarray = field(init=False, default=None)
    orientation_target: np.ndarray | None = None  # fixed_to_world only

    def __post_init__(self):
        if self.kind not in ROWS_BY_KIND:
            raise MechanismError(f"joint {self.id}: unknown kind {self.kind!r}")
        if self.kind == KIND_REVOLUTE:
            if self.axis_a is None or self.axis_b is None:
                raise MechanismError(f"joint {self.id}: revolute joint needs both axes")
            self.n1, self.n2 = _axis_complement(self.axis_b)

    @property
    def rows(self) -> int:
        return ROWS_BY_KIND[self.kind]


def _axis_complement(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing `axis` to an orthonormal triad (deterministic)."""
    k = int(np.argmin(np.abs(axis)))
    n1 = np.cross(axis, np.eye(3)[k])
    n1 = n1 / np.linalg.norm(n1)
    n2 = np.cross(axis, n1)
    return n1, n2


# ---------------------------------------------------------------------------
# residuals


def joint_residual(joint: JointConstraint, pose) -> np.ndarray:
    """Constraint residual at the poses given by ``pose(body_id) -> (x, q)``.

    The world parent reads as the origin pose.  Zero iff the joint is
    satisfied: coincident anchor points, plus aligned hinge axes for
    revolute joints, plus matched orientation for fixed attachments.
    """
    xa, qa = pose(joint.parent)
    xb, qb = pose(joint.child)
    ball = xa + quat.rotate(qa, joint.p_a) - xb - quat.rotate(qb, joint.p_b)
    if joint.kind == KIND_BALL:
        return ball
    if joint.kind == KIND_REVOLUTE:
        axis_w = quat.rotate(qa, joint.axis_a)
        return np.concatenate(
            [
                ball,
                [axis_w @ quat.rotate(qb, joint.n1), axis_w @ quat.rotate(qb, joint.n2)],
            ]
        )
    # fixed to world: lock orientation to the target via the relative
    # quaternion's vector part
    rel = (quat.lmat(joint.orientation_target).T @ qb)[1:]
    return np.concatenate([ball, rel])


# ---------------------------------------------------------------------------
# Jacobians


def joint_jacobian_raw(joint: JointConstraint, pose) -> dict:
    """Per-body raw derivative blocks of the residual.

    Returns ``{body_id: (dg_dx, dg_dq)}`` with shapes (rows, 3) and
    (rows, 4); the world side contributes nothing.  Exact for any q.
    """
    out = {}
    xa, qa = pose(joint.parent)
    xb, qb = pose(joint.child)
    rows = joint.rows

    if joint.parent != WORLD:
        dx = np.zeros((rows, 3))
        dq = np.zeros((rows, 4))
        dx[:3] = np.eye(3)
        dq[:3] = quat.rotate_jacobian(qa, joint.p_a)
        if joint.kind == KIND_REVOLUTE:
            daxis = quat.rotate_jacobian(qa, joint.axis_a)
            dq[3] = quat.rotate(qb, joint.n1) @ daxis
            dq[4] = quat.rotate(qb, joint.n2) @ daxis
        out[joint.parent] = (dx, dq)

    dx = np.zeros((rows, 3))
    dq = np.zeros((rows, 4))
    dx[:3] = -np.eye(3)
    dq[:3] = -quat.rotate_jacobian(qb, joint.p_b)
    if joint.kind == KIND_REVOLUTE:
        axis_w = quat.rotate(qa, joint.axis_a)
        dq[3] = axis_w @ quat.rotate_jacobian(qb, joint.n1)
        dq[4] = axis_w @ quat.rotate_jacobian(qb, joint.n2)
    elif joint.kind == KIND_FIXED:
        dq[3:] = quat.lmat(joint.orientation_target).T[1:]
    out[joint.child] = (dx, dq)
    return out


def constraint_jacobian_position(joint: JointConstraint, pose) -> dict:
    """Per-body (rows, 6) blocks [dg/dx , rotational dg/dq] at the given poses.

    The rotational part reduces the raw 4-column derivative to the three
    body-frame rotation directions; these blocks enter the equations of
    motion transposed, multiplied by the constraint impulses.
    """
    out = {}
    for bid, (dx, dq) in joint_jacobian_raw(joint, pose).items():
        _, q = pose(bid)
        out[bid] = np.hstack([dx, quat.rotational_jacobian(q, dq)])
    return out


def constraint_jacobian_velocity(joint: JointConstraint, pose3, rot_jac: dict, h: float) -> dict:
    """Per-body (rows, 6) derivative of the predicted-knot residual.

    The residual is imposed at the predicted knot obtained from the current
    velocity unknowns, so the chain rule carries the factor h through the
    position update and the orientation-update derivative through the
    rotational columns.  ``pose3`` gives the predicted poses
    (x2 + h v2, orientation_update(q2, w2, h)); ``rot_jac`` maps body ids
    to their (4, 3) orientation_update_jacobian(q2, w2, h).
    """
    return {
        bid: np.hstack([h * dx, dq @ rot_jac[bid]])
        for bid, (dx, dq) in joint_jacobian_raw(joint, pose3).items()
    }


# ---------------------------------------------------------------------------
# mechanism graph


@dataclass
class MechanismGraph:
    """Incidence graph of bodies and constraints with its elimination order.

    ``order`` lists nodes children-before-parent with the root last; when
    loop-closure constraints exist they are excluded from the tree and the
    stacked loop node is appended after the root.  ``parent`` maps each
    non-root tree node to its parent.
    """

    adjacency: dict
    order: list
    parent: dict
    loop_joints: set


def build_graph(bodies: dict, joints: dict, root=None) -> MechanismGraph:
    """DFS the incidence graph: elimination order plus loop-closure set.

    A virtual world vertex ties all world attachments together so loops
    closed through the ground are found as DFS back edges.  Neighbor lists
    iterate in ascending id for reproducible orderings.  The default root
    is the virtual world vertex when the mechanism is grounded (making the
    smallest-id world joint the last-eliminated node), else the
    smallest-id body.
    """
    if not bodies:
        raise MechanismError("mechanism has no bodies")
    adjacency: dict = {b: [] for b in bodies}
    world_joints = []
    for jid, joint in joints.items():
        adjacency[jid] = []
        if joint.parent == WORLD:
            world_joints.append(jid)
        else:
            adjacency[jid].append(joint.parent)
            adjacency[joint.parent].append(jid)
        adjacency[jid].append(joint.child)
        adjacency[joint.child].append(jid)
    if world_joints:
        adjacency[WORLD] = sorted(world_joints)
        for jid in world_joints:
            adjacency[jid].insert(0, WORLD)
    for k in adjacency:
        if k != WORLD:
            adjacency[k] = sorted(adjacency[k], key=_id_sort_key)

    if root is None:
        root = WORLD if world_joints else min(bodies)
    elif root not in adjacency:
        raise MechanismError(f"root {root!r} is not a node of the mechanism graph")

    visited = {root}
    discovery = [] if root == WORLD else [root]
    parent: dict = {}
    loops: set = set()
    stack = [(root, None, iter(adjacency[root]))]
    while stack:
        u, par, it = stack[-1]
        v = next(it, None)
        if v is None:
            stack.pop()
            continue
        if v == par or v in loops:
            continue
        if v in visited:
            # Back edge: u is a constraint whose second attachment is already
            # in the tree, so u closes a kinematic loop.
            if u not in joints:
                raise MechanismError(
                    f"unexpected cycle through node {u!r}; duplicate joint edges?"
                )
            loops.add(u)
            assert discovery[-1] == u
            discovery.pop()
            parent.pop(u, None)
            visited.discard(u)
            stack.pop()
            continue
        visited.add(v)
        if v != WORLD:
            discovery.append(v)
        parent[v] = u
        stack.append((v, u, iter(adjacency[v])))

    unreached = [n for n in adjacency if n not in visited and n not in loops and n != WORLD]
    if unreached:
        raise MechanismError(
            f"mechanism graph is disconnected; unreachable nodes: {sorted(unreached, key=_id_sort_key)}"
        )
    parent = {n: p for n, p in parent.items() if p != WORLD and n != WORLD}
    order = list(reversed(discovery))
    if loops:
        order.append(LOOP_NODE)
    return MechanismGraph(
        adjacency={k: v for k, v in adjacency.items() if k != WORLD},
        order=order,
        parent=parent,
        loop_joints=loops,
    )


def _id_sort_key(n):
    return (0, n) if isinstance(n, int) else (1, str(n))


def dfs_order(mech_or_graph, root=None) -> list:
    """Elimination order of the mechanism graph (children first, root last)."""
    graph = _as_graph(mech_or_graph, root)
    return list(graph.order)


def detect_loops(mech_or_graph, root=None) -> set:
    """Ids of the constraints whose removal makes the incidence graph acyclic."""
    graph = _as_graph(mech_or_graph, root)
    return set(graph.loop_joints)


def _as_graph(mech_or_graph, root):
    if isinstance(mech_or_graph, MechanismGraph):
        return mech_or_graph
    if isinstance(mech_or_graph, Mechanism):
        if root is None:
            return mech_or_graph.graph
        return build_graph(mech_or_graph.bodies, mech_or_graph.joints, root=root)
    raise TypeError("expected a Mechanism or MechanismGraph")


# ---------------------------------------------------------------------------
# mechanism container and loader


class Mechanism:
    """Immutable topology (bodies, joints, graph) plus mutable body states.

    Joint definitions and the graph are fixed after construction; body
    states and warm-start multipliers are owned by one simulation context
    at a time.
    """

    def __init__(self, bodies: dict, joints: dict):
        self.bodies = bodies
        self.joints = joints
        self.graph = build_graph(bodies, joints)
        self.multipliers = {jid: np.zeros(j.rows) for jid, j in joints.items()}
        self.h: float | None = None

    @property
    def body_ids(self) -> list:
        return sorted(self.bodies)

    @property
    def joint_ids(self) -> list:
        return sorted(self.joints)

    def initialize(self, h: float) -> None:
        """Build the knot-1 states consistent with the declared velocities.

        The previous knot is reconstructed so that one discrete update from
        it reproduces the current pose exactly; the current velocities
        double as the cold-start guess for the first implicit solve.
        """
        for body in self.bodies.values():
            st = body.state
            st.x1 = st.x2 - h * st.v1
            # lmat(identity) is the identity, so this is the bare step quaternion
            q_step = quat.orientation_update(quat.identity(), st.w1, h)
            st.q1 = quat.multiply(st.q2, quat.inverse(q_step))
            st.v2 = st.v1.copy()
            st.w2 = st.w1.copy()
        for jid, joint in self.joints.items():
            self.multipliers[jid] = np.zeros(joint.rows)
        self.h = h

    def ensure_initialized(self, h: float) -> None:
        """Initialize on first use; another h raises (``initialize`` restarts)."""
        if self.h is None:
            self.initialize(h)
        elif self.h != h:
            raise SimulationError(
                f"time step {h} differs from the initialized {self.h}; "
                "call initialize(h) to restart with the new step"
            )

    def pose(self, at: int):
        """Pose accessor for committed knot 1 or 2."""
        if at not in (1, 2):
            raise ValueError("knot selector must be 1 or 2")

        def _pose(bid):
            if bid == WORLD:
                return np.zeros(3), quat.identity()
            st = self.bodies[bid].state
            if at == 1:
                return st.x1, st.q1
            return st.x2, st.q2

        return _pose

    def max_constraint_violation(self, at: int = 2) -> float:
        pose = self.pose(at)
        worst = 0.0
        for joint in self.joints.values():
            r = joint_residual(joint, pose)
            worst = max(worst, float(np.abs(r).max()))
        return worst


def load_mechanism(source) -> Mechanism:
    """Build and validate a mechanism from a description dict or YAML file path.

    Raises MechanismError on any invariant violation: bad masses or inertia,
    non-unit quaternions or axes, unknown references, inconsistent assembly,
    or a disconnected constraint graph.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        except OSError as err:
            raise MechanismError(f"cannot read mechanism file {source}: {err}") from err
        except yaml.YAMLError as err:
            raise MechanismError(f"malformed mechanism file {source}: {err}") from err
    if not isinstance(data, dict) or "bodies" not in data:
        raise MechanismError("mechanism description must be a mapping with a 'bodies' list")

    bodies: dict = {}
    for entry in data.get("bodies", []):
        body = _parse_body(entry)
        if body.id in bodies:
            raise MechanismError(f"duplicate body id {body.id}")
        bodies[body.id] = body

    joints: dict = {}
    for entry in data.get("joints", []):
        joint = _parse_joint(entry, bodies)
        if joint.id in joints or joint.id in bodies:
            raise MechanismError(f"duplicate node id {joint.id}")
        joints[joint.id] = joint

    mech = Mechanism(bodies, joints)
    viol = mech.max_constraint_violation(at=2)
    if viol > _ASSEMBLY_TOL:
        raise MechanismError(
            f"assembly inconsistent: initial constraint violation {viol:.3e} exceeds {_ASSEMBLY_TOL}"
        )
    return mech


def _parse_body(entry: dict) -> RigidBody:
    try:
        bid = int(entry["id"])
        mass = float(entry["mass"])
        inertia6 = [float(v) for v in entry["inertia"]]
        x = np.array([float(v) for v in entry["position"]])
        q = np.array([float(v) for v in entry["quaternion"]])
    except (KeyError, TypeError, ValueError) as err:
        raise MechanismError(f"malformed body entry: {entry!r}") from err
    v = np.array([float(c) for c in entry.get("velocity", (0.0, 0.0, 0.0))])
    w = np.array([float(c) for c in entry.get("angular_velocity", (0.0, 0.0, 0.0))])
    if bid < 0:
        raise MechanismError(f"body id must be nonnegative, got {bid}")
    if mass <= 0.0:
        raise MechanismError(f"body {bid}: mass must be positive")
    if len(inertia6) != 6:
        raise MechanismError(f"body {bid}: inertia needs 6 entries (xx, yy, zz, xy, xz, yz)")
    ixx, iyy, izz, ixy, ixz, iyz = inertia6
    J = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    if np.any(np.linalg.eigvalsh(J) <= 0.0):
        raise MechanismError(f"body {bid}: inertia matrix is not positive definite")
    if x.shape != (3,) or v.shape != (3,) or w.shape != (3,):
        raise MechanismError(f"body {bid}: vectors must have 3 components")
    if q.shape != (4,) or abs(np.linalg.norm(q) - 1.0) > 1e-9:
        raise MechanismError(f"body {bid}: quaternion must be unit (wxyz order)")
    state = BodyState(
        x1=x.copy(), q1=q.copy(), x2=x.copy(), q2=q.copy(),
        v1=v.copy(), w1=w.copy(), v2=v.copy(), w2=w.copy(),
    )
    return RigidBody(id=bid, mass=mass, inertia=J, state=state)


def _parse_joint(entry: dict, bodies: dict) -> JointConstraint:
    try:
        jid = int(entry["id"])
        kind = str(entry["kind"])
        parent = entry["parent"]
        child = int(entry["child"])
        p_a = np.array([float(v) for v in entry["parent_anchor"]])
        p_b = np.array([float(v) for v in entry["child_anchor"]])
    except (KeyError, TypeError, ValueError) as err:
        raise MechanismError(f"malformed joint entry: {entry!r}") from err
    parent = WORLD if parent == WORLD else int(parent)
    if child not in bodies:
        raise MechanismError(f"joint {jid}: unknown child body {child}")
    if parent != WORLD and parent not in bodies:
        raise MechanismError(f"joint {jid}: unknown parent body {parent}")
    if parent == child:
        raise MechanismError(f"joint {jid}: parent and child must differ")
    axis_a = axis_b = None
    if kind == KIND_REVOLUTE:
        try:
            axis_a = np.array([float(v) for v in entry["parent_axis"]])
            axis_b = np.array([float(v) for v in entry["child_axis"]])
        except (KeyError, TypeError, ValueError) as err:
            raise MechanismError(f"joint {jid}: revolute joint needs parent/child axes") from err
        for name, ax in (("parent_axis", axis_a), ("child_axis", axis_b)):
            if abs(np.linalg.norm(ax) - 1.0) > 1e-9:
                raise MechanismError(f"joint {jid}: {name} must be a unit vector")
    target = None
    if kind == KIND_FIXED:
        if parent != WORLD:
            raise MechanismError(f"joint {jid}: fixed joints attach to the world")
        if "orientation_target" in entry:
            target = np.array([float(v) for v in entry["orientation_target"]])
            if abs(np.linalg.norm(target) - 1.0) > 1e-9:
                raise MechanismError(f"joint {jid}: orientation_target must be unit")
        else:
            target = bodies[child].state.q2.copy()
    return JointConstraint(
        id=jid, kind=kind, parent=parent, child=child,
        p_a=p_a, p_b=p_b, axis_a=axis_a, axis_b=axis_b, orientation_target=target,
    )


def save_mechanism(data: dict, path) -> None:
    """Write a mechanism description dict as YAML."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
