"""Bodies, joints, constraint residuals/Jacobians, and the mechanism graph.

A mechanism is a set of rigid bodies connected by constraints.  Each body
carries its full 6-DOF pose; joints remove degrees of freedom through
explicit constraint equations g = 0 enforced at the position level.

The incidence structure (bodies and constraints as nodes, one edge per
body-constraint attachment) mirrors the block pattern of the implicit
step's Newton matrix.  An elimination plan (:func:`elimination_plan`)
says which bodies go first and lays the sparse sweep over the joints and
the other bodies, each independent cycle's loop joints in one relieved
node after the cycle: the step eliminates every body with at most three
joints first and sweeps the rest in a level order of O(log n) rounds
(:func:`_level_order`), the full bodies-and-joints view eliminates none
and sweeps in the graph's children-first order.  Either order comes with
one symbolic elimination, which the sweep's layout is laid out from.

The joint kernels read the rotation matrices of a pose, computed once for
all bodies (:func:`with_world`), and multiply them by constants each kind
group makes once.

World attachments are constraints against an immovable environment: the
world contributes no unknowns and no graph node of its own, but a virtual
world vertex participates in cycle detection so that chains closed through
the ground are recognized as kinematic loops.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import sys
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import yaml

from . import quaternions as quat
from .block_solver import LOOP_NODE, SymbolicElimination, SymbolicLayout, in_order, symbolic_layout
from .errors import MechanismError, SimulationError

WORLD = "world"

KIND_BALL = "ball"
KIND_REVOLUTE = "revolute"
KIND_FIXED = "fixed_to_world"

ROWS_BY_KIND = {KIND_BALL: 3, KIND_REVOLUTE: 5, KIND_FIXED: 6}

_ASSEMBLY_TOL = 1e-8
_ZERO = (0.0, 0.0, 0.0)  # a velocity's default
_INERTIA_ORDER = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # (xx, yy, zz, xy, xz, yz) into the symmetric 3x3
_KEYS = {
    "body": {"id", "mass", "inertia", "position", "quaternion", "velocity", "angular_velocity"},
    "joint": {"id", "kind", "parent", "child", "parent_anchor", "child_anchor", "parent_axis", "child_axis", "orientation_target"},
}


def _row_view(name: str) -> property:
    return property(lambda self: getattr(self._mech, name)[self._row])


class BodyState:
    """One body's rows of its mechanism's state arrays; it stores nothing.

    Knots 1 and 2 are the two most recent committed states; (v1, w1) is the
    velocity over that interval, with w1 expressed in the knot-1 body frame,
    and (v0, w0) the velocity over the interval before it.  (v2, w2) are
    the body's rows of ``mech.unknowns``: the current guess (or converged
    value) for the next interval.  Between steps they hold the last
    solution; a step starts its solve from 2 (v1, w1) - (v0, w0) instead.
    Each field is a read-only property returning a
    writable view of the body's row of the array the mechanism holds now,
    so ``state.w2[:] = w`` writes through and ``state.w2 = w`` raises
    AttributeError.  The mechanism is held by a weak reference, so a
    mechanism and its bodies form no reference cycle and are freed as
    soon as the last outside reference goes; the state of a freed
    mechanism raises ReferenceError.
    """

    __slots__ = ("_mech", "_row")

    def __init__(self, mech: "Mechanism", row: int):
        self._mech = weakref.proxy(mech)
        self._row = row

    x1 = _row_view("x1")
    q1 = _row_view("q1")
    x2 = _row_view("x2")
    q2 = _row_view("q2")
    v0 = _row_view("v0")
    w0 = _row_view("w0")
    v1 = _row_view("v1")
    w1 = _row_view("w1")
    v2 = _row_view("v2")
    w2 = _row_view("w2")


@dataclass
class RigidBody:
    """Mass properties of one body; ``state`` is bound by the Mechanism holding it."""

    id: int
    mass: float
    inertia: np.ndarray  # 3x3 body-frame inertia about the center of mass


@dataclass
class JointConstraint:
    """A typed constraint between a parent (body or world) and a child body.

    Anchors are constant body-frame vectors from the center of mass to the
    joint; for a world parent the anchor is a world-frame point.  Revolute
    joints also carry body-frame hinge axes; the kind group completes
    ``axis_b`` to an orthonormal triad in the child frame
    (:func:`_axis_complement`), whose other two vectors span the plane
    whose alignment the last two rows constrain.
    """

    id: int
    kind: str
    parent: int | str
    child: int
    p_a: np.ndarray
    p_b: np.ndarray
    axis_a: np.ndarray | None = None
    axis_b: np.ndarray | None = None
    orientation_target: np.ndarray | None = None  # fixed_to_world only

    def __post_init__(self):
        if self.kind not in ROWS_BY_KIND:
            raise MechanismError(f"joint {self.id}: unknown kind {self.kind!r}")
        if self.kind == KIND_REVOLUTE and (self.axis_a is None or self.axis_b is None):
            raise MechanismError(f"joint {self.id}: revolute joint needs both axes")
        if self.parent == self.child:
            raise MechanismError(f"joint {self.id}: parent and child must differ")

    @property
    def rows(self) -> int:
        return ROWS_BY_KIND[self.kind]


def _axis_complement(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2): per unit row of the (M, 3) ``axes``, two unit vectors completing it to an orthonormal triad.

    n1 is the axis crossed with the basis vector of its smallest component
    (the first of equal ones), normalized, and n2 the axis crossed with n1.
    The norm is the square root of a stacked dot product, which rounds as
    np.linalg.norm of one vector does.
    """
    n1 = quat.cross(axes, np.eye(3)[np.argmin(np.abs(axes), axis=1)])
    n1 /= np.sqrt(n1[:, None, :] @ n1[:, :, None])[:, 0]
    return n1, quat.cross(axes, n1)


# ---------------------------------------------------------------------------
# kind groups and batched kernels


@dataclass
class JointGroup:
    """All joints of one kind, stacked for the batched kernels.

    The kernels read stacked poses and their rotations with a last row for
    the world (:func:`with_world`); ``ends`` indexes those rows, the
    parents' then the children's, along a leading sides axis, and ``rows``
    holds the joints' rows of the stacked Newton vector.  Per side,
    ``points`` holds the body-frame vectors the residual rotates, as
    columns: the parent's anchor or the child's negated, then for revolute
    joints the parent's hinge axis and a zero column, or the child's n1
    and n2 (:func:`_axis_complement`).  ``levers`` holds -2 [v]× per
    column v of ``points``, then ``points``.  ``target`` holds rows 1-3 of
    lmat(orientation_target)^T of each fixed joint, None for other kinds.
    """

    kind: str
    ids: list
    points: np.ndarray  # (2, M, 3, k): k = 3 for revolute joints, else 1
    levers: np.ndarray  # (2, M, 3, 4k)
    rows: np.ndarray  # (M, rows)
    ends: np.ndarray  # (2, M): parent, child
    target: np.ndarray | None  # (M, 3, 4)

    @property
    def width(self) -> int:
        return ROWS_BY_KIND[self.kind]


_WORLD_X = np.zeros((1, 3))
_WORLD_Q = np.array([[1.0, 0.0, 0.0, 0.0]])
_SIDE_SIGN = np.array([1.0, -1.0])[:, None, None, None] * np.eye(3)  # +I on the parent, -I on the child


def with_world(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked poses with the world's appended as the last row, and their rotation matrices: (x, q, rot)."""
    q = np.concatenate([q, _WORLD_Q])
    return np.concatenate([x, _WORLD_X]), q, quat.rotation_matrix(q)


def joint_residual(group: JointGroup, x: np.ndarray, q: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """(M, rows) constraint residuals of one kind group at stacked poses (:func:`with_world`).

    Zero iff the joint is satisfied: x_a + R_a p_a = x_b + R_b p_b, plus
    (R_b n_i) . (R_a axis_a) = 0 for revolute joints, plus for fixed ones
    the vector part of the target's conjugate times q_b.
    """
    world = rot[group.ends] @ group.points
    ball = x[group.ends[0]] - x[group.ends[1]] + world[0, :, :, 0] + world[1, :, :, 0]
    if group.kind == KIND_BALL:
        return ball
    if group.kind == KIND_REVOLUTE:
        return np.concatenate([ball, (world[1, :, :, 1:] * world[0, :, :, 1:2]).sum(axis=1)], axis=1)
    return np.concatenate([ball, (group.target @ q[group.ends[1], :, None])[..., 0]], axis=1)


def joint_jacobian_raw(group: JointGroup, q: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """(2, M, rows, 3) body-frame rotational Jacobians of one kind group, parents then children.

    R v turns by -2 R [v]× e under q ⊗ [1, e] for any q, so one product
    of the ends' rotations with ``group.levers`` gives the anchor rows
    -2 R_a [p_a]× and 2 R_b [p_b]× and the revolute rows
    -2 (R_b n_i)^T R_a [axis_a]× and -2 (R_a axis_a)^T R_b [n_i]×; fixed
    rows are target lmat(q_b) on its vector columns.  Blocks of a world
    parent are computed like the others and left out by the callers.
    """
    turned = rot[group.ends] @ group.levers
    out = np.zeros((2, len(group.ids), group.width, 3))
    out[:, :, :3] = turned[..., :3]
    if group.kind == KIND_REVOLUTE:  # columns 3:9 are R (-2 [v]×) of the axis or n1, n2; 10: R v
        out[0, :, 3:] = turned[1, :, :, 10:].transpose(0, 2, 1) @ turned[0, :, :, 3:6]
        out[1, :, 3:] = (turned[0, :, None, :, 10] @ turned[1, :, :, 3:9]).reshape(-1, 2, 3)
    elif group.kind == KIND_FIXED:
        out[1, :, 3:] = quat.rotational_jacobian(q[group.ends[1]], group.target)
    return out


def _with_translation(scale: float, rot: np.ndarray) -> np.ndarray:
    """(2, M, rows, 6) blocks: scale I (parent) or -scale I (child) on the anchor rows' dg/dx, then rot."""
    out = np.zeros(rot.shape[:3] + (6,))
    out[:, :, :3, :3] = scale * _SIDE_SIGN
    out[..., 3:] = rot
    return out


def constraint_jacobian_position(group: JointGroup, q: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """(2, M, rows, 6) blocks [dg/dx, rotational dg/dq], parents then children; transposed, they carry the impulses."""
    return _with_translation(1.0, joint_jacobian_raw(group, q, rot))


def constraint_jacobian_velocity(
    group: JointGroup, q3: np.ndarray, rot3: np.ndarray, delta: np.ndarray, h: float
) -> np.ndarray:
    """(2, M, rows, 6) derivatives of the predicted-knot residual in the velocities, parents then children.

    The chain rule carries h through the position update and Δ(w) through
    the rotational columns: ``q3`` and ``rot3`` are the predicted pose
    (:func:`with_world`), ``delta`` stacks quat._update_rotation_jacobian at
    (w2, its rate scalars, h) with a zero world row.
    """
    return _with_translation(h, joint_jacobian_raw(group, q3, rot3) @ delta[group.ends])


def _indices(sl: slice) -> np.ndarray:
    return np.arange(sl.start, sl.stop)


def _hubs(ends: np.ndarray, n: int) -> np.ndarray:
    """Per body in id order, whether the sparse sweep keeps it as a node (a hub); ``ends`` lists every joint's end rows.

    Eliminating a body with d joints before the sweep couples each ordered
    pair of them: d(d - 1) joint-pair blocks in place of the 2d body-joint
    blocks it has as a node, and a dense d-clique whose elimination costs
    O(d^3).  A body therefore goes first only where that adds no block,
    d(d - 1) <= 2d, i.e. d <= 3; a hub, with four or more joints, stays a
    node of the sweep, where it costs O(d), so the step stays linear in
    the size of any tree.
    """
    degree = np.bincount(ends, minlength=n + 1)[:n]  # the world, the ends' last row, is no body
    return degree * (degree - 1) > 2 * degree


def _joint_pairs(groups: list, first: np.ndarray) -> list:
    """The Schur terms that couple two joints once the bodies are eliminated, stacked per pair of kind groups.

    ``first`` flags per row of ``JointGroup.ends`` the bodies eliminated
    first.  Two joints attached to one such body get a Schur term from
    it, one per ordered pair; a pair sharing two such bodies is listed
    twice, and its two terms add up in the layout.  The terms run body by
    body, each body's joint ends (at most three, :func:`_hubs`) in group,
    side and position order.  Returns per (row group, column group) with
    such terms, in the order of their first term, the tuple (row group,
    column group, pairs, rows, cols).  ``pairs`` are the ordered (row
    joint id, column joint id) of the terms.  ``rows`` and ``cols`` index
    the terms as (side, position) arrays into the groups' stacks with a
    leading sides axis (``JointGroup.ends``): the row joint's side and
    position, and the column joint's.
    """
    found = [np.array([np.full(len(i), k), s, i, g.ends[s, i], np.array(g.ids)[i]])
             for k, g in enumerate(groups) for s, i in [np.nonzero(first[g.ends])]]
    group, side, pos, body, ids = np.concatenate([np.zeros((5, 0), dtype=np.intp), *found], axis=1)
    by = np.argsort(body, kind="stable")
    at = body[by]
    start, stop = np.searchsorted(at, at), np.searchsorted(at, at, side="right")  # each end's body's run
    v = start[:, None] + np.arange((stop - start).max(initial=0))
    u, j = np.nonzero(v < stop[:, None])
    u, v = by[u], by[v[u, j]]
    keep = u != v  # a joint's two ends are on two bodies
    u, v = u[keep], v[keep]
    stack = group[u] * len(groups) + group[v]
    out = []
    for k in dict.fromkeys(stack.tolist()):
        t = stack == k
        a, b = u[t], v[t]
        out.append((k // len(groups), k % len(groups), list(zip(ids[a].tolist(), ids[b].tolist())), (side[a], pos[a]), (side[b], pos[b])))
    return out


@dataclass
class EliminationPlan:
    """Which bodies a Newton-pattern system eliminates first, and the sparse sweep of the rest.

    ``first`` and ``hubs`` are the body rows (id order) eliminated in one
    batch and kept as nodes; ``hub_sides`` lists (kind group index, (sides,
    positions)) of the joint ends at a hub, for each group with one, and
    ``joint_pairs`` the Schur terms coupling the joints of a body eliminated
    first (:func:`_joint_pairs`).  ``layout`` is the sweep's symbolic layout
    over the joints and hubs, on their rows of the Newton vector.
    """

    first: np.ndarray
    hubs: np.ndarray
    hub_sides: list
    joint_pairs: list
    layout: SymbolicLayout


def _zero_diagonal(groups: list, first: np.ndarray) -> set:
    """The joints whose diagonal block is structurally zero: no end at a body ``first`` flags (per row of the ends)."""
    out = set()
    for g in groups:
        out |= {j for j, f in zip(g.ids, first[g.ends].any(axis=0)) if not f}
    return out


def _level_order(elim: SymbolicElimination, waits: dict, zero: set) -> None:
    """Eliminate ``elim``'s vertices in rounds of mutually non-adjacent ones, round after round.

    Each round takes the eligible relieved nodes (keys of ``elim.stacks``)
    and the other eligible vertices whose current degree (fill included) is
    at most the smallest such degree + 1, greedily, lowest degree first,
    then earliest in ``elim``'s order, and never two adjacent ones (cyclic
    reduction, Heller, SIAM J. Numer. Anal. 13, 1976; multiple minimum
    degree, Liu, ACM TOMS 11, 1985).  A chain loses half its nodes per
    round, so a tree's nodes go in O(log n) rounds at O(n) total work.  A
    relieved node is eligible once the nodes ``waits`` lists for it are
    gone, so its cycle's redundancy still lands in its own pivot, and sets
    no threshold (a chain's end cycle would cut its round to two nodes); a
    node of ``zero``, whose diagonal block is structurally zero, once one
    of its neighbours is, whose Schur update makes that block invertible.
    A round's vertices are eliminated in ``elim``'s order, as the sweep
    takes them, so this elimination is the layout's own: each position's
    later neighbours, fill included (:func:`symbolic_layout`).
    """
    vertex = {key: v for v, key in enumerate(elim.keys)}
    adj = elim.adj
    relieved = {vertex[key] for key in elim.stacks}
    waits = {vertex[key]: {vertex[node] for node in nodes} for key, nodes in waits.items()}
    zero = {vertex[node] for node in zero if node in vertex}
    eligible = {v for v in adj if not waits.get(v) and v not in zero}
    while eligible:
        least = min((len(adj[v]) for v in eligible if v not in relieved), default=0)
        taken, blocked = [], set()
        for _, v in sorted((len(adj[v]), v) for v in eligible if v in relieved or len(adj[v]) <= least + 1):
            if v not in blocked:
                taken.append(v)
                blocked |= adj[v]
        eligible.difference_update(taken)
        for v in sorted(taken):
            woken = zero.intersection(elim.eliminate(v))
            zero -= woken
            eligible |= woken
        eligible |= {r for r, w in waits.items() if r in adj and adj.keys().isdisjoint(w)}
    if adj:
        raise ValueError("no elimination order: some nodes wait for each other")


def elimination_plan(mech: Mechanism, is_hub: np.ndarray, levelled: bool) -> EliminationPlan:
    """The plan keeping the bodies flagged in ``is_hub`` (per body in id order) as nodes of the sweep.

    The layout holds each hub and joint at its rows of the Newton vector
    (``body_slices``, ``joint_slices``).  Blocks come as each kind group's
    joint diagonals, the term stacks of ``joint_pairs``, the hubs'
    diagonals, then per entry of ``hub_sides`` the couplings (joint, hub)
    and (hub, joint), as ``integrator.eliminate_bodies`` supplies them;
    the terms of a pair shared by two bodies add up.  The loop
    joints of each of the graph's ``cycles`` are stacked into one relieved
    node; the one whose cycle reaches nearest the root (in the graph's
    order) is keyed :data:`LOOP_NODE`, each other one (LOOP_NODE, smallest
    loop joint id).  Without ``levelled`` the elimination order is the
    graph's (children first) over these nodes, each relieved node right
    after the highest node of its cycle: on a tree the later neighbours of
    each node then already couple to each other, so the sweep creates no
    fill.  With ``levelled`` (the step's plan) :func:`_level_order` picks
    the order from that one, round by round.  Either way one symbolic
    elimination (:class:`~mcdyn.block_solver.SymbolicElimination`) both
    orders the nodes and finds each one's later neighbours, fill included,
    and the layout is laid out from it.  With every body a hub, the layout is
    the full bodies-and-joints graph.
    """
    hubs = np.flatnonzero(is_hub)  # np.isin and np.setdiff1d would import numpy.ma, over 1 MB of RSS
    hub_ids = [mech.body_ids[r] for r in hubs]
    at_hub = np.append(is_hub, False)  # the world, the ends' last row, is no hub
    first = np.append(~is_hub, False)  # nor is it eliminated first
    hub_sides = [(k, np.nonzero(at_hub[g.ends])) for k, g in enumerate(mech.groups) if at_hub[g.ends].any()]
    joint_pairs = _joint_pairs(mech.groups, first)
    slices = {b: mech.body_slices[b] for b in hub_ids} | mech.joint_slices
    rows = {node: range(sl.start, sl.stop) for node, sl in slices.items()}
    sizes = {node: len(r) for node, r in rows.items()}
    sources = [(j, j) for g in mech.groups for j in g.ids] + [p for _, _, pairs, *_ in joint_pairs for p in pairs]
    sources += [(b, b) for b in hub_ids]
    for k, (sides, positions) in hub_sides:
        ends = [mech.body_ids[b] for b in mech.groups[k].ends[sides, positions]]
        ids = [mech.groups[k].ids[i] for i in positions]
        sources += [*zip(ids, ends), *zip(ends, ids)]
    tree = [node for node in mech.graph.order if node in sizes]
    at = {node: k for k, node in enumerate(tree)}
    after = {max(at[n] for n in nodes if n in at): (ids, nodes) for ids, nodes in mech.graph.cycles}
    nearest_root = max(after, default=-1)
    order, stacks, waits = [], {}, {}
    for k, node in enumerate(tree):
        order.append(node)
        if k in after:
            ids, nodes = after[k]
            key = LOOP_NODE if k == nearest_root else (LOOP_NODE, ids[0])
            stacks[key] = ids
            waits[key] = [n for n in nodes if n in at]
            order.append(key)
    if levelled:
        elim = SymbolicElimination(order, sizes, sources, stacks)
        _level_order(elim, waits, _zero_diagonal(mech.groups, first))
    else:
        elim = in_order(order, sizes, sources, stacks)
    layout = symbolic_layout(elim, rows, mech.dim)
    return EliminationPlan(np.flatnonzero(~is_hub), hubs, hub_sides, joint_pairs, layout)


def _kind_groups(body_index: dict, joints: dict, joint_slices: dict) -> list[JointGroup]:
    """One JointGroup per joint kind present, joints in ascending id."""
    row = body_index | {WORLD: len(body_index)}
    groups = []
    for kind in ROWS_BY_KIND:
        members = [joints[j] for j in sorted(joints) if joints[j].kind == kind]
        if not members:
            continue
        sides = [[np.array([j.p_a for j in members])], [-np.array([j.p_b for j in members])]]
        if kind == KIND_REVOLUTE:  # one batched complement per group
            sides[0] += [np.array([j.axis_a for j in members]), np.zeros((len(members), 3))]
            sides[1] += _axis_complement(np.array([j.axis_b for j in members]))
        vectors = np.array(sides).transpose(0, 2, 1, 3)  # (2, M, k, 3): k = 3 for revolute, else 1
        points = vectors.transpose(0, 1, 3, 2).copy()
        groups.append(
            JointGroup(
                kind=kind,
                ids=[j.id for j in members],
                points=points,
                levers=np.concatenate([*(-2.0 * quat.skew(vectors)).transpose(2, 0, 1, 3, 4), points], axis=-1),
                rows=np.array([_indices(joint_slices[j.id]) for j in members]),
                ends=np.array([[row[j.parent] for j in members], [row[j.child] for j in members]]),
                target=(
                    quat.lmat(np.array([j.orientation_target for j in members])).transpose(0, 2, 1)[:, 1:]
                    if kind == KIND_FIXED else None
                ),
            )
        )
    return groups


# ---------------------------------------------------------------------------
# mechanism graph


@dataclass
class MechanismGraph:
    """Elimination order, loop-closure set and independent cycles of the body-joint graph.

    ``order`` lists the walk's tree (:func:`build_graph`), body and joint
    nodes, children-before-parent with the root last; the loop joints in
    ``loop_joints`` never enter it.  ``parent`` maps each non-root tree
    node to its parent.  ``cycles`` holds one (loop joint ids ascending,
    tree nodes) pair per independent cycle: the fundamental cycles of the
    loop joints (the tree path between a loop joint's two ends), those
    sharing a body or joint merged; the world is no shared node and is
    not listed.  They are ordered by smallest loop joint id.
    """

    order: list
    parent: dict
    loop_joints: set
    cycles: list


def build_graph(bodies: dict, joints: dict) -> MechanismGraph:
    """Walk the mechanism depth first from body to body: elimination order plus loop-closure set.

    Bodies are the walk's vertices and joints its edges; a virtual world
    vertex ties all world attachments together, so a chain closed through
    the ground closes a loop too.  The walk starts at the world when the
    mechanism is grounded (making the smallest-id world joint the
    last-eliminated node), else at the smallest-id body, and each body
    takes its joints in ascending id.  A joint whose far end is already in
    the tree closes a loop: it is recorded with its two ends and never
    enters the tree.  Any other joint enters it together with its far body.
    """
    if not bodies:
        raise MechanismError("mechanism has no bodies")
    incident: dict = {b: [] for b in (*bodies, WORLD)}
    for jid in sorted(joints):
        incident[joints[jid].parent].append(jid)
        incident[joints[jid].child].append(jid)
    root = WORLD if incident[WORLD] else min(bodies)
    discovery = [] if root == WORLD else [root]
    parent: dict = {root: None}  # tree node -> its parent
    loops: dict = {}  # loop joint -> the body that met it and its far end, an ancestor in the tree
    stack = [(root, iter(incident[root]))]
    while stack:
        u, it = stack[-1]
        jid = next(it, None)
        if jid is None:
            stack.pop()
        elif jid not in parent and jid not in loops:  # else the joint u was reached by, or a loop joint
            joint = joints[jid]
            v = joint.child if joint.parent == u else joint.parent
            if v in parent:
                loops[jid] = (u, v)
            else:
                parent[jid], parent[v] = u, jid
                discovery += [jid, v]
                stack.append((v, iter(incident[v])))

    unreached = sorted(n for n in (*bodies, *joints) if n not in parent and n not in loops)
    if unreached:
        raise MechanismError(f"mechanism graph is disconnected; unreachable nodes: {unreached}")
    cycles = _independent_cycles(loops, parent)
    parent = {n: p for n, p in parent.items() if p not in (None, WORLD)}
    return MechanismGraph(order=discovery[::-1], parent=parent, loop_joints=set(loops), cycles=cycles)


def _independent_cycles(loops: dict, parent: dict) -> list:
    """The fundamental cycles of the loop joints, merged where they share a body or joint.

    ``loops`` maps each loop joint to the body that met it and its far
    end, and ``parent`` each node of the walk's tree to its parent.  A
    depth-first walk meets a loop joint first from its deeper end, so the
    far end is an ancestor and each cycle climbs to it in O(cycle length).
    Returns (loop joint ids ascending, tree nodes without the world) per
    merged cycle, by smallest loop joint id.
    """
    group = {u: u for u in loops}  # union-find over the loop joints

    def find(u):
        while group[u] != u:
            group[u] = group[group[u]]
            u = group[u]
        return u

    owner: dict = {}  # tree node -> a loop joint whose cycle holds it
    nodes: dict = {}
    for u in sorted(loops):
        a, b = loops[u]
        path = {a, b}
        while a != b:
            a = parent[a]
            path.add(a)
        path.discard(WORLD)
        nodes[u] = path
        for node in path:
            first = owner.setdefault(node, u)
            group[find(u)] = find(first)
    merged: dict = {}
    for u in sorted(loops):
        ids, tree = merged.setdefault(find(u), ([], set()))
        ids.append(u)
        tree |= nodes[u]
    return sorted(merged.values(), key=lambda cycle: cycle[0][0])


def check_parameter(name: str, value, positive: bool) -> None:
    """Raise SimulationError naming ``name`` unless ``value`` is a finite real number (and > 0 if ``positive``)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and (value > 0 or not positive)):
        raise SimulationError(f"{name} must be finite{' and positive' * positive}, got {value!r}")


def check_time_step(h) -> None:
    """Raise SimulationError naming h unless it is finite and positive and (2/h)^2 is a normal float.

    Every orientation update takes sqrt((2/h)^2 - w.w), so (2/h)^2 must
    neither overflow nor round towards zero: about 1.5e-154 < h < 1.3e154.
    """
    check_parameter("h", h, positive=True)
    if not sys.float_info.min <= (rate := 2.0 / float(h)) * rate < math.inf:
        raise SimulationError(f"h must lie between about 1.5e-154 and 1.3e154, got {h!r}")


def step_count(duration: float, h: float) -> int:
    """The steps of ``h`` in ``duration``, rounded; SimulationError unless both are valid (:func:`check_time_step`) and that is at least one."""
    check_parameter("duration", duration, positive=True)
    check_time_step(h)
    steps = duration / h
    if not np.isfinite(steps):
        raise SimulationError(f"duration {duration} s gives too many steps of h = {h} s")
    if round(steps) < 1:
        raise SimulationError(f"duration {duration} s gives no step of h = {h} s")
    return round(steps)


def check_step_count(n_steps) -> int:
    """``n_steps`` as an int; SimulationError unless it is an integer >= 0."""
    count = operator.index(n_steps) if hasattr(n_steps, "__index__") else -1
    if count < 0:
        raise SimulationError(f"n_steps must be a non-negative integer, got {n_steps!r}")
    return count


def max_violation(groups, x: np.ndarray, q: np.ndarray, rot: np.ndarray) -> float:
    """Largest absolute joint residual entry at stacked poses (:func:`with_world`); NaN if any entry is NaN."""
    return float(np.max([np.abs(joint_residual(g, x, q, rot)).max() for g in groups], initial=0.0))


# ---------------------------------------------------------------------------
# mechanism container and loader


def velocities(s: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) views of v2 and w2 in a stacked Newton vector of n bodies."""
    body = s[: 6 * n].reshape(n, 6)
    return body[:, :3], body[:, 3:]


class Mechanism:
    """Immutable topology (bodies, joints, graph) plus the one copy of the state.

    Joint definitions, the graph and everything derived from them are fixed
    after construction: the stacked Newton vector (the 6 velocity unknowns
    of each body in id order, then the multipliers of each joint in id
    order), the kind groups, the stacked masses and inertias, and
    ``plan``, the :class:`EliminationPlan` every Newton system of a step
    is solved by: the bodies with at most three joints are eliminated
    first and the sparse sweep runs over the joints and the other bodies,
    the hubs.  All are built once here.

    The state is the knot arrays ``x1, q1, x2, q2, v0, w0, v1, w1`` ((N, 3)
    or (N, 4), one row per body in id order) and ``unknowns``, the stacked
    Newton vector of the last solve.  (v0, w0) are the velocities of the
    interval before (v1, w1).  ``v2`` and ``w2`` are views of the body rows
    of ``unknowns`` and the multipliers are its joint rows
    (``joint_slices``).  Between steps ``unknowns`` holds the last
    solution; a step starts its solve from body rows 2 (v1, w1) - (v0, w0)
    and the last solution's multipliers.  ``x``, ``q``, ``v`` and ``w``
    give the declared poses and velocities, stacked in body id order; they
    fill both knots, both velocity knots and the start of the first solve,
    with zero multipliers.  A step rebinds the knot arrays and the solve
    rebinds ``unknowns``; each body's ``state`` reads its rows of whichever
    arrays are current.  The state is owned by one simulation context at a
    time.
    """

    def __init__(self, bodies: dict, joints: dict, x, q, v, w):
        self.bodies = bodies
        self.joints = joints
        self.graph = build_graph(bodies, joints)
        self.body_ids = sorted(bodies)
        self.body_index = {b: i for i, b in enumerate(self.body_ids)}
        self.body_slices = {b: slice(6 * i, 6 * i + 6) for i, b in enumerate(self.body_ids)}
        self.joint_slices = {}
        off = 6 * len(self.body_ids)
        for jid in sorted(joints):
            self.joint_slices[jid] = slice(off, off + joints[jid].rows)
            off += joints[jid].rows
        self.dim = off
        self.groups = _kind_groups(self.body_index, joints, self.joint_slices)
        ends = np.concatenate([np.zeros(0, dtype=np.intp), *(g.ends.ravel() for g in self.groups)])
        self.end_cells = (6 * ends[:, None] + np.arange(6)).ravel()  # per group end, its row's 6 cells of (N + 1, 6)
        self.plan = elimination_plan(self, _hubs(ends, len(self.body_ids)), levelled=True)
        self.mass = np.array([bodies[b].mass for b in self.body_ids])
        self.inertia = np.array([bodies[b].inertia for b in self.body_ids])
        self.x1, self.q1, self.v1, self.w1 = (np.array(a, dtype=float) for a in (x, q, v, w))
        self.x2, self.q2 = self.x1.copy(), self.q1.copy()
        self._cold_start()
        for row, bid in enumerate(self.body_ids):
            bodies[bid].state = BodyState(self, row)
        self.h: float | None = None

    @property
    def v2(self) -> np.ndarray:
        return velocities(self.unknowns, len(self.body_ids))[0]

    @property
    def w2(self) -> np.ndarray:
        return velocities(self.unknowns, len(self.body_ids))[1]

    @cached_property
    def full_plan(self) -> EliminationPlan:
        """The plan that eliminates no body first: the full bodies-and-joints system, built on first use."""
        return elimination_plan(self, np.ones(len(self.body_ids), dtype=bool), levelled=False)

    def _cold_start(self) -> None:
        """A new start: (v0, w0) and the unknowns' velocities equal to (v1, w1), zero multipliers."""
        self.v0, self.w0 = self.v1.copy(), self.w1.copy()
        self.unknowns = np.zeros(self.dim)
        v2, w2 = velocities(self.unknowns, len(self.body_ids))
        v2[:], w2[:] = self.v1, self.w1

    def initialize(self, h: float) -> None:
        """Build the knot-1 states consistent with the declared velocities.

        The previous knot is reconstructed so that one discrete update from
        it reproduces the current pose exactly; the current velocities fill
        (v0, w0) and double as the cold-start guess for the first implicit
        solve, and every multiplier restarts at zero.  Raises SimulationError,
        changing nothing, for an h that :func:`check_time_step` rejects.
        """
        check_time_step(h)
        # lmat(identity) is the identity, so this is the bare step quaternion
        q_step = quat.orientation_update(quat.identity(), self.w1, h)
        self.x1 = self.x2 - h * self.v1
        self.q1 = quat.multiply(self.q2, quat.inverse(q_step))
        self._cold_start()
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

    def poses(self, at: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked poses of committed knot 1 or 2 (any value equal to one) and their rotations, world row included."""
        knots = {1: (self.x1, self.q1), 2: (self.x2, self.q2)}
        if at not in knots:
            raise ValueError("knot selector must be 1 or 2")
        return with_world(*knots[at])

    def max_constraint_violation(self, at: int = 2) -> float:
        return max_violation(self.groups, *self.poses(at))


def load_mechanism(source) -> Mechanism:
    """Build and validate a mechanism from a description mapping or a YAML file path (str, bytes or os.PathLike).

    Raises MechanismError on any invariant violation: an unknown key, a missing, mistyped, mis-sized or
    non-finite number, bad masses or inertia, non-unit quaternions or axes, unknown references, inconsistent
    assembly, or a disconnected constraint graph.  Each rule runs once over all entries (:func:`_read`); only a
    rule that fails looks for the first entry, in list order, that breaks it, so of several faults the first
    rule's is named.  The rules run in this order: entry types; keys (each known for a body or a joint, the
    entry named by the id it gives); body ids (integral, nonnegative, unique);
    mass (> 0), inertia (positive definite), position, quaternion (unit norm), velocity, angular_velocity;
    joint ids and duplicate node ids; parent, child, parent_anchor, child_anchor; known child, then parent
    bodies; fixed joints on the world; parent_axis, child_axis, orientation_target (each unit norm); then
    :class:`JointConstraint`'s own rules, joint by joint.
    """
    if isinstance(source, Mapping):
        data = source
    elif not isinstance(source, (str, bytes, os.PathLike)):  # open() would take an int as a descriptor and close it
        raise MechanismError(f"mechanism source must be a mapping or a file path, got {type(source).__name__}")
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        except OSError as err:
            raise MechanismError(f"cannot read mechanism file {source}: {err}") from err
        except yaml.YAMLError as err:
            raise MechanismError(f"malformed mechanism file {source}: {err}") from err
    if not isinstance(data, Mapping) or "bodies" not in data:
        raise MechanismError("mechanism description must be a mapping with a 'bodies' list")

    entries = {key: data.get(key, []) for key in ("bodies", "joints")}
    for key, value in entries.items():
        if not isinstance(value, list):
            raise MechanismError(f"mechanism '{key}' must be a list, got {type(value).__name__}")
    mech = Mechanism(*_read(entries["bodies"], entries["joints"]))
    viol = mech.max_constraint_violation(at=2)
    if not viol <= _ASSEMBLY_TOL:
        raise MechanismError(
            f"assembly inconsistent: initial constraint violation {viol:.3e} exceeds {_ASSEMBLY_TOL}"
        )
    return mech


def _read(body_entries: list, joint_entries: list) -> tuple:
    """(bodies, joints, x, q, v, w) for :class:`Mechanism`, each rule of :func:`load_mechanism` checked once for all entries."""
    groups = (("body", body_entries), ("joint", joint_entries))
    for what, group in groups:
        _check([not isinstance(entry, dict) for entry in group], lambda i: f"malformed {what} entry: {group[i]!r}")
    for what, group in groups:
        if not _KEYS[what].issuperset(chain.from_iterable(group)):
            unknown = [next((key for key in entry if key not in _KEYS[what]), None) for entry in group]
            _check([key is not None for key in unknown], lambda i: f"{what} {group[i].get('id')}: unknown key {unknown[i]!r}")
    ids = _integers([entry.get("id") for entry in body_entries], lambda i: "body id", ())
    if min(ids, default=0) < 0:
        _check([bid < 0 for bid in ids], lambda i: f"body id must be nonnegative, got {ids[i]}")
    if len(set(ids)) < len(ids):
        _check([ids.index(bid) < k for k, bid in enumerate(ids)], lambda i: f"duplicate body id {ids[i]}")

    def field(key, shape, default):
        return _stacked([entry.get(key, default) for entry in body_entries], shape, key, ("body", ids))

    mass = field("mass", (), None)
    _check((mass <= 0.0).tolist(), lambda i: f"body {ids[i]}: mass must be positive")
    inertia = field("inertia", (6,), None)[:, _INERTIA_ORDER]
    _check((np.linalg.eigvalsh(inertia) <= 0.0).any(axis=1).tolist(), lambda i: f"body {ids[i]}: inertia matrix is not positive definite")
    x = field("position", (3,), None)
    q = _unit_vectors([entry.get("quaternion") for entry in body_entries], (4,), "quaternion", ("body", ids))  # wxyz
    v = field("velocity", (3,), _ZERO)
    w = field("angular_velocity", (3,), _ZERO)
    bodies = {bid: RigidBody(id=bid, mass=m, inertia=J) for bid, m, J in zip(ids, mass.tolist(), inertia)}
    quaternions = dict(zip(ids, q))

    jids = _integers([entry.get("id") for entry in joint_entries], lambda i: "joint id", ())
    if len(set(jids)) < len(jids) or not bodies.keys().isdisjoint(jids):
        _check([jid in bodies or jids.index(jid) < k for k, jid in enumerate(jids)], lambda i: f"duplicate node id {jids[i]}")

    parents = _integers([entry.get("parent") for entry in joint_entries], lambda i: f"joint {jids[i]}: parent", (WORLD,))
    children = _integers([entry.get("child") for entry in joint_entries], lambda i: f"joint {jids[i]}: child", ())
    fields = [{"p_a": p_a, "p_b": p_b} for p_a, p_b in zip(*(
        _stacked([entry.get(key) for entry in joint_entries], (3,), key, ("joint", jids)) for key in ("parent_anchor", "child_anchor")
    ))]
    if not {*parents, *children} - {WORLD} <= bodies.keys():
        _check([c not in bodies for c in children], lambda i: f"joint {jids[i]}: unknown child body {children[i]}")
        _check([p not in bodies and p != WORLD for p in parents], lambda i: f"joint {jids[i]}: unknown parent body {parents[i]}")
    kinds = [str(entry.get("kind")) for entry in joint_entries]
    members = {kind: [i for i, k in enumerate(kinds) if k == kind] for kind in (KIND_REVOLUTE, KIND_FIXED)}
    fixed = members[KIND_FIXED]
    _check([parents[i] != WORLD for i in fixed], lambda k: f"joint {jids[fixed[k]]}: fixed joints attach to the world")
    for kind, key, name, shape in (
        (KIND_REVOLUTE, "parent_axis", "axis_a", (3,)),
        (KIND_REVOLUTE, "child_axis", "axis_b", (3,)),
        (KIND_FIXED, "orientation_target", "orientation_target", (4,)),
    ):
        at = members[kind]
        # a target defaults to the child's orientation
        values = [joint_entries[i].get(key, quaternions[children[i]] if kind == KIND_FIXED else None) for i in at]
        for i, value in zip(at, _unit_vectors(values, shape, key, ("joint", [jids[i] for i in at]))):
            fields[i][name] = value
    joints = {
        jid: JointConstraint(id=jid, kind=kind, parent=parent, child=child, **f)
        for jid, kind, parent, child, f in zip(jids, kinds, parents, children, fields)
    }
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return bodies, joints, x[order], q[order], v[order], w[order]


def _check(bad, message) -> None:
    """MechanismError ``message(i)`` for the first index i that the list of flags ``bad`` marks, if any."""
    if True in bad:
        raise MechanismError(message(bad.index(True)))


def _integers(values: list, what, kept: tuple) -> list:
    """``values`` as ints, the strings in ``kept`` left as they are; MechanismError ``what(i)`` for the first other
    value i that is neither an integer nor an integral float."""
    out = [value if type(value) is int or isinstance(value, str) and value in kept else _integral(value) for value in values]
    if None in out:
        i = out.index(None)
        raise MechanismError(f"{what(i)} must be an integer, got {values[i]!r}")
    return out


def _integral(value) -> int | None:
    """``value`` as an int if it is an integer or an integral float, else None; a bool is neither."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    return None if isinstance(value, bool) or not integral else int(value)


def _stacked(values: list, shape: tuple, key: str, owners: tuple) -> np.ndarray:
    """The values of field ``key`` as one (len(values), *shape) float array, read at once.

    Should that fail, they are read one by one (:func:`_numbers`): the first with a fault raises MechanismError
    naming its entry, "{word} {ids[i]}" for value i and ``owners`` = (word, ids).
    """
    try:
        out = np.array(values, dtype=float) if values else np.zeros((0, *shape))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out.shape != (len(values), *shape) or not np.isfinite(out).all():
        out = np.array([_numbers(f"{owners[0]} {owners[1][i]}", key, value, shape) for i, value in enumerate(values)])
    return out


def _numbers(owner: str, key: str, value, shape: tuple) -> np.ndarray:
    """``value`` of field ``key`` as a float array of ``shape``: () for one finite number, (n,) for a list of n.

    A numeric string counts as a number (PyYAML reads ``1e-3`` as one); anything else raises MechanismError.
    """
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if value is None or out is None or out.ndim != len(shape):
        raise MechanismError(f"{owner}: {key} must be {f'a list of {shape[0]} numbers' if shape else 'a number'}, got {value!r}")
    if out.shape != shape:
        raise MechanismError(f"{owner}: {key} must have {shape[0]} components, got {out.size}")
    if not np.isfinite(out).all():
        raise MechanismError(f"{owner}: {key} is not finite: {value}")
    return out


def _unit_vectors(values: list, shape: tuple, key: str, owners: tuple) -> np.ndarray:
    """:func:`_stacked`, and MechanismError naming the entry of the first vector off unit norm (:func:`_off_unit`)."""
    out = _stacked(values, shape, key, owners)
    _check(_off_unit(out).tolist(), lambda i: f"{owners[0]} {owners[1][i]}: {key} must be a unit vector")
    return out


def _off_unit(vectors: np.ndarray) -> np.ndarray:
    """Whether the norm of each vector along the last axis is off 1 by more than 1e-9: the loader's one unit-norm rule.

    The squares add up column by column, so a vector and the same row of a stack round alike.
    """
    squares = vectors * vectors
    return np.abs(np.sqrt(sum(squares[..., k] for k in range(vectors.shape[-1]))) - 1.0) > 1e-9


def save_mechanism(data: dict, path) -> None:
    """Write a mechanism description dict as YAML."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
