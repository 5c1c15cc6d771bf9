import copy
import os
import re
import sys
from dataclasses import fields
from itertools import product
from types import MappingProxyType

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest
import mcdyn.mechanism as mechanism
import mcdyn.quaternions as quat
import test_random_mechanisms
from conftest import (
    comb,
    hub_star_description,
    make_closed_chain,
    make_pendulum,
    make_segmented_chain,
    mixed_kind_pendulum,
    star_mechanism,
)
from mcdyn.block_solver import LOOP_NODE, SymbolicElimination
from mcdyn.errors import MechanismError
from mcdyn.integrator import StepContext, newton_system_at
from mcdyn.mechanism import (
    WORLD,
    JointConstraint,
    JointGroup,
    Mechanism,
    RigidBody,
    _axis_complement,
    _level_order,
    constraint_jacobian_position,
    constraint_jacobian_velocity,
    joint_residual,
    load_mechanism,
    max_violation,
    save_mechanism,
    with_world,
)
from mcdyn.scenarios import Scenario, generate_scenario
from oracles import (
    axis_complement,
    count_independent_cycles,
    from_axis_angle,
    quaternion_joint_kernels,
    random_unit_quat,
    rotmat_from_axis_angle,
    rotmat_from_quat,
    unchecked_mechanism,
)
from test_random_mechanisms import hinged_by_two_balls, loops_sharing_a_body, random_mechanism, two_disjoint_loops


def one_joint(joint, states):
    """A mechanism of ``joint`` alone, its bodies at the poses {bid: (x, q)}."""
    ids = sorted(states)
    bodies = {bid: RigidBody(id=bid, mass=1.0, inertia=0.1 * np.eye(3)) for bid in ids}
    x, q = (np.array([states[bid][k] for bid in ids]) for k in (0, 1))
    zero = np.zeros((len(ids), 3))
    return Mechanism(bodies, {joint.id: joint}, x, q, zero, zero)


def residual(joint, states):
    """The residual of ``joint`` alone at the poses {bid: (x, q)}."""
    mech = one_joint(joint, states)
    (group,) = mech.groups
    return joint_residual(group, *mech.poses(2))[0]


def position_blocks(joint, states):
    """{bid: (rows, 6) knot-2 position block} of ``joint`` alone at the poses {bid: (x, q)}."""
    mech = one_joint(joint, states)
    (group,) = mech.groups
    blk_a, blk_b = constraint_jacobian_position(group, *mech.poses(2)[1:])
    out = {joint.child: blk_b[0]}
    if joint.parent != WORLD:
        out[joint.parent] = blk_a[0]
    return out


class TestBallResidual:
    def test_coincident_anchors(self):
        joint = JointConstraint(
            id=3, kind="ball", parent=1, child=2,
            p_a=np.array([0.5, 0.0, 0.0]), p_b=np.array([-0.5, 0.0, 0.0]),
        )
        pose = {
            1: (np.zeros(3), quat.identity()),
            2: (np.array([1.0, 0.0, 0.0]), quat.identity()),
        }
        assert_allclose(residual(joint, pose), np.zeros(3), atol=1e-15)

    def test_pendulum_rest_pose(self):
        # hanging rod: anchors meet at (0, 0, -0.5)
        joint = JointConstraint(
            id=2, kind="ball", parent=WORLD, child=1,
            p_a=np.array([0.0, 0.0, -0.5]), p_b=np.array([0.0, 0.0, 0.5]),
        )
        pose = {1: (np.array([0.0, 0.0, -1.0]), quat.identity())}
        assert_allclose(residual(joint, pose), np.zeros(3), atol=1e-15)

    def test_randomized_pose_matches_matrix_oracle(self, rng):
        for _ in range(10):
            pa, pb = rng.normal(size=3), rng.normal(size=3)
            xa, xb = rng.normal(size=3), rng.normal(size=3)
            qa, qb = random_unit_quat(rng), random_unit_quat(rng)
            joint = JointConstraint(id=9, kind="ball", parent=1, child=2, p_a=pa, p_b=pb)
            pose = {1: (xa, qa), 2: (xb, qb)}
            expected = xa + rotmat_from_quat(qa) @ pa - xb - rotmat_from_quat(qb) @ pb
            assert_allclose(residual(joint, pose), expected, atol=1e-12)


def _hinge_joint():
    return JointConstraint(
        id=2, kind="revolute", parent=WORLD, child=1,
        p_a=np.zeros(3), p_b=np.array([0.0, 0.0, -0.5]),
        axis_a=np.array([0.0, 1.0, 0.0]), axis_b=np.array([0.0, 1.0, 0.0]),
    )


class TestRevoluteResidual:
    def test_aligned_zero(self):
        joint = _hinge_joint()
        pose = {1: (np.array([0.0, 0.0, 0.5]), quat.identity())}
        assert_allclose(residual(joint, pose), np.zeros(5), atol=1e-15)

    def test_rotation_about_hinge_is_free(self, rng):
        joint = _hinge_joint()
        for angle in rng.uniform(-np.pi, np.pi, size=8):
            q = from_axis_angle([0.0, 1.0, 0.0], angle)
            x = -quat.rotate(q, joint.p_b)
            assert_allclose(residual(joint, {1: (x, q)}), np.zeros(5), atol=1e-13)

    def test_off_axis_tilt_matches_matrix_oracle(self):
        joint = _hinge_joint()
        tilt = rotmat_from_axis_angle([1.0, 0.0, 0.0], 0.1)
        q = from_axis_angle([1.0, 0.0, 0.0], 0.1)
        x = -quat.rotate(q, joint.p_b)
        res = residual(joint, {1: (x, q)})
        assert_allclose(res[:3], np.zeros(3), atol=1e-14)
        axis_world = np.array([0.0, 1.0, 0.0])  # world-side hinge
        expected = [axis_world @ (tilt @ n) for n in axis_complement(joint.axis_b)]
        assert np.abs(res[3:]).max() > 1e-3
        assert_allclose(res[3:], expected, atol=1e-12)


class TestAxisComplement:
    def test_batched_triads_are_orthonormal_and_match_the_per_joint_formula(self, rng):
        axes = rng.normal(size=(2000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        n1, n2 = _axis_complement(axes)
        triads = np.stack([axes, n1, n2], axis=1)
        assert np.abs(triads @ triads.transpose(0, 2, 1) - np.eye(3)).max() <= 4 * np.finfo(float).eps
        per_joint = np.array([axis_complement(axis) for axis in axes]).transpose(1, 0, 2)
        for got, want in zip((n1, n2), per_joint):
            assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()  # within 1 ulp

    def test_axis_aligned_axes_match_exactly(self):
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        per_joint = np.array([axis_complement(axis) for axis in axes]).transpose(1, 0, 2)
        for got, want in zip(_axis_complement(axes), per_joint):
            np.testing.assert_array_equal(got, want)


class TestFixedResidual:
    def test_at_target_zero_and_rows(self):
        q0 = from_axis_angle([0.3, 1.0, -0.2], 0.7)
        joint = JointConstraint(
            id=2, kind="fixed_to_world", parent=WORLD, child=1,
            p_a=np.array([1.0, 0.0, 0.0]), p_b=np.zeros(3), orientation_target=q0,
        )
        assert joint.rows == 6
        pose = {1: (np.array([1.0, 0.0, 0.0]), q0)}
        assert_allclose(residual(joint, pose), np.zeros(6), atol=1e-15)
        q1 = quat.multiply(q0, from_axis_angle([0, 0, 1], 0.2))
        res = residual(joint, {1: (np.array([1.0, 0.0, 0.0]), q1)})
        assert np.abs(res[3:]).max() > 1e-3


class TestPositionJacobian:
    def test_ball_translational_blocks(self, rng):
        joint = JointConstraint(
            id=9, kind="ball", parent=1, child=2,
            p_a=rng.normal(size=3), p_b=rng.normal(size=3),
        )
        pose = {1: (rng.normal(size=3), random_unit_quat(rng)),
                           2: (rng.normal(size=3), random_unit_quat(rng))}
        blocks = position_blocks(joint, pose)
        assert_allclose(blocks[1][:, :3], np.eye(3))
        assert_allclose(blocks[2][:, :3], -np.eye(3))

    def test_ball_rotational_block_at_identity(self):
        # the multiplicative-perturbation convention doubles the lever arm
        p = np.array([0.0, 0.0, -0.5])
        joint = JointConstraint(id=9, kind="ball", parent=1, child=2, p_a=p, p_b=np.zeros(3))
        pose = {1: (np.zeros(3), quat.identity()), 2: (p, quat.identity())}
        blocks = position_blocks(joint, pose)
        assert_allclose(blocks[1][:, 3:], -2.0 * quat.skew(p), atol=1e-14)

    @pytest.mark.parametrize("kind", ["ball", "revolute"])
    def test_matches_multiplicative_finite_differences(self, rng, kind):
        for _ in range(5):
            if kind == "ball":
                joint = JointConstraint(
                    id=9, kind=kind, parent=1, child=2,
                    p_a=rng.normal(size=3), p_b=rng.normal(size=3),
                )
            else:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                joint = JointConstraint(
                    id=9, kind=kind, parent=1, child=2,
                    p_a=rng.normal(size=3), p_b=rng.normal(size=3),
                    axis_a=axis, axis_b=axis,
                )
            states = {1: (rng.normal(size=3), random_unit_quat(rng)),
                      2: (rng.normal(size=3), random_unit_quat(rng))}
            blocks = position_blocks(joint, states)
            eps = 1e-6
            for bid in (1, 2):
                x0, q0 = states[bid]
                fd = np.zeros((joint.rows, 6))
                for j in range(3):
                    e = np.zeros(3)
                    e[j] = eps
                    up = dict(states)
                    up[bid] = (x0 + e, q0)
                    down = dict(states)
                    down[bid] = (x0 - e, q0)
                    fd[:, j] = (
                        residual(joint, up)
                        - residual(joint, down)
                    ) / (2 * eps)
                for j in range(3):
                    d = np.zeros(3)
                    d[j] = eps
                    qp = quat.multiply(q0, np.concatenate([[1.0], d]))
                    qm = quat.multiply(q0, np.concatenate([[1.0], -d]))
                    up = dict(states)
                    up[bid] = (x0, qp)
                    down = dict(states)
                    down[bid] = (x0, qm)
                    fd[:, 3 + j] = (
                        residual(joint, up)
                        - residual(joint, down)
                    ) / (2 * eps)
                assert np.abs(blocks[bid] - fd).max() < 1e-6


def predicted_knot(mech, h):
    """Stacked next-knot poses predicted from the mechanism's (v2, w2) and their rotations, world row included."""
    return with_world(mech.x2 + h * mech.v2, quat.orientation_update(mech.q2, mech.w2, h))


def predicted_residuals(mech, h):
    """{joint id: residual at the predicted next knot}."""
    pose = predicted_knot(mech, h)
    return {jid: r for g in mech.groups for jid, r in zip(g.ids, joint_residual(g, *pose))}


def velocity_blocks(mech, h):
    """{joint id: {body id: (rows, 6) velocity block}} at the mechanism's (v2, w2)."""
    q2, w2 = mech.q2, mech.w2
    delta = np.zeros((len(q2) + 1, 3, 3))
    delta[:-1] = quat._update_rotation_jacobian(w2, quat._rate_scalar(w2, h), h)
    _, q3, rot3 = predicted_knot(mech, h)
    out = {}
    for group in mech.groups:
        blk_a, blk_b = constraint_jacobian_velocity(group, q3, rot3, delta, h)
        for k, jid in enumerate(group.ids):
            a, b = mech.joints[jid].parent, mech.joints[jid].child
            out[jid] = {b: blk_b[k]}
            if a != WORLD:
                out[jid][a] = blk_a[k]
    return out


class TestVelocityJacobian:
    def _blocks_and_fd(self, mech, h):
        out = {}
        for jid, blocks in velocity_blocks(mech, h).items():
            fd = {}
            for bid in blocks:
                st = mech.bodies[bid].state
                base_v, base_w = st.v2.copy(), st.w2.copy()
                eps = 1e-6
                cols = []
                for j in range(6):
                    for sgn in (+1, -1):
                        if j < 3:
                            st.v2[:] = base_v + sgn * eps * np.eye(3)[j]
                        else:
                            st.w2[:] = base_w + sgn * eps * np.eye(3)[j - 3]
                        if sgn > 0:
                            plus = predicted_residuals(mech, h)[jid]
                        else:
                            minus = predicted_residuals(mech, h)[jid]
                        st.v2[:], st.w2[:] = base_v, base_w
                    cols.append((plus - minus) / (2 * eps))
                fd[bid] = np.stack(cols, axis=1)
            out[jid] = (blocks, fd)
        return out

    def test_zero_rate_translational_block(self):
        mech = make_pendulum(1, joint_kind="ball", h=0.01)
        st = mech.bodies[1].state
        st.v2[:], st.w2[:] = np.zeros(3), np.zeros(3)
        blocks = velocity_blocks(mech, 0.01)[2]
        assert_allclose(blocks[1][:, :3], -0.01 * np.eye(3), atol=1e-15)

    def test_matches_finite_differences(self, rng):
        mech = make_pendulum(2, joint_kind="revolute", h=0.01)
        for bid in mech.body_ids:
            st = mech.bodies[bid].state
            st.v2[:] = rng.normal(size=3)
            st.w2[:] = rng.normal(size=3)
        for jid, (blocks, fd) in self._blocks_and_fd(mech, 0.01).items():
            for bid in blocks:
                assert np.abs(blocks[bid] - fd[bid]).max() < 1e-6

    def test_small_step_asymptotics(self, rng):
        # translational columns scale with h, rotational with h/2 (the
        # orientation update advances by half-angle parameters)
        mech = make_pendulum(1, joint_kind="ball")
        st = mech.bodies[1].state
        st.v2[:] = rng.normal(size=3)
        st.w2[:] = rng.normal(size=3)
        (group,) = mech.groups
        pos = constraint_jacobian_position(group, *mech.poses(2)[1:])[1][0]
        errs = []
        for h in (1e-3, 1e-4):
            vel = velocity_blocks(mech, h)[2][1]
            approx = np.hstack([h * pos[:, :3], 0.5 * h * pos[:, 3:]])
            errs.append(np.abs(vel - approx).max() / h)
        assert errs[0] < 5e-3
        assert errs[1] < 0.2 * errs[0]


# Every kind with a body parent and with the world as parent: fixed joints
# attach to the world, the mixed pendulum hangs a revolute and a ball joint
# from bodies, the pendulums hang their first joint from the world.
ORACLE_MECHANISMS = {
    "mixed_kind": mixed_kind_pendulum,
    "revolute": lambda: make_pendulum(3, "revolute"),
    "ball": lambda: make_pendulum(3, "ball"),
}


def assert_relative_gap(new, ref, tol=1e-13):
    assert np.abs(new - ref).max() <= tol * np.abs(ref).max()


class TestQuaternionFormOracle:
    """The rotation-matrix kernels against their quaternion-derivative form, at unit and non-unit q."""

    @staticmethod
    def _poses(rng, mech, unit):
        n = len(mech.body_ids)
        q = rng.normal(size=(n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        if not unit:
            q *= rng.uniform(0.5, 1.5, size=(n, 1))
        return rng.normal(size=(n, 3)), q

    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("name", sorted(ORACLE_MECHANISMS))
    def test_residuals_and_position_jacobians(self, rng, name, unit):
        mech = ORACLE_MECHANISMS[name]()
        for _ in range(5):
            x, q = self._poses(rng, mech, unit)
            pose = with_world(x, q)
            for group in mech.groups:
                residual, dq_a, dq_b, q_a, q_b = quaternion_joint_kernels(mech, group, x, q)
                assert_relative_gap(joint_residual(group, *pose), residual)
                blk_a, blk_b = constraint_jacobian_position(group, *pose[1:])
                assert_relative_gap(blk_a[..., 3:], quat.rotational_jacobian(q_a, dq_a))
                assert_relative_gap(blk_b[..., 3:], quat.rotational_jacobian(q_b, dq_b))

    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("name", sorted(ORACLE_MECHANISMS))
    def test_velocity_jacobians(self, rng, name, unit):
        # the quaternion form chains the (rows, 4) derivative at the
        # predicted knot with orientation_update_jacobian
        mech, h = ORACLE_MECHANISMS[name](), 0.01
        n = len(mech.body_ids)
        for _ in range(5):
            x, q2 = self._poses(rng, mech, unit)
            w2 = rng.normal(size=(n, 3)) * 30.0
            _, q3, rot3 = with_world(x, quat.orientation_update(q2, w2, h))
            delta = np.zeros((n + 1, 3, 3))
            delta[:n] = quat._update_rotation_jacobian(w2, quat._rate_scalar(w2, h), h)
            update = np.zeros((n + 1, 4, 3))  # the world does not move
            update[:n] = quat.orientation_update_jacobian(q2, w2, h)
            for group in mech.groups:
                _, dq_a, dq_b, _, _ = quaternion_joint_kernels(mech, group, x, q3[:n])
                blk_a, blk_b = constraint_jacobian_velocity(group, q3, rot3, delta, h)
                assert_relative_gap(blk_a[..., 3:], dq_a @ update[group.ends[0]])
                assert_relative_gap(blk_b[..., 3:], dq_b @ update[group.ends[1]])


def floating_ring():
    """Four ungrounded links in a square, each joined to the next by a ball joint (ids 5-8)."""
    corners = [np.array(c, dtype=float) for c in [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)]]
    mid = [(corners[i] + corners[(i + 1) % 4]) / 2 for i in range(4)]
    bodies = [{"id": i + 1, "mass": 1.0, "inertia": [0.1, 0.1, 0.05, 0, 0, 0], "position": list(mid[i]),
               "quaternion": [1, 0, 0, 0]} for i in range(4)]
    joints = [{"id": 5 + i, "kind": "ball", "parent": (i - 1) % 4 + 1, "child": i + 1,
               "parent_anchor": list(corners[i] - mid[i - 1]), "child_anchor": list(corners[i] - mid[i])}
              for i in range(4)]
    return load_mechanism({"bodies": bodies, "joints": joints})


class TestGraph:
    def test_single_body_fixed_joint(self):
        mech = load_mechanism(
            {
                "bodies": [
                    {"id": 1, "mass": 1.0, "inertia": [0.1, 0.1, 0.1, 0, 0, 0],
                     "position": [0, 0, 0], "quaternion": [1, 0, 0, 0]}
                ],
                "joints": [
                    {"id": 2, "kind": "fixed_to_world", "parent": "world", "child": 1,
                     "parent_anchor": [0, 0, 0], "child_anchor": [0, 0, 0]}
                ],
            }
        )
        order = mech.graph.order
        assert sorted(order) == [1, 2]
        assert order[-1] == 2  # grounded: the world joint is the root

    def test_star_mechanism_matches_reference_order(self):
        mech = star_mechanism()
        order = mech.graph.order
        assert order == [5, 9, 4, 8, 3, 7, 2, 6, 1]
        pos = {n: i for i, n in enumerate(order)}
        for child, parent in [(3, 7), (7, 2), (4, 8), (8, 2), (2, 6), (6, 1), (5, 9), (9, 1)]:
            assert pos[child] < pos[parent]

    def test_children_before_parent_invariant(self):
        for mech in (make_pendulum(5), make_closed_chain(4), make_segmented_chain(2)):
            graph = mech.graph
            pos = {n: i for i, n in enumerate(graph.order)}
            for node, parent in graph.parent.items():
                assert pos[node] < pos[parent]
            nodes = set(mech.bodies) | set(mech.joints)
            assert set(graph.order) == nodes - graph.loop_joints

    def test_pendulum_counts(self):
        for n in (1, 4, 9):
            mech = make_pendulum(n)
            assert len(mech.joints) == n
            assert len(mech.graph.order) == 2 * n
            assert not mech.graph.loop_joints

    def test_detect_loops_pendulum_empty(self):
        assert make_pendulum(3).graph.loop_joints == set()

    def test_detect_loops_floating_ring(self):
        corners = [np.array(c, dtype=float) for c in
                   [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)]]
        bodies = []
        joints = []
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            bodies.append(
                {"id": i + 1, "mass": 1.0, "inertia": [0.1, 0.1, 0.05, 0, 0, 0],
                 "position": list((a + b) / 2), "quaternion": [1, 0, 0, 0]}
            )
        for i in range(4):
            a = corners[i]
            prev = (i - 1) % 4 + 1
            cur = i + 1
            xa = np.array(bodies[prev - 1]["position"])
            xb = np.array(bodies[cur - 1]["position"])
            joints.append(
                {"id": 4 + i + 1, "kind": "ball", "parent": prev, "child": cur,
                 "parent_anchor": list(a - xa), "child_anchor": list(a - xb)}
            )
        mech = load_mechanism({"bodies": bodies, "joints": joints})
        loops = mech.graph.loop_joints
        assert len(loops) == 1
        # cycle-count oracle on the incidence graph
        index = {n: i for i, n in enumerate(sorted(mech.bodies) + sorted(mech.joints))}
        edges = []
        for jid, j in mech.joints.items():
            edges.append((index[j.parent], index[jid]))
            edges.append((index[jid], index[j.child]))
        assert count_independent_cycles(len(index), edges) == 1

    def test_detect_loops_grounded_chain(self):
        mech = make_closed_chain(4)
        assert mech.graph.loop_joints == {9}
        assert 9 not in mech.graph.order
        # the cycle runs from the world through every link and tree joint
        assert mech.graph.cycles == [([9], {1, 2, 3, 4, 5, 6, 7, 8})]
        system = newton_system_at(mech, StepContext(h=0.01))
        assert system.order[-1] == LOOP_NODE
        assert system.layout.relieved == [len(system.order) - 1]
        assert system.layout.loop_layout == {LOOP_NODE: [(9, 5)]}

    @pytest.mark.parametrize("build,fill", [
        (lambda: make_pendulum(3, "revolute"), 0),
        (lambda: make_pendulum(3, "ball"), 0),
        (lambda: make_closed_chain(4), 14),
        (lambda: make_segmented_chain(3), 36),
        (star_mechanism, 0),
        (mixed_kind_pendulum, 0),
    ])
    def test_detect_loops_full_system_is_the_graph(self, build, fill):
        # what acceptance criterion 4 and `bench timing` time: every body a
        # node, in the graph's order, each cycle's loop joints stacked into a
        # relieved node right after the cycle's highest node; the one nearest
        # the root is LOOP_NODE
        mech = build()
        plan = mech.plan
        system = newton_system_at(mech, StepContext(h=0.01))
        lay = system.layout
        relieved = [system.order[k] for k in lay.relieved]
        assert [n for n in system.order if n not in relieved] == mech.graph.order
        expected = {}
        for ids, nodes in mech.graph.cycles:
            highest = max(nodes, key=mech.graph.order.index)
            expected[highest] = (ids, mech.graph.order.index(highest))
        keys = [LOOP_NODE if pos == max(p for _, p in expected.values()) else (LOOP_NODE, ids[0])
                for ids, pos in expected.values()]
        assert sorted(map(str, relieved)) == sorted(map(str, keys))
        for k in lay.relieved:
            ids, _ = expected[system.order[k - 1]]
            assert lay.loop_layout[system.order[k]] == [(i, mech.joints[i].rows) for i in ids]
        assert set(mech.body_ids) <= set(system.order)
        assert lay.fill_count == fill
        assert mech.plan is plan

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_detect_loops_segmented(self, k):
        mech = make_segmented_chain(k)
        assert len(mech.graph.loop_joints) == k
        # one disjoint cycle per parallelogram: its four rods and three tree joints
        cycles = mech.graph.cycles
        assert [ids for ids, _ in cycles] == [[4 * k + 5 * j + 3] for j in range(k)]
        assert [len(nodes) for _, nodes in cycles] == [7] * k
        assert all(not a & b for i, (_, a) in enumerate(cycles) for _, b in cycles[i + 1 :])
        # oracle: cycle space of the incidence graph with a world vertex
        index = {n: i for i, n in enumerate(sorted(mech.bodies) + sorted(mech.joints))}
        index[WORLD] = len(index)
        edges = []
        for jid, j in mech.joints.items():
            edges.append((index[j.parent], index[jid]))
            edges.append((index[jid], index[j.child]))
        assert count_independent_cycles(len(index), edges) == k

    @pytest.mark.parametrize("build,order,loops,cycles", [
        (floating_ring, [2, 7, 3, 8, 4, 5, 1], {6}, [([6], {1, 2, 3, 4, 5, 7, 8})]),
        # two joints between bodies 1 and 2: the second closes a loop
        (hinged_by_two_balls, [2, 4, 1, 3], {5}, [([5], {1, 2, 4})]),
        (lambda: make_closed_chain(4), [4, 8, 3, 7, 2, 6, 1, 5], {9}, [([9], {1, 2, 3, 4, 5, 6, 7, 8})]),
        (lambda: loops_sharing_a_body(np.random.default_rng(0)), [5, 11, 4, 10, 3, 8, 2, 7, 1, 6], {9, 12},
         [([9, 12], {1, 2, 3, 4, 5, 7, 8, 10, 11})]),
    ], ids=["floating_ring", "hinged_by_two_balls", "closed_chain_4", "loops_sharing_a_body"])
    def test_walk_order_loop_joints_and_cycles(self, build, order, loops, cycles):
        # each body takes its joints in ascending id from the world (or the
        # smallest body); a joint whose far end is in the tree closes a loop
        graph = build().graph
        assert graph.order == order
        assert graph.loop_joints == loops
        assert graph.cycles == cycles

    def test_disconnected_raises(self):
        body = {"id": 1, "mass": 1.0, "inertia": [0.1, 0.1, 0.1, 0, 0, 0],
                "position": [0, 0, 0], "quaternion": [1, 0, 0, 0]}
        other = dict(body, id=2, position=[5.0, 0, 0])
        with pytest.raises(MechanismError, match="disconnected"):
            load_mechanism({"bodies": [body, other], "joints": []})

    @pytest.mark.parametrize("order,sources,stacks,waits,zero", [
        # a zero-diagonal node waits for a neighbour's Schur update, and it has none
        ([1, 2], [(1, 1), (2, 2)], {}, {}, {2}),
        # two relieved nodes, each waiting for the other to go first
        (["a", "b"], [(1, 1), (2, 2)], {"a": [1], "b": [2]}, {"a": ["b"], "b": ["a"]}, set()),
    ], ids=["zero-diagonal-alone", "relieved-wait-for-each-other"])
    def test_level_order_without_an_order_raises(self, order, sources, stacks, waits, zero):
        with pytest.raises(ValueError, match="^no elimination order: some nodes wait for each other$"):
            _level_order(SymbolicElimination(order, dict.fromkeys([1, 2], 1), sources, stacks), waits, zero)


class TestLoader:
    def _body(self, **overrides):
        body = {"id": 1, "mass": 1.0, "inertia": [0.1, 0.1, 0.1, 0, 0, 0],
                "position": [0, 0, 0], "quaternion": [1, 0, 0, 0]}
        body.update(overrides)
        return body

    def test_round_trip(self, tmp_path):
        from mcdyn.mechanism import save_mechanism

        data = generate_scenario(Scenario(kind="pendulum", n_links=3))
        path = tmp_path / "mech.yaml"
        save_mechanism(data, path)
        mech = load_mechanism(path)
        assert len(mech.bodies) == 3
        assert mech.max_constraint_violation() < 1e-12

    @pytest.mark.parametrize("as_source", [str, os.fsencode], ids=["str", "bytes"])
    def test_path_given_as_str_or_bytes_loads(self, tmp_path, as_source):
        from mcdyn.mechanism import save_mechanism

        path = tmp_path / "mech.yaml"
        save_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=3)), path)
        assert len(load_mechanism(as_source(path)).bodies) == 3

    def test_mapping_that_is_no_dict_loads(self):
        data = generate_scenario(Scenario(kind="pendulum", n_links=3))
        assert len(load_mechanism(MappingProxyType(data)).bodies) == 3

    @pytest.mark.parametrize("source", [None, [{"bodies": []}], 1.5], ids=["none", "list", "float"])
    def test_source_that_is_no_mapping_or_path_rejected(self, source):
        message = f"^mechanism source must be a mapping or a file path, got {type(source).__name__}$"
        with pytest.raises(MechanismError, match=message):
            load_mechanism(source)

    def test_file_descriptor_rejected_and_left_open(self, tmp_path):
        # open() takes an int as a descriptor and closes it on leaving its block
        from mcdyn.mechanism import save_mechanism

        path = tmp_path / "mech.yaml"
        save_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=1)), path)
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(MechanismError, match="^mechanism source must be a mapping or a file path, got int$"):
                load_mechanism(fd)
            os.fstat(fd)  # raises OSError had the descriptor been closed
        finally:
            os.close(fd)

    def test_bad_mass(self):
        with pytest.raises(MechanismError, match="mass"):
            load_mechanism({"bodies": [self._body(mass=-1.0)], "joints": []})

    def test_bad_inertia(self):
        with pytest.raises(MechanismError, match="inertia"):
            load_mechanism({"bodies": [self._body(inertia=[1, 1, -1, 0, 0, 0])], "joints": []})

    def test_bad_quaternion(self):
        with pytest.raises(MechanismError, match="quaternion"):
            load_mechanism({"bodies": [self._body(quaternion=[1, 1, 0, 0])], "joints": []})

    def test_duplicate_ids(self):
        with pytest.raises(MechanismError, match="duplicate"):
            load_mechanism({"bodies": [self._body(), self._body()], "joints": []})

    def test_unknown_child(self):
        with pytest.raises(MechanismError, match="unknown child"):
            load_mechanism(
                {"bodies": [self._body()],
                 "joints": [{"id": 2, "kind": "ball", "parent": "world", "child": 7,
                             "parent_anchor": [0, 0, 0], "child_anchor": [0, 0, 0]}]}
            )

    def test_joint_on_one_body_rejected(self):
        with pytest.raises(MechanismError, match="^joint 2: parent and child must differ$"):
            load_mechanism(
                {"bodies": [self._body()],
                 "joints": [{"id": 2, "kind": "ball", "parent": 1, "child": 1,
                             "parent_anchor": [0, 0, 0], "child_anchor": [0, 0, 0]}]}
            )

    def test_joint_constraint_on_one_body_rejected(self):
        # the type holds the rule, so a mechanism built without the loader meets it too
        with pytest.raises(MechanismError, match="^joint 3: parent and child must differ$"):
            JointConstraint(id=3, kind="ball", parent=2, child=2, p_a=np.zeros(3), p_b=np.zeros(3))

    def test_bad_axis(self):
        with pytest.raises(MechanismError, match="axis"):
            load_mechanism(
                {"bodies": [self._body()],
                 "joints": [{"id": 2, "kind": "revolute", "parent": "world", "child": 1,
                             "parent_anchor": [0, 0, 0], "child_anchor": [0, 0, 0],
                             "parent_axis": [0, 2, 0], "child_axis": [0, 1, 0]}]}
            )

    def test_assembly_inconsistency(self):
        with pytest.raises(MechanismError, match="assembly"):
            load_mechanism(
                {"bodies": [self._body()],
                 "joints": [{"id": 2, "kind": "ball", "parent": "world", "child": 1,
                             "parent_anchor": [0.5, 0, 0], "child_anchor": [0, 0, 0]}]}
            )

    @staticmethod
    def _pendulum_and_fixed_body():
        data = generate_scenario(Scenario(kind="pendulum", n_links=2))
        data["bodies"].append(
            {"id": 5, "mass": 1.0, "inertia": [0.1, 0.1, 0.1, 0, 0, 0],
             "position": [0.0, 0.0, -3.0], "quaternion": [1.0, 0.0, 0.0, 0.0]}
        )
        data["joints"].append(
            {"id": 6, "kind": "fixed_to_world", "parent": "world", "child": 5,
             "parent_anchor": [0.0, 0.0, -3.0], "child_anchor": [0.0, 0.0, 0.0],
             "orientation_target": [1.0, 0.0, 0.0, 0.0]}
        )
        return data

    @pytest.mark.parametrize("group,index,field,value", [
        ("bodies", 0, "mass", np.nan),
        ("bodies", 1, "inertia", np.inf),
        ("bodies", 0, "position", np.nan),
        ("bodies", 1, "quaternion", np.nan),
        ("bodies", 0, "velocity", np.nan),
        ("bodies", 1, "angular_velocity", np.inf),
        ("joints", 0, "parent_anchor", np.nan),
        ("joints", 1, "child_anchor", np.nan),
        ("joints", 1, "parent_axis", np.nan),
        ("joints", 0, "child_axis", np.nan),
        ("joints", 2, "orientation_target", np.nan),
    ])
    def test_non_finite_number_rejected(self, group, index, field, value):
        data = self._pendulum_and_fixed_body()
        entry = data[group][index]
        if field == "mass":
            entry[field] = value
        else:
            entry[field] = [value] + list(entry[field])[1:]
        owner = f"{'body' if group == 'bodies' else 'joint'} {entry['id']}"
        with pytest.raises(MechanismError, match=f"{owner}: {field} is not finite"):
            load_mechanism(data)

    @pytest.mark.parametrize("index,field,value,n", [
        (0, "parent_anchor", [0.0, 0.0], 3),
        (1, "child_anchor", [0.0, 0.0, -0.5, 0.0], 3),
        (1, "parent_axis", [0.0, 1.0], 3),
        (0, "child_axis", [0.0, 1.0, 0.0, 0.0], 3),
        (2, "orientation_target", [1.0, 0.0, 0.0], 4),
    ])
    def test_wrong_vector_length_rejected(self, index, field, value, n):
        data = self._pendulum_and_fixed_body()
        entry = data["joints"][index]
        entry[field] = value
        with pytest.raises(MechanismError, match=f"joint {entry['id']}: {field} must have {n} components"):
            load_mechanism(data)

    @pytest.mark.parametrize("data,key,kind", [
        ({"bodies": None}, "bodies", "NoneType"),
        ({"bodies": {"id": 1}}, "bodies", "dict"),
        ({"bodies": 3, "joints": []}, "bodies", "int"),
        ({"bodies": [], "joints": None}, "joints", "NoneType"),
        ({"bodies": [], "joints": 3}, "joints", "int"),
        ({"bodies": [], "joints": "ball"}, "joints", "str"),
    ])
    def test_body_and_joint_lists_must_be_lists(self, data, key, kind):
        with pytest.raises(MechanismError, match=f"mechanism '{key}' must be a list, got {kind}"):
            load_mechanism(data)

    @pytest.mark.parametrize("group,field,value,message", [
        ("bodies", "id", 2.5, "body id must be an integer, got 2.5"),
        ("bodies", "id", True, "body id must be an integer, got True"),
        ("joints", "id", 3.5, "joint id must be an integer, got 3.5"),
        ("joints", "id", False, "joint id must be an integer, got False"),
        ("joints", "child", 2.9, "joint 3: child must be an integer, got 2.9"),
        ("joints", "child", True, "joint 3: child must be an integer, got True"),
        ("joints", "parent", 1.5, "joint 4: parent must be an integer, got 1.5"),
        ("joints", "parent", True, "joint 4: parent must be an integer, got True"),
    ])
    def test_non_integral_id_rejected(self, group, field, value, message):
        # the pendulum's bodies are 1 and 2, its joints 3 (world to 1) and 4 (1 to 2)
        data = generate_scenario(Scenario(kind="pendulum", n_links=2))
        entry = data[group][0 if field != "parent" else 1]
        entry[field] = value
        with pytest.raises(MechanismError, match=message):
            load_mechanism(data)

    def test_integral_float_ids_load(self):
        data = generate_scenario(Scenario(kind="pendulum", n_links=2))
        data["bodies"][1]["id"] = 2.0
        data["joints"][1].update(id=4.0, parent=1.0, child=2.0)
        mech = load_mechanism(data)
        assert mech.body_ids == [1, 2] and sorted(mech.joints) == [3, 4]
        assert (mech.joints[4].parent, mech.joints[4].child) == (1, 2)

    def test_initial_violation_is_zero_for_generated(self):
        for sc in (
            Scenario(kind="pendulum", n_links=4, joint_kind="ball"),
            Scenario(kind="closed_chain", n_links=5),
            Scenario(kind="segmented_chain", n_links=2),
        ):
            mech = load_mechanism(generate_scenario(sc))
            assert mech.max_constraint_violation() < 1e-12


def _set(group, index, **fields):
    """An edit of a description: update entry ``index`` of ``group`` with ``fields``."""
    return lambda data: data[group][index].update(fields)


def _drop(group, index, key):
    return lambda data: data[group][index].pop(key)


class TestLoaderMessages:
    """Each input rule of the loader, pinned by its whole message.

    Every edit is made to TestLoader's fixed-joint pendulum: bodies 1 and 2
    hang from the world on revolute joints 3 and 4, and body 5 is held by
    fixed joint 6.
    """

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.update(bodies=[], joints=[]), "mechanism has no bodies"),
        (lambda d: d.pop("bodies"), "mechanism description must be a mapping with a 'bodies' list"),
        (lambda d: d["bodies"].append([1, 2]), "malformed body entry: [1, 2]"),
        (lambda d: d["joints"].append("ball"), "malformed joint entry: 'ball'"),
        (_set("joints", 2, id=5), "duplicate node id 5"),
        (_set("bodies", 0, id=-1), "body id must be nonnegative, got -1"),
        (_set("bodies", 0, id="1"), "body id must be an integer, got '1'"),
        (_drop("bodies", 0, "id"), "body id must be an integer, got None"),
        (_set("joints", 1, parent="base"), "joint 4: parent must be an integer, got 'base'"),
        (_set("joints", 1, parent=np.array([1, 2])), "joint 4: parent must be an integer, got array([1, 2])"),
        (_set("joints", 1, child=np.array([1, 2])), "joint 4: child must be an integer, got array([1, 2])"),
        (_set("bodies", 1, velocty=[1.0, 0.0, 0.0]), "body 2: unknown key 'velocty'"),
        (_set("joints", 2, axis=[0.0, 1.0, 0.0]), "joint 6: unknown key 'axis'"),
        (_set("joints", 0, kind="prismatic"), "joint 3: unknown kind 'prismatic'"),
        (_drop("bodies", 1, "mass"), "body 2: mass must be a number, got None"),
        (_set("bodies", 1, mass="heavy"), "body 2: mass must be a number, got 'heavy'"),
        (_set("bodies", 1, mass=[1.0]), "body 2: mass must be a number, got [1.0]"),
        (_set("bodies", 0, inertia=[0.1] * 5), "body 1: inertia must have 6 components, got 5"),
        (_set("bodies", 0, inertia="111000"), "body 1: inertia must be a list of 6 numbers, got '111000'"),
        (_set("bodies", 1, position=[0.0, 0.0]), "body 2: position must have 3 components, got 2"),
        (_set("bodies", 1, position="123"), "body 2: position must be a list of 3 numbers, got '123'"),
        (_set("bodies", 1, position=[[0, 0, 0]]), "body 2: position must be a list of 3 numbers, got [[0, 0, 0]]"),
        (_set("bodies", 1, position={"x": 0}), "body 2: position must be a list of 3 numbers, got {'x': 0}"),
        (_set("bodies", 1, position=[0, [0], 0]), "body 2: position must be a list of 3 numbers, got [0, [0], 0]"),
        (_set("bodies", 1, position=[None, 0, 0]), "body 2: position is not finite: [None, 0, 0]"),
        (_set("bodies", 2, velocity=[0.0] * 4), "body 5: velocity must have 3 components, got 4"),
        (_set("bodies", 2, velocity=None), "body 5: velocity must be a list of 3 numbers, got None"),
        (_set("bodies", 2, angular_velocity=[]), "body 5: angular_velocity must have 3 components, got 0"),
        (_set("bodies", 0, quaternion=[1.0, 0.0, 0.0]), "body 1: quaternion must have 4 components, got 3"),
        (_set("bodies", 0, quaternion=[1.0, 1.0, 0.0, 0.0]), "body 1: quaternion must be a unit vector"),
        (_set("joints", 1, parent=9), "joint 4: unknown parent body 9"),
        (_drop("joints", 1, "parent_axis"), "joint 4: parent_axis must be a list of 3 numbers, got None"),
        (_set("joints", 1, child_axis=[0.0, 0.5, 0.0]), "joint 4: child_axis must be a unit vector"),
        (_set("joints", 2, parent=1), "joint 6: fixed joints attach to the world"),
        (_set("joints", 2, orientation_target=[1.0, 1.0, 0.0, 0.0]), "joint 6: orientation_target must be a unit vector"),
        (_set("joints", 2, orientation_target=None), "joint 6: orientation_target must be a list of 4 numbers, got None"),
    ])
    def test_message(self, edit, message):
        data = TestLoader._pendulum_and_fixed_body()
        edit(data)
        with pytest.raises(MechanismError, match=f"^{re.escape(message)}$"):
            load_mechanism(data)

    @pytest.mark.parametrize("fields,message", [
        ({"kind": "prismatic"}, "joint 3: unknown kind 'prismatic'"),
        ({"kind": "revolute", "axis_a": np.array([0.0, 1.0, 0.0])}, "joint 3: revolute joint needs both axes"),
    ])
    def test_joint_constraint_message(self, fields, message):
        # the type holds these rules, so a mechanism built without the loader meets them too
        with pytest.raises(MechanismError, match=f"^{re.escape(message)}$"):
            JointConstraint(id=3, parent=WORLD, child=1, p_a=np.zeros(3), p_b=np.zeros(3), **fields)

    @pytest.mark.parametrize("text,message", [
        ("bodies: [\n", "malformed mechanism file {path}: "),
        ("- 1\n- 2\n", "mechanism description must be a mapping with a 'bodies' list"),
    ])
    def test_file_message(self, tmp_path, text, message):
        path = tmp_path / "m.yaml"
        path.write_text(text)
        with pytest.raises(MechanismError, match=f"^{re.escape(message.format(path=path))}"):
            load_mechanism(path)

    def test_numeric_strings_read_as_numbers(self, tmp_path):
        # PyYAML reads 1e0, 1e-1 and 1e-3 (no dot) as strings
        path = tmp_path / "m.yaml"
        path.write_text(
            "bodies:\n- {id: 1, mass: 1e0, inertia: [1e-1, 1e-1, 1e-1, 0, 0, 0], position: [1e-3, 0, 0],\n"
            "   quaternion: [1, 0, 0, 0], velocity: ['2', 0, 0]}\n"
        )
        mech = load_mechanism(path)
        assert mech.mass.tolist() == [1.0] and mech.inertia.tolist() == [(0.1 * np.eye(3)).tolist()]
        assert mech.x2.tolist() == [[0.001, 0.0, 0.0]] and mech.v1.tolist() == [[2.0, 0.0, 0.0]]

    def test_default_target_is_the_childs_orientation(self):
        data = TestLoader._pendulum_and_fixed_body()
        data["bodies"][2]["quaternion"] = [0.6, 0.8, 0.0, 0.0]
        del data["joints"][2]["orientation_target"]
        mech = load_mechanism(data)
        assert mech.joints[6].orientation_target.tolist() == [0.6, 0.8, 0.0, 0.0]
        assert mech.max_constraint_violation() < 1e-15


class TestMaxViolation:
    @pytest.mark.parametrize("bid", [1, 3])
    def test_nan_pose_propagates(self, bid):
        # body 1 touches the first two joints, body 3 only the last one
        mech = make_pendulum(3)
        mech.bodies[bid].state.x2[:] = np.array([np.nan, 0.0, 0.0])
        assert np.isnan(mech.max_constraint_violation())
        assert mech.max_constraint_violation(at=1) < 1e-12

    def test_helper_propagates_nan_in_any_position(self):
        mech = make_pendulum(3)
        x, q, rot = mech.poses(2)
        for row in range(len(mech.body_ids)):
            bad = x.copy()
            bad[row] *= np.nan
            assert np.isnan(max_violation(mech.groups, bad, q, rot))
        assert max_violation([], x, q, rot) == 0.0

    def test_knot_selector_is_looked_up_by_value(self):
        mech = make_pendulum(3)
        mech.bodies[1].state.x2[:] = np.array([np.nan, 0.0, 0.0])
        for got, want in zip(mech.poses(1.0), mech.poses(1)):
            np.testing.assert_array_equal(got, want)
        assert mech.max_constraint_violation(at=True) == mech.max_constraint_violation(at=1) < 1e-12
        for at in (1.5, 3, "1"):
            with pytest.raises(ValueError, match="knot selector must be 1 or 2"):
                mech.poses(at)


# ---------------------------------------------------------------------------
# the loader against a conversion without checks, and the order of its rules


class _Captured(Exception):
    pass


def description_of(build):
    """The description ``build`` hands to load_mechanism, captured there."""

    def capture(data):
        raise _Captured(data)

    with pytest.MonkeyPatch.context() as patch:
        for module in (conftest, test_random_mechanisms, sys.modules[__name__]):
            patch.setattr(module, "load_mechanism", capture)
        with pytest.raises(_Captured) as caught:
            build()
    return caught.value.args[0]


def _shuffled_fixed_joint_pendulum():
    """TestLoader's fixed-joint pendulum with its entries out of id order and products of inertia; body 5 is
    turned, and its fixed joint takes the default target."""
    data = TestLoader._pendulum_and_fixed_body()
    data["bodies"] = [data["bodies"][k] for k in (1, 0, 2)]
    data["joints"].reverse()
    for k, body in enumerate(data["bodies"]):
        body["inertia"] = [0.3, 0.4, 0.5, 0.01 * (k + 1), 0.02, 0.03]
    data["bodies"][2]["quaternion"] = [0.6, 0.8, 0.0, 0.0]
    del data["joints"][0]["orientation_target"]
    return data


def _grid() -> dict:
    """Name -> builder of the description of each named case of the loader's differential grid."""
    cases = {}
    for kind, sizes in (("pendulum", (1, 2, 5, 12)), ("closed_chain", (3, 4, 8)), ("segmented_chain", (1, 2, 4)),
                        ("free_body", (1,))):
        for n, joint_kind in product(sizes, ("revolute", "ball")):
            sc = Scenario(kind=kind, n_links=n, joint_kind=joint_kind)
            cases[f"{kind}-{n}-{joint_kind}"] = lambda sc=sc: generate_scenario(sc)
    cases |= {
        "star": lambda: description_of(star_mechanism),
        "comb": lambda: description_of(comb),
        "hub_star": hub_star_description,
        "mixed_kind_pendulum": lambda: description_of(mixed_kind_pendulum),
        "floating_ring": lambda: description_of(floating_ring),
        "fixed_joint_pendulum": TestLoader._pendulum_and_fixed_body,
        "shuffled_fixed_joint_pendulum": _shuffled_fixed_joint_pendulum,
        "hinged_by_two_balls": lambda: description_of(hinged_by_two_balls),
        "two_disjoint_loops": lambda: description_of(lambda: two_disjoint_loops(np.random.default_rng(4004))),
    }
    return cases


GRID = _grid()


def plain(value):
    """``value`` with numpy scalars and arrays as Python floats and lists, for YAML."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def assert_same_value(got, want, what):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, what
        assert got.shape == want.shape and np.array_equal(got, want), what
    else:
        assert type(got) is type(want) and got == want, what


def assert_same_mechanism(got, want):
    for name in ("mass", "inertia", "x1", "q1", "x2", "q2", "v0", "w0", "v1", "w1"):
        assert_same_value(getattr(got, name), getattr(want, name), name)
    assert list(got.bodies) == list(want.bodies) and list(got.joints) == list(want.joints)
    for bid, body in want.bodies.items():
        for f in fields(RigidBody):
            assert_same_value(getattr(got.bodies[bid], f.name), getattr(body, f.name), f"body {bid} {f.name}")
    for jid, joint in want.joints.items():
        for f in fields(JointConstraint):
            assert_same_value(getattr(got.joints[jid], f.name), getattr(joint, f.name), f"joint {jid} {f.name}")
    assert len(got.groups) == len(want.groups)
    for g, h in zip(got.groups, want.groups):
        for f in fields(JointGroup):
            assert_same_value(getattr(g, f.name), getattr(h, f.name), f"{h.kind} group {f.name}")
    assert got.plan.layout.order == want.plan.layout.order


def assert_loads_as_converted(tmp_path, data):
    """``data``, given as a dict and as a YAML file, loads bit for bit as :func:`unchecked_mechanism` converts it."""
    path = tmp_path / "m.yaml"
    save_mechanism(plain(data), path)
    for source in (data, path):
        assert_same_mechanism(load_mechanism(source), unchecked_mechanism(data))


def outcome(data):
    """The message of the MechanismError loading ``data`` raises, or the mechanism it builds, checked against
    :func:`unchecked_mechanism`."""
    try:
        mech = load_mechanism(copy.deepcopy(data))
    except MechanismError as err:
        return str(err)
    assert_same_mechanism(mech, unchecked_mechanism(data))
    return mech


class TestBatchedLoader:
    """The one-pass loader builds what a conversion without checks builds, and names the first fault of the first failing rule."""

    @pytest.mark.parametrize("name", GRID)
    def test_named_case_matches_the_conversion(self, tmp_path, name):
        assert_loads_as_converted(tmp_path, GRID[name]())

    @pytest.mark.parametrize("loops", [True, False], ids=["loops", "tree"])
    def test_random_mechanisms_match_the_conversion(self, tmp_path, loops):
        for seed in range(60):  # 120 seeds over both cases
            rng = np.random.default_rng((5000 if loops else 6000) + seed)
            assert_loads_as_converted(tmp_path, description_of(lambda: random_mechanism(rng, loops)))

    @pytest.mark.parametrize("edit,message", [
        # a later entry's earlier field comes before an earlier entry's later one
        (lambda d: (_set("bodies", 1, mass=np.nan)(d), _set("bodies", 0, angular_velocity=[0, None, 0])(d)),
         "body 2: mass is not finite: nan"),
        # entry types come before keys, and keys before body ids
        (lambda d: (_set("bodies", 0, mas=1.0)(d), d["joints"].append("ball")), "malformed joint entry: 'ball'"),
        (lambda d: (_set("bodies", 0, id=-1)(d), _set("joints", 2, colour="red")(d)), "joint 6: unknown key 'colour'"),
        # body ids come before any body field
        (lambda d: (_set("bodies", 0, mass=np.nan)(d), _set("bodies", 2, id=2)(d)), "duplicate body id 2"),
        # every body rule comes before any joint rule
        (lambda d: (_set("joints", 0, parent_anchor=[0.0])(d), _set("bodies", 2, quaternion=[0.5, 0.5, 0.5, 0.6])(d)),
         "body 5: quaternion must be a unit vector"),
        # ends come before anchors
        (lambda d: (_set("joints", 0, child_anchor=None)(d), _set("joints", 2, parent=1.5)(d)),
         "joint 6: parent must be an integer, got 1.5"),
        # unknown children come before unknown parents, and references before axes
        (lambda d: (_set("joints", 1, parent=0)(d), _set("joints", 2, child=9)(d)), "joint 6: unknown child body 9"),
        (lambda d: (_set("joints", 2, child=9)(d), _set("joints", 1, child_axis="y")(d)), "joint 6: unknown child body 9"),
        # a fixed joint off the world comes before the axes
        (lambda d: (_set("joints", 0, parent_axis=[0.0, 2.0, 0.0])(d), _set("joints", 2, parent=1)(d)),
         "joint 6: fixed joints attach to the world"),
        # parent axes come before child axes, and axes before JointConstraint's own rules
        (lambda d: (_set("joints", 0, child_axis=[0.0, 0.5, 0.0])(d), _set("joints", 1, parent_axis=[0.0, 0.5, 0.0])(d)),
         "joint 4: parent_axis must be a unit vector"),
        (lambda d: (_set("joints", 0, kind="slider")(d), _drop("joints", 1, "parent_axis")(d)),
         "joint 4: parent_axis must be a list of 3 numbers, got None"),
        # within one rule, the first entry in list order
        (lambda d: (_set("joints", 1, parent_axis=[0.0, 2.0, 0.0])(d), _set("joints", 0, parent_axis=[0.0, 0.5, 0.0])(d)),
         "joint 3: parent_axis must be a unit vector"),
        (_set("bodies", 1, mass=0.0), "body 2: mass must be positive"),
        (_set("bodies", 2, inertia=[0.1, 0.1, 0.1, 0.2, 0.0, 0.0]), "body 5: inertia matrix is not positive definite"),
        (_set("joints", 1, parent=2), "joint 4: parent and child must differ"),
        (_set("joints", 0, parent=1, child=1), "joint 3: parent and child must differ"),
        (_set("bodies", 2, id=2), "duplicate body id 2"),
        (_set("joints", 2, id=3), "duplicate node id 3"),
        (_set("joints", 2, id=5), "duplicate node id 5"),
        (_set("joints", 0, child=7), "joint 3: unknown child body 7"),
        (_set("joints", 1, parent=0), "joint 4: unknown parent body 0"),
        (_set("joints", 2, parent=2), "joint 6: fixed joints attach to the world"),
        (_set("joints", 1, kind="ball", parent=2, child=2), "joint 4: parent and child must differ"),
        (_set("joints", 2, kind="slider"), "joint 6: unknown kind 'slider'"),
        (lambda d: (_set("bodies", 2, id=-5)(d), _set("joints", 2, child=-5)(d)), "body id must be nonnegative, got -5"),
    ])
    def test_first_fault_of_the_first_failing_rule(self, edit, message):
        data = TestLoader._pendulum_and_fixed_body()
        edit(data)
        assert outcome(data) == message

    CORRUPTIONS = {
        "none": lambda v: None,
        "nan": lambda v: np.nan if np.ndim(v) == 0 else [np.nan, *v[1:]],
        "str": lambda v: "x",
        "nested": lambda v: [v],
        "short": lambda v: [] if np.ndim(v) == 0 else list(v[:-1]),
        "numeric_str": lambda v: repr(float(v)) if np.ndim(v) == 0 else [repr(float(c)) for c in v],
    }

    def corrupt(self, rng, data, taken) -> set:
        """One field of an entry not in ``taken`` replaced by a drawn corruption, or an id or reference changed.

        Returns what a fault the edit causes may be named by: the entry's owner, under its old and new id,
        and a new id or reference.
        """
        free = [(g, i) for g in ("bodies", "joints") for i in range(len(data[g])) if (g, i) not in taken]
        group, index = free[int(rng.integers(len(free)))]
        taken.add((group, index))
        entry = data[group][index]
        word = "body" if group == "bodies" else "joint"
        named = {f"{word} {entry['id']}"}
        ids = [e["id"] for e in data["bodies"]] + [e["id"] for e in data["joints"]]
        if rng.random() < 0.2:  # an id or a reference
            key = str(rng.choice(["id", "parent", "child"] if group == "joints" else ["id"]))
            pool = [*ids, WORLD, 99]
            entry[key] = pool[int(rng.integers(len(pool)))]
            return named | {f"{word} {entry['id']}", str(entry[key]), repr(entry[key])}
        numeric = [k for k, v in entry.items() if k not in ("id", "kind", "parent", "child")]
        key = numeric[int(rng.integers(len(numeric)))]
        entry[key] = self.CORRUPTIONS[str(rng.choice(list(self.CORRUPTIONS)))](entry[key])
        return named

    @staticmethod
    def assert_fault_named(data, named, message):
        """``message`` names one of ``named``, or rejects a description read whole, as its unchecked conversion is."""
        if message.startswith("assembly inconsistent"):
            violation = unchecked_mechanism(data).max_constraint_violation()
            assert message == f"assembly inconsistent: initial constraint violation {violation:.3e} exceeds 1e-08"
        elif message.startswith("mechanism graph is disconnected"):
            with pytest.raises(MechanismError, match=f"^{re.escape(message)}$"):
                unchecked_mechanism(data)
        else:
            assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message) for name in named), (message, named)

    @pytest.mark.parametrize("base", ["fixed_joint_pendulum", "mixed_kind_pendulum", "star", "closed_chain-4-ball"])
    def test_seeded_corruptions_load_or_name_an_edit(self, base):
        rng = np.random.default_rng(7000)
        outcomes = set()
        for _ in range(80):
            data, taken, named = GRID[base](), set(), set()
            for _ in range(int(rng.integers(1, 3))):
                named |= self.corrupt(rng, data, taken)
            got = outcome(data)
            if isinstance(got, str):
                self.assert_fault_named(data, named, got)
            outcomes.add(got if isinstance(got, str) else "loaded")
        assert "loaded" in outcomes and len(outcomes) > 20  # numeric strings load, the rest fail in many ways

    def test_numeric_strings_in_every_field_load(self, tmp_path):
        data = TestLoader._pendulum_and_fixed_body()
        for entry in data["bodies"] + data["joints"]:
            for key, value in entry.items():
                if key not in ("id", "kind", "parent", "child"):
                    entry[key] = self.CORRUPTIONS["numeric_str"](value)
        assert_loads_as_converted(tmp_path, data)

    @pytest.mark.parametrize("direction", [[0.5, 0.5, 0.5, 0.5], [-0.476, -0.286, -0.006, -0.832]])
    def test_unit_norm_edge_is_decided_alike(self, direction):
        # quaternions whose norm is off 1 by a few ulps either side of 1e-9; along the
        # second direction, np.linalg.norm of one vector rounds differently there.  Body 9
        # hangs by its center from the tip of a ball pendulum, so its orientation is free.
        data = generate_scenario(Scenario(kind="pendulum", n_links=3, joint_kind="ball"))
        body = {"id": 9, "mass": 1.0, "inertia": [0.1, 0.1, 0.1, 0, 0, 0], "position": [3.0, 0.0, 3.0]}
        data["joints"].append({"id": 10, "kind": "ball", "parent": 3, "child": 9,
                               "parent_anchor": [0.0, 0.0, 0.5], "child_anchor": [0.0, 0.0, 0.0]})
        direction = np.array(direction)
        scale = (1.0 + 1e-9) / np.linalg.norm(direction)
        decided = []
        for k in range(-6, 7):
            body["quaternion"] = list(direction * (scale + k * np.spacing(scale)))
            off = bool(mechanism._off_unit(np.array(body["quaternion"])))
            alone = outcome({"bodies": [body]})
            among = outcome(dict(data, bodies=data["bodies"] + [body]))
            message = "body 9: quaternion must be a unit vector"
            assert (alone, among) == (message, message) if off else not isinstance(alone, str) and not isinstance(among, str)
            decided.append(off)
        assert True in decided and False in decided
