import numpy as np
import pytest
from numpy.testing import assert_allclose

import mcdyn.quaternions as quat
from conftest import make_closed_chain, make_pendulum, make_segmented_chain, newton_system_at, star_mechanism
from mcdyn.block_solver import LOOP_NODE
from mcdyn.errors import MechanismError
from mcdyn.integrator import StepContext
from mcdyn.mechanism import (
    WORLD,
    JointConstraint,
    constraint_jacobian_position,
    constraint_jacobian_velocity,
    joint_residual,
    load_mechanism,
    max_violation,
)
from mcdyn.scenarios import Scenario, generate_scenario
from oracles import count_independent_cycles, random_unit_quat, rotmat_from_axis_angle, rotmat_from_quat


def fixed_pose(mapping):
    def pose(bid):
        if bid == WORLD:
            return np.zeros(3), quat.identity()
        return mapping[bid]

    return pose


class TestBallResidual:
    def test_coincident_anchors(self):
        joint = JointConstraint(
            id=3, kind="ball", parent=1, child=2,
            p_a=np.array([0.5, 0.0, 0.0]), p_b=np.array([-0.5, 0.0, 0.0]),
        )
        pose = fixed_pose({
            1: (np.zeros(3), quat.identity()),
            2: (np.array([1.0, 0.0, 0.0]), quat.identity()),
        })
        assert_allclose(joint_residual(joint, pose), np.zeros(3), atol=1e-15)

    def test_pendulum_rest_pose(self):
        # hanging rod: anchors meet at (0, 0, -0.5)
        joint = JointConstraint(
            id=2, kind="ball", parent=WORLD, child=1,
            p_a=np.array([0.0, 0.0, -0.5]), p_b=np.array([0.0, 0.0, 0.5]),
        )
        pose = fixed_pose({1: (np.array([0.0, 0.0, -1.0]), quat.identity())})
        assert_allclose(joint_residual(joint, pose), np.zeros(3), atol=1e-15)

    def test_randomized_pose_matches_matrix_oracle(self, rng):
        for _ in range(10):
            pa, pb = rng.normal(size=3), rng.normal(size=3)
            xa, xb = rng.normal(size=3), rng.normal(size=3)
            qa, qb = random_unit_quat(rng), random_unit_quat(rng)
            joint = JointConstraint(id=9, kind="ball", parent=1, child=2, p_a=pa, p_b=pb)
            pose = fixed_pose({1: (xa, qa), 2: (xb, qb)})
            expected = xa + rotmat_from_quat(qa) @ pa - xb - rotmat_from_quat(qb) @ pb
            assert_allclose(joint_residual(joint, pose), expected, atol=1e-12)


def _hinge_joint():
    return JointConstraint(
        id=2, kind="revolute", parent=WORLD, child=1,
        p_a=np.zeros(3), p_b=np.array([0.0, 0.0, -0.5]),
        axis_a=np.array([0.0, 1.0, 0.0]), axis_b=np.array([0.0, 1.0, 0.0]),
    )


class TestRevoluteResidual:
    def test_aligned_zero(self):
        joint = _hinge_joint()
        pose = fixed_pose({1: (np.array([0.0, 0.0, 0.5]), quat.identity())})
        assert_allclose(joint_residual(joint, pose), np.zeros(5), atol=1e-15)

    def test_rotation_about_hinge_is_free(self, rng):
        joint = _hinge_joint()
        for angle in rng.uniform(-np.pi, np.pi, size=8):
            q = quat.from_axis_angle([0.0, 1.0, 0.0], angle)
            x = -quat.rotate(q, joint.p_b)
            residual = joint_residual(joint, fixed_pose({1: (x, q)}))
            assert_allclose(residual, np.zeros(5), atol=1e-13)

    def test_off_axis_tilt_matches_matrix_oracle(self):
        joint = _hinge_joint()
        tilt = rotmat_from_axis_angle([1.0, 0.0, 0.0], 0.1)
        q = quat.from_axis_angle([1.0, 0.0, 0.0], 0.1)
        x = -quat.rotate(q, joint.p_b)
        residual = joint_residual(joint, fixed_pose({1: (x, q)}))
        assert_allclose(residual[:3], np.zeros(3), atol=1e-14)
        axis_world = np.array([0.0, 1.0, 0.0])  # world-side hinge
        expected = [axis_world @ (tilt @ joint.n1), axis_world @ (tilt @ joint.n2)]
        assert np.abs(residual[3:]).max() > 1e-3
        assert_allclose(residual[3:], expected, atol=1e-12)


class TestFixedResidual:
    def test_at_target_zero_and_rows(self):
        q0 = quat.from_axis_angle([0.3, 1.0, -0.2], 0.7)
        joint = JointConstraint(
            id=2, kind="fixed_to_world", parent=WORLD, child=1,
            p_a=np.array([1.0, 0.0, 0.0]), p_b=np.zeros(3), orientation_target=q0,
        )
        assert joint.rows == 6
        pose = fixed_pose({1: (np.array([1.0, 0.0, 0.0]), q0)})
        assert_allclose(joint_residual(joint, pose), np.zeros(6), atol=1e-15)
        q1 = quat.multiply(q0, quat.from_axis_angle([0, 0, 1], 0.2))
        res = joint_residual(joint, fixed_pose({1: (np.array([1.0, 0.0, 0.0]), q1)}))
        assert np.abs(res[3:]).max() > 1e-3


class TestPositionJacobian:
    def test_ball_translational_blocks(self, rng):
        joint = JointConstraint(
            id=9, kind="ball", parent=1, child=2,
            p_a=rng.normal(size=3), p_b=rng.normal(size=3),
        )
        pose = fixed_pose({1: (rng.normal(size=3), random_unit_quat(rng)),
                           2: (rng.normal(size=3), random_unit_quat(rng))})
        blocks = constraint_jacobian_position(joint, pose)
        assert_allclose(blocks[1][:, :3], np.eye(3))
        assert_allclose(blocks[2][:, :3], -np.eye(3))

    def test_ball_rotational_block_at_identity(self):
        # the multiplicative-perturbation convention doubles the lever arm
        p = np.array([0.0, 0.0, -0.5])
        joint = JointConstraint(id=9, kind="ball", parent=1, child=2, p_a=p, p_b=np.zeros(3))
        pose = fixed_pose({1: (np.zeros(3), quat.identity()), 2: (p, quat.identity())})
        blocks = constraint_jacobian_position(joint, pose)
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
            blocks = constraint_jacobian_position(joint, fixed_pose(states))
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
                        joint_residual(joint, fixed_pose(up))
                        - joint_residual(joint, fixed_pose(down))
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
                        joint_residual(joint, fixed_pose(up))
                        - joint_residual(joint, fixed_pose(down))
                    ) / (2 * eps)
                assert np.abs(blocks[bid] - fd).max() < 1e-6


def predicted_pose(mech, h):
    """Predicted next-knot poses, read from the body states at each call."""

    def pose3(b):
        if b == WORLD:
            return np.zeros(3), quat.identity()
        s = mech.bodies[b].state
        return s.x2 + h * s.v2, quat.orientation_update(s.q2, s.w2, h)

    return pose3


def rotation_jacobians(mech, h):
    """Per-body derivative of the predicted orientation with respect to w2."""
    return {
        b: quat.orientation_update_jacobian(body.state.q2, body.state.w2, h)
        for b, body in mech.bodies.items()
    }


class TestVelocityJacobian:
    def _blocks_and_fd(self, mech, h):
        pose3 = predicted_pose(mech, h)
        out = {}
        for jid, joint in mech.joints.items():
            blocks = constraint_jacobian_velocity(joint, pose3, rotation_jacobians(mech, h), h)
            fd = {}
            for bid in blocks:
                st = mech.bodies[bid].state
                base_v, base_w = st.v2.copy(), st.w2.copy()

                def predicted_residual():
                    return joint_residual(joint, pose3)

                eps = 1e-6
                cols = []
                for j in range(6):
                    for sgn in (+1, -1):
                        if j < 3:
                            st.v2 = base_v + sgn * eps * np.eye(3)[j]
                        else:
                            st.w2 = base_w + sgn * eps * np.eye(3)[j - 3]
                        if sgn > 0:
                            plus = predicted_residual()
                        else:
                            minus = predicted_residual()
                        st.v2, st.w2 = base_v.copy(), base_w.copy()
                    cols.append((plus - minus) / (2 * eps))
                fd[bid] = np.stack(cols, axis=1)
            out[jid] = (blocks, fd)
        return out

    def test_zero_rate_translational_block(self):
        mech = make_pendulum(1, joint_kind="ball", h=0.01)
        st = mech.bodies[1].state
        st.v2, st.w2 = np.zeros(3), np.zeros(3)
        blocks = constraint_jacobian_velocity(
            mech.joints[2], predicted_pose(mech, 0.01), rotation_jacobians(mech, 0.01), 0.01
        )
        assert_allclose(blocks[1][:, :3], -0.01 * np.eye(3), atol=1e-15)

    def test_matches_finite_differences(self, rng):
        mech = make_pendulum(2, joint_kind="revolute", h=0.01)
        for bid in mech.body_ids:
            st = mech.bodies[bid].state
            st.v2 = rng.normal(size=3)
            st.w2 = rng.normal(size=3)
        for jid, (blocks, fd) in self._blocks_and_fd(mech, 0.01).items():
            for bid in blocks:
                assert np.abs(blocks[bid] - fd[bid]).max() < 1e-6

    def test_small_step_asymptotics(self, rng):
        # translational columns scale with h, rotational with h/2 (the
        # orientation update advances by half-angle parameters)
        mech = make_pendulum(1, joint_kind="ball")
        st = mech.bodies[1].state
        st.v2 = rng.normal(size=3)
        st.w2 = rng.normal(size=3)
        joint = mech.joints[2]
        pos = constraint_jacobian_position(joint, mech.pose(2))[1]
        errs = []
        for h in (1e-3, 1e-4):
            pose3, rot_jac = predicted_pose(mech, h), rotation_jacobians(mech, h)
            vel = constraint_jacobian_velocity(joint, pose3, rot_jac, h)[1]
            approx = np.hstack([h * pos[:, :3], 0.5 * h * pos[:, 3:]])
            errs.append(np.abs(vel - approx).max() / h)
        assert errs[0] < 5e-3
        assert errs[1] < 0.2 * errs[0]


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
        system = newton_system_at(mech, StepContext(h=0.01))
        assert system.order[-1] == LOOP_NODE
        assert system.loop_layout == [(9, 5)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_detect_loops_segmented(self, k):
        mech = make_segmented_chain(k)
        assert len(mech.graph.loop_joints) == k
        # oracle: cycle space of the incidence graph with a world vertex
        index = {n: i for i, n in enumerate(sorted(mech.bodies) + sorted(mech.joints))}
        index[WORLD] = len(index)
        edges = []
        for jid, j in mech.joints.items():
            edges.append((index[j.parent], index[jid]))
            edges.append((index[jid], index[j.child]))
        assert count_independent_cycles(len(index), edges) == k

    def test_disconnected_raises(self):
        body = {"id": 1, "mass": 1.0, "inertia": [0.1, 0.1, 0.1, 0, 0, 0],
                "position": [0, 0, 0], "quaternion": [1, 0, 0, 0]}
        other = dict(body, id=2, position=[5.0, 0, 0])
        with pytest.raises(MechanismError, match="disconnected"):
            load_mechanism({"bodies": [body, other], "joints": []})


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

    def test_initial_violation_is_zero_for_generated(self):
        for sc in (
            Scenario(kind="pendulum", n_links=4, joint_kind="ball"),
            Scenario(kind="closed_chain", n_links=5),
            Scenario(kind="segmented_chain", n_links=2),
        ):
            mech = load_mechanism(generate_scenario(sc))
            assert mech.max_constraint_violation() < 1e-12


class TestMaxViolation:
    @pytest.mark.parametrize("bid", [1, 3])
    def test_nan_pose_propagates(self, bid):
        # body 1 touches the first two joints, body 3 only the last one
        mech = make_pendulum(3)
        mech.bodies[bid].state.x2 = np.array([np.nan, 0.0, 0.0])
        assert np.isnan(mech.max_constraint_violation())
        assert mech.max_constraint_violation(at=1) < 1e-12

    def test_helper_propagates_nan_in_any_position(self):
        mech = make_pendulum(3)
        pose = mech.pose(2)
        for bid in mech.body_ids:
            def bad(b, bid=bid):
                x, q = pose(b)
                return (x * np.nan, q) if b == bid else (x, q)

            assert np.isnan(max_violation(mech.joints.values(), bad))
        assert max_violation([], pose) == 0.0
