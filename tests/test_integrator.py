import numpy as np
import pytest
from numpy.testing import assert_allclose

import mcdyn.quaternions as quat
from conftest import make_closed_chain, make_pendulum, make_segmented_chain, newton_system_at, star_mechanism
from mcdyn.block_solver import sparse_ldu_factorize, sparse_ldu_solve
from mcdyn.errors import AngularRateError, NewtonError, SimulationError
from mcdyn.integrator import (
    StepContext,
    angular_momentum,
    assemble_jacobian,
    assemble_residual,
    build_layout,
    get_unknowns,
    newton_solve,
    position_jacobian_blocks,
    run_simulation,
    set_unknowns,
    step,
    total_energy,
)
from mcdyn.mechanism import load_mechanism
from oracles import euler_free_body


def free_body(inertia=(0.1, 0.1, 0.05), w=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0), x=(0.0, 0.0, 0.0)):
    ixx, iyy, izz = inertia
    return load_mechanism(
        {
            "bodies": [
                {"id": 1, "mass": 1.0, "inertia": [ixx, iyy, izz, 0, 0, 0],
                 "position": list(x), "quaternion": [1, 0, 0, 0],
                 "velocity": list(v), "angular_velocity": list(w)}
            ],
            "joints": [],
        }
    )


def hanging_pendulum(n=2):
    """Chain of unit rods at rest pointing straight down (stable equilibrium)."""
    bodies = []
    joints = []
    for i in range(1, n + 1):
        bodies.append(
            {"id": i, "mass": 1.0,
             "inertia": [(1 + 3 * 0.05**2) / 12, (1 + 3 * 0.05**2) / 12, 0.05**2 / 2, 0, 0, 0],
             "position": [0.0, 0.0, -(i - 0.5)], "quaternion": [0.0, 0.0, 1.0, 0.0]}
        )
        joint = {"id": n + i, "kind": "revolute", "child": i,
                 "child_anchor": [0.0, 0.0, -0.5],
                 "parent_axis": [0.0, 1.0, 0.0], "child_axis": [0.0, 1.0, 0.0]}
        if i == 1:
            joint.update(parent="world", parent_anchor=[0.0, 0.0, 0.0])
        else:
            joint.update(parent=i - 1, parent_anchor=[0.0, 0.0, 0.5])
        joints.append(joint)
    return load_mechanism({"bodies": bodies, "joints": joints})


def dense_newton_matrix(mech, ctx):
    layout = build_layout(mech)
    system = assemble_jacobian(mech, ctx, layout, position_jacobian_blocks(mech))
    full, _ = system.assembled()
    return full


def fd_newton_matrix(mech, ctx, eps=1e-6):
    layout = build_layout(mech)
    s0 = get_unknowns(mech, layout)
    pos_blocks = position_jacobian_blocks(mech)
    cols = []
    for j in range(layout.dim):
        e = np.zeros(layout.dim)
        e[j] = eps
        set_unknowns(mech, layout, s0 + e)
        fp = assemble_residual(mech, ctx, layout, pos_blocks)
        set_unknowns(mech, layout, s0 - e)
        fm = assemble_residual(mech, ctx, layout, pos_blocks)
        cols.append((fp - fm) / (2 * eps))
    set_unknowns(mech, layout, s0)
    return np.stack(cols, axis=1)


def randomized_feasible_state(mech, ctx, rng, warm_steps=3):
    """Advance from random initial velocities to a dynamically consistent state."""
    for bid in mech.body_ids:
        st = mech.bodies[bid].state
        st.v1 = rng.normal(size=3) * 0.5
        st.w1 = rng.normal(size=3) * 0.5
    mech.initialize(ctx.h)
    for _ in range(warm_steps):
        step(mech, ctx)
    layout = build_layout(mech)
    s = get_unknowns(mech, layout)
    set_unknowns(mech, layout, s + rng.normal(size=layout.dim) * 0.05)
    return mech


def body_residual(mech, bid, ctx):
    """Body ``bid``'s six momentum-balance rows of the stacked residual."""
    layout = build_layout(mech)
    return assemble_residual(mech, ctx, layout, position_jacobian_blocks(mech))[layout.body_slices[bid]]


class TestTranslationalResidual:
    def test_force_balance(self):
        mech = free_body()
        ctx = StepContext(h=0.01, forces={1: np.array([0.0, 0.0, 9.81])})
        mech.initialize(0.01)
        assert_allclose(body_residual(mech, 1, ctx)[:3], np.zeros(3), atol=1e-12)

    def test_free_fall_one_step(self):
        mech = free_body()
        ctx = StepContext(h=0.01)
        mech.initialize(0.01)
        newton_solve(mech, ctx, tol=1e-12)
        assert_allclose(mech.bodies[1].state.v2, [0.0, 0.0, -0.0981], atol=1e-14)

    def test_one_link_initial_residual(self):
        mech = make_pendulum(1)
        ctx = StepContext(h=0.01)
        layout = build_layout(mech)
        f = assemble_residual(mech, ctx, layout, position_jacobian_blocks(mech))
        assert np.isclose(np.linalg.norm(f), 9.81, rtol=1e-12)


class TestRotationalResidual:
    def test_spherical_inertia_steady_spin(self, rng):
        w = rng.normal(size=3) * 5.0
        mech = free_body(inertia=(0.2, 0.2, 0.2), w=w)
        ctx = StepContext(h=0.01, gravity=0.0)
        mech.initialize(0.01)
        assert_allclose(body_residual(mech, 1, ctx)[3:], np.zeros(3), atol=1e-12)

    def test_rate_domain_error(self):
        mech = free_body(w=(0.0, 0.0, 100.0))
        mech.initialize(0.01)
        mech.bodies[1].state.w2 = np.array([0.0, 0.0, 250.0])
        with pytest.raises(AngularRateError):
            body_residual(mech, 1, StepContext(h=0.01))

    def test_torque_free_step_matches_fine_ode(self):
        J = (1.0, 2.0, 3.0)
        w0 = np.array([0.1, 0.2, 0.3])
        errs = {}
        for h in (0.01, 0.005):
            mech = free_body(inertia=J, w=w0)
            ctx = StepContext(h=h, gravity=0.0)
            mech.initialize(h)
            newton_solve(mech, ctx, tol=1e-12)
            w_ode = euler_free_body(np.diag(J), w0, h)
            errs[h] = np.linalg.norm(mech.bodies[1].state.w2 - w_ode)
        assert errs[0.01] < 5e-4
        # halving the step should cut the one-step defect about fourfold
        assert errs[0.005] < 0.35 * errs[0.01]

    def test_kinetic_energy_change_second_order(self):
        J = np.diag([1.0, 2.0, 3.0])
        w0 = np.array([0.4, -0.2, 0.5])
        errs = {}
        for h in (0.01, 0.005):
            mech = free_body(inertia=(1.0, 2.0, 3.0), w=w0)
            ctx = StepContext(h=h, gravity=0.0)
            mech.initialize(h)
            newton_solve(mech, ctx, tol=1e-12)
            w2 = mech.bodies[1].state.w2
            errs[h] = abs(0.5 * w2 @ J @ w2 - 0.5 * w0 @ J @ w0)
        assert errs[0.005] < 0.35 * errs[0.01] + 1e-14


class TestUpdates:
    def test_position_update(self):
        mech = free_body(v=(0.0, 1.0, 0.0), x=(1.0, 0.0, 0.0))
        mech.initialize(0.5)
        st = mech.bodies[1].state
        x_old = st.x2.copy()
        step(mech, StepContext(h=0.5, gravity=0.0))
        np.testing.assert_array_equal(st.x2, x_old + 0.5 * st.v2)
        assert_allclose(st.x2, [1.0, 0.5, 0.0])


class TestAssembledSystem:
    def test_dimension_revolute_and_ball(self):
        for n in (1, 3, 7):
            assert build_layout(make_pendulum(n, "revolute")).dim == 11 * n
            assert build_layout(make_pendulum(n, "ball")).dim == 9 * n

    def test_equilibrium_is_fixed_point(self):
        mech = hanging_pendulum(2)
        ctx = StepContext(h=0.01)
        mech.initialize(0.01)
        newton_solve(mech, ctx, tol=1e-12)
        layout = build_layout(mech)
        f = assemble_residual(mech, ctx, layout, position_jacobian_blocks(mech))
        assert np.linalg.norm(f) <= 1e-10
        info = newton_solve(mech, ctx, tol=1e-10)
        assert info.iterations == 0

    def test_equilibrium_energy_constant(self):
        mech = hanging_pendulum(1)
        ctx = StepContext(h=0.01)
        mech.initialize(0.01)
        e0 = total_energy(mech, ctx)
        records = run_simulation(mech, ctx, 50)
        assert max(abs(r.energy - e0) for r in records) < 1e-10

    @pytest.mark.parametrize("n,expected", [(1, 9.81), (10, 31.02), (100, 98.1)])
    def test_initial_residual_scaling(self, n, expected):
        # per-body weight stacks in quadrature: ||f|| = 9.81 sqrt(n)
        mech = make_pendulum(n)
        layout = build_layout(mech)
        f = assemble_residual(mech, StepContext(h=0.01), layout, position_jacobian_blocks(mech))
        assert np.isclose(np.linalg.norm(f), expected, rtol=1e-3)
        assert np.isclose(np.linalg.norm(f), 9.81 * np.sqrt(n), rtol=1e-12)

    def test_free_body_jacobian_is_mass_block(self):
        mech = free_body()
        mech.initialize(0.01)
        ctx = StepContext(h=0.01)
        full = dense_newton_matrix(mech, ctx)
        assert full.shape == (6, 6)
        assert_allclose(full[:3, :3], (1.0 / 0.01) * np.eye(3), atol=1e-12)
        assert_allclose(full[:3, 3:], np.zeros((3, 3)), atol=1e-12)

    def test_pattern_matches_incidence(self):
        mech = star_mechanism()
        mech.initialize(0.01)
        system = assemble_jacobian(
            mech, StepContext(h=0.01), build_layout(mech), position_jacobian_blocks(mech)
        )
        expected_edges = {(6, 1), (6, 2), (7, 2), (7, 3), (8, 2), (8, 4), (9, 1), (9, 5)}
        seen = set()
        for (i, j) in system.offdiag:
            assert (j, i) in system.offdiag  # symmetric pattern
            seen.add((i, j) if i > j else (j, i))
        assert seen == expected_edges

    @pytest.mark.parametrize("builder", [
        lambda: make_pendulum(3, "revolute"),
        lambda: make_pendulum(3, "ball"),
        lambda: make_closed_chain(4),
    ])
    def test_jacobian_matches_finite_differences(self, rng, builder):
        ctx = StepContext(h=0.01)
        mech = randomized_feasible_state(builder(), ctx, rng)
        dev = np.abs(dense_newton_matrix(mech, ctx) - fd_newton_matrix(mech, ctx)).max()
        assert dev < 1e-6


class TestLoopNodeRelief:
    @pytest.mark.parametrize("build", [
        lambda: make_closed_chain(4),
        lambda: make_segmented_chain(2),
        lambda: make_segmented_chain(6),
    ])
    def test_body_motion_matches_lstsq(self, rng, build):
        # the loop node is rank-deficient, so only the multipliers depend on
        # how its null space is chosen; the body rows of a consistent system
        # are unique and must match the planted solution and lstsq
        ctx = StepContext(h=0.01)
        mech = randomized_feasible_state(build(), ctx, rng, warm_steps=2)
        system = newton_system_at(mech, ctx)
        full, slices = system.assembled()
        x0 = rng.normal(size=full.shape[0])
        b = full @ x0
        for n, sl in slices.items():
            system.rhs[n] = b[sl]
        sol = sparse_ldu_solve(sparse_ldu_factorize(system.copy()))
        x = np.concatenate([sol[n] for n in system.order])
        assert np.linalg.norm(full @ x - b) <= 1e-10 * np.linalg.norm(b)
        body = np.concatenate([np.arange(full.shape[0])[slices[bid]] for bid in mech.body_ids])
        x_ls = np.linalg.lstsq(full, b, rcond=None)[0]
        for ref in (x0, x_ls):
            assert np.linalg.norm(x[body] - ref[body]) <= 1e-9 * np.linalg.norm(ref[body])


class TestNewton:
    def test_one_link_trace_is_quadratic(self):
        mech = make_pendulum(1)
        info = newton_solve(mech, StepContext(h=0.01), tol=1e-10)
        assert np.isclose(info.history[0], 9.81, rtol=1e-9)
        assert info.history[1] < 1e-4
        assert info.history[2] < 1e-12

    def test_typical_iteration_count(self):
        mech = make_pendulum(3)
        ctx = StepContext(h=0.01)
        counts = [step(mech, ctx, tol=1e-10).iterations for _ in range(200)]
        assert np.median(counts) <= 4
        assert max(counts) <= 6

    def test_nonconvergence_budget(self):
        mech = make_pendulum(1)
        with pytest.raises(NewtonError):
            newton_solve(mech, StepContext(h=0.01), tol=1e-30, max_iters=2)


class TestLoadGuards:
    @pytest.mark.parametrize("loads,bid", [
        ({"forces": {1: np.array([np.nan, 0.0, 0.0])}}, 1),
        ({"torques": {2: np.array([0.0, np.inf, 0.0])}}, 2),
        ({"forces": {2: np.zeros(2)}}, 2),
        ({"torques": {1: "spin"}}, 1),
        ({"forces": {99: np.zeros(3)}}, 99),
    ])
    def test_bad_load_rejected_before_solving(self, loads, bid):
        mech = make_pendulum(2)
        x_before = mech.bodies[1].state.x2.copy()
        with pytest.raises(SimulationError) as err:
            step(mech, StepContext(h=0.01, **loads))
        assert not isinstance(err.value, NewtonError)
        assert f"body {bid}" in str(err.value)
        np.testing.assert_array_equal(mech.bodies[1].state.x2, x_before)


class TestStep:
    def test_changed_step_size_raises_and_keeps_state(self):
        mech = make_pendulum(2)
        step(mech, StepContext(h=0.01))
        knots = ("x1", "q1", "x2", "q2", "v1", "w1", "v2", "w2")
        states = {b: [getattr(body.state, k).copy() for k in knots] for b, body in mech.bodies.items()}
        lams = {j: lam.copy() for j, lam in mech.multipliers.items()}
        assert any(lam.any() for lam in lams.values())
        with pytest.raises(SimulationError, match=r"0\.02.*0\.01") as err:
            newton_solve(mech, StepContext(h=0.02))
        assert not isinstance(err.value, NewtonError)
        for b, body in mech.bodies.items():
            for k, before in zip(knots, states[b]):
                np.testing.assert_array_equal(getattr(body.state, k), before)
        for j, lam in mech.multipliers.items():
            np.testing.assert_array_equal(lam, lams[j])
        # an explicit initialize is the way to restart with a new step
        mech.initialize(0.02)
        assert step(mech, StepContext(h=0.02), tol=1e-10).residual_norm < 1e-10

    def test_constant_velocity_free_body(self):
        mech = free_body(v=(0.3, -0.2, 0.1))
        ctx = StepContext(h=0.01, gravity=0.0)
        mech.initialize(0.01)
        for _ in range(100):
            step(mech, ctx)
        assert_allclose(mech.bodies[1].state.x2, np.array([0.3, -0.2, 0.1]), atol=1e-12)

    def test_constraint_satisfaction_each_step(self):
        mech = make_pendulum(2)
        ctx = StepContext(h=0.01)
        for _ in range(100):
            step(mech, ctx, tol=1e-10)
            assert mech.max_constraint_violation() <= 1e-9

    def test_committed_knots_consistent(self):
        mech = make_pendulum(2)
        ctx = StepContext(h=0.01)
        for _ in range(10):
            step(mech, ctx)
            for body in mech.bodies.values():
                st = body.state
                assert np.abs(st.x2 - (st.x1 + 0.01 * st.v1)).max() < 1e-12
                q_step = quat.orientation_update(st.q1, st.w1, 0.01)
                assert np.abs(st.q2 - q_step).max() < 1e-12

    def test_constant_torque_spinup(self):
        mech = free_body(inertia=(1.0, 1.0, 1.0))
        h = 0.001
        ctx = StepContext(h=h, gravity=0.0, torques={1: np.array([0.0, 0.0, 0.5])})
        mech.initialize(h)
        step(mech, ctx, tol=1e-12)
        assert_allclose(mech.bodies[1].state.w1, [0.0, 0.0, 0.5 * h], atol=1e-7)

    def test_compensated_gravity_hovers(self):
        mech = free_body()
        ctx = StepContext(h=0.01, forces={1: np.array([0.0, 0.0, 9.81])})
        mech.initialize(0.01)
        for _ in range(50):
            step(mech, ctx)
        assert_allclose(mech.bodies[1].state.x2, np.zeros(3), atol=1e-12)

    def test_unit_norm_preserved(self):
        mech = free_body(inertia=(1.0, 2.0, 3.0), w=(1.0, -2.0, 0.5))
        ctx = StepContext(h=0.01, gravity=0.0)
        mech.initialize(0.01)
        for _ in range(1000):
            step(mech, ctx, tol=1e-12)
        assert abs(np.linalg.norm(mech.bodies[1].state.q2) - 1.0) < 1e-13

    def test_angular_momentum_conserved(self):
        mech = free_body(inertia=(1.0, 2.0, 3.0), w=(0.3, -0.5, 0.8))
        ctx = StepContext(h=0.01, gravity=0.0)
        mech.initialize(0.01)
        L0 = angular_momentum(mech.bodies[1], 0.01)
        for _ in range(100):
            step(mech, ctx, tol=1e-12)
        L = angular_momentum(mech.bodies[1], 0.01)
        assert np.abs(L - L0).max() < 1e-12
        # the discrete momentum approximates J w
        J = np.diag([1.0, 2.0, 3.0])
        w0 = np.array([0.3, -0.5, 0.8])
        assert np.linalg.norm(L0 - quat.rotate(quat.identity(), J @ w0)) < 1e-2


class TestEnergy:
    def test_rest_at_origin(self):
        mech = free_body()
        mech.initialize(0.01)
        assert total_energy(mech, StepContext(h=0.01)) == 0.0

    def test_unit_mass_at_height(self):
        mech = free_body(x=(0.0, 0.0, 1.0))
        mech.initialize(0.01)
        assert np.isclose(total_energy(mech, StepContext(h=0.01)), 9.81)

    def test_pendulum_hand_formula(self):
        mech = make_pendulum(2)
        # two unit rods horizontal at pivot height 2: E = 2 * m*g*z0
        assert np.isclose(total_energy(mech, StepContext(h=0.01)), 2 * 9.81 * 2.0)

    def test_moving_body(self):
        mech = free_body(v=(1.0, 0.0, 0.0), w=(0.0, 0.0, 2.0), x=(0.0, 0.0, 0.5))
        mech.initialize(0.01)
        expected = 0.5 * 1.0 + 0.5 * 0.05 * 4.0 + 9.81 * 0.5
        assert np.isclose(total_energy(mech, StepContext(h=0.01)), expected)
