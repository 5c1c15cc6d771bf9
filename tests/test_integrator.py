import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mcdyn.baselines
import mcdyn.integrator
import mcdyn.quaternions as quat
from conftest import comb, hub_star, make_closed_chain, make_pendulum, make_segmented_chain, mixed_kind_pendulum, star_mechanism
from mcdyn.block_solver import check_pivots, sparse_ldu_factorize, sparse_ldu_solve
from mcdyn.errors import AngularRateError, LineSearchError, NewtonError, SimulationError, SingularBlockError
from mcdyn.integrator import (
    StepContext,
    angular_momentum,
    assemble_jacobian,
    assemble_residual,
    build_layout,
    eliminate_bodies,
    jacobian_blocks,
    newton_solve,
    newton_system_at,
    run_simulation,
    solve_reduced,
    step,
    total_energy,
)
from mcdyn.baselines import heun_simulate
from mcdyn.mechanism import elimination_plan, load_mechanism, step_count, velocities
from mcdyn.scenarios import Scenario, generate_scenario
from oracles import add_at_body_sums, assembled, euler_free_body, subtract_at_back_substitution


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
    """The assembled Jacobian, rows and columns in the order of the unknowns."""
    system = newton_system_at(mech, ctx)
    elim, _ = assembled(system.as_block_system())
    perm = system.layout.perm  # elimination order -> the unknowns' rows
    full = np.empty_like(elim)
    full[np.ix_(perm, perm)] = elim
    return full


def reduced_newton_system(mech, ctx, rhs):
    """The Newton loop's body-eliminated system at the current unknowns, right-hand side ``rhs``."""
    layout = build_layout(mech, ctx)
    _, pose = assemble_residual(mech, layout, mech.unknowns)
    return assemble_jacobian(mech, layout, mech.unknowns, pose, rhs)


def dense_schur_complement(mech, ctx):
    """The dense Newton matrix with the bodies of ``mech.plan.first`` eliminated.

    Over the hubs and joints in the plan layout's order; returns the
    matrix and its node block sizes.
    """
    full = dense_newton_matrix(mech, ctx)
    first = (6 * mech.plan.first[:, None] + np.arange(6)).ravel()
    layout = mech.plan.layout
    rest = layout.perm
    schur = full[np.ix_(rest, rest)] - full[np.ix_(rest, first)] @ np.linalg.solve(
        full[np.ix_(first, first)], full[np.ix_(first, rest)]
    )
    return schur, [seg.stop - seg.start for seg in layout.segments]


def fd_newton_matrix(mech, ctx, eps=1e-6):
    """Central differences of the stacked residual at the current unknowns."""
    layout = build_layout(mech, ctx)
    s0 = mech.unknowns
    cols = []
    for j in range(mech.dim):
        e = np.zeros(mech.dim)
        e[j] = eps
        fp, _ = assemble_residual(mech, layout, s0 + e)
        fm, _ = assemble_residual(mech, layout, s0 - e)
        cols.append((fp - fm) / (2 * eps))
    return np.stack(cols, axis=1)


def randomized_feasible_state(mech, ctx, rng, warm_steps=3):
    """Advance from random initial velocities to a dynamically consistent state."""
    for bid in mech.body_ids:
        st = mech.bodies[bid].state
        st.v1[:] = rng.normal(size=3) * 0.5
        st.w1[:] = rng.normal(size=3) * 0.5
    mech.initialize(ctx.h)
    for _ in range(warm_steps):
        step(mech, ctx)
    mech.unknowns += rng.normal(size=mech.dim) * 0.05
    return mech


def residual_at(mech, ctx):
    """The stacked residual at the current unknowns."""
    return assemble_residual(mech, build_layout(mech, ctx), mech.unknowns)[0]


def body_residual(mech, bid, ctx):
    """Body ``bid``'s six momentum-balance rows of the stacked residual."""
    return residual_at(mech, ctx)[mech.body_slices[bid]]


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
        f = residual_at(mech, ctx)
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
        mech.bodies[1].state.w2[:] = np.array([0.0, 0.0, 250.0])
        with pytest.raises(AngularRateError):
            body_residual(mech, 1, StepContext(h=0.01))

    def test_overshooting_newton_step_is_halved(self):
        # torque-free spin about the symmetry axis: the momentum balance is
        # w sqrt((2/h)^2 - w^2) = const, which is flat near ||w|| = 141, so
        # the full Newton step from a warm start at 140 lands outside
        # ||w|| < 2/h and the line search must halve it back into the domain
        mech = free_body(inertia=(0.2, 0.2, 0.2), w=(0.0, 0.0, 100.0))
        ctx = StepContext(h=0.01, gravity=0.0)
        mech.initialize(0.01)
        mech.bodies[1].state.w2[:] = np.array([0.0, 0.0, 140.0])
        s = mech.unknowns
        full_step = s - np.linalg.solve(dense_newton_matrix(mech, ctx), residual_at(mech, ctx))
        assert np.linalg.norm(full_step[3:6]) >= 2.0 / ctx.h
        info = newton_solve(mech, ctx, tol=1e-10)
        assert info.residual_norm < 1e-10
        assert_allclose(mech.bodies[1].state.w2, [0.0, 0.0, 100.0], atol=1e-9)

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
            assert make_pendulum(n, "revolute").dim == 11 * n
            assert make_pendulum(n, "ball").dim == 9 * n

    def test_full_plan_is_built_once_on_first_use(self):
        mech = make_pendulum(3)
        assert "full_plan" not in vars(mech)
        first = newton_system_at(mech, StepContext(h=0.01))
        plan = mech.full_plan
        second = newton_system_at(mech, StepContext(h=0.01))
        assert mech.full_plan is plan
        assert second.layout is first.layout is plan.layout

    def test_equilibrium_is_fixed_point(self):
        mech = hanging_pendulum(2)
        ctx = StepContext(h=0.01)
        mech.initialize(0.01)
        newton_solve(mech, ctx, tol=1e-12)
        f = residual_at(mech, ctx)
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
        f = residual_at(mech, StepContext(h=0.01))
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
        pairs = newton_system_at(mech, StepContext(h=0.01)).layout.pairs
        expected_edges = {(6, 1), (6, 2), (7, 2), (7, 3), (8, 2), (8, 4), (9, 1), (9, 5)}
        seen = set()
        for (i, j) in pairs:
            assert (j, i) in pairs  # symmetric pattern
            seen.add((i, j) if i > j else (j, i))
        assert seen == expected_edges

    @pytest.mark.parametrize("builder", [
        lambda: make_pendulum(3, "revolute"),
        lambda: make_pendulum(3, "ball"),
        lambda: make_closed_chain(4),
        star_mechanism,
        mixed_kind_pendulum,
    ])
    def test_jacobian_matches_finite_differences(self, rng, builder):
        ctx = StepContext(h=0.01)
        mech = randomized_feasible_state(builder(), ctx, rng)
        dev = np.abs(dense_newton_matrix(mech, ctx) - fd_newton_matrix(mech, ctx)).max()
        assert dev < 1e-6


class TestBodyElimination:
    def blocks(self, mech=None):
        mech = make_pendulum(4) if mech is None else mech
        ctx = StepContext(h=0.01)
        layout = build_layout(mech, ctx)
        _, pose = assemble_residual(mech, layout, mech.unknowns)
        body_diag, couplings = jacobian_blocks(mech, layout, mech.unknowns, pose)
        return mech, body_diag, couplings

    def test_singular_body_block_names_the_body(self):
        mech, body_diag, couplings = self.blocks()
        body_diag[2, 3:, 3:] = 0.0
        with pytest.raises(SingularBlockError, match="at node 3: exactly singular 6x6 block"):
            eliminate_bodies(mech, mech.plan, body_diag, couplings, np.zeros(mech.dim))

    def test_first_ill_conditioned_body_is_named(self):
        mech, body_diag, couplings = self.blocks()
        for row in (3, 1):
            body_diag[row, 5, 5] = 1e-16
        with pytest.raises(SingularBlockError, match="at node 2: ill-conditioned 6x6 block"):
            eliminate_bodies(mech, mech.plan, body_diag, couplings, np.zeros(mech.dim))

    def test_ill_conditioned_body_before_a_singular_one_is_named(self):
        # the batched inverse raises on body 4; bodies are then checked one at a time in id order
        mech, body_diag, couplings = self.blocks()
        body_diag[1, 5, 5] = 1e-16
        body_diag[3, 3:, 3:] = 0.0
        with pytest.raises(SingularBlockError, match="at node 2: ill-conditioned 6x6 block"):
            eliminate_bodies(mech, mech.plan, body_diag, couplings, np.zeros(mech.dim))

    @pytest.mark.parametrize("entries,value,message", [
        (np.s_[3:, 3:], 0.0, "exactly singular 6x6 block"),
        (np.s_[5, 5], 1e-16, "ill-conditioned 6x6 block"),
    ])
    def test_plan_without_first_leaves_the_bodies_to_the_sweep(self, monkeypatch, entries, value, message):
        # no body is eliminated first: no batched inverse or check, and the
        # sweep's own pivot check names the bad body, the leaf link 4, whose
        # block is the sweep's first pivot as it stands
        def no_batch(*args):
            raise AssertionError("a plan without first bodies ran the batched body check")

        monkeypatch.setattr(mcdyn.integrator, "check_pivots", no_batch)
        mech, body_diag, couplings = self.blocks()
        body_diag[3][entries] = value
        plan = elimination_plan(mech, np.ones(len(mech.body_ids), dtype=bool), levelled=False)
        rhs = np.arange(mech.dim, dtype=float)
        system = eliminate_bodies(mech, plan, body_diag, couplings, rhs).joints
        np.testing.assert_array_equal(system.rhs, rhs)
        with pytest.raises(SingularBlockError, match=f"at node 4: {message}"):
            sparse_ldu_factorize(system)

    @pytest.mark.parametrize("entries,value", [(np.s_[3:, 3:], 0.0), (np.s_[5, 5], 1e-16)])
    def test_body_pass_and_sweep_name_a_bad_body_alike(self, entries, value):
        # the leaf link 4 reaches both as planted: the body pass of the
        # step's plan and the sweep of the full plan, its first pivot
        mech, body_diag, couplings = self.blocks()
        body_diag[3][entries] = value
        rhs = np.zeros(mech.dim)
        with pytest.raises(SingularBlockError) as body_pass:
            eliminate_bodies(mech, mech.plan, body_diag, couplings, rhs)
        with pytest.raises(SingularBlockError) as sweep:
            sparse_ldu_factorize(eliminate_bodies(mech, mech.full_plan, body_diag, couplings, rhs).joints)
        assert str(body_pass.value) == str(sweep.value)
        assert str(body_pass.value).startswith("singular diagonal block at node 4: ")

    @pytest.mark.parametrize("entries,value,message", [
        (np.s_[3:, 3:], 0.0, "exactly singular 6x6 block"),
        (np.s_[5, 5], 1e-16, "ill-conditioned 6x6 block"),
    ])
    def test_only_the_sweep_pivots_a_hub(self, entries, value, message):
        # the hub 1 of the star is cut from its rods (the joints' parent
        # side), so no Schur update reaches its pivot: both plans' sweeps
        # pivot its block as planted, and the body pass never sees it
        mech, body_diag, couplings = self.blocks(hub_star(6))
        assert mech.plan.hubs.tolist() == [0]
        for row, col in couplings:
            row[0] = col[0] = 0.0
        body_diag[0][entries] = value
        rhs = np.zeros(mech.dim)
        system = eliminate_bodies(mech, mech.plan, body_diag, couplings, rhs).joints
        with pytest.raises(SingularBlockError) as step_sweep:
            sparse_ldu_factorize(system)
        with pytest.raises(SingularBlockError) as full_sweep:
            sparse_ldu_factorize(eliminate_bodies(mech, mech.full_plan, body_diag, couplings, rhs).joints)
        assert str(step_sweep.value) == str(full_sweep.value)
        assert str(step_sweep.value).startswith(f"singular diagonal block at node 1: {message}")

    def test_body_pass_checks_only_the_bodies_eliminated_first(self, monkeypatch):
        checked = []

        def record(pivots, inverses, starts, at, nodes, sizes):
            checked.append(np.arange(len(starts))[at].tolist())
            return check_pivots(pivots, inverses, starts, at, nodes, sizes)

        monkeypatch.setattr(mcdyn.integrator, "check_pivots", record)
        mech, body_diag, couplings = self.blocks(hub_star(6))
        system = eliminate_bodies(mech, mech.plan, body_diag, couplings, np.zeros(mech.dim))
        assert checked == [mech.plan.first.tolist()] == [list(range(1, 7))]
        assert not system.inverse[mech.plan.hubs].any() and not system.inverse[-1].any()

    def test_sweep_leaves_the_first_bodies_rows_zero(self, monkeypatch, rng):
        swept = []

        def record(fact):
            x = sparse_ldu_solve(fact)
            swept.append(x.copy())  # solve_reduced adds the first bodies' rows in place
            return x

        monkeypatch.setattr(mcdyn.integrator, "sparse_ldu_solve", record)
        mech, body_diag, couplings = self.blocks(hub_star(6))
        rhs = rng.normal(size=mech.dim)
        x = solve_reduced(mech, eliminate_bodies(mech, mech.plan, body_diag, couplings, rhs))
        (out,) = swept
        assert out.shape == (mech.dim,)
        first = (6 * mech.plan.first[:, None] + np.arange(6)).ravel()
        assert not out[first].any()
        kept = np.setdiff1d(np.arange(mech.dim), first)
        np.testing.assert_array_equal(x[kept], out[kept])

    def test_free_body_has_no_joint_sweep(self):
        # without joints the step is ds = B^-1 f, all bodies at once
        mech = free_body(w=(0.3, -0.5, 0.8))
        mech.initialize(0.01)
        ctx = StepContext(h=0.01, gravity=0.0)
        rhs = residual_at(mech, ctx)
        ds = solve_reduced(mech, reduced_newton_system(mech, ctx, rhs))
        assert_allclose(dense_newton_matrix(mech, ctx) @ ds, rhs, rtol=1e-13, atol=1e-15)
        assert step(mech, ctx, tol=1e-12).iterations > 0

    def test_free_body_sweep_solves_to_zeros(self):
        # the sweep of a mechanism without joints has no node: its solution is zero in every row of the unknowns
        mech = free_body(w=(0.3, -0.5, 0.8))
        mech.initialize(0.01)
        ctx = StepContext(h=0.01)
        system = reduced_newton_system(mech, ctx, residual_at(mech, ctx))
        x = sparse_ldu_solve(sparse_ldu_factorize(system.joints))
        assert x.shape == (mech.dim,) and not x.any()


def initialized_ring():
    from test_mechanism import floating_ring  # imported here: test_mechanism imports this module

    mech = floating_ring()
    mech.initialize(0.01)
    return mech


def initialized_free_body():
    mech = free_body(w=(0.3, -0.5, 0.8))
    mech.initialize(0.01)
    return mech


SCATTER_CASES = {
    "free_body": initialized_free_body,  # no joints: nothing to scatter
    "hub_star_20": lambda: hub_star(20),
    "comb_10": comb,
    "floating_ring": initialized_ring,
    "mixed_kind_pendulum": mixed_kind_pendulum,  # three kind groups, scattered in group order
    "segmented_chain_3": lambda: make_segmented_chain(3),
}


class TestBodyScatters:
    """The per-body sums of impulse terms (one np.bincount each) against np.add.at references."""

    @staticmethod
    def perturbed(name, rng):
        mech = SCATTER_CASES[name]()
        mech.unknowns += rng.normal(size=mech.dim) * 0.05
        return mech

    @pytest.mark.parametrize("name", SCATTER_CASES)
    def test_residual_pull_matches_add_at_bit_for_bit(self, monkeypatch, rng, name):
        mech = self.perturbed(name, rng)
        layout = build_layout(mech, StepContext(h=0.01))
        f, _ = assemble_residual(mech, layout, mech.unknowns)
        monkeypatch.setattr(mcdyn.integrator, "body_sums", add_at_body_sums)
        reference, _ = assemble_residual(mech, layout, mech.unknowns)
        np.testing.assert_array_equal(f, reference)

    @pytest.mark.parametrize("name", SCATTER_CASES)
    def test_back_substitution_matches_subtract_at(self, rng, name):
        mech = self.perturbed(name, rng)
        rhs = rng.normal(size=mech.dim)
        system = reduced_newton_system(mech, StepContext(h=0.01), rhs)
        swept = sparse_ldu_solve(sparse_ldu_factorize(system.joints))
        reference = subtract_at_back_substitution(mech, system, swept)
        x = solve_reduced(mech, system)
        assert_allclose(x, reference, rtol=1e-12, atol=1e-13 * np.abs(reference).max())

    @pytest.mark.parametrize("name", SCATTER_CASES)
    def test_impulse_blocks_are_contiguous_negated_transposes(self, rng, name):
        mech = self.perturbed(name, rng)
        layout = build_layout(mech, StepContext(h=0.01))
        _, pose = assemble_residual(mech, layout, mech.unknowns)
        _, couplings = jacobian_blocks(mech, layout, mech.unknowns, pose)
        assert len(couplings) == len(layout.pos_blocks) == len(mech.groups)
        for (pos, impulse), (_, col) in zip(layout.pos_blocks, couplings):
            assert col is impulse and col.flags.c_contiguous
            np.testing.assert_array_equal(col, -pos.transpose(0, 1, 3, 2))

    @pytest.mark.parametrize("name", SCATTER_CASES)
    def test_baseline_couplings_are_contiguous(self, monkeypatch, name):
        seen = []
        eliminate = mcdyn.baselines.eliminate_bodies

        def record(mech, plan, body_diag, couplings, rhs):
            seen.extend(couplings)
            return eliminate(mech, plan, body_diag, couplings, rhs)

        monkeypatch.setattr(mcdyn.baselines, "eliminate_bodies", record)
        mech = SCATTER_CASES[name]()
        heun_simulate(mech, StepContext(h=0.01), 1)
        assert len(seen) == 2 * len(mech.groups)  # two stages
        for row, col in seen:
            assert col.flags.c_contiguous
            np.testing.assert_array_equal(col, -row.transpose(0, 1, 3, 2))


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
        full = dense_newton_matrix(mech, ctx)
        x0 = rng.normal(size=mech.dim)
        b = full @ x0
        x = sparse_ldu_solve(sparse_ldu_factorize(replace(newton_system_at(mech, ctx), rhs=b)))
        assert np.linalg.norm(full @ x - b) <= 1e-10 * np.linalg.norm(b)
        body = slice(0, 6 * len(mech.body_ids))
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

    def test_nonconvergence_budget(self, monkeypatch):
        monkeypatch.setattr(mcdyn.integrator, "_MAX_ITERS", 2)
        mech = make_pendulum(1)
        with pytest.raises(NewtonError, match="after 2 iterations"):
            newton_solve(mech, StepContext(h=0.01), tol=1e-30)

    def test_line_search_error_names_the_step_and_the_history(self, monkeypatch):
        # every trial point reads a larger residual, so the first iteration stalls
        residual = mcdyn.integrator.assemble_residual
        calls = []

        def growing(mech, layout, s):
            calls.append(s)
            f, pose = residual(mech, layout, s)
            return f + (100.0 if len(calls) > 1 else 0.0), pose

        monkeypatch.setattr(mcdyn.integrator, "assemble_residual", growing)
        mech = make_pendulum(1)
        with pytest.raises(LineSearchError) as err:
            newton_solve(mech, StepContext(h=0.01))
        step_norm = np.linalg.norm(calls[0] - calls[1])  # the first trial takes the full step
        assert str(err.value) == (
            "line search stalled at residual 9.810e+00 after 20 halvings; "
            f"last Newton step norm {step_norm:.3e}, residual history [9.810e+00]"
        )


BAD_LOADS = [
    ({"forces": {1: np.array([np.nan, 0.0, 0.0])}}, 1),
    ({"torques": {2: np.array([0.0, np.inf, 0.0])}}, 2),
    ({"forces": {2: np.zeros(2)}}, 2),
    ({"torques": {1: "spin"}}, 1),
    ({"forces": {99: np.zeros(3)}}, 99),
    ({"forces": {1: np.zeros(3), 2: np.zeros(2)}}, 2),  # shapes that do not stack
]


class TestLoadGuards:
    @pytest.mark.parametrize("loads,bid", BAD_LOADS)
    def test_bad_load_rejected_before_solving(self, loads, bid):
        mech = make_pendulum(2)
        x_before = mech.bodies[1].state.x2.copy()
        with pytest.raises(SimulationError) as err:
            step(mech, StepContext(h=0.01, **loads))
        assert not isinstance(err.value, NewtonError)
        assert f"body {bid}" in str(err.value)
        np.testing.assert_array_equal(mech.bodies[1].state.x2, x_before)

    @pytest.mark.parametrize("loads,bid", BAD_LOADS)
    def test_bad_load_rejected_by_heun_baseline(self, loads, bid):
        with pytest.raises(SimulationError) as err:
            heun_simulate(make_pendulum(2), StepContext(h=0.01, **loads), 5)
        assert not isinstance(err.value, NewtonError)
        assert f"body {bid}" in str(err.value)


# (field named in the error, StepContext arguments, step arguments)
BAD_PARAMETERS = [
    ("h", {"h": 0.0}, {}),
    ("h", {"h": -0.01}, {}),
    ("h", {"h": np.nan}, {}),
    ("h", {"h": np.inf}, {}),
    ("gravity", {"h": 0.01, "gravity": np.nan}, {}),
    ("gravity", {"h": 0.01, "gravity": np.inf}, {}),
    ("tol", {"h": 0.01}, {"tol": -1.0}),
    ("tol", {"h": 0.01}, {"tol": np.nan}),
    ("h", {"h": "0.01"}, {}),
    ("tol", {"h": 0.01}, {"tol": "1e-10"}),
    ("gravity", {"h": 0.01, "gravity": None}, {}),
]


class TestStepParameters:
    @pytest.mark.parametrize("name,ctx_args,step_args", BAD_PARAMETERS)
    def test_bad_parameter_rejected_before_solving(self, name, ctx_args, step_args):
        mech = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)))
        x_before, s_before = mech.x2.copy(), mech.unknowns.copy()
        with pytest.raises(SimulationError, match=f"^{name} must be finite") as err:
            step(mech, StepContext(**ctx_args), **step_args)
        assert str(err.value).endswith(f"got {({**ctx_args, **step_args})[name]!r}")
        assert not isinstance(err.value, NewtonError)
        assert mech.h is None
        np.testing.assert_array_equal(mech.x2, x_before)
        np.testing.assert_array_equal(mech.unknowns, s_before)

    @pytest.mark.parametrize("h", [0.0, -0.01, np.nan, np.inf])
    def test_initialize_rejects_bad_step(self, h):
        mech = make_pendulum(2)
        with pytest.raises(SimulationError, match="^h must be finite and positive"):
            mech.initialize(h)
        assert mech.h == 0.01

    # (2/h)^2, which every orientation update takes, overflows or falls below the normal floats
    @pytest.mark.parametrize("h", [1e-200, 1e200])
    def test_step_outside_the_rate_range_rejected_before_solving(self, h):
        mech = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)))
        x_before, s_before = mech.x2.copy(), mech.unknowns.copy()
        with pytest.raises(SimulationError, match=f"^h must lie between about 1.5e-154 and 1.3e154, got {re.escape(repr(h))}$"):
            step(mech, StepContext(h=h))
        assert mech.h is None
        np.testing.assert_array_equal(mech.x2, x_before)
        np.testing.assert_array_equal(mech.unknowns, s_before)

    @pytest.mark.parametrize("h", [1e-200, 1e200])
    def test_initialize_outside_the_rate_range_rejected(self, h):
        mech = make_pendulum(2)
        q1 = mech.q1.copy()
        with pytest.raises(SimulationError, match="^h must lie between") as err:
            mech.initialize(h)
        assert not isinstance(err.value, AngularRateError)
        assert mech.h == 0.01
        np.testing.assert_array_equal(mech.q1, q1)

    @pytest.mark.parametrize("h", [1.5e-154, 1.3e154])
    def test_steps_at_the_ends_of_the_rate_range_initialize(self, h):
        mech = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)))
        mech.initialize(h)
        assert mech.h == h

    @pytest.mark.parametrize("duration,h", [(1e-199, 1e-200), (1e201, 1e200)])
    def test_step_count_rejects_a_step_outside_the_rate_range(self, duration, h):
        with pytest.raises(SimulationError, match="^h must lie between"):
            step_count(duration, h)

    @pytest.mark.parametrize("n_steps", [-3, 2.5, "2", None])
    def test_run_simulation_rejects_a_step_count_that_is_no_non_negative_integer(self, n_steps):
        mech = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)))
        with pytest.raises(SimulationError, match=f"^n_steps must be a non-negative integer, got {re.escape(repr(n_steps))}$"):
            run_simulation(mech, StepContext(h=0.01), n_steps)
        assert mech.h is None

    def test_run_simulation_takes_any_integer_step_count(self):
        mech = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)))
        assert run_simulation(mech, StepContext(h=0.01), 0) == []
        assert [r.step for r in run_simulation(mech, StepContext(h=0.01), np.int64(2))] == [1, 2]


KNOTS = ("x1", "q1", "x2", "q2", "v0", "w0", "v1", "w1", "v2", "w2")


class TestStateArrays:
    def test_state_fields_are_rows_of_the_mechanism_arrays(self):
        mech = make_pendulum(3)
        step(mech, StepContext(h=0.01))
        for row, bid in enumerate(mech.body_ids):
            st = mech.bodies[bid].state
            for knot in KNOTS:
                array = getattr(mech, knot)
                assert np.shares_memory(getattr(st, knot), array)
                np.testing.assert_array_equal(getattr(st, knot), array[row])
        v2, w2 = mech.unknowns[mech.body_slices[2]].reshape(2, 3)
        np.testing.assert_array_equal(mech.bodies[2].state.v2, v2)
        np.testing.assert_array_equal(mech.bodies[2].state.w2, w2)

    def test_write_through_state_reaches_unknowns_and_residual(self):
        mech = make_pendulum(2)
        ctx = StepContext(h=0.01)
        step(mech, ctx)
        f_before = residual_at(mech, ctx)
        w1_before = mech.w1.copy()
        mech.bodies[1].state.w2[:] = [0.0, 0.3, 0.0]
        np.testing.assert_array_equal(mech.unknowns[mech.body_slices[1]][3:], [0.0, 0.3, 0.0])
        np.testing.assert_array_equal(mech.w1, w1_before)  # the committed knot is not a view of it
        f_after = residual_at(mech, ctx)
        assert np.abs(f_after[mech.body_slices[1]][3:] - f_before[mech.body_slices[1]][3:]).max() > 1e-3
        np.testing.assert_array_equal(f_after[mech.body_slices[2]][:3], f_before[mech.body_slices[2]][:3])

    @pytest.mark.parametrize("knot", KNOTS)
    def test_state_fields_cannot_be_rebound(self, knot):
        mech = make_pendulum(1)
        with pytest.raises(AttributeError):
            setattr(mech.bodies[1].state, knot, np.zeros(3))

    def test_mechanism_is_freed_without_cycle_collection(self):
        # body states refer back to their mechanism; a reference cycle there
        # would keep every dead mechanism alive until a full gc pass
        mech = make_pendulum(3)
        step(mech, StepContext(h=0.01))
        ref = weakref.ref(mech)
        del mech
        assert ref() is None

    def test_initialize_zeroes_every_joint_row(self):
        mech = make_pendulum(3)
        for _ in range(3):
            step(mech, StepContext(h=0.01))
        assert all(mech.unknowns[sl].any() for sl in mech.joint_slices.values())
        mech.initialize(0.01)
        for sl in mech.joint_slices.values():
            np.testing.assert_array_equal(mech.unknowns[sl], 0.0)
        np.testing.assert_array_equal(mech.v2, mech.v1)
        np.testing.assert_array_equal(mech.w2, mech.w1)

    def test_failed_solve_keeps_last_accepted_vector(self, monkeypatch):
        monkeypatch.setattr(mcdyn.integrator, "_MAX_ITERS", 2)
        mech = make_pendulum(2)
        ctx = StepContext(h=0.01)
        s_start = mech.unknowns.copy()
        f_start = np.linalg.norm(residual_at(mech, ctx))
        with pytest.raises(NewtonError):
            newton_solve(mech, ctx, tol=1e-30)
        assert np.linalg.norm(residual_at(mech, ctx)) < 1e-3 * f_start
        assert not np.array_equal(mech.unknowns, s_start)

    def test_recorded_bodies_are_snapshots(self):
        mech = make_pendulum(2)
        ctx = StepContext(h=0.01)
        records, expected = [], []
        for _ in range(4):
            (rec,) = run_simulation(mech, ctx, 1, record_bodies=True)
            records.append(rec)
            expected.append([(mech.x2[i].copy(), mech.q2[i].copy(), mech.v1[i].copy(), mech.w1[i].copy())
                             for i in range(len(mech.body_ids))])
        mech.bodies[1].state.x2[:] = np.nan
        for rec, knots in zip(records, expected):
            assert [bid for bid, *_ in rec.bodies] == mech.body_ids
            for (_, *got), want in zip(rec.bodies, knots):
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)


class TestStep:
    def test_commits_the_knot_the_converged_residual_predicted(self, monkeypatch):
        # bit for bit the position and orientation updates at the converged
        # velocities, which the accepted residual evaluation already made
        mech = make_segmented_chain(2)
        ctx = StepContext(h=0.01)
        update, calls = quat.orientation_update, []
        monkeypatch.setattr(quat, "orientation_update", lambda *args: calls.append(args) or update(*args))
        for _ in range(3):
            x2, q2 = mech.x2.copy(), mech.q2.copy()
            step(mech, ctx)
            assert np.array_equal(mech.x2, x2 + ctx.h * mech.v2)
            assert np.array_equal(mech.q2, update(q2, mech.w2, ctx.h))
            assert np.array_equal(mech.x1, x2) and np.array_equal(mech.q1, q2)
        assert calls == []

    def test_changed_step_size_raises_and_keeps_state(self):
        mech = make_pendulum(2)
        step(mech, StepContext(h=0.01))
        knots = ("x1", "q1", "x2", "q2", "v1", "w1", "v2", "w2")
        states = {b: [getattr(body.state, k).copy() for k in knots] for b, body in mech.bodies.items()}
        lams = {j: mech.unknowns[sl].copy() for j, sl in mech.joint_slices.items()}
        assert any(lam.any() for lam in lams.values())
        with pytest.raises(SimulationError, match=r"0\.02.*0\.01") as err:
            newton_solve(mech, StepContext(h=0.02))
        assert not isinstance(err.value, NewtonError)
        for b, body in mech.bodies.items():
            for k, before in zip(knots, states[b]):
                np.testing.assert_array_equal(getattr(body.state, k), before)
        for j, sl in mech.joint_slices.items():
            np.testing.assert_array_equal(mech.unknowns[sl], lams[j])
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

    # 1e-200 overflowed (2/h)^2, 0 divided by zero and NaN returned NaN momentum
    @pytest.mark.parametrize("h,message", [
        (1e-200, "lie between about 1.5e-154 and 1.3e154"),
        (0.0, "be finite and positive"),
        (np.nan, "be finite and positive"),
    ])
    def test_angular_momentum_rejects_a_bad_time_step(self, h, message):
        mech = free_body(inertia=(1.0, 2.0, 3.0), w=(0.3, -0.5, 0.8))
        with pytest.raises(SimulationError, match=f"^h must {message}, got {re.escape(repr(h))}$"):
            angular_momentum(mech.bodies[1], h)


def record_starts(monkeypatch):
    """The unknowns every newton_solve call starts from, appended as copies."""
    starts = []
    solve = mcdyn.integrator.newton_solve

    def recording(mech, ctx, tol):
        starts.append(mech.unknowns.copy())
        return solve(mech, ctx, tol=tol)

    monkeypatch.setattr(mcdyn.integrator, "newton_solve", recording)
    return starts


def extrapolated(mech):
    """The unknowns with the body rows moved to 2 (v1, w1) - (v0, w0)."""
    s = mech.unknowns.copy()
    v, w = velocities(s, len(mech.body_ids))
    v[:], w[:] = 2.0 * mech.v1 - mech.v0, 2.0 * mech.w1 - mech.w0
    return s


class TestPredictedStart:
    def test_first_step_after_initialize_starts_from_the_warm_start(self, monkeypatch):
        starts = record_starts(monkeypatch)
        mech = make_pendulum(3, "ball")
        ctx = StepContext(h=0.01)
        for _ in range(3):
            step(mech, ctx)
        mech.bodies[2].state.w1[:] = [0.4, -0.2, 0.1]
        mech.initialize(0.01)
        cold = mech.unknowns.copy()
        step(mech, ctx)
        np.testing.assert_array_equal(starts[-1], cold)

    def test_later_steps_extrapolate_the_velocities_only(self, monkeypatch):
        starts = record_starts(monkeypatch)
        mech = make_closed_chain(4)
        ctx = StepContext(h=0.01)
        step(mech, ctx)
        for _ in range(5):
            last, want = mech.unknowns.copy(), extrapolated(mech)
            assert not np.array_equal(want, last)
            step(mech, ctx)
            np.testing.assert_array_equal(starts[-1], want)
            n = 6 * len(mech.body_ids)
            np.testing.assert_array_equal(starts[-1][n:], last[n:])
            # between steps the unknowns hold the solution, which the knots shifted in
            np.testing.assert_array_equal(mech.v1, mech.v2)
            np.testing.assert_array_equal(mech.w1, mech.w2)

    def test_prediction_beyond_the_rate_limit_falls_back(self, monkeypatch):
        starts = record_starts(monkeypatch)
        ctx = StepContext(h=0.01, gravity=0.0)
        runs = []
        for w0 in ([0.0, 0.0, -120.0], [0.0, 0.0, 50.0]):
            mech = free_body(inertia=(1.0, 2.0, 3.0), w=(0.0, 0.0, 50.0), v=(0.1, 0.0, 0.0))
            mech.initialize(0.01)
            mech.bodies[1].state.w0[:] = w0  # 2 * 50 + 120 >= 2/h; the second run keeps w0 = w1
            plain = mech.unknowns.copy()
            step(mech, ctx, tol=1e-12)
            np.testing.assert_array_equal(starts[-1], plain)
            runs.append([mech.x2, mech.q2, mech.v1, mech.w1, mech.unknowns])
        for fell_back, plain_run in zip(*runs):
            np.testing.assert_array_equal(fell_back, plain_run)

    def test_newton_solve_starts_from_the_unknowns(self, monkeypatch):
        mech = make_pendulum(3)
        ctx = StepContext(h=0.01)
        for _ in range(3):
            step(mech, ctx)
        assert not np.array_equal(extrapolated(mech), mech.unknowns)
        starts = []
        residual = mcdyn.integrator.assemble_residual
        monkeypatch.setattr(
            mcdyn.integrator, "assemble_residual", lambda m, lay, s: starts.append(s.copy()) or residual(m, lay, s)
        )
        start = mech.unknowns.copy()
        newton_solve(mech, ctx)
        np.testing.assert_array_equal(starts[0], start)

    def test_rejected_load_keeps_the_last_solution(self):
        mech = make_pendulum(3)
        ctx = StepContext(h=0.01)
        for _ in range(3):
            step(mech, ctx)
        before = {name: getattr(mech, name).copy() for name in (*KNOTS, "unknowns")}
        assert not np.array_equal(extrapolated(mech), mech.unknowns)
        with pytest.raises(SimulationError, match="body 1"):
            step(mech, StepContext(h=0.01, forces={1: np.array([np.nan, 0.0, 0.0])}))
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(mech, name), value)


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

    def test_matches_per_body_sum(self, rng):
        # the array formula sums in another order than this loop, so the
        # two agree to rounding, bounded relative to the summed magnitudes
        mech = make_pendulum(6, "ball")
        ctx = StepContext(h=0.01, forces={b: rng.normal(size=3) * 9.81 for b in mech.body_ids})
        for _ in range(5):
            step(mech, ctx)
        terms = []
        for body in mech.bodies.values():
            st = body.state
            terms += [
                0.5 * body.mass * (st.v1 @ st.v1),
                0.5 * (st.w1 @ body.inertia @ st.w1),
                ctx.gravity * body.mass * st.x2[2],
            ]
        scale = np.sum(np.abs(terms))
        assert abs(total_energy(mech, ctx) - sum(terms)) <= 64 * np.finfo(float).eps * scale

    def test_moving_body(self):
        mech = free_body(v=(1.0, 0.0, 0.0), w=(0.0, 0.0, 2.0), x=(0.0, 0.0, 0.5))
        mech.initialize(0.01)
        expected = 0.5 * 1.0 + 0.5 * 0.05 * 4.0 + 9.81 * 0.5
        assert np.isclose(total_energy(mech, StepContext(h=0.01)), expected)
