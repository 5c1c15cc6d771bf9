"""Differential tests on random mechanisms: trees of ball and revolute joints
plus a few loop closures, at random dynamically consistent states.

Anchors and hinge axes are derived from shared world points and axes, so
every mechanism assembles exactly.  The sparse Newton solve is checked
against the dense block LDU and against numpy's least squares, the
solver layout's pattern against the dense LDU factors, and the mechanism
graph against an independent cycle count.
"""

import numpy as np
import pytest

import mcdyn.block_solver
import mcdyn.mechanism
from conftest import make_closed_chain, make_pendulum, make_segmented_chain
from mcdyn.block_solver import LOOP_NODE, dense_ldu_factorize, dense_ldu_solve, sparse_ldu_factorize, sparse_ldu_solve
from mcdyn.integrator import StepContext, newton_system_at, run_simulation
from mcdyn.mechanism import WORLD, load_mechanism
from oracles import count_independent_cycles, l_matrix, random_unit_quat, rotmat_from_quat, u_matrix
from test_integrator import dense_newton_matrix, fd_newton_matrix, randomized_feasible_state

SEEDS = range(8)


def random_mechanism(rng):
    """A grounded random tree of 3-8 bodies closed by 1-3 extra joints."""
    n = int(rng.integers(3, 9))
    x = {b: rng.normal(size=3) for b in range(1, n + 1)}
    q = {b: random_unit_quat(rng) for b in range(1, n + 1)}
    bodies = [
        {
            "id": b,
            "mass": float(rng.uniform(0.5, 2.0)),
            "inertia": [*rng.uniform(0.05, 0.2, size=3), 0.0, 0.0, 0.0],
            "position": list(x[b]),
            "quaternion": list(q[b]),
        }
        for b in x
    ]
    pairs = [(WORLD, 1)] + [(int(rng.integers(1, b)), b) for b in range(2, n + 1)]
    candidates = [(a, b) for a in [WORLD, *x] for b in x if a != b and (a, b) not in pairs]
    picks = rng.choice(len(candidates), size=int(rng.integers(1, 4)), replace=False)
    pairs += [candidates[k] for k in picks]

    def local(b, vec, point):
        # body-frame image of a world point (or direction); world is the identity frame
        if b == WORLD:
            return list(vec)
        rel = vec - x[b] if point else vec
        return list(rotmat_from_quat(q[b]).T @ rel)

    joints = []
    for k, (a, b) in enumerate(pairs):
        point = 0.5 * ((x[a] if a != WORLD else x[b]) + x[b]) + 0.3 * rng.normal(size=3)
        joint = {
            "id": n + 1 + k,
            "kind": str(rng.choice(["ball", "revolute"])),
            "parent": a,
            "child": b,
            "parent_anchor": local(a, point, True),
            "child_anchor": local(b, point, True),
        }
        if joint["kind"] == "revolute":
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            joint["parent_axis"] = local(a, axis, False)
            joint["child_axis"] = local(b, axis, False)
        joints.append(joint)
    return load_mechanism({"bodies": bodies, "joints": joints})


@pytest.fixture(params=SEEDS)
def random_case(request):
    rng = np.random.default_rng(1000 + request.param)
    return random_mechanism(rng), rng


def test_graph_partitions_nodes(random_case):
    mech, _ = random_case
    graph = mech.graph
    nodes = set(mech.bodies) | set(mech.joints)
    assert len(graph.order) == len(set(graph.order))
    assert not set(graph.order) & graph.loop_joints
    assert set(graph.order) | graph.loop_joints == nodes
    pos = {n: i for i, n in enumerate(graph.order)}
    for node, parent in graph.parent.items():
        assert pos[node] < pos[parent]
    index = {n: i for i, n in enumerate(sorted(mech.bodies) + sorted(mech.joints))}
    index[WORLD] = len(index)
    edges = []
    for jid, j in mech.joints.items():
        edges.append((index[j.parent], index[jid]))
        edges.append((index[jid], index[j.child]))
    assert 1 <= len(graph.loop_joints) == count_independent_cycles(len(index), edges)


CHAINS = {"segmented_chain_8": lambda: make_segmented_chain(8), "closed_chain_8": lambda: make_closed_chain(8)}


@pytest.fixture(params=[*SEEDS, *CHAINS])
def solve_case(request):
    # segmented_chain 8 (40 loop rows, 352 tree rows) applies the loop node's
    # deferred updates in several panels; closed_chain 8 in one per node
    if request.param in CHAINS:
        return CHAINS[request.param](), np.random.default_rng(2000)
    rng = np.random.default_rng(1000 + request.param)
    return random_mechanism(rng), rng


def test_sparse_solve_matches_dense_and_lstsq(solve_case):
    # plant a solution so the right-hand side is consistent even where the
    # loop node is rank-deficient; body rows are then unique
    mech, rng = solve_case
    ctx = StepContext(h=0.01)
    randomized_feasible_state(mech, ctx, rng, warm_steps=2)
    system = newton_system_at(mech, ctx)
    full, slices = system.assembled()
    x0 = rng.normal(size=full.shape[0])
    b = full @ x0
    for node, sl in slices.items():
        system.rhs[node] = b[sl]

    fact = sparse_ldu_factorize(system.copy())
    sol = sparse_ldu_solve(fact)
    x = np.concatenate([sol[node] for node in system.order])
    sizes = [system.diag[node].shape[0] for node in system.order]
    dense = dense_ldu_factorize(full, sizes, pivot_relief=1e-10)
    x_dense = dense_ldu_solve(dense, b)
    assert np.linalg.norm(x - x_dense) <= 1e-9 * np.linalg.norm(x_dense)
    # the loop node's pivot after all Schur updates, panels included
    loop = system.order.index(LOOP_NODE)
    pivot, ref = fact.blocks[loop], dense._blk(loop, loop)
    assert np.abs(pivot - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.linalg.norm(full @ x - b) <= 1e-10 * np.linalg.norm(b)

    body = np.concatenate([np.arange(full.shape[0])[slices[bid]] for bid in mech.body_ids])
    x_ls = np.linalg.lstsq(full, b, rcond=None)[0]
    for ref in (x0, x_ls):
        assert np.linalg.norm(x[body] - ref[body]) <= 1e-9 * np.linalg.norm(ref[body])


def test_jacobian_matches_finite_differences(random_case):
    mech, rng = random_case
    ctx = StepContext(h=0.01)
    randomized_feasible_state(mech, ctx, rng, warm_steps=2)
    jac = dense_newton_matrix(mech, ctx)
    assert np.abs(jac - fd_newton_matrix(mech, ctx)).max() <= 1e-6 * np.abs(jac).max()


def assert_layout_covers_dense_factors(mech, rng):
    """Every block the dense LDU oracle fills in L or U lies in the layout's pattern or fill."""
    ctx = StepContext(h=0.01)
    randomized_feasible_state(mech, ctx, rng, warm_steps=2)
    system = newton_system_at(mech, ctx)
    layout = mech.solver_layout
    assert system.order == layout.order
    full, _ = system.assembled()
    sizes = [system.diag[node].shape[0] for node in system.order]
    fact = dense_ldu_factorize(full, sizes, pivot_relief=1e-10)
    pattern = set(layout.pairs) | set(layout.fill_events)
    offsets = fact.offsets
    for factor in (l_matrix(fact), u_matrix(fact)):
        for i, a in enumerate(system.order):
            for j, b in enumerate(system.order):
                block = factor[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]
                if i != j and block.any():
                    assert (a, b) in pattern
    # fill blocks are the blocks numbered past the diagonal and the pattern
    n_fill = len(layout.sources) - len(layout.order) - len(layout.pairs)
    assert layout.fill_count == n_fill == len(set(layout.fill_events))
    return layout


def test_layout_covers_dense_factors(random_case):
    mech, rng = random_case
    assert_layout_covers_dense_factors(mech, rng)


@pytest.mark.parametrize("build", [lambda: make_closed_chain(4), lambda: make_segmented_chain(3)])
def test_layout_covers_dense_factors_on_chains(rng, build):
    layout = assert_layout_covers_dense_factors(build(), rng)
    assert layout.fill_count > 0
    # every update of the loop node's diagonal is routed to its panel, symbolically
    loop = layout.relieved
    assert loop == len(layout.order) - 1
    feeding = [k for k, steps in enumerate(layout.elimination) if loop in [p for p, *_ in steps]]
    assert [k for k, entry in enumerate(layout.panel) if entry] == feeding
    targets = [target for steps in layout.elimination for *_, updates in steps for _, target in updates]
    assert loop not in targets  # block number of the loop node's diagonal


@pytest.mark.parametrize("n,joint", [(1, "revolute"), (5, "ball"), (20, "revolute")])
def test_pendulum_layout_has_no_fill(n, joint):
    layout = make_pendulum(n, joint).solver_layout
    assert layout.fill_count == 0
    assert layout.relieved == -1 and not any(layout.panel)
    assert len(layout.sources) == len(layout.order) + len(layout.pairs)


def test_layout_is_built_once_per_mechanism(monkeypatch):
    calls = []
    build = mcdyn.block_solver.symbolic_layout

    def counted(*args):
        calls.append(args)
        return build(*args)

    for module in (mcdyn.block_solver, mcdyn.mechanism):
        monkeypatch.setattr(module, "symbolic_layout", counted)
    mech = make_segmented_chain(3)
    records = run_simulation(mech, StepContext(h=0.01), 3)
    assert [r.iterations > 0 for r in records] == [True] * 3
    assert len(calls) == 1
