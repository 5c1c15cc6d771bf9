"""Differential tests on random mechanisms: trees of ball and revolute joints
plus a few loop closures, at random dynamically consistent states.

Anchors and hinge axes are derived from shared world points and axes, so
every mechanism assembles exactly.  The sparse Newton solve, over the full
graph and body first as the Newton loop runs it, is checked against the
dense block LDU and against numpy's least squares; the joint system left
once the bodies are eliminated against the dense Schur complement, and the
solver layout's pattern against its dense LDU factors; and the mechanism
graph against an independent cycle count.
"""

from dataclasses import replace

import numpy as np
import pytest

import mcdyn.block_solver
import mcdyn.mechanism
from conftest import (
    comb,
    hub_star,
    make_closed_chain,
    make_pendulum,
    make_segmented_chain,
    mixed_kind_pendulum,
    star_mechanism,
)
from mcdyn.block_solver import LOOP_NODE, dense_ldu_factorize, dense_ldu_solve, sparse_ldu_factorize, sparse_ldu_solve
from mcdyn.integrator import StepContext, newton_system_at, run_simulation, solve_reduced
from mcdyn.mechanism import WORLD, load_mechanism
from oracles import count_independent_cycles, l_matrix, random_unit_quat, rotmat_from_quat, u_matrix
from test_integrator import (
    dense_newton_matrix,
    dense_schur_complement,
    fd_newton_matrix,
    randomized_feasible_state,
    reduced_newton_system,
)

SEEDS = range(8)


def random_mechanism(rng, loops=True):
    """A grounded random tree of 3-8 bodies closed by 1-3 extra joints (none without ``loops``)."""
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
    if loops:
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


MECHANISMS = {
    "segmented_chain_8": lambda: make_segmented_chain(8),
    "closed_chain_8": lambda: make_closed_chain(8),
    "star": star_mechanism,
    "mixed_kind_pendulum": mixed_kind_pendulum,
    "hub_star_6": lambda: hub_star(6),
    "comb_4": lambda: comb(4),
}


@pytest.fixture(params=[*SEEDS, *MECHANISMS])
def solve_case(request):
    # segmented_chain 8 (40 loop rows, 352 tree rows) applies the loop node's
    # deferred updates in several panels; closed_chain 8 in one per node; the
    # star branches, the mixed-kind pendulum has all three joint kinds, the
    # hub star keeps its hub in the sweep and the comb's spine links have
    # three joints each
    if request.param in MECHANISMS:
        return MECHANISMS[request.param](), np.random.default_rng(2000)
    rng = np.random.default_rng(1000 + request.param)
    return random_mechanism(rng), rng


def test_sparse_solve_matches_dense_and_lstsq(solve_case):
    # plant a solution so the right-hand side is consistent even where the
    # loop node is rank-deficient; body rows are then unique
    mech, rng = solve_case
    ctx = StepContext(h=0.01)
    randomized_feasible_state(mech, ctx, rng, warm_steps=2)
    system = newton_system_at(mech, ctx)
    full = dense_newton_matrix(mech, ctx)
    x0 = rng.normal(size=mech.dim)
    b = full @ x0

    fact = sparse_ldu_factorize(replace(system, rhs=b))
    x = sparse_ldu_solve(fact)
    lay = system.layout
    perm = lay.perm  # elimination order -> the unknowns' rows
    sizes = [seg.stop - seg.start for seg in lay.segments]
    dense = dense_ldu_factorize(full[np.ix_(perm, perm)], sizes, pivot_relief=1e-10)
    x_dense = np.empty_like(b)
    x_dense[perm] = dense_ldu_solve(dense, b[perm])
    assert np.linalg.norm(x - x_dense) <= 1e-9 * np.linalg.norm(x_dense)
    # the Newton loop's body-first solve at the same right-hand side
    reduced = reduced_newton_system(mech, ctx, b)
    x_first = solve_reduced(mech, reduced)
    assert np.linalg.norm(full @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(full @ x_first - b) <= 1e-10 * np.linalg.norm(b)
    if LOOP_NODE in system.order:
        # the loop node's pivot after all Schur updates, panels included,
        # in the full graph and with the bodies eliminated first
        loop = system.order.index(LOOP_NODE)
        ref = dense._blk(loop, loop)
        first = sparse_ldu_factorize(reduced.joints)
        for pivot in (fact.blocks[loop], first.blocks[first.system.layout.relieved]):
            assert np.abs(pivot - ref).max() <= 1e-10 * np.abs(ref).max()

    body = slice(0, 6 * len(mech.body_ids))
    x_ls = np.linalg.lstsq(full, b, rcond=None)[0]
    for ref in (x0, x_ls):
        for sol in (x, x_first):
            assert np.linalg.norm(sol[body] - ref[body]) <= 1e-9 * np.linalg.norm(ref[body])


def test_jacobian_matches_finite_differences(random_case):
    mech, rng = random_case
    ctx = StepContext(h=0.01)
    randomized_feasible_state(mech, ctx, rng, warm_steps=2)
    jac = dense_newton_matrix(mech, ctx)
    assert np.abs(jac - fd_newton_matrix(mech, ctx)).max() <= 1e-6 * np.abs(jac).max()


def assert_layout_covers_dense_factors(mech, rng):
    """The Newton loop's joint system is the dense Schur complement of the bodies,
    and every block the dense LDU oracle fills in its L or U lies in the
    layout's pattern or fill."""
    ctx = StepContext(h=0.01)
    randomized_feasible_state(mech, ctx, rng, warm_steps=2)
    layout = mech.plan.layout
    schur, sizes = dense_schur_complement(mech, ctx)
    reduced, _ = reduced_newton_system(mech, ctx, np.zeros(mech.dim)).joints.as_block_system().assembled()
    assert np.abs(reduced - schur).max() <= 1e-12 * np.abs(schur).max()
    fact = dense_ldu_factorize(schur, sizes, pivot_relief=1e-10)
    pattern = set(layout.pairs) | set(layout.fill_events)
    offsets = fact.offsets
    for factor in (l_matrix(fact), u_matrix(fact)):
        for i, a in enumerate(layout.order):
            for j, b in enumerate(layout.order):
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
    layout = make_pendulum(n, joint).plan.layout
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


def hinged_by_two_balls():
    """A link on a world hinge carrying a second link by two ball joints.

    The ball joints 4 (parent 1, child 2) and 5 (parent 2, child 1) share
    both bodies, so eliminating the bodies gives their pair a Schur block
    from each; together they act as a hinge about y through x = 1.
    """
    inertia = [1.0 / 12.0, 1.0 / 12.0, 0.01, 0.0, 0.0, 0.0]
    bodies = [
        {"id": b, "mass": 1.0, "inertia": inertia, "position": [x, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0],
         "angular_velocity": [0.0, 0.0, w]}
        for b, x, w in ((1, 0.5, 0.0), (2, 1.5, 0.7))
    ]
    joints = [
        {"id": 3, "kind": "revolute", "parent": "world", "child": 1, "parent_anchor": [0.0, 0.0, 0.0],
         "child_anchor": [-0.5, 0.0, 0.0], "parent_axis": [0.0, 1.0, 0.0], "child_axis": [0.0, 1.0, 0.0]},
        {"id": 4, "kind": "ball", "parent": 1, "child": 2, "parent_anchor": [0.5, 0.3, 0.0],
         "child_anchor": [-0.5, 0.3, 0.0]},
        {"id": 5, "kind": "ball", "parent": 2, "child": 1, "parent_anchor": [-0.5, -0.3, 0.0],
         "child_anchor": [0.5, -0.3, 0.0]},
    ]
    return load_mechanism({"bodies": bodies, "joints": joints})


def test_joints_sharing_both_bodies_sum_their_schur_terms(rng):
    mech = hinged_by_two_balls()
    pairs = [pair for _, _, stack, *_ in mech.plan.joint_pairs for pair in stack]
    assert pairs.count((4, 5)) == pairs.count((5, 4)) == 1
    assert sum(len(twice) for *_, twice in mech.plan.joint_pairs) == 2  # (4, 5) and (5, 4)
    # the pair block holds both bodies' terms: equal to the dense Schur complement
    assert_layout_covers_dense_factors(mech, rng)
    mech.initialize(0.01)
    records = run_simulation(mech, StepContext(h=0.01), 100)
    assert max(r.residual for r in records) < 1e-10
    assert max(r.max_violation for r in records) < 1e-10


TREES = {
    "star": star_mechanism,
    "hub_star": hub_star,
    "comb": comb,
    **{f"random_tree_{seed}": lambda seed=seed: random_mechanism(np.random.default_rng(3000 + seed), loops=False)
       for seed in range(4)},
}


@pytest.mark.parametrize("name", TREES)
def test_branching_tree_layout_has_no_fill(name):
    # children-first order: the later neighbours of a joint are its parent
    # hub, or the joints at its parent body, which already couple to each other
    mech = TREES[name]()
    layout = mech.plan.layout
    assert not mech.graph.loop_joints
    assert layout.fill_count == 0
    assert len(layout.order) == len(mech.joints) + len(mech.plan.hubs)


def block_products(mech):
    """Block products per Newton iteration in the step's joint-pair stacks and sparse sweep.

    Counts each pair term, each eliminated node's two coupling products per
    later neighbour and each Schur update; per-body and per-joint work on
    top of this is linear by construction.
    """
    pairs = sum(len(terms[0]) for _, _, _, terms, _, _ in mech.plan.joint_pairs)
    sweep = sum(2 + len(updates) for steps in mech.plan.layout.elimination for *_, updates in steps)
    return pairs + sweep


@pytest.mark.parametrize("build", [lambda n: make_pendulum(n), hub_star, comb], ids=["pendulum", "hub_star", "comb"])
def test_step_solve_is_linear_in_size(build):
    # a body with d joints eliminated before the sweep would make its joints
    # a clique costing O(d^3) per factorization: 7x here from 16 to 32 links
    small, large = build(16), build(32)
    assert block_products(large) <= 2.1 * block_products(small)
    assert len(large.plan.hubs) == len(small.plan.hubs) <= 1
