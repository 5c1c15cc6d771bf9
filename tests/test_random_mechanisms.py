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
from mcdyn.integrator import (
    StepContext,
    assemble_residual,
    build_layout,
    eliminate_bodies,
    jacobian_blocks,
    newton_system_at,
    position_jacobian_blocks,
    run_simulation,
    solve_reduced,
    step,
)
from mcdyn.mechanism import WORLD, elimination_plan, load_mechanism
from oracles import (
    assembled,
    count_independent_cycles,
    dense_block_ldu,
    elimination,
    joint_pairs_by_body,
    l_matrix,
    random_unit_quat,
    rotmat_from_quat,
    set_walk_elimination,
    u_matrix,
)
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
    x, q, bodies = random_bodies(rng, n)
    pairs = [(WORLD, 1)] + [(int(rng.integers(1, b)), b) for b in range(2, n + 1)]
    candidates = [(a, b) for a in [WORLD, *x] for b in x if a != b and (a, b) not in pairs]
    if loops:
        picks = rng.choice(len(candidates), size=int(rng.integers(1, 4)), replace=False)
        pairs += [candidates[k] for k in picks]
    return joined(rng, x, q, bodies, pairs)


def random_bodies(rng, n):
    """Random positions, orientations and body entries of bodies 1..n."""
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
    return x, q, bodies


def two_disjoint_loops(rng):
    """Two random trees of 3-5 bodies, each hung from the world and closed by one extra joint of its own.

    Each tree meets the rest only at the world, so its cycle shares no body
    or joint with the other's.
    """
    sizes = [int(k) for k in rng.integers(3, 6, size=2)]
    x, q, bodies = random_bodies(rng, sum(sizes))
    pairs, first = [], 1
    for size in sizes:
        ids = range(first, first + size)
        tree = [(WORLD, first)] + [(int(rng.integers(first, b)), b) for b in ids[1:]]
        candidates = [(a, b) for a in ids for b in ids if a < b and (a, b) not in tree]
        pairs += tree + [candidates[int(rng.integers(len(candidates)))]]
        first += size
    return joined(rng, x, q, bodies, pairs)


def loops_sharing_a_body(rng):
    """Two random triangles of bodies sharing only body 1, a hub hung from the world.

    Body 1 closes one loop through bodies 2 and 3 and one through 4 and 5:
    five joints, so it stays a node of the step's sweep.
    """
    x, q, bodies = random_bodies(rng, 5)
    return joined(rng, x, q, bodies, [(WORLD, 1), (1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)])


def joined(rng, x, q, bodies, pairs):
    """The mechanism of ``bodies`` with one random ball or revolute joint per (parent, child) pair.

    Each joint sits near its bodies at a random world point, a revolute one
    about a random world axis, so the assembly is exact.
    """
    n = len(bodies)

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


# several loops: disjoint, one relieved node each, or sharing one body, merged into one
LOOP_MECHANISMS = {
    "segmented_chain_3": lambda: make_segmented_chain(3),
    "two_disjoint_loops": lambda: two_disjoint_loops(np.random.default_rng(4004)),
    "loops_sharing_a_body": lambda: loops_sharing_a_body(np.random.default_rng(4001)),
}


@pytest.fixture(params=[*SEEDS, *LOOP_MECHANISMS])
def random_case(request):
    if request.param in LOOP_MECHANISMS:
        return LOOP_MECHANISMS[request.param](), np.random.default_rng(2000)
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


def test_cycles_are_disjoint_and_close_their_loop_joints(random_case):
    # merged cycles share no body or joint; each loop joint's two ends lie on
    # its own cycle (or are the world), and each tree node on a cycle is
    # joined to two others of it or to the world
    mech, _ = random_case
    cycles = mech.graph.cycles
    assert sorted(i for ids, _ in cycles for i in ids) == sorted(mech.graph.loop_joints)
    assert all(not a & b for k, (_, a) in enumerate(cycles) for _, b in cycles[k + 1 :])
    for ids, nodes in cycles:
        assert nodes <= set(mech.graph.order)
        members = nodes | set(ids) | {WORLD}
        for i in ids:
            assert {mech.joints[i].parent, mech.joints[i].child} <= members
        for node in nodes:
            if node in mech.joints:
                assert {mech.joints[node].parent, mech.joints[node].child} <= members
            else:
                attached = [j for j in members & set(mech.joints) if node in (mech.joints[j].parent, mech.joints[j].child)]
                assert len(attached) >= 2


@pytest.mark.parametrize("name,loops", [("two_disjoint_loops", [[13], [22]]), ("loops_sharing_a_body", [[9, 12]])])
def test_cycles_merge_only_where_they_share_a_body(name, loops):
    mech = LOOP_MECHANISMS[name]()
    assert [ids for ids, _ in mech.graph.cycles] == loops
    layout = mech.plan.layout
    assert [[i for i, _ in layout.loop_layout[layout.order[k]]] for k in layout.relieved] == loops[::-1]


MECHANISMS = {
    "segmented_chain_8": lambda: make_segmented_chain(8),
    "closed_chain_8": lambda: make_closed_chain(8),
    "star": star_mechanism,
    "mixed_kind_pendulum": mixed_kind_pendulum,
    "hub_star_6": lambda: hub_star(6),
    "comb_4": lambda: comb(4),
    **LOOP_MECHANISMS,
}


@pytest.fixture(params=[*SEEDS, *MECHANISMS])
def solve_case(request):
    # segmented_chain 8 and 3 and the two disjoint loops have one relieved
    # node per loop; closed_chain 8 one fed by every joint; the loops sharing
    # a body merge into one relieved node; the star branches, the mixed-kind
    # pendulum has all three joint kinds, the hub star keeps its hub in the
    # sweep and the comb's spine links have three joints each
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
    # relieving every pivot, as dense_ldu_factorize(relieved=True) does, would
    # invert the tree pivots by SVD, which differs from their LU inverse by
    # eps·cond: 1.6e-9 of x on segmented_chain 8 (cond 5.5e9 on the range)
    dense = dense_block_ldu(full[np.ix_(perm, perm)], sizes, lay.relieved)
    x_dense = np.empty_like(b)
    x_dense[perm] = dense_ldu_solve(dense, b[perm])
    assert np.linalg.norm(x - x_dense) <= 1e-9 * np.linalg.norm(x_dense)
    # the Newton loop's body-first solve at the same right-hand side
    reduced = reduced_newton_system(mech, ctx, b)
    x_first = solve_reduced(mech, reduced)
    assert np.linalg.norm(full @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(full @ x_first - b) <= 1e-10 * np.linalg.norm(b)
    # every relieved pivot after its Schur updates, in the full graph and
    # with the bodies eliminated first, against the dense LDU in the same order
    schur, schur_sizes = dense_schur_complement(mech, ctx)
    first = sparse_ldu_factorize(reduced.joints)
    dense_first = dense_block_ldu(schur, schur_sizes, first.system.layout.relieved)
    assert len(lay.relieved) == len(first.system.layout.relieved) == len(mech.graph.cycles)
    for sparse, oracle in ((fact, dense), (first, dense_first)):
        for k in sparse.system.layout.relieved:
            ref = oracle._blk(k, k)
            assert np.abs(sparse.blocks[k] - ref).max() <= 1e-10 * np.abs(ref).max()

    body = slice(0, 6 * len(mech.body_ids))
    x_ls = np.linalg.lstsq(full, b, rcond=None)[0]
    for ref in (x0, x_ls):
        for sol in (x, x_first):
            assert np.linalg.norm(sol[body] - ref[body]) <= 1e-9 * np.linalg.norm(ref[body])
    # independent of the elimination order (with the residual checks above):
    # the motion, unique where the multipliers are not, against the planted
    # solution; they agree to 1.4e-13, where least squares itself is up to
    # 1.6e-11 off on segmented_chain 8
    for sol in (x, x_first):
        assert np.linalg.norm(sol[body] - x0[body]) <= 1e-11 * np.linalg.norm(x0[body])


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
    reduced, _ = assembled(reduced_newton_system(mech, ctx, np.zeros(mech.dim)).joints.as_block_system())
    assert np.abs(reduced - schur).max() <= 1e-12 * np.abs(schur).max()
    fact = dense_ldu_factorize(schur, sizes, relieved=True)
    pattern = set(layout.pairs) | set(layout.fill_events)
    offsets = fact.offsets
    for factor in (l_matrix(fact), u_matrix(fact)):
        for i, a in enumerate(layout.order):
            for j, b in enumerate(layout.order):
                block = factor[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]
                if i != j and block.any():
                    assert (a, b) in pattern
    # fill blocks are the blocks numbered past the diagonal and the pattern
    n_fill = len(layout.places) - len(layout.order) - len(layout.pairs)
    assert layout.fill_count == n_fill == len(set(layout.fill_events))
    return layout


def test_layout_covers_dense_factors(random_case):
    mech, rng = random_case
    assert_layout_covers_dense_factors(mech, rng)


# each builds (mechanism, loops, fill blocks of the step's layout)
@pytest.mark.parametrize("build", [lambda: (make_closed_chain(4), 1, 2), lambda: (make_segmented_chain(3), 3, 12)])
def test_layout_covers_dense_factors_on_chains(rng, build):
    mech, loops, fill = build()
    layout = assert_layout_covers_dense_factors(mech, rng)
    # one 5-row relieved node per loop, after every node of its cycle in the
    # sweep; the one whose cycle reaches nearest the root is LOOP_NODE
    assert len(layout.relieved) == len(mech.graph.cycles) == loops
    reach = {}
    for k in layout.relieved:
        key = layout.order[k]
        (ids, nodes), = [(ids, nodes) for ids, nodes in mech.graph.cycles if layout.loop_layout[key] == [(i, 5) for i in ids]]
        assert key == LOOP_NODE or key == (LOOP_NODE, ids[0])
        assert max(layout.order.index(n) for n in nodes & set(layout.order)) < k
        reach[key] = max(mech.graph.order.index(n) for n in nodes)
    assert max(reach, key=reach.get) == LOOP_NODE
    # every diagonal update is in the sweep
    targets = {target for steps in elimination(layout) for *_, updates in steps for _, target in updates}
    assert set(layout.relieved) <= targets  # block number of each relieved node's diagonal
    assert layout.fill_count == fill


def children_first_plan(mech):
    """The step's plan (the same hubs) with the sweep in the graph's children-first order."""
    is_hub = np.zeros(len(mech.body_ids), dtype=bool)
    is_hub[mech.plan.hubs] = True
    return elimination_plan(mech, is_hub, levelled=False)


@pytest.mark.parametrize("n,joint", [(1, "revolute"), (5, "ball"), (20, "revolute")])
def test_pendulum_layout_has_no_fill(n, joint):
    # in children-first order; the step's level order fills (test_level_schedule)
    layout = children_first_plan(make_pendulum(n, joint)).layout
    assert layout.fill_count == 0
    assert layout.relieved == [] and layout.loop_layout == {}
    assert len(layout.places) == len(layout.order) + len(layout.pairs)


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
    assert pairs.count((4, 5)) == pairs.count((5, 4)) == 2  # one term per body
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
    layout = children_first_plan(mech).layout
    assert not mech.graph.loop_joints
    assert layout.fill_count == 0
    assert len(layout.order) == len(mech.joints) + len(mech.plan.hubs)


def block_products(mech):
    """Block products per Newton iteration in the step's joint-pair stacks and sparse sweep.

    Counts each pair term, each eliminated node's two coupling products per
    later neighbour and each Schur update; per-body and per-joint work on
    top of this is linear by construction.
    """
    pairs = sum(len(terms[0]) for _, _, _, terms, _ in mech.plan.joint_pairs)
    sweep = sum(2 + len(updates) for steps in elimination(mech.plan.layout) for *_, updates in steps)
    return pairs + sweep


@pytest.mark.parametrize("build", [lambda n: make_pendulum(n), hub_star, comb], ids=["pendulum", "hub_star", "comb"])
def test_step_solve_is_linear_in_size(build):
    # a body with d joints eliminated before the sweep would make its joints
    # a clique costing O(d^3) per factorization: 7x here from 16 to 32 links.
    # Each of the level order's O(log n) rounds eliminates a chain's two
    # ends, with fewer products than its middle nodes, so the products are
    # affine in n: each doubling may add at most about twice what the last added
    small, mid, large = build(16), build(32), build(64)
    assert block_products(large) - block_products(mid) <= 2.1 * (block_products(mid) - block_products(small))
    assert len(large.plan.hubs) == len(small.plan.hubs) <= 1


def weighted_products(layout):
    """Scalar multiply-adds of one factorization of a layout, rows·inner·cols per block product.

    Counts each pivot inverse as size³, each eliminated node's two coupling
    products and its L·D per later neighbour p, and each Schur update of a
    block (p, q), over the later neighbours q of the node.
    """
    size = [seg.stop - seg.start for seg in layout.segments]
    total = sum(n**3 for n in size)
    for k, steps in enumerate(elimination(layout)):
        later = [p for p, *_ in steps]
        for p in later:
            total += 3 * size[p] * size[k] ** 2 + sum(size[p] * size[k] * size[q] for q in later)
    return total


def test_loop_chain_solve_is_linear_in_size():
    # one stacked node of all loops fills a row and column as wide as every
    # loop together, so its cost grows with the square of their number
    small, large = make_segmented_chain(16), make_segmented_chain(32)
    assert weighted_products(large.plan.layout) <= 2.1 * weighted_products(small.plan.layout)
    for k, mech in ((16, small), (32, large)):
        layout = mech.plan.layout
        assert [layout.segments[r].stop - layout.segments[r].start for r in layout.relieved] == [5] * k


LEVEL_CASES = {
    **{f"pendulum_{n}": lambda n=n: make_pendulum(n) for n in (5, 20, 80, 160)},
    **{f"segmented_chain_{k}": lambda k=k: make_segmented_chain(k) for k in (4, 16, 48, 96)},
    "comb_20": lambda: comb(20),
    "hub_star_20": lambda: hub_star(20),
    "closed_chain_8": lambda: make_closed_chain(8),
    **LOOP_MECHANISMS,
    **{f"random_{seed}": lambda seed=seed: random_mechanism(np.random.default_rng(1000 + seed)) for seed in SEEDS},
}


@pytest.mark.parametrize("name", LEVEL_CASES)
def test_level_schedule(name):
    mech = LEVEL_CASES[name]()
    layout = mech.plan.layout
    order = layout.order
    pattern = set(layout.pairs) | set(layout.fill_events)
    # no two positions of a level share a block, fill included
    for level in layout.levels:
        nodes = order[level.start : level.stop]
        assert not {(a, b) for a in nodes for b in nodes} & pattern
    assert [level.start for level in layout.levels] == sorted({level.start for level in layout.levels})
    assert sum(level.stop - level.start for level in layout.levels) == len(order)
    assert len(layout.levels) <= 2 * int(np.ceil(np.log2(len(order)))) + 2
    # each relieved node after every sweep node of its cycle
    for k in layout.relieved:
        ids = [i for i, _ in layout.loop_layout[order[k]]]
        (nodes,) = [nodes for cycle, nodes in mech.graph.cycles if cycle == ids]
        assert all(order.index(n) < k for n in nodes if n in order)
    # a joint with no end at a body eliminated first gets a Schur update before its pivot
    first = {mech.body_ids[r] for r in mech.plan.first}
    updated = {p for steps in elimination(layout) for p, *_ in steps}
    for k, node in enumerate(order):
        if node in mech.joints and not {mech.joints[node].parent, mech.joints[node].child} & first:
            assert k in updated
    # the body rows of a Newton step three steps in, against a children-first
    # sweep of the same system (at random states off the trajectory the
    # loop systems are inconsistent and the trees' cond reaches 1e10)
    ctx = StepContext(h=0.01)
    for _ in range(3):
        step(mech, ctx)
    state = build_layout(mech, ctx)
    pos_blocks = position_jacobian_blocks(mech, state)
    f, pose = assemble_residual(mech, state, pos_blocks, mech.unknowns)
    blocks = jacobian_blocks(mech, state, pos_blocks, mech.unknowns, pose)
    levelled = solve_reduced(mech, eliminate_bodies(mech, mech.plan, *blocks, f))
    reference = solve_reduced(mech, eliminate_bodies(mech, children_first_plan(mech), *blocks, f))
    body = slice(0, 6 * len(mech.body_ids))
    assert np.linalg.norm(levelled[body] - reference[body]) <= 1e-12 * np.linalg.norm(reference[body])


# per mechanism: levels, levels holding a relieved node (one relieved_inverse call each), fill blocks, storage cells;
# these count work, not time, so they do not depend on the host
SCHEDULE_WORK = {
    "segmented_chain_4": (lambda: make_segmented_chain(4), (6, 3, 18, 3101)),
    "segmented_chain_16": (lambda: make_segmented_chain(16), (8, 3, 106, 12701)),
    "segmented_chain_48": (lambda: make_segmented_chain(48), (10, 3, 356, 38351)),
    "segmented_chain_96": (lambda: make_segmented_chain(96), (11, 3, 736, 76751)),
    "closed_chain_8": (lambda: make_closed_chain(8), (5, 1, 8, 971)),
}


@pytest.mark.parametrize("name", SCHEDULE_WORK)
def test_schedule_work_counts(name):
    # relieved nodes set no round's degree threshold (mechanism._level_order)
    build, expected = SCHEDULE_WORK[name]
    layout = build().plan.layout
    relieved_levels = sum(1 for level in layout.levels if len(level.relieved))
    assert (len(layout.levels), relieved_levels, layout.fill_count, layout.cells) == expected


ELIMINATION_CASES = {
    "segmented_chain_3": lambda: make_segmented_chain(3),
    "segmented_chain_16": lambda: make_segmented_chain(16),
    "closed_chain_8": lambda: make_closed_chain(8),
    "hub_star": hub_star,
    "comb": comb,
    "mixed_kind_pendulum": mixed_kind_pendulum,
    "hinged_by_two_balls": hinged_by_two_balls,
    **{f"random_{seed}": lambda seed=seed: random_mechanism(np.random.default_rng(7000 + seed)) for seed in range(24)},
}


@pytest.mark.parametrize("name", ELIMINATION_CASES)
def test_plans_match_the_set_walk_elimination(name, monkeypatch):
    # the step's levelled elimination and the full plan's children-first one
    # each find their later neighbours and fill as a set walk in their order does
    laid, build = [], mcdyn.mechanism.symbolic_layout

    def recorded(elim, *args):
        laid.append((elim, build(elim, *args)))
        return laid[-1][1]

    monkeypatch.setattr(mcdyn.mechanism, "symbolic_layout", recorded)
    mech = ELIMINATION_CASES[name]()
    plans = (mech.plan, mech.full_plan)
    assert [id(layout) for _, layout in laid] == [id(plan.layout) for plan in plans]
    assert mech.graph.loop_joints or not name.startswith("random")
    for elim, layout in laid:
        sources = [(elim.nodes[i], elim.nodes[j]) for i, j in elim.ends.tolist()]
        later, fill, pairs, bounds = set_walk_elimination(layout.order, sources, elim.stacks)
        assert layout.later == later
        assert layout.fill_events == fill
        assert layout.pairs == pairs
        assert [(level.start, level.stop) for level in layout.levels] == list(zip(bounds, bounds[1:]))
    for plan in plans:
        first = np.zeros(len(mech.body_ids) + 1, dtype=bool)
        first[plan.first] = True
        reference = joint_pairs_by_body(mech.groups, first)
        assert len(plan.joint_pairs) == len(reference)
        for got, want in zip(plan.joint_pairs, reference):
            assert got[:3] == want[:3]
            for a, b in zip((*got[3], *got[4]), (*want[3], *want[4])):
                assert a.dtype == b.dtype and np.array_equal(a, b)
