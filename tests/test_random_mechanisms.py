"""Differential tests on random mechanisms: trees of ball and revolute joints
plus a few loop closures, at random dynamically consistent states.

Anchors and hinge axes are derived from shared world points and axes, so
every mechanism assembles exactly.  The sparse Newton solve is checked
against the dense block LDU and against numpy's least squares, and the
mechanism graph against an independent cycle count.
"""

import numpy as np
import pytest

from conftest import newton_system_at
from mcdyn.block_solver import dense_ldu_factorize, dense_ldu_solve, sparse_ldu_factorize, sparse_ldu_solve
from mcdyn.integrator import StepContext
from mcdyn.mechanism import WORLD, load_mechanism
from oracles import count_independent_cycles, random_unit_quat, rotmat_from_quat
from test_integrator import randomized_feasible_state

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


def test_sparse_solve_matches_dense_and_lstsq(random_case):
    # plant a solution so the right-hand side is consistent even where the
    # loop node is rank-deficient; body rows are then unique
    mech, rng = random_case
    ctx = StepContext(h=0.01)
    randomized_feasible_state(mech, ctx, rng, warm_steps=2)
    system = newton_system_at(mech, ctx)
    full, slices = system.assembled()
    x0 = rng.normal(size=full.shape[0])
    b = full @ x0
    for node, sl in slices.items():
        system.rhs[node] = b[sl]

    sol = sparse_ldu_solve(sparse_ldu_factorize(system.copy()))
    x = np.concatenate([sol[node] for node in system.order])
    sizes = [system.diag[node].shape[0] for node in system.order]
    x_dense = dense_ldu_solve(dense_ldu_factorize(full, sizes, pivot_relief=1e-10), b)
    assert np.linalg.norm(x - x_dense) <= 1e-9 * np.linalg.norm(x_dense)
    assert np.linalg.norm(full @ x - b) <= 1e-10 * np.linalg.norm(b)

    body = np.concatenate([np.arange(full.shape[0])[slices[bid]] for bid in mech.body_ids])
    x_ls = np.linalg.lstsq(full, b, rcond=None)[0]
    for ref in (x0, x_ls):
        assert np.linalg.norm(x[body] - ref[body]) <= 1e-9 * np.linalg.norm(ref[body])
