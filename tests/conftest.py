import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mcdyn.integrator import assemble_residual, build_layout, newton_system, position_jacobian_blocks
from mcdyn.mechanism import load_mechanism
from mcdyn.scenarios import Scenario, generate_scenario


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_pendulum(n, joint_kind="revolute", h=0.01):
    mech = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=n, joint_kind=joint_kind)))
    mech.initialize(h)
    return mech


def make_closed_chain(n=4, joint_kind="revolute", h=0.01):
    mech = load_mechanism(generate_scenario(Scenario(kind="closed_chain", n_links=n, joint_kind=joint_kind)))
    mech.initialize(h)
    return mech


def make_segmented_chain(k=2, h=0.01):
    mech = load_mechanism(generate_scenario(Scenario(kind="segmented_chain", n_links=k)))
    mech.initialize(h)
    return mech


def newton_system_at(mech, ctx):
    """The Newton system the solver would factorize at the current unknowns."""
    layout = build_layout(mech)
    pos_blocks = position_jacobian_blocks(mech)
    f = assemble_residual(mech, ctx, layout, pos_blocks)
    return newton_system(mech, ctx, layout, f, pos_blocks)


def star_mechanism():
    """Floating five-link tree: one hub chain with two branches and a tail.

    Link 1 carries links 2 and 5; link 2 carries links 3 and 4 (joints get
    ids 6..9).  All ball joints, identity orientations, anchors chosen so
    the assembly is exact.
    """
    positions = {
        1: np.array([0.0, 0.0, 0.0]),
        2: np.array([1.2, 0.0, 0.0]),
        3: np.array([2.2, 0.5, 0.0]),
        4: np.array([2.2, -0.5, 0.0]),
        5: np.array([-1.0, 0.0, 0.0]),
    }
    joint_points = {
        6: (1, 2, np.array([0.6, 0.0, 0.0])),
        7: (2, 3, np.array([1.7, 0.25, 0.0])),
        8: (2, 4, np.array([1.7, -0.25, 0.0])),
        9: (1, 5, np.array([-0.5, 0.0, 0.0])),
    }
    bodies = [
        {
            "id": bid,
            "mass": 1.0,
            "inertia": [0.1, 0.1, 0.05, 0.0, 0.0, 0.0],
            "position": list(map(float, x)),
            "quaternion": [1.0, 0.0, 0.0, 0.0],
        }
        for bid, x in positions.items()
    ]
    joints = [
        {
            "id": jid,
            "kind": "ball",
            "parent": a,
            "child": b,
            "parent_anchor": list(map(float, w - positions[a])),
            "child_anchor": list(map(float, w - positions[b])),
        }
        for jid, (a, b, w) in joint_points.items()
    ]
    return load_mechanism({"bodies": bodies, "joints": joints})
