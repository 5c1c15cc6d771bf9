import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mcdyn import quaternions as quat
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


def rotated_segmented_chain(k=6, angle=0.7, axis=(1.0, 1.0, 1.0)):
    """segmented_chain k turned by ``angle`` about ``axis`` through the origin, so no hinge lies along a world axis."""
    data = generate_scenario(Scenario(kind="segmented_chain", n_links=k))
    turn = np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * np.asarray(axis) / np.linalg.norm(axis)])
    for body in data["bodies"]:
        body["position"] = quat.rotate(turn, np.array(body["position"])).tolist()
        body["quaternion"] = quat.multiply(turn, np.array(body["quaternion"])).tolist()
    for joint in data["joints"]:
        if joint["parent"] == "world":  # its anchor and axis are world-frame
            joint["parent_anchor"] = quat.rotate(turn, np.array(joint["parent_anchor"])).tolist()
            joint["parent_axis"] = quat.rotate(turn, np.array(joint["parent_axis"])).tolist()
    return _initialized(data)


def far_hinged_segmented_chain(k=4):
    """segmented_chain k with a world hinge at its far end: its k cycles merge into one relieved node of 5k + 5 rows."""
    data = generate_scenario(Scenario(kind="segmented_chain", n_links=k))
    far = data["bodies"][-2]  # the last segment's bottom-left rod, whose +z end is the far vertex
    end = np.array(far["position"]) + quat.rotate(np.array(far["quaternion"]), np.array([0.0, 0.0, 0.5]))
    data["joints"].append({
        "id": 9 * k + 1, "kind": "revolute", "parent": "world", "child": far["id"],
        "parent_anchor": end.tolist(), "child_anchor": [0.0, 0.0, 0.5],
        "parent_axis": [0.0, 1.0, 0.0], "child_axis": [0.0, 1.0, 0.0],
    })
    return _initialized(data)


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


def mixed_kind_pendulum():
    """Three-link pendulum with one joint of each kind.

    Link 1 is fixed to the world (at its initial orientation), link 2
    hangs from it on a revolute joint and link 3 from link 2 on a ball
    joint.
    """
    data = generate_scenario(Scenario(kind="pendulum", n_links=3, joint_kind="revolute"))
    fixed, _, ball = data["joints"]
    fixed["kind"] = "fixed_to_world"
    ball["kind"] = "ball"
    for joint in (fixed, ball):
        del joint["parent_axis"], joint["child_axis"]
    return load_mechanism(data)


def _ball_jointed(positions, joint_points):
    """Description of ball-jointed bodies at identity orientations.

    ``positions`` maps body id -> centre; ``joint_points`` maps joint id ->
    (parent, child, world point), so the assembly is exact.
    """
    frame = {**positions, "world": np.zeros(3)}
    bodies = [
        {"id": b, "mass": 1.0, "inertia": [0.1, 0.1, 0.05, 0.0, 0.0, 0.0],
         "position": list(map(float, x)), "quaternion": [1.0, 0.0, 0.0, 0.0]}
        for b, x in positions.items()
    ]
    joints = [
        {"id": jid, "kind": "ball", "parent": a, "child": b,
         "parent_anchor": list(map(float, w - frame[a])), "child_anchor": list(map(float, w - frame[b]))}
        for jid, (a, b, w) in joint_points.items()
    ]
    return {"bodies": bodies, "joints": joints}


def _initialized(data, h=0.01):
    mech = load_mechanism(data)
    mech.initialize(h)
    return mech


def hub_star_description(d=20):
    """A hub hung from the world carrying ``d`` radial rods: one body with d + 1 joints."""
    angles = np.linspace(0.0, 2.0 * np.pi, d, endpoint=False)
    dirs = {i + 2: np.array([np.cos(a), np.sin(a), 0.0]) for i, a in enumerate(angles)}
    positions = {1: np.zeros(3), **dirs}
    joints = {2 * d + 2: ("world", 1, np.array([0.0, 0.0, 0.5]))}
    joints |= {d + b: (1, b, 0.5 * u) for b, u in dirs.items()}
    return _ball_jointed(positions, joints)


def hub_star(d=20):
    return _initialized(hub_star_description(d))


def comb(k=10):
    """A chain of ``k`` spine links hung from the world, each carrying a tooth: spine links have three joints."""
    positions = {i: np.array([i - 0.5, 0.0, 0.0]) for i in range(1, k + 1)}
    positions |= {k + i: np.array([i - 0.5, 0.0, -0.5]) for i in range(1, k + 1)}
    joints = {2 * k + i: ("world" if i == 1 else i - 1, i, np.array([i - 1.0, 0.0, 0.0])) for i in range(1, k + 1)}
    joints |= {3 * k + i: (i, k + i, np.array([i - 0.5, 0.0, 0.0])) for i in range(1, k + 1)}
    return _initialized(_ball_jointed(positions, joints))
