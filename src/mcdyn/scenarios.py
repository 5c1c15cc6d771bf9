"""Benchmark scenario generation.

All scenarios are built from uniform slender rods: length 1 m, mass 1 kg,
inertia of a thin cylinder about its center, joints at the rod ends, hinge
axes along world y.  Chains start fully extended along +x (horizontal,
maximal potential energy) hanging from a world pivot placed high enough
that the mechanism never reaches below z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MechanismError

KINDS = ("pendulum", "closed_chain", "segmented_chain", "free_body")
JOINT_KINDS = ("revolute", "ball")
_ROD_RADIUS = 0.05


@dataclass
class Scenario:
    """Parameters of one benchmark scenario.

    ``n_links`` counts chain links for pendulum/closed_chain and four-link
    segments for segmented_chain.
    """

    kind: str
    n_links: int = 1
    joint_kind: str = "revolute"
    h: float = 0.01
    duration: float = 10.0
    tolerance: float = 1e-10
    link_length: float = 1.0
    link_mass: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MechanismError(f"unknown scenario kind {self.kind!r}")
        if self.joint_kind not in JOINT_KINDS:
            raise MechanismError(f"unknown joint kind {self.joint_kind!r}")
        if self.n_links < 1:
            raise MechanismError("n_links must be at least 1")
        if self.h <= 0.0 or self.tolerance <= 0.0 or self.duration < 0.0:
            raise MechanismError("h and tolerance must be positive, duration nonnegative")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.h))


def _rod_inertia(mass: float, length: float, radius: float) -> list:
    # thin cylinder with its long axis along body z
    ixx = mass * (3.0 * radius**2 + length**2) / 12.0
    izz = mass * radius**2 / 2.0
    return [ixx, ixx, izz, 0.0, 0.0, 0.0]


def _rod_body(bid: int, center, direction, sc: Scenario) -> dict:
    """A rod body whose +z axis points along the world `direction`."""
    ux, uz = float(direction[0]), float(direction[2])
    angle = math.atan2(ux, uz)  # rotation about y maps e_z to (sin, 0, cos)
    return {
        "id": bid,
        "mass": sc.link_mass,
        "inertia": _rod_inertia(sc.link_mass, sc.link_length, _ROD_RADIUS),
        "position": [float(c) for c in center],
        "quaternion": [math.cos(angle / 2.0), 0.0, math.sin(angle / 2.0), 0.0],
        "velocity": [0.0, 0.0, 0.0],
        "angular_velocity": [0.0, 0.0, 0.0],
    }


def _joint(jid, kind, parent, child, p_a, p_b) -> dict:
    out = {
        "id": jid,
        "kind": kind,
        "parent": parent,
        "child": child,
        "parent_anchor": [float(c) for c in p_a],
        "child_anchor": [float(c) for c in p_b],
    }
    if kind == "revolute":
        # all generated mechanisms hinge about world y, which is also the
        # body-frame y of every rod (rods are rotated about y only)
        out["parent_axis"] = [0.0, 1.0, 0.0]
        out["child_axis"] = [0.0, 1.0, 0.0]
    return out


def generate_scenario(sc: Scenario) -> dict:
    """Emit the mechanism description for a scenario.

    pendulum: serial chain hung from the world.  closed_chain: the same
    chain plus one loop-closure joint from the last link back to the world.
    segmented_chain: four-link parallelogram segments in series.  free_body:
    a single unconstrained rod.
    """
    if sc.kind == "free_body":
        return {
            "bodies": [_rod_body(1, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), sc)],
            "joints": [],
        }
    if sc.kind == "pendulum":
        return _chain(sc)
    if sc.kind == "closed_chain":
        return _closed_chain(sc)
    return _segmented_chain(sc)


def _chain(sc: Scenario) -> dict:
    n = sc.n_links
    length = sc.link_length
    z0 = n * length
    half = length / 2.0
    bodies = []
    joints = []
    for i in range(1, n + 1):
        bodies.append(_rod_body(i, ((i - 0.5) * length, 0.0, z0), (1.0, 0.0, 0.0), sc))
        if i == 1:
            joints.append(_joint(n + i, sc.joint_kind, "world", i, (0.0, 0.0, z0), (0.0, 0.0, -half)))
        else:
            joints.append(_joint(n + i, sc.joint_kind, i - 1, i, (0.0, 0.0, half), (0.0, 0.0, -half)))
    return {"bodies": bodies, "joints": joints}


def _closed_chain(sc: Scenario) -> dict:
    """Serial chain whose last link closes back to the world pivot.

    The links trace a regular polygon in the vertical plane, hung sideways
    from the pivot so the loop swings and shears under gravity.  A fully
    stretched straight chain pinned at both ends would sit at the taut
    singular configuration where transverse loads cannot be carried by
    finite constraint forces, so the polygon is the articulable analogue of
    the horizontal start.
    """
    n = sc.n_links
    if n < 3:
        raise MechanismError("closed_chain needs at least 3 links to articulate")
    length = sc.link_length
    z0 = n * length
    half = length / 2.0
    circum = length / (2.0 * math.sin(math.pi / n))
    center = np.array([-circum, 0.0, z0])
    verts = [
        center + circum * np.array([math.sin(math.pi / 2 + 2 * math.pi * k / n), 0.0,
                                    math.cos(math.pi / 2 + 2 * math.pi * k / n)])
        for k in range(n + 1)
    ]
    bodies = []
    joints = []
    for i in range(1, n + 1):
        a, b = verts[i - 1], verts[i]
        bodies.append(_rod_body(i, (a + b) / 2.0, b - a, sc))
        if i == 1:
            joints.append(_joint(n + i, sc.joint_kind, "world", i, verts[0], (0.0, 0.0, -half)))
        else:
            joints.append(_joint(n + i, sc.joint_kind, i - 1, i, (0.0, 0.0, half), (0.0, 0.0, -half)))
    joints.append(_joint(2 * n + 1, sc.joint_kind, "world", n, verts[0], (0.0, 0.0, half)))
    return {"bodies": bodies, "joints": joints}


def _segmented_chain(sc: Scenario) -> dict:
    """A series of four-link closed-loop parallelogram segments.

    Each segment is a rhombus of four rods spanning one diagonal of length
    sqrt(2)·L along the chain direction; consecutive segments share their
    connection vertex.  Laid out horizontally along +x from a world hinge.
    All joints are revolute about world y, so segments fold within the
    vertical plane and pass through flat (overlapping-link) configurations.
    """
    k = sc.n_links
    length = sc.link_length
    diag = math.sqrt(2.0) * length
    z0 = 4 * k * length
    half = length / 2.0
    bodies = []
    joints = []
    n_bodies = 4 * k
    for j in range(1, k + 1):
        t = np.array([(j - 1) * diag, 0.0, z0])
        b = np.array([j * diag, 0.0, z0])
        l = t + np.array([diag / 2.0, 0.0, -diag / 2.0])
        r = t + np.array([diag / 2.0, 0.0, +diag / 2.0])
        tl, tr, bl, br = (4 * (j - 1) + i for i in range(1, 5))
        bodies.append(_rod_body(tl, (t + l) / 2.0, l - t, sc))
        bodies.append(_rod_body(tr, (t + r) / 2.0, r - t, sc))
        bodies.append(_rod_body(bl, (l + b) / 2.0, b - l, sc))
        bodies.append(_rod_body(br, (r + b) / 2.0, b - r, sc))
        jid = n_bodies + 5 * (j - 1)
        # connection at the top vertex: world for the first segment, the
        # previous segment's bottom-left rod otherwise
        if j == 1:
            joints.append(_joint(jid + 1, "revolute", "world", tl, t, (0.0, 0.0, -half)))
        else:
            joints.append(_joint(jid + 1, "revolute", tl - 2, tl, (0.0, 0.0, half), (0.0, 0.0, -half)))
        joints.append(_joint(jid + 2, "revolute", tl, tr, (0.0, 0.0, -half), (0.0, 0.0, -half)))
        joints.append(_joint(jid + 3, "revolute", tl, bl, (0.0, 0.0, half), (0.0, 0.0, -half)))
        joints.append(_joint(jid + 4, "revolute", tr, br, (0.0, 0.0, half), (0.0, 0.0, -half)))
        joints.append(_joint(jid + 5, "revolute", bl, br, (0.0, 0.0, half), (0.0, 0.0, half)))
    return {"bodies": bodies, "joints": joints}
