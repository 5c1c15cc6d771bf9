"""Independent reference implementations used as test oracles.

Everything here is written from standard textbook formulas, deliberately
avoiding the code paths under test: rotations go through explicit 3x3
matrices (Rodrigues / Shepperd), derivatives through finite differences,
and rigid-body motion through fine-step integration of the classical
equations.  The joint kernels' reference is their quaternion-derivative
form, which the library's rotation-matrix kernels replaced: the (3, 4)
derivatives of each rotated vector, reduced to body-frame rotations.
"""

from itertools import product

import numpy as np

import mcdyn.quaternions as quat
from mcdyn.block_solver import DenseFactor
from mcdyn.mechanism import WORLD, JointConstraint, Mechanism, RigidBody


def rotmat_from_quat(q):
    """Standard component formula for the rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotmat_from_axis_angle(axis, angle):
    """Rodrigues' rotation formula."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def quat_from_rotmat(R):
    """Shepperd's method, scalar-first output with w >= 0."""
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    q = q / np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def from_axis_angle(axis, angle):
    """Unit quaternion for a rotation of `angle` radians about `axis`; broadcasts over leading axes."""
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * np.asarray(angle, dtype=float)
    n = np.linalg.norm(axis, axis=-1, keepdims=True)
    if (n == 0.0).any():
        raise ValueError("rotation axis must be nonzero")
    out = np.empty(np.broadcast_shapes(half.shape, axis.shape[:-1]) + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = np.sin(half)[..., None] * axis / n
    return out


def axis_complement(axis):
    """The per-joint completion of a unit hinge axis to an orthonormal triad: (n1, n2)."""
    k = int(np.argmin(np.abs(axis)))
    n1 = np.cross(axis, np.eye(3)[k])
    n1 = n1 / np.linalg.norm(n1)
    return n1, np.cross(axis, n1)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def central_difference(fn, x, eps=1e-6):
    """Dense central-difference Jacobian of fn at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(fn(x))
    out = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = eps
        out[:, j] = (np.atleast_1d(fn(x + e)) - np.atleast_1d(fn(x - e))) / (2 * eps)
    return out


def multiplicative_quat_difference(fn, q, eps=1e-6):
    """Rotation-direction derivative of a function of a unit quaternion.

    Perturbs by the small rotation q (x) [1, eps*e_i] without renormalizing,
    matching the limit that defines the rotational gradient.
    """
    vals = []
    for i in range(3):
        d = np.zeros(3)
        d[i] = eps
        qp = _hamilton(q, np.concatenate([[1.0], d]))
        qm = _hamilton(q, np.concatenate([[1.0], -d]))
        vals.append((np.atleast_1d(fn(qp)) - np.atleast_1d(fn(qm))) / (2 * eps))
    return np.stack(vals, axis=-1)


def _hamilton(a, b):
    w1, v1 = a[0], a[1:]
    w2, v2 = b[0], b[1:]
    return np.concatenate([[w1 * w2 - v1 @ v2], w1 * v2 + w2 * v1 + np.cross(v1, v2)])


def euler_free_body(J, w0, t_end, n_substeps=20000):
    """Fine-step RK4 integration of the torque-free rigid-body equations.

    Returns the body-frame angular velocity at t_end.
    """
    J = np.asarray(J, dtype=float)
    Jinv = np.linalg.inv(J)
    w = np.asarray(w0, dtype=float).copy()
    dt = t_end / n_substeps

    def rate(w):
        return Jinv @ np.cross(J @ w, w)

    for _ in range(n_substeps):
        k1 = rate(w)
        k2 = rate(w + 0.5 * dt * k1)
        k3 = rate(w + 0.5 * dt * k2)
        k4 = rate(w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return w


def count_independent_cycles(n_vertices, edges):
    """Cycle-space dimension E - V + C of an undirected multigraph."""
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n_vertices
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return len(edges) - n_vertices + components


def _block_ids(fact):
    """Block index of each row (and column) of a DenseFactor's matrix."""
    return np.repeat(np.arange(len(fact.offsets) - 1), np.diff(fact.offsets))


def l_matrix(fact):
    """Unit block-lower-triangular L of an in-place dense LDU factor."""
    b = _block_ids(fact)
    return np.where(b[:, None] > b[None, :], fact.matrix, 0.0) + np.eye(b.size)


def d_matrix(fact):
    """Block-diagonal D of an in-place dense LDU factor."""
    b = _block_ids(fact)
    return np.where(b[:, None] == b[None, :], fact.matrix, 0.0)


def u_matrix(fact):
    """Unit block-upper-triangular U of an in-place dense LDU factor."""
    b = _block_ids(fact)
    return np.where(b[:, None] < b[None, :], fact.matrix, 0.0) + np.eye(b.size)


def dense_block_ldu(matrix, sizes, relieved, relief=1e-10):
    """Right-looking block LDU without pivoting, relieving the pivots the sparse sweep relieves.

    The pivots at the block positions in ``relieved`` are inverted by
    np.linalg.pinv truncated at the absolute cut relief·max|A|, the others
    by np.linalg.inv; each step subtracts A[rest, k] D^+ A[k, rest] from the
    trailing block.  Returns the factors in place, as a DenseFactor that
    mcdyn's dense_ldu_solve and the helpers above read.
    """
    f = np.array(matrix, dtype=float)
    offsets = [0, *np.cumsum(sizes).tolist()]
    inverses = []
    for k in range(len(sizes)):
        piv, rest = slice(offsets[k], offsets[k + 1]), slice(offsets[k + 1], None)
        d = f[piv, piv]
        if k in relieved:
            cut = relief * np.abs(d).max()
            d_inv = np.linalg.pinv(d, rcond=cut / max(np.linalg.norm(d, 2), cut))
        else:
            d_inv = np.linalg.inv(d)
        upper = d_inv @ f[piv, rest]
        f[rest, rest] -= f[rest, piv] @ upper
        f[rest, piv] = f[rest, piv] @ d_inv
        f[piv, rest] = upper
        inverses.append(d_inv)
    return DenseFactor(matrix=f, offsets=offsets, diag_inv=inverses)


def assembled(system):
    """The dense matrix of a BlockSystem in its node order, and a map node -> slice of its rows/columns."""
    order = system.order
    offsets = np.concatenate([[0], np.cumsum([system.diag[n].shape[0] for n in order])])
    slices = {n: slice(offsets[k], offsets[k + 1]) for k, n in enumerate(order)}
    full = np.zeros((offsets[-1], offsets[-1]))
    for n in order:
        full[slices[n], slices[n]] = system.diag[n]
    for (i, j), blk in system.offdiag.items():
        full[slices[i], slices[j]] = blk
    return full, slices


def assembled_rhs(system):
    """The right-hand side of a BlockSystem in its node order."""
    return np.concatenate([system.rhs[n] for n in system.order])


def elimination(layout):
    """Per position k of a SymbolicLayout, per later neighbour p: (p, block (p, k), block (k, p),
    its Schur updates as (block (k, q), target block (p, q))), blocks in the layout's numbering."""
    at = {node: k for k, node in enumerate(layout.order)}
    slot = {(k, k): k for k in range(len(layout.order))}
    for i, j in layout.pairs + layout.fill_events:
        slot[(at[i], at[j])] = len(slot)
    return [
        [(p, slot[(p, k)], slot[(k, p)], [(slot[(k, q)], slot[(p, q)]) for q in lk]) for p in lk]
        for k, lk in enumerate(layout.later)
    ]


def set_walk_elimination(order, sources, stacks):
    """A block pattern eliminated symbolically in ``order`` by walking neighbour sets, position by position.

    The reference for ``block_solver.SymbolicElimination``.  Positions
    number ``order``, each key of ``stacks`` standing for the nodes it maps
    to; ``sources`` are (row node, column node) pairs of a symmetric
    pattern.  Returns per position its later neighbours (ascending, fill
    included); the fill blocks as (node, node), in the order the walk adds
    them; the pattern's off-diagonal pairs as (node, node), first seen
    first; and the level bounds: where each maximal run of consecutive,
    mutually non-adjacent positions starts, then len(order).
    """
    at = {node: k for k, key in enumerate(order) for node in stacks.get(key, [key])}
    pattern = dict.fromkeys((at[i], at[j]) for i, j in sources)
    neighbours = [set() for _ in order]
    for p, q in pattern:
        neighbours[p].add(q)
    later, fill = [], []
    for k in range(len(order)):
        lk = sorted(p for p in neighbours[k] if p > k)
        for p in lk:
            missing = [q for q in lk if q != p and q not in neighbours[p]]
            neighbours[p].update(missing)
            fill += [(p, q) for q in missing]
        later.append(lk)
    bounds, blocked = [0], set()
    for k in range(len(order)):
        if k in blocked:
            bounds.append(k)
            blocked = set()
        blocked |= neighbours[k]
    bounds = list(dict.fromkeys(bounds + [len(order)]))
    return later, [(order[p], order[q]) for p, q in fill], [(order[p], order[q]) for p, q in pattern if p != q], bounds


def joint_pairs_by_body(groups, first):
    """``mechanism._joint_pairs`` found body by body: per body that ``first`` flags, every ordered pair of its joints.

    Returns the same (row group, column group, pairs, rows, cols) stacks,
    keyed in the order of their first term.
    """
    attached = {}  # body row -> [(group, side, position)]
    for g, group in enumerate(groups):
        sides, positions = np.nonzero(first[group.ends])
        for side, i, b in zip(sides.tolist(), positions.tolist(), group.ends[sides, positions].tolist()):
            attached.setdefault(b, []).append((g, side, i))
    stacks = {}  # (row group, column group) -> [((row id, column id), (side, position, side, position))]
    for b in sorted(attached):
        for (g, s, i), (h, t, j) in product(attached[b], attached[b]):
            if groups[g].ids[i] != groups[h].ids[j]:
                stacks.setdefault((g, h), []).append(((groups[g].ids[i], groups[h].ids[j]), (s, i, t, j)))
    out = []
    for (g, h), terms in stacks.items():
        pairs, at = zip(*terms)
        s, i, t, j = np.array(at).T
        out.append((g, h, list(pairs), (s, i), (t, j)))
    return out


def reconstruct(fact):
    """The matrix L D U that a dense LDU factor represents."""
    return l_matrix(fact) @ d_matrix(fact) @ u_matrix(fact)


def quaternion_joint_kernels(mech, group, x, q):
    """One kind group's residuals and orientation derivatives in the quaternion-derivative form.

    Joint by joint from the mechanism's JointConstraint definitions, at
    stacked body poses ``x``, ``q`` without a world row (a world parent
    sits at the origin with the identity orientation).  Returns the
    (M, rows) residuals, the (M, rows, 4) derivatives in the parent's and
    the child's orientation, each rotated vector differentiated with
    quat.rotate_jacobian, and the (M, 4) orientations of the parents and
    the children.  The fixed rows are the vector part of conj(target) q_b.
    """
    out = []
    for jid in group.ids:
        joint = mech.joints[jid]
        if joint.parent == "world":
            xa, qa = np.zeros(3), quat.identity()
        else:
            xa, qa = x[mech.body_index[joint.parent]], q[mech.body_index[joint.parent]]
        xb, qb = x[mech.body_index[joint.child]], q[mech.body_index[joint.child]]
        g = [xa + quat.rotate(qa, joint.p_a) - xb - quat.rotate(qb, joint.p_b)]
        ga, gb = [quat.rotate_jacobian(qa, joint.p_a)], [-quat.rotate_jacobian(qb, joint.p_b)]
        if joint.kind == "revolute":
            axis_w = quat.rotate(qa, joint.axis_a)
            for n in axis_complement(joint.axis_b):
                g.append([quat.rotate(qb, n) @ axis_w])
                ga.append([quat.rotate(qb, n) @ quat.rotate_jacobian(qa, joint.axis_a)])
                gb.append([axis_w @ quat.rotate_jacobian(qb, n)])
        elif joint.kind == "fixed_to_world":
            target = quat.lmat(joint.orientation_target).T[1:]
            g.append(target @ qb)
            ga.append(np.zeros((3, 4)))
            gb.append(target)
        out.append((np.concatenate(g), np.concatenate(ga), np.concatenate(gb), qa, qb))
    return tuple(np.array(part) for part in zip(*out))


def add_at_body_sums(mech, terms):
    """np.add.at of each kind group's (2, M, 6) ``terms`` into (N + 1, 6) body rows at the group's ends, group after group."""
    out = np.zeros((len(mech.body_ids) + 1, 6))
    for group, term in zip(mech.groups, terms):
        np.add.at(out, group.ends, term)
    return out


def subtract_at_back_substitution(mech, system, swept):
    """The unknowns of a body-eliminated system from the sweep's solution ``swept``: the rows of the
    bodies eliminated first are B^-1 (f_B - C x_J), C x_J taken off f_B joint end by joint end with np.subtract.at."""
    n = len(mech.body_ids)
    rest = system.body_rhs.copy()
    for group, col in zip(mech.groups, system.cols):
        np.subtract.at(rest, group.ends, (col @ swept[group.rows][..., None])[..., 0])
    out = swept.copy()
    out[: 6 * n] += (system.inverse[:n] @ rest[:n, :, None]).ravel()
    return out


def unchecked_mechanism(data):
    """The Mechanism a valid description declares, converted entry by entry without a check of its own.

    Each field goes through np.array(..., dtype=float); an inertia's (xx, yy, zz, xy, xz, yz) fill the
    symmetric matrix, a missing velocity is zero and a fixed joint's missing orientation_target is its
    child's quaternion.  Only the RigidBody, JointConstraint and Mechanism constructors check anything.
    """
    bodies, knots = {}, {}
    for entry in data["bodies"]:
        bid = int(entry["id"])
        xx, yy, zz, xy, xz, yz = np.array(entry["inertia"], dtype=float)
        inertia = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
        bodies[bid] = RigidBody(id=bid, mass=float(np.array(entry["mass"], dtype=float)), inertia=inertia)
        knots[bid] = [np.array(entry[key], dtype=float) for key in ("position", "quaternion")]
        knots[bid] += [np.array(entry.get(key, (0, 0, 0)), dtype=float) for key in ("velocity", "angular_velocity")]
    joints = {}
    for entry in data.get("joints", []):
        jid, kind, child = int(entry["id"]), str(entry["kind"]), int(entry["child"])
        extra = {}
        if kind == "revolute":
            extra = {"axis_a": np.array(entry["parent_axis"], dtype=float), "axis_b": np.array(entry["child_axis"], dtype=float)}
        if kind == "fixed_to_world":
            extra = {"orientation_target": np.array(entry.get("orientation_target", knots[child][1]), dtype=float)}
        joints[jid] = JointConstraint(
            id=jid, kind=kind, parent=WORLD if entry["parent"] == WORLD else int(entry["parent"]), child=child,
            p_a=np.array(entry["parent_anchor"], dtype=float), p_b=np.array(entry["child_anchor"], dtype=float), **extra,
        )
    ids = sorted(bodies)
    return Mechanism(bodies, joints, *(np.array([knots[b][k] for b in ids]) for k in range(4)))
