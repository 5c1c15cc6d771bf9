"""Unit-quaternion algebra for rigid-body kinematics.

Conventions used throughout the package:

- Quaternions are numpy arrays of shape (4,) stored scalar-first,
  ``q = [w, v1, v2, v3]``.  Serialization uses the same order (wxyz).
- Hamilton product, local-to-global rotation action: ``rotate(q, x)``
  maps a body-frame vector into the world frame, ``rotate(inverse(q), x)``
  maps back.
- Orientations are unit quaternions.  No operation renormalizes its
  output; norm drift is a measurable quantity, not something to hide.

All operations are pure functions on value types and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

# Conjugation matrix: TMAT @ q is the inverse of a unit quaternion.
TMAT = np.diag([1.0, -1.0, -1.0, -1.0])

# Vector-part selector: VMAT @ q drops the scalar part, VMAT.T @ x embeds
# a 3-vector as a pure quaternion.
VMAT = np.hstack([np.zeros((3, 1)), np.eye(3)])

_EZ = np.array([0.0, 0.0, 1.0])


def identity() -> np.ndarray:
    """The identity rotation [1, 0, 0, 0]."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors (faster than numpy's general version)."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def skew(x: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix with skew(x) @ y == cross(x, y)."""
    return np.array(
        [
            [0.0, -x[2], x[1]],
            [x[2], 0.0, -x[0]],
            [-x[1], x[0], 0.0],
        ]
    )


def lmat(q: np.ndarray) -> np.ndarray:
    """Left-multiplication matrix: lmat(q1) @ q2 == multiply(q1, q2)."""
    w, v1, v2, v3 = q
    return np.array(
        [
            [w, -v1, -v2, -v3],
            [v1, w, -v3, v2],
            [v2, v3, w, -v1],
            [v3, -v2, v1, w],
        ]
    )


def rmat(q: np.ndarray) -> np.ndarray:
    """Right-multiplication matrix: rmat(q2) @ q1 == multiply(q1, q2)."""
    w, v1, v2, v3 = q
    return np.array(
        [
            [w, -v1, -v2, -v3],
            [v1, w, v3, -v2],
            [v2, -v3, w, v1],
            [v3, v2, -v1, w],
        ]
    )


def multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 ⊗ q2."""
    w1, v1 = q1[0], q1[1:]
    w2, v2 = q2[0], q2[1:]
    out = np.empty(4)
    out[0] = w1 * w2 - v1 @ v2
    out[1:] = w1 * v2 + w2 * v1 + cross(v1, v2)
    return out


def inverse(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion (its conjugate).

    Raises ValueError for a near-zero quaternion instead of silently
    normalizing; callers are expected to hand in unit quaternions.
    """
    n = np.linalg.norm(q)
    if n < 1e-8:
        raise ValueError(f"cannot invert near-zero quaternion (norm {n:.3e})")
    return TMAT @ q


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """The 3x3 matrix of the rotation action, VMAT @ rmat(q).T @ lmat(q) @ VMAT.T.

    Evaluated in closed form; exact for any q, rotation only for unit q.
    """
    w, v = q[0], q[1:]
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * skew(v)


def rotate(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rotate a body-frame vector x into the world frame."""
    w, v = q[0], q[1:]
    return (w * w - v @ v) * x + 2.0 * (v @ x) * v + 2.0 * w * cross(v, x)


def rotational_jacobian(q: np.ndarray, jac_q: np.ndarray) -> np.ndarray:
    """Reduce an (m, 4) Jacobian at unit q to the (m, 3) rotation Jacobian.

    ``jac_q`` is the ordinary Jacobian of an m-valued function of q.  The
    result jac_q L(q) V^T is the sensitivity to infinitesimal body-frame
    rotations; it matches the multiplicative finite-difference limit with
    perturbations q ⊗ [1, eps].
    """
    return jac_q @ lmat(q) @ VMAT.T


def rotate_jacobian(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The (3, 4) Jacobian of rotate(q, p) with respect to q, at fixed p.

    Exact for any q (rotate is quadratic in q).
    """
    w, v = q[0], q[1:]
    pv = p @ v
    out = np.empty((3, 4))
    out[:, 0] = 2.0 * (w * p + cross(v, p))
    block = v[:, None] * p[None, :] - p[:, None] * v[None, :] - w * skew(p)
    block[0, 0] += pv
    block[1, 1] += pv
    block[2, 2] += pv
    out[:, 1:] = 2.0 * block
    return out


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation of `angle` radians about `axis`."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    out = np.empty(4)
    out[0] = np.cos(half)
    out[1:] = np.sin(half) * axis / n
    return out


def _rate_scalar(w: np.ndarray, h: float) -> float:
    arg = (2.0 / h) ** 2 - w @ w
    if arg <= 0.0:
        from .errors import AngularRateError

        raise AngularRateError(
            f"time step {h} too large for angular rate {np.linalg.norm(w):.6g} (needs ||w|| < 2/h)"
        )
    return float(np.sqrt(arg))


def orientation_update(q: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Advance a unit orientation by one step of body angular velocity w.

    Computes (h/2) L(q) [sqrt((2/h)^2 - w.w), w]; the scalar entry is chosen
    so the result has unit norm by construction (up to rounding), with no
    renormalization.  Requires ||w|| < 2/h.
    """
    s = _rate_scalar(w, h)
    return (h / 2.0) * (lmat(q) @ np.concatenate([[s], w]))


def orientation_update_jacobian(q: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """The (4, 3) derivative of orientation_update(q, w, h) with respect to w.

    Includes the -w/sqrt((2/h)^2 - w.w) sensitivity of the norm-preserving
    scalar entry.
    """
    s = _rate_scalar(w, h)
    inner = np.vstack([-w / s, np.eye(3)])
    return (h / 2.0) * (lmat(q) @ inner)
