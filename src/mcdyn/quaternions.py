"""Unit-quaternion algebra for rigid-body kinematics.

Conventions used throughout the package:

- Quaternions are numpy arrays of shape (4,) stored scalar-first,
  ``q = [w, v1, v2, v3]``.  Serialization uses the same order (wxyz).
- Every function broadcasts over leading axes: a stack of quaternions
  has shape (..., 4) and a stack of vectors (..., 3), and a single
  quaternion or vector is the batch of one.
- Hamilton product, local-to-global rotation action: ``rotate(q, x)``
  maps a body-frame vector into the world frame, ``rotate(inverse(q), x)``
  maps back.
- Orientations are unit quaternions.  No operation renormalizes its
  output; norm drift is a measurable quantity, not something to hide.
- Rotational Jacobians are body-frame, in e of f(q ⊗ [1, e]) at e = 0.
  As R(q1 ⊗ q2) = R(q1) R(q2) for any q1, q2 (``rotation_matrix``),
  R(q ⊗ [1, e]) p = R(q) p - 2 R(q) [p]× e + O(e^2) for any q.

All operations are pure functions on value types and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import AngularRateError

# Conjugation matrix: TMAT @ q is the inverse of a unit quaternion.
TMAT = np.diag([1.0, -1.0, -1.0, -1.0])

# Vector-part selector: VMAT @ q drops the scalar part, VMAT.T @ x embeds
# a 3-vector as a pure quaternion.
VMAT = np.hstack([np.zeros((3, 1)), np.eye(3)])

_DIAG3 = np.arange(3)

# Component gathers: M(q) == q[..., _IDX] * _SIGN for each matrix below.
_CROSS_A = np.array([1, 2, 0])
_CROSS_B = np.array([2, 0, 1])
_SKEW_IDX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
_QUAT_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LMAT_SIGN = np.array(
    [[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]]
)
_RMAT_SIGN = np.array(
    [[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]]
)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product over the last axis, kept as a length-1 axis."""
    return (a * b).sum(axis=-1, keepdims=True)


def identity() -> np.ndarray:
    """The identity rotation [1, 0, 0, 0]."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of 3-vectors (faster than numpy's general version)."""
    return a[..., _CROSS_A] * b[..., _CROSS_B] - a[..., _CROSS_B] * b[..., _CROSS_A]


def skew(x: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix with skew(x) @ y == cross(x, y)."""
    return x[..., _SKEW_IDX] * _SKEW_SIGN


def lmat(q: np.ndarray) -> np.ndarray:
    """Left-multiplication matrix: lmat(q1) @ q2 == multiply(q1, q2)."""
    return q[..., _QUAT_IDX] * _LMAT_SIGN


def rmat(q: np.ndarray) -> np.ndarray:
    """Right-multiplication matrix: rmat(q2) @ q1 == multiply(q1, q2)."""
    return q[..., _QUAT_IDX] * _RMAT_SIGN


def multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 ⊗ q2."""
    w1, v1 = q1[..., :1], q1[..., 1:]
    w2, v2 = q2[..., :1], q2[..., 1:]
    return np.concatenate([w1 * w2 - _dot(v1, v2), w1 * v2 + w2 * v1 + cross(v1, v2)], axis=-1)


def inverse(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion (its conjugate).

    Raises ValueError for a near-zero quaternion instead of silently
    normalizing; callers are expected to hand in unit quaternions.
    """
    n = np.linalg.norm(q, axis=-1)
    if (n < 1e-8).any():
        raise ValueError(f"cannot invert near-zero quaternion (norm {n.min():.3e})")
    return q @ TMAT


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """The 3x3 matrix of the rotation action, VMAT @ rmat(q).T @ lmat(q) @ VMAT.T.

    Exact for any q, rotation only for unit q; R(q1 ⊗ q2) == R(q1) R(q2)
    for any q1, q2.  One product of the ten q_i q_j for the whole stack.
    """
    return ((q[..., _PAIR_I] * q[..., _PAIR_J]) @ _ROT_MAP).reshape(q.shape[:-1] + (3, 3))


def rotate(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rotate a body-frame vector x into the world frame."""
    w, v = q[..., :1], q[..., 1:]
    return (w * w - _dot(v, v)) * x + 2.0 * _dot(v, x) * v + 2.0 * w * cross(v, x)


def rotational_jacobian(q: np.ndarray, jac_q: np.ndarray) -> np.ndarray:
    """Reduce an (m, 4) Jacobian at unit q to the (m, 3) rotation Jacobian.

    ``jac_q`` is the ordinary Jacobian of an m-valued function of q.  The
    result jac_q L(q) V^T is the sensitivity to infinitesimal body-frame
    rotations; it matches the multiplicative finite-difference limit with
    perturbations q ⊗ [1, eps].
    """
    return (jac_q @ lmat(q))[..., 1:]


def rotate_jacobian(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The (3, 4) Jacobian of rotate(q, p) with respect to q, at fixed p.

    Exact for any q (rotate is quadratic in q).
    """
    w, v = q[..., :1], q[..., 1:]
    out = np.empty(np.broadcast_shapes(q.shape[:-1], p.shape[:-1]) + (3, 4))
    out[..., 0] = 2.0 * (w * p + cross(v, p))
    block = (
        v[..., :, None] * p[..., None, :] - p[..., :, None] * v[..., None, :] - w[..., None] * skew(p)
    )
    block[..., _DIAG3, _DIAG3] += _dot(p, v)
    out[..., 1:] = 2.0 * block
    return out


def _rate_scalar(w: np.ndarray, h: float) -> np.ndarray:
    """sqrt((2/h)^2 - w.w) per rate; AngularRateError if any ||w|| >= 2/h."""
    arg = (2.0 / h) ** 2 - (w * w).sum(axis=-1)
    if (arg <= 0.0).any():
        raise AngularRateError(
            f"time step {h} too large for angular rate "
            f"{np.linalg.norm(w, axis=-1).max():.6g} (needs ||w|| < 2/h)"
        )
    return np.sqrt(arg)


def orientation_update(q: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Advance a unit orientation by one step of body angular velocity w.

    Computes (h/2) L(q) [sqrt((2/h)^2 - w.w), w]; the scalar entry is chosen
    so the result has unit norm by construction (up to rounding), with no
    renormalization.  Requires ||w|| < 2/h.
    """
    return _orientation_update(q, w, np.asarray(_rate_scalar(w, h)), h)


def _orientation_update(q: np.ndarray, w: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """orientation_update(q, w, h) from its rate scalars s = _rate_scalar(w, h)."""
    step = np.concatenate([s[..., None], w], axis=-1)
    return (h / 2.0) * (lmat(q) @ step[..., None])[..., 0]


def orientation_update_jacobian(q: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """The (4, 3) derivative of orientation_update(q, w, h) with respect to w.

    Includes the -w/sqrt((2/h)^2 - w.w) sensitivity of the norm-preserving
    scalar entry.
    """
    s = np.asarray(_rate_scalar(w, h))
    inner = np.empty(w.shape[:-1] + (4, 3))
    inner[..., 0, :] = -w / s[..., None]
    inner[..., 1:, :] = np.eye(3)
    return (h / 2.0) * (lmat(q) @ inner)


def _update_rotation_jacobian(w: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """Δ(w) = (h^2/4) (s I + w w^T / s - [w]×): the update's body-frame rotation, s = _rate_scalar(w, h).

    orientation_update_jacobian(q, w, h) == lmat(q3) @ VMAT.T @ Δ(w) for
    any q, with q3 = orientation_update(q, w, h).
    """
    s = s[..., None]
    out = w[..., :, None] * (w / s)[..., None, :] - skew(w)
    out[..., _DIAG3, _DIAG3] += s
    return (0.25 * h * h) * out


# R(q) == (q[_PAIR_I] * q[_PAIR_J]) @ _ROT_MAP, row-major: the bilinear form
# _FORM[i, j] = VMAT rmat(e_i)^T lmat(e_j) VMAT^T folded onto the q_i q_j, i <= j
_PAIR_I, _PAIR_J = np.triu_indices(4)
_FORM = np.array([[VMAT @ rmat(a).T @ lmat(b) @ VMAT.T for b in np.eye(4)] for a in np.eye(4)])
_ROT_MAP = np.array([(_FORM[i, j] + _FORM[j, i] * (i != j)).ravel() for i, j in zip(_PAIR_I, _PAIR_J)])
