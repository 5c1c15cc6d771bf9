import numpy as np
import pytest
from numpy.testing import assert_allclose

import mcdyn.quaternions as quat
from mcdyn.errors import AngularRateError
from oracles import (
    from_axis_angle,
    multiplicative_quat_difference,
    quat_from_rotmat,
    random_unit_quat,
    rotmat_from_axis_angle,
    rotmat_from_quat,
)


class TestMultiply:
    def test_identity(self, rng):
        q = random_unit_quat(rng)
        assert_allclose(quat.multiply(quat.identity(), q), q, atol=1e-15)
        assert_allclose(quat.multiply(q, quat.identity()), q, atol=1e-15)

    def test_inverse_property(self, rng):
        for _ in range(10):
            q = random_unit_quat(rng)
            assert_allclose(quat.multiply(q, quat.inverse(q)), quat.identity(), atol=1e-14)

    def test_against_rotation_matrix_composition(self):
        # two quarter turns about z and y; oracle composes the equivalent
        # rotation matrices and converts back
        q1 = np.array([0.7071, 0.0, 0.0, 0.7071])
        q2 = np.array([0.7071, 0.0, 0.7071, 0.0])
        product = quat.multiply(q1, q2)
        expected = np.array([0.49999041, -0.49999041, 0.49999041, 0.49999041])
        assert_allclose(product, expected, atol=1e-12)
        R = rotmat_from_quat(q1 / np.linalg.norm(q1)) @ rotmat_from_quat(q2 / np.linalg.norm(q2))
        q_oracle = quat_from_rotmat(R)
        unit = product / np.linalg.norm(product)
        if unit[0] < 0:
            unit = -unit
        assert_allclose(unit, q_oracle, atol=1e-12)

    def test_associativity(self, rng):
        for _ in range(20):
            a, b, c = (random_unit_quat(rng) for _ in range(3))
            left = quat.multiply(quat.multiply(a, b), c)
            right = quat.multiply(a, quat.multiply(b, c))
            assert_allclose(left, right, atol=1e-12)


class TestInverse:
    def test_identity(self):
        assert_allclose(quat.inverse(quat.identity()), quat.identity())

    def test_sign_flip(self):
        q = np.array([0.7071, 0.0, 0.0, 0.7071])
        assert_allclose(quat.inverse(q), [0.7071, 0.0, 0.0, -0.7071])

    def test_involution(self, rng):
        q = random_unit_quat(rng)
        assert_allclose(quat.inverse(quat.inverse(q)), q)

    def test_near_zero_raises(self):
        with pytest.raises(ValueError):
            quat.inverse(np.array([1e-12, 0.0, 0.0, 0.0]))


class TestSkew:
    def test_zero(self):
        assert_allclose(quat.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_basis_cross(self):
        ez, ex, ey = np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]
        assert_allclose(quat.skew(ez) @ ex, ey)

    def test_matches_cross_product(self, rng):
        for _ in range(10):
            x, y = rng.normal(size=3), rng.normal(size=3)
            direct = np.array(
                [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
            )
            assert_allclose(quat.skew(x) @ y, direct, atol=1e-14)
            assert_allclose(quat.skew(x).T, -quat.skew(x))
            assert_allclose(quat.cross(x, y), direct, atol=1e-14)


class TestQuatMatrices:
    def test_lmat_rmat_reproduce_product(self, rng):
        for _ in range(10):
            q1, q2 = random_unit_quat(rng), random_unit_quat(rng)
            prod = quat.multiply(q1, q2)
            assert_allclose(quat.lmat(q1) @ q2, prod, atol=1e-14)
            assert_allclose(quat.rmat(q2) @ q1, prod, atol=1e-14)

    def test_tmat_is_inverse(self, rng):
        q = random_unit_quat(rng)
        assert_allclose(quat.TMAT @ q, quat.inverse(q))

    def test_orthogonality_for_unit(self, rng):
        for _ in range(10):
            q = random_unit_quat(rng)
            assert_allclose(quat.lmat(q).T @ quat.lmat(q), np.eye(4), atol=1e-12)
            assert_allclose(quat.rmat(q).T @ quat.rmat(q), np.eye(4), atol=1e-12)


class TestRotate:
    def test_identity(self, rng):
        x = rng.normal(size=3)
        assert_allclose(quat.rotate(quat.identity(), x), x)

    def test_quarter_turn_about_z(self):
        q = from_axis_angle([0, 0, 1], np.pi / 2)
        assert_allclose(quat.rotate(q, np.array([1.0, 0, 0])), [0.0, 1.0, 0.0], atol=1e-15)

    def test_matches_matrix_product_form(self, rng):
        for _ in range(10):
            q, x = random_unit_quat(rng), rng.normal(size=3)
            via_lr = quat.VMAT @ quat.rmat(q).T @ quat.lmat(q) @ quat.VMAT.T @ x
            via_rl = quat.VMAT @ quat.lmat(q) @ quat.rmat(q).T @ quat.VMAT.T @ x
            assert_allclose(quat.rotate(q, x), via_lr, atol=1e-13)
            assert_allclose(quat.rotate(q, x), via_rl, atol=1e-13)
            assert_allclose(quat.rotation_matrix(q) @ x, via_lr, atol=1e-13)

    def test_matches_axis_angle_oracle(self, rng):
        for _ in range(10):
            axis, angle = rng.normal(size=3), rng.uniform(-np.pi, np.pi)
            q = from_axis_angle(axis, angle)
            x = rng.normal(size=3)
            assert_allclose(quat.rotate(q, x), rotmat_from_axis_angle(axis, angle) @ x, atol=1e-12)

    def test_norm_preserving(self, rng):
        for _ in range(10):
            q, x = random_unit_quat(rng), rng.normal(size=3)
            assert np.isclose(np.linalg.norm(quat.rotate(q, x)), np.linalg.norm(x))

    def test_distributes_over_cross(self, rng):
        q = random_unit_quat(rng)
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = quat.rotate(q, np.cross(a, b))
        rhs = np.cross(quat.rotate(q, a), quat.rotate(q, b))
        assert_allclose(lhs, rhs, atol=1e-12)


def rotational_gradient(q, grad4):
    """rotational_jacobian on the single row of a scalar function's gradient."""
    return quat.rotational_jacobian(q, grad4[None, :])[0]


class TestRotationMatrix:
    def test_multiplicative_for_any_quaternion(self, rng):
        # the identity behind the joint kernels' -2 R [p]x Jacobians
        for _ in range(10):
            q1, q2 = rng.normal(size=4), rng.normal(size=4)
            assert_allclose(
                quat.rotation_matrix(quat.multiply(q1, q2)),
                quat.rotation_matrix(q1) @ quat.rotation_matrix(q2),
                rtol=0, atol=1e-13 * (q1 @ q1) * (q2 @ q2),
            )

    def test_matches_component_formula(self, rng):
        for _ in range(10):
            q = random_unit_quat(rng)
            assert_allclose(quat.rotation_matrix(q), rotmat_from_quat(q), rtol=0, atol=1e-15)


class TestRotationalGradient:
    def test_zero_gradient(self, rng):
        assert_allclose(rotational_gradient(random_unit_quat(rng), np.zeros(4)), np.zeros(3))

    def test_constant_function(self, rng):
        q = random_unit_quat(rng)
        fd = multiplicative_quat_difference(lambda _: 3.25, q)
        assert_allclose(fd.ravel(), np.zeros(3), atol=1e-9)

    def test_projected_rotation_component(self, rng):
        # f(q) = rotate(q, p) . e_z against the multiplicative difference quotient
        for _ in range(10):
            q, p = random_unit_quat(rng), rng.normal(size=3)
            grad4 = quat.rotate_jacobian(q, p).T @ np.array([0.0, 0.0, 1.0])
            analytic = rotational_gradient(q, grad4)
            fd = multiplicative_quat_difference(lambda qq: quat.rotate(qq, p)[2], q).ravel()
            assert_allclose(analytic, fd, atol=1e-6)

    def test_random_quadratic_functions(self, rng):
        # f(q) = a . A(q) b for random a, b
        for _ in range(5):
            q = random_unit_quat(rng)
            a, b = rng.normal(size=3), rng.normal(size=3)
            grad4 = quat.rotate_jacobian(q, b).T @ a
            analytic = rotational_gradient(q, grad4)
            fd = multiplicative_quat_difference(lambda qq: a @ quat.rotate(qq, b), q).ravel()
            assert_allclose(analytic, fd, atol=1e-6)


class TestRotateJacobian:
    def test_matches_central_differences(self, rng):
        for _ in range(10):
            q, p = random_unit_quat(rng), rng.normal(size=3)
            jac = quat.rotate_jacobian(q, p)
            eps = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = eps
                fd = (quat.rotate(q + e, p) - quat.rotate(q - e, p)) / (2 * eps)
                assert_allclose(jac[:, j], fd, atol=1e-8)


class TestOrientationUpdate:
    def test_zero_rate_is_identity_step(self, rng):
        q = random_unit_quat(rng)
        assert_allclose(quat.orientation_update(q, np.zeros(3), 0.01), q, atol=1e-15)

    def test_unit_norm_by_construction(self, rng):
        for _ in range(20):
            q = random_unit_quat(rng)
            w = rng.normal(size=3) * 30.0
            q3 = quat.orientation_update(q, w, 0.01)
            assert abs(np.linalg.norm(q3) - 1.0) < 1e-14

    def test_axis_angle_oracle(self):
        # one step about z turns by 2*asin(w*h/2)
        h, w = 0.01, 3.0
        q3 = quat.orientation_update(quat.identity(), np.array([0.0, 0.0, w]), h)
        angle = 2.0 * np.arcsin(w * h / 2.0)
        assert_allclose(rotmat_from_quat(q3), rotmat_from_axis_angle([0, 0, 1], angle), atol=1e-13)

    def test_rate_too_large(self):
        with pytest.raises(AngularRateError):
            quat.orientation_update(quat.identity(), np.array([0.0, 0.0, 201.0]), 0.01)

    @pytest.mark.parametrize("scale", [1.0, 0.6, 1.7])
    def test_rotation_jacobian_matches_quaternion_derivative(self, rng, scale):
        # orientation_update_jacobian == lmat(q3) VMAT^T Δ(w), for unit and non-unit q
        h = 0.01
        for _ in range(10):
            q, w = scale * random_unit_quat(rng), rng.normal(size=3) * 50.0
            jac = quat.orientation_update_jacobian(q, w, h)
            via_delta = quat.lmat(quat.orientation_update(q, w, h)) @ quat.VMAT.T @ quat._update_rotation_jacobian(w, quat._rate_scalar(w, h), h)
            assert np.abs(via_delta - jac).max() <= 1e-13 * np.abs(jac).max()

    def test_jacobian_matches_finite_differences(self, rng):
        h = 0.01
        for _ in range(5):
            q = random_unit_quat(rng)
            w = rng.normal(size=3) * 10.0
            jac = quat.orientation_update_jacobian(q, w, h)
            eps = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = eps
                fd = (
                    quat.orientation_update(q, w + e, h) - quat.orientation_update(q, w - e, h)
                ) / (2 * eps)
                assert_allclose(jac[:, j], fd, atol=1e-8)


def _unit_rows(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


H = 0.01
# name -> (function, argument shapes: "q" unit quaternion, "v" 3-vector,
# "w" angular rate below 2/h, "j" (2, 4) Jacobian, "a" angle)
BROADCAST_CASES = {
    "cross": (quat.cross, "vv"),
    "skew": (quat.skew, "v"),
    "lmat": (quat.lmat, "q"),
    "rmat": (quat.rmat, "q"),
    "multiply": (quat.multiply, "qq"),
    "inverse": (quat.inverse, "q"),
    "rotation_matrix": (quat.rotation_matrix, "q"),
    "rotate": (quat.rotate, "qv"),
    "rotational_jacobian": (quat.rotational_jacobian, "qj"),
    "rotate_jacobian": (quat.rotate_jacobian, "qv"),
    "from_axis_angle": (from_axis_angle, "va"),
    "orientation_update": (lambda q, w: quat.orientation_update(q, w, H), "qw"),
    "orientation_update_jacobian": (lambda q, w: quat.orientation_update_jacobian(q, w, H), "qw"),
    "update_rotation_jacobian": (lambda w: quat._update_rotation_jacobian(w, quat._rate_scalar(w, H), H), "w"),
    "_rate_scalar": (lambda w: quat._rate_scalar(w, H), "w"),
}


class TestBroadcasting:
    @staticmethod
    def _batch(rng, kind, n):
        return {
            "q": lambda: _unit_rows(rng, n),
            "v": lambda: rng.normal(size=(n, 3)),
            "w": lambda: rng.normal(size=(n, 3)) * 50.0,
            "j": lambda: rng.normal(size=(n, 2, 4)),
            "a": lambda: rng.uniform(-np.pi, np.pi, size=n),
        }[kind]()

    @pytest.mark.parametrize("name", sorted(BROADCAST_CASES))
    def test_batch_equals_row_by_row(self, rng, name):
        fn, kinds = BROADCAST_CASES[name]
        args = [self._batch(rng, k, 7) for k in kinds]
        batch = fn(*args)
        rows = np.array([fn(*(a[i] for a in args)) for i in range(7)])
        assert batch.shape == rows.shape
        assert_allclose(batch, rows, rtol=1e-15, atol=1e-15)

    def test_mixed_leading_axes(self, rng):
        # one quaternion per joint against two vectors per joint
        q, x = _unit_rows(rng, 5), rng.normal(size=(5, 2, 3))
        batch = quat.rotate(q[:, None], x)
        jac = quat.rotate_jacobian(q[:, None], x)
        for i in range(5):
            for k in range(2):
                assert_allclose(batch[i, k], quat.rotate(q[i], x[i, k]), rtol=1e-15, atol=1e-15)
                assert_allclose(jac[i, k], quat.rotate_jacobian(q[i], x[i, k]), rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("fn", [
        lambda q, w: quat._rate_scalar(w, H),
        lambda q, w: quat.orientation_update(q, w, H),
        lambda q, w: quat.orientation_update_jacobian(q, w, H),
        lambda q, w: quat._update_rotation_jacobian(w, quat._rate_scalar(w, H), H),
    ])
    def test_one_row_out_of_rate_domain_raises(self, rng, fn):
        q, w = _unit_rows(rng, 6), rng.normal(size=(6, 3))
        w[4] = [0.0, 2.0 / H, 0.0]  # exactly on the bound
        with pytest.raises(AngularRateError):
            fn(q, w)
        fn(np.delete(q, 4, axis=0), np.delete(w, 4, axis=0))
