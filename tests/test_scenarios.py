import numpy as np
import pytest

from mcdyn.errors import MechanismError
from mcdyn.integrator import StepContext, total_energy
from mcdyn.mechanism import load_mechanism
from mcdyn.scenarios import Scenario, generate_scenario


class TestScenarioValidation:
    def test_bad_kind(self):
        with pytest.raises(MechanismError):
            Scenario(kind="spaceship")

    def test_bad_joint_kind(self):
        with pytest.raises(MechanismError):
            Scenario(kind="pendulum", joint_kind="prismatic")

    def test_bad_counts(self):
        with pytest.raises(MechanismError):
            Scenario(kind="pendulum", n_links=0)
        with pytest.raises(MechanismError):
            Scenario(kind="pendulum", h=0.0)

    @pytest.mark.parametrize("field", ["h", "tolerance", "duration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values(self, field, value):
        with pytest.raises(MechanismError, match=f"{field} must be finite"):
            Scenario(kind="pendulum", **{field: value})

    @pytest.mark.parametrize("value", [2.5, 1.0, "3"])
    def test_non_integer_link_count(self, value):
        with pytest.raises(MechanismError, match="n_links must be an integer"):
            Scenario(kind="pendulum", n_links=value)

    @pytest.mark.parametrize("field", ["link_length", "link_mass"])
    @pytest.mark.parametrize("value,message", [
        (0.0, "must be positive"),
        (-1.0, "must be positive"),
        (float("nan"), "must be finite"),
        (float("inf"), "must be finite"),
    ])
    def test_bad_link_parameters(self, field, value, message):
        with pytest.raises(MechanismError, match=f"{field} {message}"):
            Scenario(kind="pendulum", n_links=2, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("h", "0.01"), ("tolerance", [1]), ("duration", None), ("link_length", None), ("link_mass", "1"),
    ])
    def test_non_number_rejected(self, field, value):
        with pytest.raises(MechanismError, match=f"^{field} must be finite, got {value!r}$".replace("[", r"\[")):
            Scenario(kind="pendulum", **{field: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_link_count_rejected(self, value):
        with pytest.raises(MechanismError, match=f"^n_links must be an integer, got {value}$"):
            Scenario(kind="pendulum", n_links=value)

    def test_integer_like_link_count_taken(self):
        assert Scenario(kind="pendulum", n_links=np.int64(3)).n_links == 3

    def test_custom_file_not_generated(self):
        with pytest.raises(MechanismError):
            generate_scenario(Scenario(kind="custom_file"))

    def test_n_steps(self):
        assert Scenario(kind="pendulum", h=0.01, duration=10.0).n_steps == 1000


class TestPendulum:
    def test_single_link_counts(self):
        data = generate_scenario(Scenario(kind="pendulum", n_links=1))
        assert len(data["bodies"]) == 1
        assert len(data["joints"]) == 1
        mech = load_mechanism(data)
        assert not mech.graph.loop_joints

    def test_horizontal_max_potential(self):
        n = 3
        mech = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=n)))
        mech.initialize(0.01)
        # all centers at pivot height n * L, chain along +x
        for i, bid in enumerate(mech.body_ids, start=1):
            x = mech.bodies[bid].state.x2
            assert np.isclose(x[2], n * 1.0)
            assert np.isclose(x[0], (i - 0.5) * 1.0)
        assert np.isclose(total_energy(mech, StepContext(h=0.01)), n * 9.81 * n)

    def test_joint_kinds(self):
        ball = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2, joint_kind="ball")))
        rev = load_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)))
        assert all(j.rows == 3 for j in ball.joints.values())
        assert all(j.rows == 5 for j in rev.joints.values())

    def test_link_parameters(self):
        sc = Scenario(kind="pendulum", n_links=2, link_mass=2.5, link_length=0.5)
        mech = load_mechanism(generate_scenario(sc))
        body = mech.bodies[1]
        assert body.mass == 2.5
        assert np.isclose(body.inertia[0, 0], 2.5 * (3 * 0.05**2 + 0.25) / 12)


    def test_exact_geometry(self):
        data = generate_scenario(Scenario(kind="pendulum", n_links=3, link_length=0.7))
        z0 = 2.0999999999999996  # 3 * 0.7
        assert [(b["id"], b["position"], b["quaternion"]) for b in data["bodies"]] == [
            (1, [0.35, 0.0, z0], [0.7071067811865476, 0.0, 0.7071067811865475, 0.0]),
            (2, [1.0499999999999998, 0.0, z0], [0.7071067811865476, 0.0, 0.7071067811865475, 0.0]),
            (3, [1.75, 0.0, z0], [0.7071067811865476, 0.0, 0.7071067811865475, 0.0]),
        ]
        assert [(j["id"], j["parent"], j["child"], j["parent_anchor"], j["child_anchor"]) for j in data["joints"]] == [
            (4, "world", 1, [0.0, 0.0, z0], [0.0, 0.0, -0.35]),
            (5, 1, 2, [0.0, 0.0, 0.35], [0.0, 0.0, -0.35]),
            (6, 2, 3, [0.0, 0.0, 0.35], [0.0, 0.0, -0.35]),
        ]


class TestClosedChain:
    def test_counts_and_loop(self):
        data = generate_scenario(Scenario(kind="closed_chain", n_links=4))
        assert len(data["bodies"]) == 4
        assert len(data["joints"]) == 5
        mech = load_mechanism(data)
        assert len(mech.graph.loop_joints) == 1

    def test_exact_joint_table(self):
        data = generate_scenario(Scenario(kind="closed_chain", n_links=4))
        assert [(j["id"], j["parent"], j["child"], j["parent_anchor"], j["child_anchor"]) for j in data["joints"]] == [
            (5, "world", 1, [0.0, 0.0, 4.0], [0.0, 0.0, -0.5]),
            (6, 1, 2, [0.0, 0.0, 0.5], [0.0, 0.0, -0.5]),
            (7, 2, 3, [0.0, 0.0, 0.5], [0.0, 0.0, -0.5]),
            (8, 3, 4, [0.0, 0.0, 0.5], [0.0, 0.0, -0.5]),
            (9, "world", 4, [0.0, 0.0, 4.0], [0.0, 0.0, 0.5]),  # the closing joint, back to the pivot
        ]

    def test_too_short_raises(self):
        with pytest.raises(MechanismError):
            generate_scenario(Scenario(kind="closed_chain", n_links=2))

    def test_polygon_closes_exactly(self):
        mech = load_mechanism(generate_scenario(Scenario(kind="closed_chain", n_links=6)))
        assert mech.max_constraint_violation() < 1e-12


class TestSegmentedChain:
    @pytest.mark.parametrize("k,bodies,joints", [(1, 4, 5), (3, 12, 15)])
    def test_counts(self, k, bodies, joints):
        data = generate_scenario(Scenario(kind="segmented_chain", n_links=k))
        assert len(data["bodies"]) == bodies
        assert len(data["joints"]) == joints
        mech = load_mechanism(data)
        assert len(mech.graph.loop_joints) == k


class TestFreeBody:
    def test_counts(self):
        data = generate_scenario(Scenario(kind="free_body"))
        assert len(data["bodies"]) == 1
        assert data["joints"] == []
