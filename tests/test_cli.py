import pytest

from conftest import hub_star_description
from mcdyn.cli import main
from mcdyn.errors import SingularBlockError
from mcdyn.mechanism import save_mechanism
from mcdyn.scenarios import Scenario, generate_scenario


def test_gen_and_simulate_round_trip(tmp_path, capsys):
    mech_path = tmp_path / "pendulum.yaml"
    traj_path = tmp_path / "traj.csv"
    assert main(["gen", "--kind", "pendulum", "--n", "2", "--out", str(mech_path)]) == 0
    out = capsys.readouterr().out
    assert "2 bodies" in out
    assert (
        main(
            [
                "simulate", str(mech_path),
                "--h", "0.01", "--duration", "0.2", "--out", str(traj_path),
            ]
        )
        == 0
    )
    lines = [l for l in traj_path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 20 * 2  # header + steps x bodies


def test_simulate_dump_pattern(tmp_path):
    mech_path = tmp_path / "chain.yaml"
    assert main(["gen", "--kind", "closed_chain", "--n", "4", "--out", str(mech_path)]) == 0
    pattern_path = tmp_path / "pattern.txt"
    traj_path = tmp_path / "traj.csv"
    assert (
        main(
            [
                "simulate", str(mech_path),
                "--duration", "0.05", "--out", str(traj_path),
                "--dump-pattern", str(pattern_path),
            ]
        )
        == 0
    )
    text = pattern_path.read_text()
    assert "order" in text
    assert "loop" in text
    assert "fill events" in text
    # closed_chain 4: the 4 bodies go first; one 5-row relieved node for the
    # loop joint, last
    assert text.startswith("4 bodies eliminated first in one batch; 5 joint nodes\n")
    assert "  relieved nodes: 1\n    relieved node 'loop': 5 rows, loop joints [9]\n" in text


def test_simulate_dump_pattern_lists_one_relieved_node_per_loop(tmp_path):
    mech_path = tmp_path / "segments.yaml"
    assert main(["gen", "--kind", "segmented_chain", "--n", "3", "--out", str(mech_path)]) == 0
    pattern_path = tmp_path / "pattern.txt"
    args = ["simulate", str(mech_path), "--duration", "0.02", "--out", str(tmp_path / "traj.csv")]
    assert main([*args, "--dump-pattern", str(pattern_path)]) == 0
    text = pattern_path.read_text()
    assert (
        "  relieved nodes: 3\n"
        "    relieved node ('loop', 25): 5 rows, loop joints [25]\n"
        "    relieved node 'loop': 5 rows, loop joints [15]\n"
        "    relieved node ('loop', 20): 5 rows, loop joints [20]\n"
    ) in text


@pytest.mark.parametrize("kind,n,levels", [
    # each relieved node after its parallelogram's four joints
    ("segmented_chain", 3, [
        "    level 1: 5 nodes [27, 24, 21, 16, 13]",
        "    level 2: 3 nodes [26, 22, 14]",
        "    level 3: 3 nodes [('loop', 25), 19, 17]",
        "    level 4: 2 nodes [23, 'loop']",
        "    level 5: 1 node [('loop', 20)]",
        "    level 6: 1 node [18]",
    ]),
    # the chain's two ends and its middle, then what the middle coupled
    ("pendulum", 5, ["    level 1: 3 nodes [10, 8, 6]", "    level 2: 1 node [9]", "    level 3: 1 node [7]"]),
])
def test_simulate_dump_pattern_lists_the_levels(tmp_path, kind, n, levels):
    mech_path = tmp_path / "mech.yaml"
    assert main(["gen", "--kind", kind, "--n", str(n), "--out", str(mech_path)]) == 0
    pattern_path = tmp_path / "pattern.txt"
    args = ["simulate", str(mech_path), "--duration", "0.02", "--out", str(tmp_path / "traj.csv")]
    assert main([*args, "--dump-pattern", str(pattern_path)]) == 0
    text = pattern_path.read_text()
    assert "\n".join([f"  levels: {len(levels)}", *levels]) + "\n" in text


def test_simulate_dump_pattern_names_hubs(tmp_path):
    # the hub has 21 joints and stays a node of the sweep; its 20 rods go first
    mech_path = tmp_path / "hub.yaml"
    save_mechanism(hub_star_description(20), mech_path)
    pattern_path = tmp_path / "pattern.txt"
    args = ["simulate", str(mech_path), "--duration", "0.02", "--out", str(tmp_path / "traj.csv")]
    assert main([*args, "--dump-pattern", str(pattern_path)]) == 0
    text = pattern_path.read_text()
    assert text.startswith("20 bodies eliminated first in one batch; 21 joint nodes; hubs kept as nodes: 1\n")
    assert "fill events: 0" in text


def test_bench_convergence(tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    assert main(["bench", "convergence", "--n-list", "1,2", "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "n=1" in printed
    assert out_path.exists()


def test_bench_timing(tmp_path):
    out_path = tmp_path / "timing.csv"
    assert (
        main(
            [
                "bench", "timing",
                "--n-list", "2,3", "--repeats", "2", "--dense-max", "2",
                "--out", str(out_path),
            ]
        )
        == 0
    )
    assert out_path.exists()


def test_bench_energy_and_drift(tmp_path):
    e_path = tmp_path / "e.csv"
    d_path = tmp_path / "d.csv"
    assert main(["bench", "energy", "--n", "1", "--duration", "0.2", "--out", str(e_path)]) == 0
    assert (
        main(
            [
                "bench", "drift",
                "--kind", "closed_chain", "--n", "4", "--duration", "0.2",
                "--out", str(d_path),
            ]
        )
        == 0
    )
    assert e_path.exists() and d_path.exists()


@pytest.mark.parametrize("experiment", [["energy", "--n", "1"], ["drift", "--kind", "closed_chain", "--n", "4"]])
def test_bench_prints_where_the_explicit_baseline_stopped(tmp_path, capsys, monkeypatch, experiment):
    def fail(*args):
        raise SingularBlockError("planted")

    out_path = tmp_path / "e.csv"
    assert main(["bench", *experiment, "--duration", "0.05", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "explicit baseline: ran every step"
    monkeypatch.setattr("mcdyn.baselines.solve_reduced", fail)
    assert main(["bench", *experiment, "--duration", "0.05", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "explicit baseline: stopped at step 1"


@pytest.mark.parametrize("experiment", [["energy", "--n", "1"], ["drift", "--kind", "closed_chain", "--n", "4"]])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bench_non_finite_duration_is_an_error(tmp_path, capsys, experiment, value):
    out_path = tmp_path / "out.csv"
    code = main(["bench", *experiment, "--duration", value, "--out", str(out_path)])
    assert code == 1
    assert "error: duration must be finite" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("experiment", [["energy", "--n", "1"], ["drift", "--kind", "closed_chain", "--n", "4"]])
@pytest.mark.parametrize("duration,message", [
    ("0", "error: duration must be finite and positive, got 0.0"),
    ("-1", "error: duration must be finite and positive, got -1.0"),
    ("0.001", "error: duration 0.001 s gives no step of h = 0.01 s"),
])
def test_bench_duration_without_a_step_is_an_error(tmp_path, capsys, experiment, duration, message):
    out_path = tmp_path / "out.csv"
    code = main(["bench", *experiment, "--h", "0.01", "--duration", duration, "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out_path.exists()


@pytest.mark.parametrize("experiment", [["energy", "--n", "1"], ["drift", "--kind", "closed_chain", "--n", "4"]])
def test_bench_duration_with_too_many_steps_is_an_error(tmp_path, capsys, experiment):
    out_path = tmp_path / "out.csv"
    code = main(["bench", *experiment, "--h", "1e-150", "--duration", "1e300", "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: duration 1e+300 s gives too many steps of h = 1e-150 s\n"
    assert not out_path.exists()


# ten steps each, but (2/h)^2 overflows or falls below the normal floats
STEPS_OUTSIDE_THE_RATE_RANGE = [("1e-200", "1e-199"), ("1e200", "1e201")]


@pytest.mark.parametrize("h,duration", STEPS_OUTSIDE_THE_RATE_RANGE)
def test_bench_energy_step_outside_the_rate_range_is_an_error(tmp_path, capsys, h, duration):
    out_path = tmp_path / "e.csv"
    code = main(["bench", "energy", "--n", "2", "--h", h, "--duration", duration, "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: h must lie between about 1.5e-154 and 1.3e154, got {float(h)!r}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("h,duration", STEPS_OUTSIDE_THE_RATE_RANGE)
def test_simulate_step_outside_the_rate_range_is_an_error(tmp_path, capsys, h, duration):
    mech_path = tmp_path / "p2.yaml"
    save_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)), mech_path)
    traj_path = tmp_path / "t.csv"
    code = main(["simulate", str(mech_path), "--h", h, "--duration", duration, "--out", str(traj_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: h must lie between about 1.5e-154 and 1.3e154, got {float(h)!r}\n"
    assert not traj_path.exists()


def test_bench_convergence_without_a_size_is_an_error(tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    code = main(["bench", "convergence", "--n-list", ",", "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: the convergence experiment needs at least one size, got none\n"
    assert not out_path.exists()


@pytest.mark.parametrize("args,message", [
    (["--n-list", "2,3", "--repeats", "0"], "repeats must be at least 1"),
    (["--n-list", ","], "the timing fit needs at least two distinct sizes"),
    (["--n-list", "3"], "the timing fit needs at least two distinct sizes"),
    (["--n-list", "3,3"], "the timing fit needs at least two distinct sizes"),
])
def test_bench_timing_bad_input_is_an_error(tmp_path, capsys, args, message):
    out_path = tmp_path / "timing.csv"
    code = main(["bench", "timing", *args, "--out", str(out_path)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("option,value,message", [
    ("--length", "0", "link_length must be positive"),
    ("--length", "nan", "link_length must be finite"),
    ("--mass", "-1", "link_mass must be positive"),
])
def test_gen_bad_link_parameter_is_an_error(tmp_path, capsys, option, value, message):
    mech_path = tmp_path / "m.yaml"
    code = main(["gen", "--kind", "pendulum", "--n", "2", option, value, "--out", str(mech_path)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not mech_path.exists()


def test_missing_file_fails(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_invalid_mechanism_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "bodies:\n"
        "- {id: 1, mass: -1.0, inertia: [1,1,1,0,0,0], position: [0,0,0], quaternion: [1,0,0,0]}\n"
        "joints: []\n"
    )
    assert main(["simulate", str(bad), "--out", str(tmp_path / "t.csv")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("bodies:\njoints: []\n", "error: mechanism 'bodies' must be a list, got NoneType"),
    ("bodies: []\njoints: 3\n", "error: mechanism 'joints' must be a list, got int"),
])
def test_simulate_non_list_bodies_or_joints_is_an_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["simulate", str(bad), "--out", str(tmp_path / "t.csv")]) == 1
    assert message in capsys.readouterr().err


def test_simulate_bad_anchor_length_is_an_error(tmp_path, capsys):
    data = generate_scenario(Scenario(kind="pendulum", n_links=2))
    data["joints"][0]["parent_anchor"] = [0.0, 0.0]
    mech_path = tmp_path / "bad.yaml"
    save_mechanism(data, mech_path)
    code = main(["simulate", str(mech_path), "--duration", "0.02", "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "error: joint 3: parent_anchor must have 3 components" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,value",
    [("--h", "0"), ("--h", "nan"), ("--h", "-0.01"), ("--duration", "0"), ("--duration", "nan"), ("--duration", "-1")],
)
def test_simulate_bad_step_or_duration_is_an_error(tmp_path, capsys, option, value):
    mech_path = tmp_path / "pendulum.yaml"
    save_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)), mech_path)
    traj_path = tmp_path / "t.csv"
    code = main(["simulate", str(mech_path), "--out", str(traj_path), option, value])
    assert code == 1
    assert f"error: {option[2:]} must be finite and positive" in capsys.readouterr().err
    assert not traj_path.exists()


@pytest.mark.parametrize("h,duration,message", [
    ("0.01", "0.004", "error: duration 0.004 s gives no step of h = 0.01 s"),
    ("1e-150", "1e300", "error: duration 1e+300 s gives too many steps of h = 1e-150 s"),
])
def test_simulate_duration_without_a_whole_step_count_is_an_error(tmp_path, capsys, h, duration, message):
    mech_path = tmp_path / "pendulum.yaml"
    save_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)), mech_path)
    traj_path, pattern_path = tmp_path / "t.csv", tmp_path / "pattern.txt"
    code = main([
        "simulate", str(mech_path), "--h", h, "--duration", duration,
        "--out", str(traj_path), "--dump-pattern", str(pattern_path),
    ])
    assert code == 1
    assert capsys.readouterr().err == message + "\n"
    assert not traj_path.exists() and not pattern_path.exists()


@pytest.mark.parametrize("text", ["a,b", "2.5", "3,x"])
def test_bad_n_list_is_a_usage_error(tmp_path, capsys, text):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "convergence", "--n-list", text, "--out", str(tmp_path / "conv.csv")])
    assert exit_info.value.code == 2
    assert f"argument --n-list: bad n-list {text!r}" in capsys.readouterr().err


def test_gen_unwritable_output_is_an_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "p.yaml"
    assert main(["gen", "--kind", "pendulum", "--n", "2", "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"


def test_simulate_unwritable_output_is_an_error_before_the_run(tmp_path, capsys, monkeypatch):
    mech_path = tmp_path / "p2.yaml"
    save_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)), mech_path)
    monkeypatch.setattr("mcdyn.cli.run_simulation", lambda *args, **kwargs: pytest.fail("the run started"))
    code = main(["simulate", str(mech_path), "--duration", "0.02", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("experiment,runner", [
    (["energy", "--n", "1"], "run_energy_experiment"),
    (["drift", "--kind", "closed_chain", "--n", "4"], "run_drift_experiment"),
])
def test_bench_unwritable_output_is_an_error_before_the_run(tmp_path, capsys, monkeypatch, experiment, runner):
    out_path = tmp_path / "missing" / "e.csv"
    monkeypatch.setattr(f"mcdyn.cli.{runner}", lambda *args, **kwargs: pytest.fail("the run started"))
    code = main(["bench", *experiment, "--duration", "0.02", "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"


def test_simulate_output_file_written_over(tmp_path):
    # the early check opens --out without truncating it; the run then writes it whole
    mech_path, traj_path = tmp_path / "p2.yaml", tmp_path / "t.csv"
    save_mechanism(generate_scenario(Scenario(kind="pendulum", n_links=2)), mech_path)
    traj_path.write_text("stale\n" * 1000)
    assert main(["simulate", str(mech_path), "--duration", "0.02", "--out", str(traj_path)]) == 0
    assert "stale" not in traj_path.read_text()
