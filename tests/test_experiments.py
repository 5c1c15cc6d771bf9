import numpy as np
import pytest

import mcdyn.baselines as baselines
from conftest import make_closed_chain, make_pendulum
from mcdyn.experiments import (
    RunReport,
    dense_baseline,
    linear_fit,
    run_convergence_experiment,
    run_drift_experiment,
    run_energy_experiment,
    run_timing_experiment,
    write_convergence_csv,
    write_drift_csv,
    write_energy_csv,
    write_timing_csv,
    write_trajectory_csv,
)
from mcdyn.errors import SimulationError, SingularBlockError
from mcdyn.integrator import StepContext, newton_system_at, run_simulation
from mcdyn.mechanism import load_mechanism
from mcdyn.scenarios import Scenario, generate_scenario
from oracles import assembled, assembled_rhs


def read_csv(path):
    config = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                config[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return config, header, rows


class TestLinearFit:
    def test_perfect_line(self):
        slope, intercept, r2 = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert np.isclose(slope, 2.0)
        assert np.isclose(intercept, 1.0)
        assert np.isclose(r2, 1.0)


class TestEnergyExperiment:
    def test_short_run_shapes(self, tmp_path):
        sc = Scenario(kind="pendulum", n_links=2, duration=0.5)
        result = run_energy_experiment(sc)
        assert len(result.times) == 50
        assert len(result.energy_variational) == 50
        assert len(result.energy_explicit) == 50
        assert np.isclose(result.initial_energy, 2 * 9.81 * 2.0)
        path = tmp_path / "energy.csv"
        write_energy_csv(path, result)
        config, header, rows = read_csv(path)
        assert header == ["time", "energy_variational", "energy_explicit"]
        assert len(rows) == 50
        assert config["kind"] == "pendulum"


class TestDriftExperiment:
    def test_loop_free_is_trivially_tight(self, tmp_path):
        sc = Scenario(kind="pendulum", n_links=2, duration=0.3)
        result = run_drift_experiment(sc)
        assert max(result.violation_variational) <= 1e-9
        path = tmp_path / "drift.csv"
        write_drift_csv(path, result)
        _, header, rows = read_csv(path)
        assert header == ["time", "violation_variational", "violation_acceleration"]
        assert len(rows) == 30

    def test_closed_chain_contrast(self):
        sc = Scenario(kind="closed_chain", n_links=4, duration=1.0)
        result = run_drift_experiment(sc)
        assert max(result.violation_variational) <= 1e-9
        assert max(result.violation_acceleration) > 1e2 * max(result.violation_variational)


def test_energy_and_drift_read_one_paired_run():
    sc = Scenario(kind="closed_chain", n_links=4, duration=0.2)
    energy, drift = run_energy_experiment(sc), run_drift_experiment(sc)
    assert len(energy.times) == 20 and energy.times == drift.times
    for name in ("energy_variational", "energy_explicit", "violation_variational", "violation_acceleration"):
        assert getattr(energy, name) == getattr(drift, name), name
    assert energy.initial_energy == drift.initial_energy
    assert (energy.config.pop("experiment"), drift.config.pop("experiment")) == ("energy", "drift")
    assert energy.config == drift.config


class TestExplicitStop:
    """The explicit baseline ends at its first non-finite state or failed solve; the comparison records where."""

    def test_non_finite_rate_ends_the_baseline(self, tmp_path, monkeypatch):
        rates, calls = baselines._acceleration_rates, []

        def planted(*args):
            calls.append(None)
            out = rates(*args)
            if len(calls) == 7:  # step 4's first stage
                out[0, 7] = np.nan
            return out

        monkeypatch.setattr(baselines, "_acceleration_rates", planted)
        result = run_energy_experiment(Scenario(kind="pendulum", n_links=2, duration=0.1))
        assert result.explicit_stop == 4
        assert len(result.energy_explicit) == len(result.violation_acceleration) == 3
        assert len(result.times) == len(result.energy_variational) == 10
        path = tmp_path / "energy.csv"
        write_energy_csv(path, result)
        _, _, rows = read_csv(path)
        assert [row[2] == "" for row in rows] == [False] * 3 + [True] * 7
        assert all(row[1] for row in rows)

    def test_raising_solve_ends_the_baseline(self, tmp_path, monkeypatch):
        solve, calls = baselines.solve_reduced, []

        def planted(*args):
            calls.append(None)
            if len(calls) == 6:  # step 3's second stage
                raise SingularBlockError("planted")
            return solve(*args)

        monkeypatch.setattr(baselines, "solve_reduced", planted)
        result = run_drift_experiment(Scenario(kind="closed_chain", n_links=4, duration=0.1))
        assert result.explicit_stop == 3
        assert len(result.energy_explicit) == len(result.violation_acceleration) == 2
        assert len(result.violation_variational) == 10
        path = tmp_path / "drift.csv"
        write_drift_csv(path, result)
        _, _, rows = read_csv(path)
        assert [row[2] == "" for row in rows] == [False] * 2 + [True] * 8
        assert all(row[1] for row in rows)


class TestTimingExperiment:
    def test_rows_and_dense_cutoff(self, tmp_path):
        rows = run_timing_experiment([2, 4], repeats=2, dense_max=3)
        assert [r.n for r in rows] == [2, 4]
        assert rows[0].t_sparse > 0.0
        assert rows[0].t_dense is not None and rows[0].t_dense > 0.0
        assert rows[1].t_dense is None
        path = tmp_path / "timing.csv"
        write_timing_csv(path, rows, {"experiment": "timing"})
        _, header, data = read_csv(path)
        assert header == ["n", "t_sparse_ms", "t_dense_ms"]
        assert data[1][2] == ""  # dense skipped above the cutoff


@pytest.mark.parametrize("build", [lambda: make_pendulum(5), lambda: make_closed_chain(4)])
def test_dense_baseline_is_the_assembled_block_system(build):
    # bench timing's dense matrix, read straight off the sweep's storage, is
    # the dict view's, relieved loop node included, in the same node order
    mech, ctx = build(), StepContext(h=0.01)
    run_simulation(mech, ctx, 3)
    system = newton_system_at(mech, ctx)
    full, sizes, rhs = dense_baseline(system)
    view = system.as_block_system()
    np.testing.assert_array_equal(full, assembled(view)[0])
    np.testing.assert_array_equal(rhs, assembled_rhs(view))
    assert sizes == [view.diag[node].shape[0] for node in view.order]


class TestConvergenceExperiment:
    def test_single_link_trace(self, tmp_path):
        traces = run_convergence_experiment([1])
        hist = traces[1]
        assert np.isclose(hist[0], 9.81, rtol=1e-9)
        assert hist[-1] < 1e-10
        path = tmp_path / "conv.csv"
        write_convergence_csv(path, traces, {"experiment": "convergence"})
        _, header, rows = read_csv(path)
        assert header == ["n", "iteration", "residual"]
        assert len(rows) == len(hist)

    def test_deterministic_across_runs(self):
        a = run_convergence_experiment([2])
        b = run_convergence_experiment([2])
        assert a == b

    def test_no_size_is_an_error(self):
        with pytest.raises(SimulationError, match="at least one size"):
            run_convergence_experiment([])


class TestTrajectoryReport:
    def test_csv_schema(self, tmp_path):
        sc = Scenario(kind="pendulum", n_links=2, duration=0.1)
        mech = load_mechanism(generate_scenario(sc))
        records = run_simulation(mech, StepContext(h=sc.h), sc.n_steps, record_bodies=True)
        report = RunReport(config={"h": sc.h}, records=records)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, report)
        config, header, rows = read_csv(path)
        assert header[:4] == ["step", "time", "body", "x"]
        assert header[-4:] == ["energy", "max_violation", "newton_iterations", "residual"]
        assert len(rows) == 10 * 2  # steps x bodies
        assert config["h"] == "0.01"
        # locale-independent full-precision floats
        assert "." in rows[0][3]
