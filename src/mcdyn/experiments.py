"""Benchmark experiments: energy, drift, timing, convergence; CSV output.

Each experiment is deterministic given its scenario and the platform.  CSV
files carry the full configuration in leading ``#`` comment lines followed
by a stable header row; all numbers are written in full double precision
with locale-independent formatting.

Schemas:

- trajectory: step, time, body, x, y, z, qw, qx, qy, qz, vx, vy, vz,
  wx, wy, wz, energy, max_violation, newton_iterations, residual
- energy: time, energy_variational, energy_explicit
- drift: time, violation_variational, violation_acceleration
- timing: n, t_sparse_ms, t_dense_ms (dense blank where not measured)
- convergence: n, iteration, residual
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .baselines import heun_simulate
from .block_solver import dense_ldu_factorize, dense_ldu_solve, sparse_ldu_factorize, sparse_ldu_solve
from .integrator import (
    StepContext,
    assemble_residual,
    build_layout,
    newton_solve,
    newton_system,
    position_jacobian_blocks,
    run_simulation,
    step,
    total_energy,
)
from .mechanism import load_mechanism
from .scenarios import Scenario, generate_scenario


@dataclass
class RunReport:
    """One simulation run: configuration and per-step records."""

    config: dict
    records: list


def _scenario_config(sc: Scenario, **extra) -> dict:
    cfg = {
        "kind": sc.kind,
        "n_links": sc.n_links,
        "joint_kind": sc.joint_kind,
        "h": sc.h,
        "duration": sc.duration,
        "tolerance": sc.tolerance,
        "link_length": sc.link_length,
        "link_mass": sc.link_mass,
    }
    cfg.update(extra)
    return cfg


def _build(sc: Scenario):
    mech = load_mechanism(generate_scenario(sc))
    ctx = StepContext(h=sc.h)
    mech.initialize(sc.h)
    return mech, ctx


# ---------------------------------------------------------------------------
# experiments


@dataclass
class EnergyResult:
    config: dict
    times: list
    energy_variational: list
    energy_explicit: list
    initial_energy: float


def run_energy_experiment(sc: Scenario) -> EnergyResult:
    """Per-step total energy of the variational stepper and the explicit baseline."""
    mech, ctx = _build(sc)
    e0 = total_energy(mech, ctx)
    records = run_simulation(mech, ctx, sc.n_steps, tol=sc.tolerance)

    mech_b, ctx_b = _build(sc)
    base = heun_simulate(mech_b, ctx_b, sc.n_steps)
    return EnergyResult(
        config=_scenario_config(sc, experiment="energy"),
        times=[r.time for r in records],
        energy_variational=[r.energy for r in records],
        energy_explicit=[r.energy for r in base],
        initial_energy=e0,
    )


@dataclass
class DriftResult:
    config: dict
    times: list
    violation_variational: list
    violation_acceleration: list


def run_drift_experiment(sc: Scenario) -> DriftResult:
    """Max constraint violation per step, position-level vs acceleration-level."""
    mech, ctx = _build(sc)
    records = run_simulation(mech, ctx, sc.n_steps, tol=sc.tolerance)

    mech_b, ctx_b = _build(sc)
    base = heun_simulate(mech_b, ctx_b, sc.n_steps)
    return DriftResult(
        config=_scenario_config(sc, experiment="drift"),
        times=[r.time for r in records],
        violation_variational=[r.max_violation for r in records],
        violation_acceleration=[r.max_violation for r in base],
    )


@dataclass
class TimingRow:
    n: int
    t_sparse: float
    t_dense: float | None


def run_timing_experiment(
    n_list,
    repeats: int = 100,
    dense_max: int = 10,
    joint_kind: str = "revolute",
) -> list[TimingRow]:
    """Best-of-`repeats` wall time of one factorize-and-substitute pass.

    For each pendulum size, the mechanism is stepped three times to a
    representative warm state and the Newton matrix is assembled once; then
    the linear-solve kernel is timed: (a) the graph-ordered sparse pass, (b)
    the dense in-place pass over the same blocks, skipped above `dense_max`.
    Assembly cost is identical for both and excluded. The repeats run in
    rounds that time every size once, so a slow spell of the host inflates
    one round of all sizes instead of every repeat of one size. Timings use
    a monotonic clock and the first (warm-up) round is discarded.
    """
    cases = []
    for n in n_list:
        sc = Scenario(kind="pendulum", n_links=int(n), joint_kind=joint_kind)
        mech, ctx = _build(sc)
        for _ in range(3):
            step(mech, ctx)
        layout = build_layout(mech)
        pos_blocks = position_jacobian_blocks(mech)
        f = assemble_residual(mech, ctx, layout, pos_blocks)
        system = newton_system(mech, ctx, layout, f, pos_blocks)
        dense = None
        if n <= dense_max:
            full, _ = system.assembled()
            sizes = [system.diag[node].shape[0] for node in system.order]
            dense = (full, sizes, system.assembled_rhs())
        cases.append((int(n), system, dense))

    best_sparse = [np.inf] * len(cases)
    best_dense = [np.inf] * len(cases)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(repeats + 1):
            for i, (n, system, dense) in enumerate(cases):
                work = system.copy()
                t0 = time.perf_counter()
                fact = sparse_ldu_factorize(work)
                sparse_ldu_solve(fact)
                dt = time.perf_counter() - t0
                if rep > 0:
                    best_sparse[i] = min(best_sparse[i], dt)
                if dense is not None:
                    full, sizes, b = dense
                    t0 = time.perf_counter()
                    fact = dense_ldu_factorize(full, sizes)
                    dense_ldu_solve(fact, b)
                    dt = time.perf_counter() - t0
                    if rep > 0:
                        best_dense[i] = min(best_dense[i], dt)
    finally:
        if gc_was_enabled:
            gc.enable()
    return [
        TimingRow(
            n=n,
            t_sparse=float(best_sparse[i]),
            t_dense=float(best_dense[i]) if dense is not None else None,
        )
        for i, (n, _, dense) in enumerate(cases)
    ]


def run_convergence_experiment(n_list, tolerance: float = 1e-10, joint_kind: str = "revolute") -> dict:
    """Residual norm per Newton iteration for the first step from rest.

    Returns {n: [||f|| before iterating, after iteration 1, ...]}.
    """
    out = {}
    for n in n_list:
        sc = Scenario(kind="pendulum", n_links=int(n), joint_kind=joint_kind, tolerance=tolerance)
        mech, ctx = _build(sc)
        info = newton_solve(mech, ctx, tol=tolerance)
        out[int(n)] = list(info.history)
    return out


# ---------------------------------------------------------------------------
# linear-fit helper and CSV output


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path, config: dict, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(config):
            fh.write(f"# {key} = {config[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_trajectory_csv(path, report: RunReport) -> None:
    header = [
        "step", "time", "body",
        "x", "y", "z", "qw", "qx", "qy", "qz",
        "vx", "vy", "vz", "wx", "wy", "wz",
        "energy", "max_violation", "newton_iterations", "residual",
    ]
    rows = []
    for rec in report.records:
        for bid, x, q, v, w in rec.bodies or []:
            rows.append(
                [rec.step, rec.time, bid, *x, *q, *v, *w,
                 rec.energy, rec.max_violation, rec.iterations, rec.residual]
            )
    _write_csv(path, report.config, header, rows)


def write_energy_csv(path, result: EnergyResult) -> None:
    header = ["time", "energy_variational", "energy_explicit"]
    rows = zip(result.times, result.energy_variational, result.energy_explicit)
    cfg = dict(result.config, initial_energy=result.initial_energy)
    _write_csv(path, cfg, header, rows)


def write_drift_csv(path, result: DriftResult) -> None:
    header = ["time", "violation_variational", "violation_acceleration"]
    rows = zip(result.times, result.violation_variational, result.violation_acceleration)
    _write_csv(path, result.config, header, rows)


def write_timing_csv(path, rows: list[TimingRow], config: dict) -> None:
    header = ["n", "t_sparse_ms", "t_dense_ms"]
    out = [
        [r.n, r.t_sparse * 1e3, None if r.t_dense is None else r.t_dense * 1e3]
        for r in rows
    ]
    _write_csv(path, config, header, out)


def write_convergence_csv(path, traces: dict, config: dict) -> None:
    header = ["n", "iteration", "residual"]
    rows = []
    for n in sorted(traces):
        for it, res in enumerate(traces[n]):
            rows.append([n, it, res])
    _write_csv(path, config, header, rows)
