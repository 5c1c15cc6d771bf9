"""Benchmark experiments: energy, drift, timing, convergence; CSV output.

Each experiment is deterministic given its scenario and the platform.  CSV
files carry the full configuration in leading ``#`` comment lines followed
by a stable header row; all numbers are written in full double precision
with locale-independent formatting.

Schemas:

- trajectory: step, time, body, x, y, z, qw, qx, qy, qz, vx, vy, vz,
  wx, wy, wz, energy, max_violation, newton_iterations, residual
- energy: time, energy_variational, energy_explicit (blank past its stop)
- drift: time, violation_variational, violation_acceleration (likewise)
- timing: n, t_sparse_ms, t_dense_ms (dense blank where not measured)
- convergence: n, iteration, residual
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from .baselines import heun_simulate
from .block_solver import NodeSystem, dense_ldu_factorize, dense_ldu_solve, sparse_ldu_factorize, sparse_ldu_solve
from .errors import SimulationError
from .integrator import (
    StepContext,
    newton_solve,
    newton_system_at,
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


def _build(sc: Scenario):
    mech = load_mechanism(generate_scenario(sc))
    ctx = StepContext(h=sc.h)
    mech.initialize(sc.h)
    return mech, ctx


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ComparisonResult:
    """The variational stepper against the explicit baseline from one start: per-step energy and max violation."""

    config: dict
    times: list
    energy_variational: list
    energy_explicit: list
    violation_variational: list
    violation_acceleration: list
    initial_energy: float
    explicit_stop: int | None  # the step where the explicit run stopped (a state not finite, a failed solve); None if none


def _compare(sc: Scenario, experiment: str) -> ComparisonResult:
    mech, ctx = _build(sc)
    e0 = total_energy(mech, ctx)
    base = heun_simulate(mech, ctx, sc.n_steps)  # leaves the committed state for the variational run
    records = run_simulation(mech, ctx, sc.n_steps, tol=sc.tolerance)
    return ComparisonResult(
        config={**asdict(sc), "experiment": experiment},
        times=[r.time for r in records],
        energy_variational=[r.energy for r in records],
        energy_explicit=[r.energy for r in base],
        violation_variational=[r.max_violation for r in records],
        violation_acceleration=[r.max_violation for r in base],
        initial_energy=e0,
        explicit_stop=len(base) + 1 if len(base) < sc.n_steps else None,
    )


def run_energy_experiment(sc: Scenario) -> ComparisonResult:
    """Per-step total energy of the variational stepper and the explicit baseline."""
    return _compare(sc, "energy")


def run_drift_experiment(sc: Scenario) -> ComparisonResult:
    """Max constraint violation per step, position-level vs acceleration-level."""
    return _compare(sc, "drift")


def dense_baseline(system: NodeSystem) -> tuple:
    """The dense matrix, block sizes and right-hand side of ``system`` in its elimination order."""
    lay = system.layout
    at = {node: k for k, node in enumerate(lay.order)}
    full = np.zeros((len(lay.perm), len(lay.perm)))
    for (i, j), block in zip([(node, node) for node in lay.order] + lay.pairs, system.blocks):
        full[lay.segments[at[i]], lay.segments[at[j]]] = block
    return full, lay.sizes, system.rhs[lay.perm]


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
    representative warm state and the full Newton system, bodies and
    joints as graph nodes (:func:`newton_system_at`), is built once; then
    the linear-solve kernel is timed: (a) the numeric sparse factorize and
    substitute over that graph, the paper's O(n) block LDU, which is not
    the step's own sweep (that one eliminates the bodies with at most
    three joints in one batch first and sweeps the rest), (b) the dense
    in-place pass over the same blocks, skipped above `dense_max`.
    Assembly and the layout build are excluded. The repeats run in rounds
    that time every size once, so a slow spell of the host inflates one
    round of all sizes instead of every repeat of one size. Timings use a
    monotonic clock and the first (warm-up) round is discarded.  Raises
    SimulationError unless `repeats` is at least 1 and there are at least
    two distinct sizes to fit.
    """
    if repeats < 1:
        raise SimulationError(f"repeats must be at least 1, got {repeats}")
    if len(set(n_list)) < 2:
        raise SimulationError(f"the timing fit needs at least two distinct sizes, got {list(n_list)}")
    cases = []
    for n in n_list:
        sc = Scenario(kind="pendulum", n_links=int(n), joint_kind=joint_kind)
        mech, ctx = _build(sc)
        for _ in range(3):
            step(mech, ctx)
        system = newton_system_at(mech, ctx)
        cases.append((int(n), system, dense_baseline(system) if n <= dense_max else None))

    best_sparse = [np.inf] * len(cases)
    best_dense = [np.inf] * len(cases)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(repeats + 1):
            for i, (n, system, dense) in enumerate(cases):
                t0 = time.perf_counter()
                sparse_ldu_solve(sparse_ldu_factorize(system))
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

    Returns {n: [||f|| before iterating, after iteration 1, ...]}; SimulationError if ``n_list`` is empty.
    """
    if not len(n_list):
        raise SimulationError("the convergence experiment needs at least one size, got none")
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


def write_energy_csv(path, result: ComparisonResult) -> None:
    header = ["time", "energy_variational", "energy_explicit"]
    rows = zip_longest(result.times, result.energy_variational, result.energy_explicit)
    cfg = dict(result.config, initial_energy=result.initial_energy)
    _write_csv(path, cfg, header, rows)


def write_drift_csv(path, result: ComparisonResult) -> None:
    header = ["time", "violation_variational", "violation_acceleration"]
    rows = zip_longest(result.times, result.violation_variational, result.violation_acceleration)
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
