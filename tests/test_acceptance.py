"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here, not calibrated at runtime.
"""

import numpy as np

import mcdyn.quaternions as quat
from conftest import make_closed_chain, make_pendulum, make_segmented_chain, newton_system_at
from mcdyn.block_solver import (
    dense_ldu_factorize,
    dense_ldu_solve,
    sparse_ldu_factorize,
    sparse_ldu_solve,
)
from mcdyn.experiments import (
    linear_fit,
    run_convergence_experiment,
    run_drift_experiment,
    run_energy_experiment,
    run_timing_experiment,
)
from mcdyn.integrator import StepContext, angular_momentum, build_layout, step
from mcdyn.scenarios import Scenario
from test_block_solver import random_loop_system, random_tree_system, solve_dense_reference, sparse_solution_vector
from test_integrator import (
    dense_newton_matrix,
    fd_newton_matrix,
    free_body,
    randomized_feasible_state,
)


def _verdict(cid, ok, detail):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_newton_convergence():
    traces = run_convergence_experiment([1, 100], tolerance=1e-10)
    start_1, start_100 = traces[1][0], traces[100][0]
    ok = np.isclose(start_1, 9.81, rtol=0.01) and np.isclose(start_100, 98.1, rtol=0.01)
    reached = {n: min(traces[n][: 4]) for n in (1, 100)}
    ok = ok and all(v <= 1e-12 for v in reached.values())

    mech = make_pendulum(3)
    ctx = StepContext(h=0.01)
    counts = [step(mech, ctx, tol=1e-10).iterations for _ in range(300)]
    median = float(np.median(counts))
    p90 = float(np.percentile(counts, 90))
    ok = ok and median <= 4 and p90 <= 4
    _verdict(
        1,
        ok,
        f"initial residuals {start_1:.4f}/{start_100:.3f}, "
        f"min residual by iter 3: {max(reached.values()):.2e}, "
        f"iterations median {median:.0f}, p90 {p90:.0f}",
    )


def test_criterion_2_constraint_drift():
    sc = Scenario(kind="closed_chain", n_links=4, h=0.01, duration=10.0, tolerance=1e-10)
    result = run_drift_experiment(sc)
    worst = max(result.violation_variational)
    baseline_end = result.violation_acceleration[-1]
    ok = worst <= 1e-9 and baseline_end > 1e-4
    _verdict(
        2,
        ok,
        f"variational max violation {worst:.2e} (<= 1e-9), "
        f"acceleration-level at 10 s {baseline_end:.2e} (> 1e-4)",
    )


def test_criterion_3_energy_behavior():
    sc = Scenario(kind="pendulum", n_links=2, h=0.01, duration=60.0, tolerance=1e-10)
    result = run_energy_experiment(sc)
    e0 = result.initial_energy
    err_var = np.abs(np.array(result.energy_variational) - e0)
    rel = err_var.max() / abs(e0)
    times = np.array(result.times)
    slope = np.polyfit(times, np.array(result.energy_variational) - e0, 1)[0]
    no_drift = abs(slope) * times[-1] <= err_var.max()

    err_base = np.abs(np.array(result.energy_explicit) - e0)
    quarters = [err_base[len(err_base) * k // 4 - 1] for k in (1, 2, 3, 4)]
    growing = all(b > a for a, b in zip(quarters, quarters[1:]))
    ok = rel <= 0.02 and no_drift and growing and err_base[-1] >= 5.0 * err_var.max()
    _verdict(
        3,
        ok,
        f"variational |dE|/E0 {rel:.4f} (<= 0.02), slope*T/amp "
        f"{abs(slope) * times[-1] / err_var.max():.3f}, explicit/variational "
        f"{err_base[-1] / err_var.max():.0f}x (>= 5x), explicit growing={growing}",
    )


def test_criterion_4_linear_time():
    fit_ns = [5, 10, 20, 40, 80, 160]
    rows = run_timing_experiment(fit_ns + [100], repeats=25, dense_max=10)
    ts = {r.n: r.t_sparse for r in rows}
    td = {r.n: r.t_dense for r in rows}
    _, _, r2 = linear_fit(fit_ns, [ts[n] for n in fit_ns])
    ratio = ts[100] / ts[10]
    dense_ratio = td[10] / ts[10]
    ok = r2 >= 0.98 and 7.0 <= ratio <= 14.0 and dense_ratio >= 10.0
    _verdict(
        4,
        ok,
        f"R^2 {r2:.4f} (>= 0.98), t(100)/t(10) {ratio:.1f} (in [7, 14]), "
        f"dense/sparse at n=10 {dense_ratio:.1f}x (>= 10x)",
    )


def test_criterion_5_solver_equivalence():
    rng = np.random.default_rng(5)
    worst_tree = 0.0
    fills = 0
    for k in range(50):
        system = random_tree_system(rng, int(rng.integers(3, 16)))
        x_ref = solve_dense_reference(system)
        x_sparse, fact = sparse_solution_vector(system)
        worst_tree = max(worst_tree, np.linalg.norm(x_sparse - x_ref) / np.linalg.norm(x_ref))
        fills += fact.fill_count
    worst_loop = 0.0
    for k in range(20):
        system = random_loop_system(rng, int(rng.integers(4, 12)))
        x_ref = solve_dense_reference(system)
        x_sparse, _ = sparse_solution_vector(system)
        worst_loop = max(worst_loop, np.linalg.norm(x_sparse - x_ref) / np.linalg.norm(x_ref))

    # every test mechanism: the assembled Newton system is singular for
    # redundant loops, so equivalence means sparse and dense LDU agree
    worst_mech = 0.0
    builders = [
        lambda: make_pendulum(3, "revolute"),
        lambda: make_pendulum(3, "ball"),
        lambda: make_closed_chain(4),
        lambda: make_segmented_chain(2),
    ]
    for builder in builders:
        ctx = StepContext(h=0.01)
        mech = randomized_feasible_state(builder(), ctx, rng, warm_steps=2)
        system = newton_system_at(mech, ctx)
        full, _ = system.assembled()
        b = system.assembled_rhs()
        work = system.copy()
        sol = sparse_ldu_solve(sparse_ldu_factorize(work))
        x_sparse = np.concatenate([sol[n] for n in system.order])
        sizes = [system.diag[n].shape[0] for n in system.order]
        fact_dense = dense_ldu_factorize(full, sizes, pivot_relief=1e-10)
        x_dense = dense_ldu_solve(fact_dense, b)
        worst_mech = max(
            worst_mech, np.linalg.norm(x_sparse - x_dense) / np.linalg.norm(x_dense)
        )
    ok = worst_tree <= 1e-9 and worst_loop <= 1e-9 and worst_mech <= 1e-9 and fills == 0
    _verdict(
        5,
        ok,
        f"tree rel err {worst_tree:.2e}, loop rel err {worst_loop:.2e}, "
        f"mechanism sparse-vs-dense rel err {worst_mech:.2e} (all <= 1e-9), "
        f"tree fill-ins {fills}",
    )


def test_criterion_6_jacobian_correctness():
    rng = np.random.default_rng(6)
    builders = {
        "3-link revolute": lambda: make_pendulum(3, "revolute"),
        "3-link ball": lambda: make_pendulum(3, "ball"),
        "4-link closed": lambda: make_closed_chain(4),
    }
    worst = {}
    for name, builder in builders.items():
        dev = 0.0
        for _ in range(20):
            ctx = StepContext(h=0.01)
            mech = randomized_feasible_state(builder(), ctx, rng, warm_steps=2)
            dev = max(dev, np.abs(dense_newton_matrix(mech, ctx) - fd_newton_matrix(mech, ctx)).max())
        worst[name] = dev
    ok = all(v <= 1e-6 for v in worst.values())
    _verdict(
        6,
        ok,
        "max |analytic - finite difference|: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (all <= 1e-6)",
    )


def test_criterion_7_structural_invariants():
    # unit norm over 10^4 steps without renormalization
    mech = free_body(inertia=(1.0, 2.0, 3.0), w=(1.2, -0.8, 0.5))
    ctx = StepContext(h=0.01, gravity=0.0)
    mech.initialize(0.01)
    for _ in range(10_000):
        step(mech, ctx, tol=1e-10)
    norm_drift = abs(np.linalg.norm(mech.bodies[1].state.q2) - 1.0)

    # world-frame angular momentum of an isolated torque-free body
    mech_m = free_body(inertia=(1.0, 2.0, 3.0), w=(0.3, -0.5, 0.8))
    mech_m.initialize(0.01)
    L0 = angular_momentum(mech_m.bodies[1], 0.01)
    for _ in range(1_000):
        step(mech_m, ctx, tol=1e-12)
    momentum_drift = np.abs(angular_momentum(mech_m.bodies[1], 0.01) - L0).max()

    dims_ok = all(build_layout(make_pendulum(n)).dim == 11 * n for n in (1, 5, 17))
    ok = norm_drift <= 1e-12 and momentum_drift <= 1e-10 and dims_ok
    _verdict(
        7,
        ok,
        f"norm drift {norm_drift:.2e} (<= 1e-12 over 1e4 steps), momentum drift "
        f"{momentum_drift:.2e} (<= 1e-10 over 1e3 steps), dim(f)=11n {dims_ok}",
    )


def test_criterion_8_segmented_chain_robustness():
    mech = make_segmented_chain(3)
    ctx = StepContext(h=0.01)
    ez = np.array([0.0, 0.0, 1.0])
    worst_violation = 0.0
    min_opening = np.pi
    for _ in range(1000):
        step(mech, ctx, tol=1e-10)
        worst_violation = max(worst_violation, mech.max_constraint_violation())
        for seg in range(3):
            d1 = quat.rotate(mech.bodies[4 * seg + 1].state.q2, ez)
            d2 = quat.rotate(mech.bodies[4 * seg + 2].state.q2, ez)
            min_opening = min(min_opening, np.arccos(np.clip(d1 @ d2, -1.0, 1.0)))
    norm_drift = max(
        abs(np.linalg.norm(b.state.q2) - 1.0) for b in mech.bodies.values()
    )
    passed_singularity = min_opening < 0.1  # links nearly overlap at the fold
    ok = worst_violation <= 1e-9 and norm_drift <= 1e-12 and passed_singularity
    _verdict(
        8,
        ok,
        f"12 bodies / 3 loops over 10 s: max violation {worst_violation:.2e} (<= 1e-9), "
        f"norm drift {norm_drift:.2e} (<= 1e-12), min link opening {min_opening:.4f} rad "
        f"(passes through overlap)",
    )
