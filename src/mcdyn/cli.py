"""Command-line interface: simulate mechanisms, generate scenarios, run benchmarks."""

from __future__ import annotations

import argparse
import sys

from .block_solver import pattern_report, sparse_ldu_factorize
from .errors import SimulationError
from .experiments import (
    RunReport,
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
from .integrator import (
    StepContext,
    assemble_residual,
    build_layout,
    newton_system,
    position_jacobian_blocks,
    run_simulation,
)
from .mechanism import load_mechanism, save_mechanism
from .scenarios import Scenario, generate_scenario


def _parse_n_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdyn",
        description="Maximal-coordinate rigid-body dynamics: simulate, generate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a mechanism file and write a trajectory CSV")
    sim.add_argument("mechanism", help="mechanism description file (YAML)")
    sim.add_argument("--h", type=float, default=0.01, help="time step in seconds")
    sim.add_argument("--duration", type=float, default=10.0, help="simulated time in seconds")
    sim.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    sim.add_argument("--gravity", type=float, default=9.81, help="gravitational acceleration")
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument(
        "--dump-pattern",
        metavar="FILE",
        help="write the solver's block pattern and factorization trace to FILE",
    )

    gen = sub.add_parser("gen", help="generate a benchmark mechanism file")
    gen.add_argument("--kind", required=True, choices=["pendulum", "closed_chain", "segmented_chain", "free_body"])
    gen.add_argument("--n", type=int, default=1, help="links (pendulum/chain) or segments (segmented)")
    gen.add_argument("--joint", default="revolute", choices=["revolute", "ball"])
    gen.add_argument("--length", type=float, default=1.0, help="link length in meters")
    gen.add_argument("--mass", type=float, default=1.0, help="link mass in kilograms")
    gen.add_argument("--out", required=True, help="mechanism file path")

    bench = sub.add_parser("bench", help="run a benchmark experiment")
    bench_sub = bench.add_subparsers(dest="experiment", required=True)

    t = bench_sub.add_parser("timing", help="per-step solve time, sparse vs dense")
    t.add_argument("--n-list", type=_parse_n_list, default=[5, 10, 20, 40, 80, 100, 160])
    t.add_argument("--repeats", type=int, default=100)
    t.add_argument("--dense-max", type=int, default=10, help="largest n for the dense baseline")
    t.add_argument("--joint", default="revolute", choices=["revolute", "ball"])
    t.add_argument("--out", required=True)

    e = bench_sub.add_parser("energy", help="energy trace, variational vs explicit")
    e.add_argument("--n", type=int, default=2)
    e.add_argument("--h", type=float, default=0.01)
    e.add_argument("--duration", type=float, default=60.0)
    e.add_argument("--tol", type=float, default=1e-10)
    e.add_argument("--joint", default="revolute", choices=["revolute", "ball"])
    e.add_argument("--out", required=True)

    d = bench_sub.add_parser("drift", help="constraint violation, position vs acceleration level")
    d.add_argument("--kind", default="closed_chain", choices=["closed_chain", "segmented_chain", "pendulum"])
    d.add_argument("--n", type=int, default=4)
    d.add_argument("--h", type=float, default=0.01)
    d.add_argument("--duration", type=float, default=10.0)
    d.add_argument("--tol", type=float, default=1e-10)
    d.add_argument("--joint", default="revolute", choices=["revolute", "ball"])
    d.add_argument("--out", required=True)

    c = bench_sub.add_parser("convergence", help="first-step Newton residual traces")
    c.add_argument("--n-list", type=_parse_n_list, default=[1, 10, 100])
    c.add_argument("--tol", type=float, default=1e-10)
    c.add_argument("--joint", default="revolute", choices=["revolute", "ball"])
    c.add_argument("--out", required=True)

    return parser


def _cmd_simulate(args) -> int:
    mech = load_mechanism(args.mechanism)
    ctx = StepContext(h=args.h, gravity=args.gravity)
    mech.initialize(args.h)
    if args.dump_pattern:
        layout = build_layout(mech)
        pos_blocks = position_jacobian_blocks(mech)
        f = assemble_residual(mech, ctx, layout, pos_blocks)
        system = newton_system(mech, ctx, layout, f, pos_blocks)
        fact = sparse_ldu_factorize(system.copy())
        with open(args.dump_pattern, "w", encoding="utf-8") as fh:
            fh.write(pattern_report(system, fact) + "\n")
    n_steps = int(round(args.duration / args.h))
    records = run_simulation(mech, ctx, n_steps, tol=args.tol, record_bodies=True)
    report = RunReport(
        config={
            "mechanism": args.mechanism,
            "h": args.h,
            "duration": args.duration,
            "tolerance": args.tol,
            "gravity": args.gravity,
        },
        records=records,
    )
    write_trajectory_csv(args.out, report)
    print(f"wrote {len(records)} steps to {args.out}")
    return 0


def _cmd_gen(args) -> int:
    sc = Scenario(
        kind=args.kind,
        n_links=args.n,
        joint_kind=args.joint,
        link_length=args.length,
        link_mass=args.mass,
    )
    data = generate_scenario(sc)
    save_mechanism(data, args.out)
    load_mechanism(args.out)  # round-trip validation
    print(f"wrote {len(data['bodies'])} bodies, {len(data['joints'])} joints to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    if args.experiment == "timing":
        rows = run_timing_experiment(
            args.n_list, repeats=args.repeats, dense_max=args.dense_max, joint_kind=args.joint
        )
        cfg = {
            "experiment": "timing",
            "n_list": args.n_list,
            "repeats": args.repeats,
            "dense_max": args.dense_max,
            "joint_kind": args.joint,
            "measured": "factorize+substitute per Newton iteration, best of repeats",
        }
        write_timing_csv(args.out, rows, cfg)
        slope, intercept, r2 = linear_fit([r.n for r in rows], [r.t_sparse for r in rows])
        print(f"sparse fit: t = {slope * 1e3:.6f} ms/link * n + {intercept * 1e3:.6f} ms (R^2 = {r2:.4f})")
    elif args.experiment == "energy":
        sc = Scenario(
            kind="pendulum", n_links=args.n, joint_kind=args.joint,
            h=args.h, duration=args.duration, tolerance=args.tol,
        )
        result = run_energy_experiment(sc)
        write_energy_csv(args.out, result)
        dev = max(abs(e - result.initial_energy) for e in result.energy_variational)
        print(f"variational max |E - E0| = {dev:.6e} J over {args.duration} s")
    elif args.experiment == "drift":
        sc = Scenario(
            kind=args.kind, n_links=args.n, joint_kind=args.joint,
            h=args.h, duration=args.duration, tolerance=args.tol,
        )
        result = run_drift_experiment(sc)
        write_drift_csv(args.out, result)
        print(
            f"max violation: variational {max(result.violation_variational):.3e}, "
            f"acceleration-level {max(result.violation_acceleration):.3e}"
        )
    else:
        traces = run_convergence_experiment(args.n_list, tolerance=args.tol, joint_kind=args.joint)
        cfg = {"experiment": "convergence", "n_list": args.n_list, "tolerance": args.tol}
        write_convergence_csv(args.out, traces, cfg)
        for n in sorted(traces):
            print(f"n={n}: " + " -> ".join(f"{r:.3e}" for r in traces[n]))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
