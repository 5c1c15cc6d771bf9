"""Command-line interface: simulate mechanisms, generate scenarios, run benchmarks."""

from __future__ import annotations

import argparse
import sys

from .block_solver import pattern_report
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
from .integrator import StepContext, run_simulation
from .mechanism import load_mechanism, save_mechanism, step_count
from .scenarios import JOINT_KINDS, KINDS, Scenario, generate_scenario


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
    # One parent parser per shared option.  Commands given a parent share its action, default
    # included, so --duration, whose default differs per command, is added to each command.
    joint, out, h, tol = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    joint.add_argument("--joint", default="revolute", choices=JOINT_KINDS)
    out.add_argument("--out", required=True, help="output file path")
    h.add_argument("--h", type=float, default=0.01, help="time step in seconds")
    tol.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")

    sim = sub.add_parser("simulate", parents=[h, tol, out], help="integrate a mechanism file and write a trajectory CSV")
    sim.add_argument("mechanism", help="mechanism description file (YAML)")
    sim.add_argument("--duration", type=float, default=10.0, help="simulated time in seconds")
    sim.add_argument("--gravity", type=float, default=9.81, help="gravitational acceleration")
    sim.add_argument(
        "--dump-pattern",
        metavar="FILE",
        help="write the step's elimination plan (mech.plan) to FILE: the bodies eliminated first, "
        "then the sparse sweep's block pattern",
    )

    gen = sub.add_parser("gen", parents=[joint, out], help="generate a benchmark mechanism file")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--n", type=int, default=1, help="links (pendulum/chain) or segments (segmented)")
    gen.add_argument("--length", type=float, default=1.0, help="link length in meters")
    gen.add_argument("--mass", type=float, default=1.0, help="link mass in kilograms")

    bench = sub.add_parser("bench", help="run a benchmark experiment")
    bench_sub = bench.add_subparsers(dest="experiment", required=True)

    t = bench_sub.add_parser("timing", parents=[joint, out], help="per-step solve time, sparse vs dense")
    t.add_argument("--n-list", type=_parse_n_list, default=[5, 10, 20, 40, 80, 100, 160])
    t.add_argument("--repeats", type=int, default=100)
    t.add_argument("--dense-max", type=int, default=10, help="largest n for the dense baseline")

    e = bench_sub.add_parser("energy", parents=[h, tol, joint, out], help="energy trace, variational vs explicit")
    e.add_argument("--n", type=int, default=2)
    e.add_argument("--duration", type=float, default=60.0)
    e.set_defaults(kind="pendulum")

    d = bench_sub.add_parser("drift", parents=[h, tol, joint, out], help="constraint violation, position vs acceleration level")
    d.add_argument("--kind", default="closed_chain", choices=["closed_chain", "segmented_chain", "pendulum"])
    d.add_argument("--n", type=int, default=4)
    d.add_argument("--duration", type=float, default=10.0)

    c = bench_sub.add_parser("convergence", parents=[tol, joint, out], help="first-step Newton residual traces")
    c.add_argument("--n-list", type=_parse_n_list, default=[1, 10, 100])

    return parser


def _cmd_simulate(args) -> int:
    n_steps = step_count(args.duration, args.h)
    mech = load_mechanism(args.mechanism)
    ctx = StepContext(h=args.h, gravity=args.gravity)
    mech.initialize(args.h)
    if args.dump_pattern:
        with open(args.dump_pattern, "w", encoding="utf-8") as fh:
            plan, hubs = mech.plan, len(mech.plan.hubs)
            fh.write(
                f"{len(plan.first)} bodies eliminated first in one batch; "
                f"{len(plan.layout.order) - hubs} joint nodes" + f"; hubs kept as nodes: {hubs}" * bool(hubs) + "\n"
            )
            fh.write(pattern_report(plan.layout) + "\n")
    open(args.out, "a").close()  # an unwritable --out fails here, not after the run
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
            "measured": (
                "factorize+substitute of the full bodies-and-joints Newton system, built by the step's own "
                "builder with no body eliminated first, best of repeats; not the step's body-first sweep"
            ),
        }
        write_timing_csv(args.out, rows, cfg)
        slope, intercept, r2 = linear_fit([r.n for r in rows], [r.t_sparse for r in rows])
        print(f"sparse fit: t = {slope * 1e3:.6f} ms/link * n + {intercept * 1e3:.6f} ms (R^2 = {r2:.4f})")
        print("(full bodies-and-joints LDU, the paper's O(n) kernel; not the step's body-first sweep)")
    elif args.experiment in ("energy", "drift"):
        step_count(args.duration, args.h)  # rejects a bad step count before anything runs
        sc = Scenario(
            kind=args.kind, n_links=args.n, joint_kind=args.joint,
            h=args.h, duration=args.duration, tolerance=args.tol,
        )
        open(args.out, "a").close()  # an unwritable --out fails here, not after the run
        if args.experiment == "energy":
            result = run_energy_experiment(sc)
            write_energy_csv(args.out, result)
            dev = max(abs(e - result.initial_energy) for e in result.energy_variational)
            print(f"variational max |E - E0| = {dev:.6e} J over {args.duration} s")
        else:
            result = run_drift_experiment(sc)
            write_drift_csv(args.out, result)
            print(
                f"max violation: variational {max(result.violation_variational):.3e}, "
                f"acceleration-level {max(result.violation_acceleration, default=float('nan')):.3e}"
            )
        print("explicit baseline: " + ("ran every step" if result.explicit_stop is None else f"stopped at step {result.explicit_stop}"))
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
    except (SimulationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
