"""Reproducer for a LineSearchError under sustained random forcing.

Not a workload: the failing step is chaotic and moves with any rounding
change, so it would flip the failure gate on unrelated changes.  Run from
the repository root:

    python3 stepbench/linesearch_repro.py [--seed 0] [--joint revolute] [--steps 3000]

pendulum n = 5, h = 0.01, tol = 1e-10.  Every 10 steps (0, 10, 20, ...)
each body gets a fresh world force drawn per axis from N(0, (m g)^2) by
``np.random.default_rng(seed)``; the force is never removed.  Prints the
first failing step, the error and the largest link rate before it, or
that no step failed.  Exit code 0 either way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mcdyn  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--joint", choices=("revolute", "ball"), default="revolute")
    ap.add_argument("--steps", type=int, default=3000)
    args = ap.parse_args(argv)

    desc = mcdyn.generate_scenario(mcdyn.Scenario(kind="pendulum", n_links=5, joint_kind=args.joint))
    mech = mcdyn.load_mechanism(desc)
    ctx = mcdyn.StepContext(h=0.01)
    mech.initialize(ctx.h)
    rng = np.random.default_rng(args.seed)
    masses = {b["id"]: b["mass"] for b in desc["bodies"]}
    for k in range(args.steps):
        if k % 10 == 0:
            ctx.forces = {bid: rng.normal(0.0, masses[bid] * ctx.gravity, 3) for bid in sorted(masses)}
        rate = max(float(np.linalg.norm(b.state.w1)) for b in mech.bodies.values())
        try:
            mcdyn.step(mech, ctx, tol=1e-10)
        except mcdyn.SimulationError as err:
            print(f"step {k} failed: {type(err).__name__}: {err}")
            print(f"largest link rate before the step: {rate:.4g} rad/s (limit 2/h = {2 / ctx.h:g})")
            return 0
    print(f"no failure in {args.steps} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
