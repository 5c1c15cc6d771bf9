"""Golden trajectories: seeded runs of the stepper against stored results.

Every run steps a mechanism with h = 0.01 and tol = 1e-10.  On steps 0-9
each body gets a world force drawn per axis from N(0, (m g)^2) by
``default_rng(1)``.  The per-step Newton iteration counts must equal the
stored ones, and the final x2, q2, v1 and w1 of every body must match to
1e-9.  This catches any change of results, not just a change of the
verified physical properties.

To compare the current code with the stored results, per run the stored
and current iteration totals and the largest final-state deviation (exit
code 1 when a deviation is above the state bound):

    PYTHONPATH=src python tests/test_golden_trajectories.py --diff

To store new results after an intended change of results:

    PYTHONPATH=src python tests/test_golden_trajectories.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_closed_chain, make_pendulum, make_segmented_chain, mixed_kind_pendulum
from mcdyn.integrator import StepContext, step

DATA = Path(__file__).parent / "data" / "golden_trajectories.json"
H = 0.01
TOL = 1e-10
KICK_STEPS = 10
STATE_TOL = 1e-9

RUNS = {
    "pendulum_20_revolute": (lambda: make_pendulum(20, "revolute"), 20),
    "segmented_chain_4": (lambda: make_segmented_chain(4), 10),
    "pendulum_5_ball": (lambda: make_pendulum(5, "ball"), 100),
    "closed_chain_4": (lambda: make_closed_chain(4), 100),
    "mixed_kind_pendulum": (mixed_kind_pendulum, 100),
}


def run(name):
    build, n_steps = RUNS[name]
    mech = build()
    mech.initialize(H)
    ctx = StepContext(h=H)
    rng = np.random.default_rng(1)
    kick = {b: rng.normal(0.0, mech.bodies[b].mass * ctx.gravity, 3) for b in mech.body_ids}
    iterations = []
    for k in range(n_steps):
        ctx.forces = kick if k < KICK_STEPS else {}
        iterations.append(step(mech, ctx, tol=TOL).iterations)
    final = {
        str(b): {knot: getattr(mech.bodies[b].state, knot).tolist() for knot in ("x2", "q2", "v1", "w1")}
        for b in mech.body_ids
    }
    return {"iterations": iterations, "final": final}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def deviations(got, want):
    """((body, knot), largest absolute deviation) of every stored final knot."""
    return [
        ((bid, knot), np.abs(np.array(got["final"][bid][knot]) - value).max())
        for bid, knots in want["final"].items()
        for knot, value in knots.items()
    ]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(golden, name):
    got, want = run(name), golden[name]
    assert got["iterations"] == want["iterations"]
    assert got["final"].keys() == want["final"].keys()
    for (bid, knot), dev in deviations(got, want):
        assert dev <= STATE_TOL, f"body {bid} {knot} off by {dev:.3e}"


def diff() -> int:
    """Print stored vs current iteration totals and state deviations; 1 if a state is off."""
    golden, worst = json.loads(DATA.read_text()), 0.0
    for name in sorted(RUNS):
        got, want = run(name), golden[name]
        (bid, knot), dev = max(deviations(got, want), key=lambda item: item[1])
        worst = max(worst, dev)
        print(
            f"{name}: iterations {sum(want['iterations'])} stored, {sum(got['iterations'])} now; "
            f"largest final-state deviation {dev:.3e} (body {bid} {knot})"
        )
    return int(not worst <= STATE_TOL)


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff())
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_trajectories.py --diff | --write")
    DATA.write_text(json.dumps({name: run(name) for name in sorted(RUNS)}, indent=1) + "\n")
    print(f"wrote {DATA}")
