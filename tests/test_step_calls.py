"""The calls a Newton iteration makes from ``mcdyn`` code may not grow unnoticed.

The count is that of the calls, to Python and C functions alike, that
code under ``src/mcdyn`` makes during 5 steps following a first step, as
``sys.setprofile`` reports them, divided by the Newton iterations of
those 5 steps.  Every step is kicked: each body gets a force drawn per
axis from N(0, (m g)^2) by ``default_rng(1)``.  A count does not move
with the host, so it keeps a gain that the spread of timed runs would
hide, above all on small mechanisms, whose steps the calls' own cost
dominates.  A change that adds calls raises a ``LIMIT`` here and says
why; one that removes calls lowers it to the new count.
"""

from pathlib import Path

import numpy as np
import pytest

import mcdyn
from conftest import make_pendulum, make_segmented_chain
from mcdyn.integrator import StepContext, step
from test_load_calls import calls_from

LIMIT = {"pendulum_5_ball": 199.2, "pendulum_80": 240.5, "segmented_chain_48": 331.0}  # to one decimal
BUILD = {
    "pendulum_5_ball": lambda: make_pendulum(5, "ball"),
    "pendulum_80": lambda: make_pendulum(80),
    "segmented_chain_48": lambda: make_segmented_chain(48),
}


def calls_per_iteration(mech, steps=5) -> float:
    """The calls from ``mcdyn`` frames per Newton iteration of ``steps`` kicked steps after a first one."""
    ctx = StepContext(h=0.01)
    rng = np.random.default_rng(1)
    ctx.forces = {b: rng.normal(0.0, mech.bodies[b].mass * ctx.gravity, 3) for b in mech.body_ids}
    step(mech, ctx)  # the first step starts from a predictor of its own
    infos = []
    count = calls_from(Path(mcdyn.__file__).parent, lambda: infos.extend(step(mech, ctx) for _ in range(steps)))
    return count / sum(info.iterations for info in infos)


@pytest.mark.parametrize("name", sorted(LIMIT))
def test_step_calls_do_not_grow(name):
    count = calls_per_iteration(BUILD[name]())
    assert round(count, 1) <= LIMIT[name], f"{count:.1f} calls per Newton iteration"
