"""Maximal-coordinate rigid-body dynamics.

Rigid bodies carry their full 6-DOF pose; joints are explicit constraints
enforced at the position level through impulses.  Time stepping is implicit
and structure-preserving, and the per-step Newton systems are solved by a
graph-ordered sparse block LDU that runs in linear time on loop-free
mechanisms and stacks loop-closure constraints into one densely handled
node.
"""

from .block_solver import (
    LOOP_NODE,
    BlockSystem,
    augment_loop_node,
    dense_ldu_factorize,
    dense_ldu_solve,
    pattern_report,
    sparse_ldu_factorize,
    sparse_ldu_solve,
)
from .errors import (
    AngularRateError,
    DanglingConstraintError,
    LineSearchError,
    MechanismError,
    NewtonError,
    NonConvergenceError,
    SimulationError,
    SingularBlockError,
)
from .integrator import (
    StepContext,
    angular_momentum,
    newton_solve,
    run_simulation,
    step,
    total_energy,
)
from .mechanism import (
    WORLD,
    BodyState,
    JointConstraint,
    Mechanism,
    MechanismGraph,
    RigidBody,
    load_mechanism,
    save_mechanism,
)
from .scenarios import Scenario, generate_scenario

__version__ = "0.1.0"

__all__ = [
    "AngularRateError",
    "BlockSystem",
    "BodyState",
    "DanglingConstraintError",
    "JointConstraint",
    "LOOP_NODE",
    "LineSearchError",
    "Mechanism",
    "MechanismError",
    "MechanismGraph",
    "NewtonError",
    "NonConvergenceError",
    "RigidBody",
    "Scenario",
    "SimulationError",
    "SingularBlockError",
    "StepContext",
    "WORLD",
    "angular_momentum",
    "augment_loop_node",
    "dense_ldu_factorize",
    "dense_ldu_solve",
    "generate_scenario",
    "load_mechanism",
    "newton_solve",
    "pattern_report",
    "run_simulation",
    "save_mechanism",
    "sparse_ldu_factorize",
    "sparse_ldu_solve",
    "step",
    "total_energy",
]
