"""Maximal-coordinate rigid-body dynamics.

Rigid bodies carry their full 6-DOF pose; joints are explicit constraints
enforced at the position level through impulses.  Time stepping is implicit
and structure-preserving.  Each Newton system is solved by eliminating
every body with at most three joints in one batched pass, then a
graph-ordered sparse block LDU over the joints and the remaining hub
bodies that runs in linear time on loop-free mechanisms.  The loop-closure
joints of each independent cycle form one relieved node, whose pivot is
inverted by a truncated-SVD pseudo-inverse.
"""

from .block_solver import (
    LOOP_NODE,
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
