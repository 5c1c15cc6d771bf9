"""Each command parses to its documented defaults when given only its required arguments.

The options several commands share are defined once, as parent parsers,
and argparse shares a parent's action, default included, among the
commands given it.  A default set on a shared option for one command
would then change it for every other; these pins catch that.
"""

import pytest

from mcdyn.cli import build_parser

DEFAULTS = {
    "simulate": (
        ["simulate", "m.yaml", "--out", "o"],
        {"command": "simulate", "mechanism": "m.yaml", "out": "o", "h": 0.01, "duration": 10.0, "tol": 1e-10,
         "gravity": 9.81, "dump_pattern": None},
    ),
    "gen": (
        ["gen", "--kind", "pendulum", "--out", "o"],
        {"command": "gen", "kind": "pendulum", "out": "o", "n": 1, "joint": "revolute", "length": 1.0, "mass": 1.0},
    ),
    "timing": (
        ["bench", "timing", "--out", "o"],
        {"command": "bench", "experiment": "timing", "out": "o", "n_list": [5, 10, 20, 40, 80, 100, 160],
         "repeats": 100, "dense_max": 10, "joint": "revolute"},
    ),
    "energy": (
        ["bench", "energy", "--out", "o"],
        {"command": "bench", "experiment": "energy", "out": "o", "n": 2, "h": 0.01, "duration": 60.0, "tol": 1e-10,
         "joint": "revolute", "kind": "pendulum"},
    ),
    "drift": (
        ["bench", "drift", "--out", "o"],
        {"command": "bench", "experiment": "drift", "out": "o", "kind": "closed_chain", "n": 4, "h": 0.01,
         "duration": 10.0, "tol": 1e-10, "joint": "revolute"},
    ),
    "convergence": (
        ["bench", "convergence", "--out", "o"],
        {"command": "bench", "experiment": "convergence", "out": "o", "n_list": [1, 10, 100], "tol": 1e-10,
         "joint": "revolute"},
    ),
}


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_command_parses_to_its_defaults(name):
    argv, expected = DEFAULTS[name]
    assert vars(build_parser().parse_args(argv)) == expected
