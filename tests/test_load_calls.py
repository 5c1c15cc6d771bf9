"""The calls one load of segmented_chain 48 makes from ``mcdyn`` code may not grow unnoticed.

The count is that of the calls, to Python and C functions alike, that
code under ``src/mcdyn`` makes during one ``load_mechanism`` of the
description, as ``sys.setprofile`` reports them, after a first load.  A
count does not move with the host, so it keeps a set-up gain that the
spread of timed runs would hide.  A change that adds calls raises
``LIMIT`` here and says why; one that removes calls lowers it to the new
count.
"""

import sys
from pathlib import Path

import mcdyn
from mcdyn.mechanism import load_mechanism
from mcdyn.scenarios import Scenario, generate_scenario

LIMIT = 17131


def calls_from(root: Path, fn, *args) -> int:
    """The calls that frames of code under ``root`` make while ``fn(*args)`` runs."""
    prefix = str(root)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        caller = frame.f_back if event == "call" else frame
        if event in ("call", "c_call") and caller is not None and caller.f_code.co_filename.startswith(prefix):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def test_load_calls_do_not_grow():
    description = generate_scenario(Scenario("segmented_chain", 48))
    load_mechanism(description)
    count = calls_from(Path(mcdyn.__file__).parent, load_mechanism, description)
    assert count <= LIMIT, f"{count} calls"
