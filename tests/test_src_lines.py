"""The line count of ``src/mcdyn`` may not grow unnoticed.

The count is that of ``cat src/mcdyn/*.py | wc -l``: the newlines of the
package's modules.  A change that adds lines raises ``LIMIT`` here and
says why; one that removes lines lowers it to the new count.
"""

from pathlib import Path

import mcdyn

LIMIT = 3509


def line_counts(root: Path) -> dict:
    """Newlines per module under ``root``, as ``wc -l`` counts them."""
    return {path.name: path.read_bytes().count(b"\n") for path in sorted(root.glob("*.py"))}


def test_src_lines_do_not_grow():
    counts = line_counts(Path(mcdyn.__file__).parent)
    total = sum(counts.values())
    assert total <= LIMIT, f"{total} lines:\n" + "\n".join(f"{n:6d} {name}" for name, n in counts.items())
