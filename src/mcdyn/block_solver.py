"""Block-structured LDU factorization and back-substitution.

Two solvers live here:

- A dense in-place LDU over an explicit matrix partitioned into blocks
  (scalar entries are the all-ones partition).  O(N^3) in the number of
  blocks; used as the reference solver in tests and as the timing
  baseline.
- A graph-ordered sparse in-place LDU over a :class:`BlockSystem`.  When
  the off-diagonal pattern is a tree and the elimination order places
  children before parents, factorization and back-substitution touch
  each node a constant number of times, run in O(N), and create no
  fill-in.  Loop-closure constraints are stacked into a single node
  appended after the root; fill is then confined to that node's row and
  column, and its diagonal is handled densely.

Neither solver pivots across blocks.  Constraint nodes start with an
exactly zero diagonal and become invertible through the Schur updates of
their eliminated neighbors; a constraint node reaching its pivot without
any update is reported as a modeling error (dangling constraint).

Pivot blocks are inverted with LAPACK.  The stacked loop node's pivot uses
a truncated-SVD pseudo-inverse that drops singular values below a small
multiple of the block scale: closed loops of parallel-axis joints carry
structurally redundant constraint rows, so its Schur complement is
rank-deficient by construction.  This selects one multiplier solution out
of the affine family, stably under rounding, without affecting body motion
(null-space components of the multipliers do not enter the equations of
motion); the iteration still drives the true residual to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DanglingConstraintError, SingularBlockError

# Node key of the stacked loop-closure node; always last in the order.
LOOP_NODE = "loop"

# An unrelieved block fails once max|A| * max|A^-1| reaches 1/_SINGULAR_RTOL.
_SINGULAR_RTOL = 1e-13

# Relative singular-value cut of the loop node's pseudo-inverse.
_LOOP_PIVOT_RELIEF = 1e-10


# ---------------------------------------------------------------------------
# pivot-block inverse


def ldu_inverse(block: np.ndarray, pivot_relief: float = 0.0) -> np.ndarray:
    """Invert one pivot block with LAPACK.

    Without relief, raises SingularBlockError for an exactly singular block,
    a non-finite inverse, or max|A| * max|A^-1| >= 1/_SINGULAR_RTOL.  With
    ``pivot_relief`` > 0, returns the truncated-SVD pseudo-inverse: singular
    values at or below ``pivot_relief * max|A|`` get weight 0, so deficient
    directions contribute nothing, and rounding noise cannot move the cut.
    """
    scale = np.abs(block).max(initial=0.0)
    if pivot_relief > 0.0:
        u, sig, vt = np.linalg.svd(block)
        keep = sig > pivot_relief * scale
        return (vt[keep].T / sig[keep]) @ u[:, keep].T
    k = block.shape[0]
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"exactly singular {k}x{k} block") from err
    growth = scale * np.abs(inv).max(initial=0.0)
    if not np.isfinite(inv).all() or growth * _SINGULAR_RTOL >= 1.0:
        raise SingularBlockError(f"ill-conditioned {k}x{k} block (max|A| max|A^-1| {growth:.3e})")
    return inv


# ---------------------------------------------------------------------------
# dense LDU


@dataclass
class DenseFactor:
    """In-place LDU factors of a block-partitioned dense matrix.

    ``matrix`` holds L strictly below the block diagonal (unit diagonal
    implied), the D blocks on the diagonal, and U strictly above (unit
    diagonal implied)."""

    matrix: np.ndarray
    offsets: list[int]
    diag_inv: list[np.ndarray]

    def _blk(self, i: int, j: int) -> np.ndarray:
        o = self.offsets
        return self.matrix[o[i] : o[i + 1], o[j] : o[j + 1]]

    @property
    def n_blocks(self) -> int:
        return len(self.offsets) - 1


def dense_ldu_factorize(
    matrix: np.ndarray,
    sizes: list[int] | None = None,
    pivot_relief: float = 0.0,
) -> DenseFactor:
    """Factorize a square matrix in place as L·D·U over a block partition.

    ``sizes`` lists the block sizes along the diagonal; omitted means a
    scalar (all-ones) partition.  Processes the diagonal top-left to
    bottom-right with no pivoting; raises SingularBlockError on a singular
    pivot block.
    """
    f = np.array(matrix, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("expected a square matrix")
    if sizes is None:
        sizes = [1] * f.shape[0]
    if sum(sizes) != f.shape[0]:
        raise ValueError("block sizes do not cover the matrix")
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    nb = len(sizes)

    def blk(i, j):
        return f[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]

    def setblk(i, j, val):
        f[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = val

    diag_inv: list[np.ndarray] = []
    for n in range(nb):
        for i in range(n):
            for j in range(i):
                setblk(n, i, blk(n, i) - blk(n, j) @ blk(j, j) @ blk(j, i))
                setblk(i, n, blk(i, n) - blk(i, j) @ blk(j, j) @ blk(j, n))
            setblk(n, i, blk(n, i) @ diag_inv[i])
            setblk(i, n, diag_inv[i] @ blk(i, n))
        for j in range(n):
            setblk(n, n, blk(n, n) - blk(n, j) @ blk(j, j) @ blk(j, n))
        diag_inv.append(ldu_inverse(blk(n, n), pivot_relief=pivot_relief))
    return DenseFactor(matrix=f, offsets=offsets, diag_inv=diag_inv)


def dense_ldu_solve(fact: DenseFactor, b: np.ndarray) -> np.ndarray:
    """Back-substitute a factorized system: returns x with L·D·U·x = b."""
    o = fact.offsets
    nb = fact.n_blocks
    x = np.array(b, dtype=float)

    def seg(i):
        return x[o[i] : o[i + 1]]

    for n in range(nb):
        for j in range(n):
            seg(n)[:] -= fact._blk(n, j) @ seg(j)
    for n in range(nb - 1, -1, -1):
        seg(n)[:] = fact.diag_inv[n] @ seg(n)
        for j in range(n + 1, nb):
            seg(n)[:] -= fact._blk(n, j) @ seg(j)
    return x


# ---------------------------------------------------------------------------
# sparse graph-ordered LDU


@dataclass
class BlockSystem:
    """A block matrix and right-hand side laid out over a mechanism graph.

    ``diag`` maps node id to its square diagonal block, ``offdiag`` maps
    ordered pairs (i, j) to the coupling block in row i, column j; a pair
    is present exactly when its transpose pair is (symmetric pattern,
    asymmetric values).  ``order`` is the elimination order, children
    before parents, loop node (if any) last.  ``rhs`` maps node id to its
    residual segment.
    """

    diag: dict
    offdiag: dict
    order: list
    rhs: dict
    # layout of the stacked loop node: [(constraint id, rows)] in stacking order
    loop_layout: list | None = None

    def copy(self) -> "BlockSystem":
        return BlockSystem(
            diag={k: v.copy() for k, v in self.diag.items()},
            offdiag={k: v.copy() for k, v in self.offdiag.items()},
            order=list(self.order),
            rhs={k: v.copy() for k, v in self.rhs.items()},
            loop_layout=None if self.loop_layout is None else list(self.loop_layout),
        )

    def assembled(self) -> tuple[np.ndarray, dict]:
        """Materialize the dense matrix in the system's node order.

        Returns the matrix and a map node -> slice of its rows/columns.
        """
        order = self.order
        sizes = [self.diag[n].shape[0] for n in order]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        slices = {n: slice(offsets[k], offsets[k + 1]) for k, n in enumerate(order)}
        dim = offsets[-1]
        full = np.zeros((dim, dim))
        for n in order:
            full[slices[n], slices[n]] = self.diag[n]
        for (i, j), blk in self.offdiag.items():
            full[slices[i], slices[j]] = blk
        return full, slices

    def assembled_rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs[n] for n in self.order])


def augment_loop_node(system: BlockSystem, loop_ids) -> BlockSystem:
    """Stack loop-closure constraint nodes into a single final node.

    The individual constraint nodes in ``loop_ids`` are removed and
    replaced by one node keyed :data:`LOOP_NODE`, placed last in the
    elimination order.  Blocks coupling the stacked node to the bodies it
    touches are materialized now; fill between the stacked node and other
    nodes appears lazily during factorization.  Returns the system
    unchanged when ``loop_ids`` is empty.
    """
    loop_ids = sorted(loop_ids)
    if not loop_ids:
        return system
    layout = [(cid, system.diag[cid].shape[0]) for cid in loop_ids]
    total = sum(r for _, r in layout)
    row_of = {}
    off = 0
    for cid, r in layout:
        row_of[cid] = slice(off, off + r)
        off += r

    diag = {k: v for k, v in system.diag.items() if k not in loop_ids}
    diag[LOOP_NODE] = np.zeros((total, total))
    rhs = {k: v for k, v in system.rhs.items() if k not in loop_ids}
    rhs[LOOP_NODE] = np.concatenate([system.rhs[cid] for cid in loop_ids])

    offdiag = {}
    loop_cols: dict = {}
    loop_rows: dict = {}
    for (i, j), blk in system.offdiag.items():
        if i in loop_ids:
            loop_rows.setdefault(j, np.zeros((total, system.diag[j].shape[0])))
            loop_rows[j][row_of[i], :] = blk
        elif j in loop_ids:
            loop_cols.setdefault(i, np.zeros((system.diag[i].shape[0], total)))
            loop_cols[i][:, row_of[j]] = blk
        else:
            offdiag[(i, j)] = blk
    for b, blk in loop_rows.items():
        offdiag[(LOOP_NODE, b)] = blk
    for b, blk in loop_cols.items():
        offdiag[(b, LOOP_NODE)] = blk

    order = [n for n in system.order if n not in loop_ids]
    order.append(LOOP_NODE)
    return BlockSystem(diag=diag, offdiag=offdiag, order=order, rhs=rhs, loop_layout=layout)


@dataclass
class SparseFactor:
    """Factored state of a BlockSystem: mutated blocks plus caches."""

    system: BlockSystem
    diag_inv: dict
    positions: dict
    adjacency: dict
    fill_events: list

    @property
    def fill_count(self) -> int:
        return len(self.fill_events)


def sparse_ldu_factorize(system: BlockSystem) -> SparseFactor:
    """Graph-ordered in-place LDU factorization of a BlockSystem.

    Eliminates nodes in ``system.order``; each eliminated node divides its
    couplings by its own diagonal and pushes a Schur update onto the
    diagonal of its not-yet-eliminated neighbors.  On a tree pattern every
    node has at most one such neighbor (its parent), no block outside the
    original pattern is written, and the cost is linear in the number of
    nodes.  With a stacked loop node, a node can have two later neighbors
    (parent and loop node); the cross updates materialize fill blocks in
    the loop node's row and column only.

    Mutates ``system`` in place and returns the factor state.
    """
    positions = {n: k for k, n in enumerate(system.order)}
    if len(positions) != len(system.diag):
        raise ValueError("elimination order does not cover all nodes")
    adjacency: dict = {n: set() for n in system.order}
    for (i, j) in system.offdiag:
        adjacency[i].add(j)
    diag = system.diag
    off = system.offdiag
    diag_inv: dict = {}
    updated: set = set()
    fill_events: list = []

    for c in system.order:
        relief = _LOOP_PIVOT_RELIEF if c == LOOP_NODE else 0.0
        try:
            inv_c = ldu_inverse(diag[c], pivot_relief=relief)
        except SingularBlockError as err:
            if c not in updated and not diag[c].any():
                raise DanglingConstraintError(
                    f"constraint node {c!r} reached its pivot with a zero diagonal "
                    "and no coupling updates"
                ) from err
            raise SingularBlockError(f"singular diagonal block at node {c!r}: {err}") from err
        diag_inv[c] = inv_c
        later = sorted(
            (p for p in adjacency[c] if positions[p] > positions[c]),
            key=positions.__getitem__,
        )
        for p in later:
            off[(p, c)] = off[(p, c)] @ inv_c
            off[(c, p)] = inv_c @ off[(c, p)]
        for p1 in later:
            for p2 in later:
                update = off[(p1, c)] @ diag[c] @ off[(c, p2)]
                if p1 == p2:
                    diag[p1] = diag[p1] - update
                    updated.add(p1)
                elif (p1, p2) in off:
                    off[(p1, p2)] = off[(p1, p2)] - update
                else:
                    off[(p1, p2)] = -update
                    adjacency[p1].add(p2)
                    adjacency[p2].add(p1)
                    fill_events.append((p1, p2))
    return SparseFactor(
        system=system,
        diag_inv=diag_inv,
        positions=positions,
        adjacency=adjacency,
        fill_events=fill_events,
    )


def sparse_ldu_solve(fact: SparseFactor) -> dict:
    """Back-substitute a factored BlockSystem; returns node -> solution segment.

    A forward sweep over the elimination order removes the contributions
    of already-processed neighbors, a reverse sweep applies the diagonal
    inverses and the parent (and loop-node) couplings.
    """
    system = fact.system
    pos = fact.positions
    off = system.offdiag
    x = {n: np.array(system.rhs[n], dtype=float) for n in system.order}
    for i in system.order:
        for c in sorted(
            (c for c in fact.adjacency[i] if pos[c] < pos[i]), key=pos.__getitem__
        ):
            x[i] -= off[(i, c)] @ x[c]
    for i in reversed(system.order):
        x[i] = fact.diag_inv[i] @ x[i]
        for p in sorted(
            (p for p in fact.adjacency[i] if pos[p] > pos[i]), key=pos.__getitem__
        ):
            x[i] -= off[(i, p)] @ x[p]
    return x


def pattern_report(system: BlockSystem, fact: SparseFactor) -> str:
    """Readable dump of the block pattern and the factorization trace."""
    lines = ["block system"]
    lines.append(f"  nodes: {len(system.order)}")
    lines.append(f"  order: {system.order}")
    for n in system.order:
        nbrs = sorted(
            (j for (i, j) in system.offdiag if i == n),
            key=lambda k: system.order.index(k),
        )
        lines.append(f"  node {n!r}: size {system.diag[n].shape[0]}, coupled to {nbrs}")
    if system.loop_layout:
        lines.append(f"  loop node stacks: {system.loop_layout}")
    lines.append(f"  fill events: {fact.fill_count}")
    for (i, j) in fact.fill_events:
        lines.append(f"    fill at ({i!r}, {j!r})")
    return "\n".join(lines)
